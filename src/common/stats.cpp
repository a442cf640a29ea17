#include "common/stats.h"

#include <sstream>

namespace rop {

double Scalar::sum() const {
  // fsum rounding: add the partials from the largest down until the sum
  // turns inexact, then nudge for round-half-even when the remaining tail
  // agrees in sign with the rounding error. Because the partials exactly
  // represent the true sum, this returns the correctly-rounded double for
  // it — the same bits no matter the recording or merge order.
  std::size_t n = partials_.size();
  if (n == 0) return 0.0;
  double hi = partials_[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials_[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                (lo > 0.0 && partials_[n - 1] > 0.0))) {
    const double y2 = lo * 2.0;
    const double x2 = hi + y2;
    if (y2 == x2 - hi) hi = x2;
  }
  return hi;
}

void Scalar::merge(const Scalar& other) {
  if (other.count_ == 0) return;
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = count_ ? std::max(max_, other.max_) : other.max_;
  count_ += other.count_;
  for (const double p : other.partials_) accumulate(p);
}

Counter& StatRegistry::counter(const std::string& name) {
  return counters_[name];
}

Scalar& StatRegistry::scalar(const std::string& name) {
  return scalars_[name];
}

Histogram& StatRegistry::histogram(const std::string& name,
                                   std::uint64_t bucket_width,
                                   std::size_t num_buckets) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(bucket_width, num_buckets)).first;
  }
  return it->second;
}

std::uint64_t StatRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Scalar* StatRegistry::find_scalar(const std::string& name) const {
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? nullptr : &it->second;
}

const Histogram* StatRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool StatRegistry::merge_from(const StatRegistry& other,
                              std::string* error) {
  for (const auto& [name, h] : other.histograms_) {
    const Histogram* mine = find_histogram(name);
    if (mine != nullptr && !mine->same_geometry(h)) {
      if (error != nullptr) {
        *error = "histogram '" + name + "' has another bucket geometry";
      }
      return false;
    }
  }
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, s] : other.scalars_) scalars_[name].merge(s);
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.bucket_width(), h.num_buckets() - 1).merge(h);
  }
  return true;
}

void StatRegistry::reset_all() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, s] : scalars_) s.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::string StatRegistry::report() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, s] : scalars_) {
    os << name << " count=" << s.count() << " mean=" << s.mean()
       << " min=" << s.min() << " max=" << s.max() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << " count=" << h.count() << " mean=" << h.mean() << '\n';
  }
  return os.str();
}

}  // namespace rop
