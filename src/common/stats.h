// Statistics framework: named counters, scalar gauges, and histograms that
// every subsystem registers into a shared StatRegistry. Benches and tests
// read results by name; nothing in the hot path allocates after setup.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace rop {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

  /// Fold another counter in (campaign aggregation).
  void merge(const Counter& other) { value_ += other.value_; }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(value_);
  }

 private:
  std::uint64_t value_ = 0;
};

/// Running scalar statistics (count / sum / min / max / mean).
///
/// The sum is held as an exact expansion of non-overlapping doubles
/// (Shewchuk error-free accumulation — the algorithm behind math.fsum),
/// so the represented value is the true real-number sum of the recorded
/// samples and therefore independent of recording order. That is what
/// makes merge() exact, and lets every channel record into one registry in
/// any tick order: folding per-run campaign results, or interleaving the
/// channels differently, yields bit-identical sum()/mean(). For integral samples (latencies in
/// cycles) the expansion stays at a single partial until the running sum
/// crosses 2^53, so record() costs one extra compare on the hot path.
class Scalar {
 public:
  Scalar() = default;
  /// Reconstruct from exported parts (count, sum, min, max): the expansion
  /// is the single partial `sum`, so merge() adds exactly that value. The
  /// campaign reads per-cell JSON back this way; a %.17g-printed sum
  /// round-trips bit for bit.
  Scalar(std::uint64_t count, double sum, double min, double max)
      : count_(count), partials_{sum}, min_(min), max_(max) {}

  void record(double v) {
    ++count_;
    accumulate(v);
    min_ = (count_ == 1) ? v : std::min(min_, v);
    max_ = (count_ == 1) ? v : std::max(max_, v);
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Correctly-rounded value of the exact partial-sum expansion.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum() / static_cast<double>(count_) : 0.0;
  }
  void reset() { *this = Scalar{}; }

  /// Fold another scalar in. Exact: both expansions represent their true
  /// sums, so the merged expansion represents the pooled true sum.
  void merge(const Scalar& other);

  /// Snapshot serialization. The partial expansion is serialized verbatim
  /// (each partial bit-exact via bit_cast), so the restored Scalar produces
  /// the same correctly-rounded sum() and keeps merging exactly.
  template <class Ar>
  void io(Ar& ar) {
    ar(count_, partials_, min_, max_);
  }

 private:
  /// Grow the expansion by `x` (error-free transformation per partial).
  void accumulate(double x) {
    std::size_t keep = 0;
    for (double y : partials_) {
      if (std::abs(x) < std::abs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials_[keep++] = lo;
      x = hi;
    }
    partials_.resize(keep);
    partials_.push_back(x);
  }

  std::uint64_t count_ = 0;
  /// Non-overlapping partials in increasing magnitude; their exact sum is
  /// the exact sum of everything recorded.
  std::vector<double> partials_;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram over [0, bucket_width * num_buckets), with an
/// overflow bucket at the top.
class Histogram {
 public:
  Histogram() : Histogram(1, 16) {}
  Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
      : width_(bucket_width), buckets_(num_buckets + 1, 0) {
    ROP_ASSERT(bucket_width > 0);
    ROP_ASSERT(num_buckets > 0);
  }
  /// Reconstruct from exported parts (`buckets` includes the overflow
  /// bucket): the campaign merge parses per-run JSON back into histograms
  /// and folds them with merge().
  Histogram(std::uint64_t bucket_width, std::vector<std::uint64_t> buckets,
            std::uint64_t sample_sum)
      : width_(bucket_width), buckets_(std::move(buckets)), sum_(sample_sum) {
    ROP_ASSERT(bucket_width > 0);
    ROP_ASSERT(buckets_.size() >= 2);
    for (const std::uint64_t b : buckets_) count_ += b;
  }

  void record(std::uint64_t v) {
    const std::size_t idx =
        std::min<std::size_t>(v / width_, buckets_.size() - 1);
    ++buckets_[idx];
    ++count_;
    sum_ += v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Exact integer sum of all recorded samples.
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_.at(i);
  }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t bucket_width() const { return width_; }

  /// Percentile estimate from the buckets with linear interpolation inside
  /// the containing bucket, `p` in [0, 100]: p50/p95/p99 for reports and
  /// the JSON export. Samples in the overflow bucket interpolate within one
  /// further bucket width — an approximation, so a percentile that lands
  /// there is a lower bound.
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = (p / 100.0) * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      const double lo = static_cast<double>(seen);
      seen += buckets_[i];
      if (static_cast<double>(seen) >= target) {
        const double frac =
            std::clamp((target - lo) / static_cast<double>(buckets_[i]),
                       0.0, 1.0);
        return (static_cast<double>(i) + frac) *
               static_cast<double>(width_);
      }
    }
    return static_cast<double>(buckets_.size() * width_);
  }

  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
  }

  /// Snapshot serialization. Geometry rides along so a restored registry
  /// can recreate histograms that only the running simulation registers.
  template <class Ar>
  void io(Ar& ar) {
    ar(width_, buckets_, count_, sum_);
  }

  /// Same bucket width and bucket count: what merge() requires.
  [[nodiscard]] bool same_geometry(const Histogram& other) const {
    return width_ == other.width_ && buckets_.size() == other.buckets_.size();
  }

  /// Fold another histogram in. Exact for every derived statistic
  /// (percentiles, mean): bucket counts and the integer sample sum add.
  /// Both histograms must share the bucket geometry.
  void merge(const Histogram& other) {
    ROP_ASSERT(same_geometry(other));
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

 private:
  std::uint64_t width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Name → stat registry. Ownership lives here; subsystems hold pointers.
/// Names are hierarchical by convention, e.g. "mem.reads", "rop.buffer.hits".
class StatRegistry {
 public:
  Counter& counter(const std::string& name);
  Scalar& scalar(const std::string& name);
  Histogram& histogram(const std::string& name, std::uint64_t bucket_width,
                       std::size_t num_buckets);

  /// Handle registration: resolve a name once (at construction time) and get
  /// a stable pointer for the hot path. The registry's node-based maps keep
  /// handles valid across later registrations. Hot-path code must use these —
  /// never a string-keyed lookup per event.
  [[nodiscard]] Counter* counter_handle(const std::string& name) {
    return &counter(name);
  }
  [[nodiscard]] Scalar* scalar_handle(const std::string& name) {
    return &scalar(name);
  }
  [[nodiscard]] Histogram* histogram_handle(const std::string& name,
                                            std::uint64_t bucket_width,
                                            std::size_t num_buckets) {
    return &histogram(name, bucket_width, num_buckets);
  }

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] const Scalar* find_scalar(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Whole-registry iteration (JSON export, epoch sampling). The node-based
  /// maps keep references stable across later registrations.
  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Scalar>& scalars() const {
    return scalars_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void reset_all();

  /// Fold every stat of `other` into this registry, creating any missing
  /// entries (histograms adopt the source geometry). Counters add,
  /// scalars merge exactly (see Scalar), histograms add bucket-wise —
  /// the aggregation primitive behind campaign stats merging. Returns
  /// false, names the histogram in `error` and changes nothing when a
  /// histogram on both sides differs in bucket geometry.
  bool merge_from(const StatRegistry& other, std::string* error = nullptr);

  /// Render "name value" lines, sorted by name, for debugging dumps.
  [[nodiscard]] std::string report() const;

  /// Snapshot serialization. Values restore *into* the existing entries
  /// (created when the simulator was assembled), so Counter*/Scalar*/
  /// Histogram* handles cached by subsystems stay valid across a restore.
  /// Entries present in the snapshot but not yet registered are created.
  template <class Ar>
  void io(Ar& ar) {
    if constexpr (Ar::kIsReader) {
      std::uint64_t n = 0;
      ar(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        ar(name);
        ar.field(counters_[name]);
      }
      ar(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        ar(name);
        ar.field(scalars_[name]);
      }
      ar(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        ar(name);
        ar.field(histograms_[name]);
      }
    } else {
      std::uint64_t n = counters_.size();
      ar(n);
      for (auto& [name, c] : counters_) {
        std::string key = name;
        ar(key);
        ar.field(c);
      }
      n = scalars_.size();
      ar(n);
      for (auto& [name, s] : scalars_) {
        std::string key = name;
        ar(key);
        ar.field(s);
      }
      n = histograms_.size();
      ar(n);
      for (auto& [name, h] : histograms_) {
        std::string key = name;
        ar(key);
        ar.field(h);
      }
    }
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Scalar> scalars_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rop
