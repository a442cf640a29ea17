#include "workload/geometric_gap.h"

#include <algorithm>
#include <cmath>

namespace rop::workload {

GeometricGap::GeometricGap(double mean)
    : draws_(mean > 1.0), denom_(draws_ ? Rng::gap_denom(mean) : 0.0) {
  if (draws_) build();
}

void GeometricGap::build() {
  constexpr std::uint64_t kOne = 1ull << 53;        // u = 1
  constexpr std::uint64_t kTail = kOne - (kOne >> 6);  // u = 1 - 2^-6

  // T[j] for j = 1.. until one reaches the tail (or the cap): that last one
  // is the sentinel T[n], so every x below the cutoff lies in some
  // [T[j], T[j+1]) with j < n.
  thresholds_.push_back(0);
  for (std::uint32_t j = 1;; ++j) {
    const double t =
        std::ceil(-std::expm1(static_cast<double>(j) * denom_) * 0x1.0p53);
    const std::uint64_t tj =
        t >= static_cast<double>(kOne) ? kOne : static_cast<std::uint64_t>(t);
    // Rounding cannot reorder thresholds more than a few steps apart, and
    // closer ones lie inside each other's guard band; max() keeps the scan
    // valid either way.
    thresholds_.push_back(std::max(tj, thresholds_.back()));
    if (tj >= kTail || j == kMaxThresholds) break;
  }
  cutoff_ = std::min(thresholds_.back(), kTail);

  // At least four buckets per interval: a scan rarely takes a step.
  const std::size_t n = thresholds_.size() - 1;
  std::uint32_t bits = 2;
  while ((std::size_t{1} << bits) < 4 * n) ++bits;
  bucket_shift_ = 53 - bits;
  bucket_.resize(std::size_t{1} << bits);
  std::size_t j = 0;
  for (std::size_t b = 0; b < bucket_.size(); ++b) {
    const std::uint64_t first_x = std::uint64_t{b} << bucket_shift_;
    while (j + 1 < n && thresholds_[j + 1] <= first_x) ++j;
    bucket_[b] = static_cast<std::uint16_t>(j);
  }
}

}  // namespace rop::workload
