// Exact table-driven sampler for the generator's geometric gaps.
//
// Rng::gap_from_bits defines every gap the generator draws: one next_u64(),
// x = r >> 11, gap = trunc(log1p(-x * 2^-53) / log1p(-1/mean)) + 1. That is
// a libm call and a division per draw. GeometricGap returns the same gap for
// the same x from a sorted threshold table instead, and falls back to the
// reference computation wherever the table could disagree with it:
//
//   * T[j] estimates the first x whose gap is >= j + 1
//     (ceil(-expm1(j * denom) * 2^53)), so a table gap is j + 1 for
//     T[j] <= x < T[j+1];
//   * x within kGuard steps of a threshold falls back. The reference g(x)
//     rises by at least mean * 2^-53 per step of x, while libm plus the
//     division are off by a few ulp of g and the T[j] estimate by a few
//     steps, so outside the band both truncate to the same integer (the
//     band needs well under 100 steps; kGuard is 2^16);
//   * x at or past the tail cutoff (u > 1 - 2^-6, or past kMaxThresholds
//     thresholds for very large means) falls back.
//
// A bucket index on the top bits of x gives the scan's starting threshold.
// With four times as many buckets as thresholds most buckets hold none, so
// the scan is one branch-free step.
//
// The table is derived from the mean alone: the constructor builds it (up to
// 4096 expm1 calls, 30-160 us) and it is never serialized. See
// docs/PERFORMANCE.md §11.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rop::workload {

class GeometricGap {
 public:
  /// Half-width of the fallback band around each threshold, in steps of x.
  static constexpr std::uint64_t kGuard = 1ull << 16;
  /// Table size cap; means above ~1000 reach it before the tail cutoff.
  static constexpr std::uint32_t kMaxThresholds = 4096;

  /// A mean <= 1 draws nothing, always yields 1 (as Rng::next_gap does)
  /// and builds no table.
  explicit GeometricGap(double mean);

  /// The gap for one draw, consuming exactly the RNG draws
  /// Rng::next_gap(mean) would (one, or none for mean <= 1).
  std::uint64_t draw(Rng& rng) const {
    return draws_ ? draw_from_bits(rng.next_u64() >> 11) : 1;
  }

  /// The gap for the 53 uniform bits `x`; equals
  /// Rng::gap_from_bits(x, denom()) for every x < 2^53. Requires mean > 1.
  [[nodiscard]] std::uint64_t draw_from_bits(std::uint64_t x) const {
    if (x < cutoff_) {
      const std::uint64_t* t = thresholds_.data();
      std::uint32_t j = bucket_[x >> bucket_shift_];
      // Most buckets hold no threshold and few hold more than one: a
      // branch-free first step, then a loop that rarely runs.
      j += t[j + 1] <= x ? 1 : 0;
      while (t[j + 1] <= x) [[unlikely]] ++j;
      if (x - t[j] > kGuard && t[j + 1] - x > kGuard) return j + 1;
    }
    return Rng::gap_from_bits(x, denom_);
  }

  [[nodiscard]] double denom() const { return denom_; }
  /// T[0..n]: T[0] = 0, sorted, T[n] >= cutoff(). Empty for mean <= 1.
  [[nodiscard]] const std::vector<std::uint64_t>& thresholds() const {
    return thresholds_;
  }
  /// First x the table does not cover (0 for mean <= 1).
  [[nodiscard]] std::uint64_t cutoff() const { return cutoff_; }
  /// log2 of the bucket width in steps of x.
  [[nodiscard]] std::uint32_t bucket_shift() const { return bucket_shift_; }

 private:
  void build();

  bool draws_ = false;
  double denom_ = 0.0;
  std::uint64_t cutoff_ = 0;  // x >= cutoff_ takes the reference path
  std::uint32_t bucket_shift_ = 53;
  std::vector<std::uint64_t> thresholds_;
  /// Per bucket of x: the largest j with T[j] <= the bucket's first x.
  std::vector<std::uint16_t> bucket_;
};

}  // namespace rop::workload
