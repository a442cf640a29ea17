// Deterministic pseudo-random number generation.
//
// Simulation runs must be bit-reproducible across machines and reruns, so we
// implement xoshiro256** (public-domain algorithm by Blackman & Vigna)
// seeded through SplitMix64 instead of relying on std::mt19937 parameters or
// platform-dependent distributions.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

namespace rop {

/// SplitMix64 — used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, 256-bit state generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 is invalid.
  std::uint64_t next_below(std::uint64_t bound) {
    ROP_ASSERT(bound > 0);
    // Debiased via rejection sampling on the top of the range.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Geometric-ish gap: returns k >= 1 with mean approximately `mean`.
  /// A mean <= 1 draws nothing and returns 1.
  std::uint64_t next_gap(double mean) {
    if (mean <= 1.0) return 1;
    return gap_from_bits(next_u64() >> 11, gap_denom(mean));
  }

  /// The denominator gap_from_bits expects for a given mean
  /// (log1p(-1/mean)). Only valid for mean > 1.
  [[nodiscard]] static double gap_denom(double mean) {
    return __builtin_log1p(-1.0 / mean);
  }

  /// The gap next_gap draws from the 53 uniform bits `x` (the top bits of
  /// one next_u64(), u = x * 2^-53), given gap_denom(mean): inverse-CDF
  /// sampling of a geometric distribution with success probability
  /// 1/mean, shifted to be >= 1. This is the reference definition of every
  /// gap; a table-driven sampler (workload::GeometricGap) must agree with
  /// it bit for bit.
  [[nodiscard]] static std::uint64_t gap_from_bits(std::uint64_t x,
                                                   double denom) {
    double u = static_cast<double>(x) * 0x1.0p-53;
    if (u >= 1.0) u = 0.9999999999999999;
    const double g = __builtin_log1p(-u) / denom;
    const auto out = static_cast<std::uint64_t>(g) + 1;
    return out == 0 ? 1 : out;
  }

  /// Generator state snapshot, for determinism tests that pin RNG
  /// positions across execution strategies (two streams that consumed the
  /// same draws have equal state).
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  /// Restore a snapshot taken with state(): the stream continues exactly
  /// where the captured generator left off (checkpoint/restore).
  void set_state(const std::array<std::uint64_t, 4>& s) { state_ = s; }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(state_);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// A Bernoulli trial with a fixed probability, reduced once to an integer
/// threshold on the 53 uniform bits of one draw. draw(rng) returns exactly
/// what rng.next_bool(p) would and consumes the same draws. For p in
/// (0, 1), x * 2^-53 < p (x = next_u64() >> 11) holds exactly when
/// x < ceil(p * 2^53): x * 2^-53 and p * 2^53 are both exact in binary64
/// (scaling by a power of two, and x < 2^53), and an integer is below a
/// real exactly when it is below the real's ceiling. p <= 0 and p >= 1
/// draw nothing; a NaN p draws once and always fails, as next_bool does.
class Bernoulli {
 public:
  explicit Bernoulli(double p) {
    if (p <= 0.0 || p >= 1.0) {
      draws_ = false;
      fixed_ = p >= 1.0;
    } else {
      // NaN fails both comparisons above and lands here: threshold 0.
      threshold_ = p > 0.0 ? static_cast<std::uint64_t>(
                                 __builtin_ceil(p * 0x1.0p53))
                           : 0;
    }
  }

  bool draw(Rng& rng) const {
    return draws_ ? (rng.next_u64() >> 11) < threshold_ : fixed_;
  }

  /// A drawing trial succeeds on x < threshold(), x in [0, 2^53).
  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }

 private:
  bool draws_ = true;
  bool fixed_ = false;  // the outcome when nothing is drawn
  std::uint64_t threshold_ = 0;
};

}  // namespace rop
