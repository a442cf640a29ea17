#include "sim/sampling.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "energy/dram_power.h"

namespace rop::sim {

double t_quantile_975(std::uint64_t df) {
  // Two-sided 95% quantiles, df = 1..29; the normal quantile beyond.
  static constexpr std::array<double, 29> kTable = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045};
  if (df == 0) return 0.0;
  if (df <= kTable.size()) return kTable[df - 1];
  return 1.96;
}

const char* sampling_placement_name(SamplingPlacement p) {
  switch (p) {
    case SamplingPlacement::kUniform: return "uniform";
    case SamplingPlacement::kStratified: return "stratified";
  }
  return "?";
}

std::uint64_t sampling_stride(const SamplingSpec& s,
                              std::uint64_t instructions_per_core) {
  if (s.functional_instructions > 0) return s.functional_instructions;
  const std::uint64_t spread =
      (instructions_per_core + kDefaultSampledWindows - 1) /
      kDefaultSampledWindows;
  return std::max<std::uint64_t>(100'000, spread);
}

SamplingEstimate estimate_from(const std::vector<double>& observations) {
  SamplingEstimate e;
  const std::size_t n = observations.size();
  if (n == 0) return e;
  double sum = 0.0;
  for (const double x : observations) sum += x;
  e.mean = sum / static_cast<double>(n);
  if (n < 2) return e;
  double ss = 0.0;
  for (const double x : observations) {
    const double d = x - e.mean;
    ss += d * d;
  }
  const double var = ss / static_cast<double>(n - 1);
  e.stderr_ = std::sqrt(var / static_cast<double>(n));
  e.ci95_half = t_quantile_975(n - 1) * e.stderr_;
  return e;
}

SamplingEstimate stratified_estimate(
    const std::vector<double>& observations,
    const std::vector<std::uint32_t>& stratum_of,
    const std::vector<double>& stratum_weight) {
  ROP_ASSERT(observations.size() == stratum_of.size());
  const std::size_t num_strata = stratum_weight.size();
  SamplingEstimate e;
  if (observations.empty() || num_strata == 0) return e;

  // Per-stratum count / mean / sample variance.
  std::vector<std::uint64_t> n(num_strata, 0);
  std::vector<double> sum(num_strata, 0.0);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    ROP_ASSERT(stratum_of[i] < num_strata);
    ++n[stratum_of[i]];
    sum[stratum_of[i]] += observations[i];
  }
  std::vector<double> mean(num_strata, 0.0);
  for (std::size_t h = 0; h < num_strata; ++h) {
    if (n[h] > 0) mean[h] = sum[h] / static_cast<double>(n[h]);
  }
  std::vector<double> ss(num_strata, 0.0);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const double d = observations[i] - mean[stratum_of[i]];
    ss[stratum_of[i]] += d * d;
  }

  // Weights renormalized over covered strata; one covered stratum
  // degenerates to the plain i.i.d. estimator.
  double wsum = 0.0;
  std::size_t covered = 0;
  for (std::size_t h = 0; h < num_strata; ++h) {
    if (n[h] > 0) {
      ROP_ASSERT(stratum_weight[h] >= 0.0);
      wsum += stratum_weight[h];
      ++covered;
    }
  }
  if (covered <= 1 || wsum <= 0.0) return estimate_from(observations);

  double var = 0.0;
  std::uint64_t df = 0;
  for (std::size_t h = 0; h < num_strata; ++h) {
    if (n[h] == 0) continue;
    const double frac = stratum_weight[h] / wsum;
    e.mean += frac * mean[h];
    if (n[h] >= 2) {
      const double s2 = ss[h] / static_cast<double>(n[h] - 1);
      var += frac * frac * s2 / static_cast<double>(n[h]);
      df += n[h] - 1;
    }
  }
  if (df == 0) return e;
  e.stderr_ = std::sqrt(var);
  e.ci95_half = t_quantile_975(df) * e.stderr_;
  return e;
}

/// Settle every rank's activity accounting to `now` and total the DRAM
/// energy across channels. Piecewise-safe: account_until is monotone, so
/// mid-run settles compose with the final settle in finalize().
double sampled_window_energy_mj(mem::MemorySystem& memory,
                                const energy::DramPowerModel& power,
                                Cycle now) {
  double total = 0.0;
  for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    dram::Channel& channel = memory.controller(ch).channel();
    channel.settle_accounting(now);
    total += power.compute(channel).total_mj();
  }
  return total;
}

}  // namespace rop::sim
