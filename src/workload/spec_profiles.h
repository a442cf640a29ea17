// SPEC-CPU2006-like synthetic benchmark profiles and the multi-programmed
// workload mixes (paper Table II).
//
// Each profile is a SyntheticConfig tuned to put the benchmark in the right
// regime on the axes that drive the paper's results: memory intensity,
// stride predictability, burstiness (which determines lambda/beta in
// Table I) and footprint relative to the LLC. The six intensive benchmarks
// stream with small gaps; the six non-intensive ones are sparse, bursty and
// partially cache-resident.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "workload/synthetic.h"

namespace rop::workload {

/// The 12 benchmarks of Table II, in the paper's Table I column order.
inline constexpr std::array<std::string_view, 12> kBenchmarkNames{
    "perlbench", "bzip2",   "gobmk", "gemsfdtd",  "libquantum", "lbm",
    "omnetpp",   "astar",   "wrf",   "gcc",       "bwaves",     "cactusadm"};

/// Memory-intensive subset (paper Table II "Intensive = Y").
[[nodiscard]] bool is_intensive(std::string_view name);

/// Build the tuned generator config for a named benchmark. Aborts on an
/// unknown name. `seed_salt` perturbs the RNG stream so the same benchmark
/// can run on several cores without lockstep.
[[nodiscard]] SyntheticConfig spec_profile(std::string_view name,
                                           std::uint64_t seed_salt = 0);

/// 4-program workload mixes WL1..WL6 (Table II): WL1 is all-intensive and
/// mixes get progressively less intensive through WL6 (all non-intensive).
[[nodiscard]] std::vector<std::string> workload_mix(std::uint32_t wl);

inline constexpr std::uint32_t kNumWorkloadMixes = 6;

/// The mix a benchmark name selects: "wl1".."wl6" give 1..6, any other
/// name 0. ropsim and campaign specs spell mixes this way.
[[nodiscard]] std::uint32_t workload_mix_number(std::string_view name);

}  // namespace rop::workload
