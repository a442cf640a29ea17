// Host-speed benchmark core: the named workloads, the stats digest that
// serves as the correctness gate, host-context capture, and the calibrated
// clock that every span in the traced run uses.
//
// Everything here drives the simulator through its public API only
// (sim::run_experiment, sim::build_sim_instance); nothing is timed from
// inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.h"

namespace hostbench {

/// One benchmark workload.
struct Workload {
  std::string_view name;
  /// The spec for workload seed `seed` (mapped to ExperimentSpec::seed_salt:
  /// the simulator sees only the generated instruction streams).
  rop::sim::ExperimentSpec (*make)(std::uint64_t seed) = nullptr;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Seeds recorded for claims: the default, and the held-out seed a later
/// claim must also hold on.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7;

/// Host threads one run of `spec` occupies: the shard count (the main
/// thread is shard 0), or the sampling jobs plus the planning main thread.
[[nodiscard]] unsigned host_threads(const rop::sim::ExperimentSpec& spec);

/// Instructions the run simulates over all cores (the target; functional
/// instructions count for a sampled run).
[[nodiscard]] double simulated_instructions(
    const rop::sim::ExperimentSpec& spec);

/// FNV-1a digest of a stats JSON document in canonical form (keys sorted,
/// integers exact, doubles at 17 significant digits), leaving out the
/// operational fields that legitimately differ between runs of one spec:
/// the host-time fields run.wall_seconds / run.sim_cycles_per_second, the
/// sampling worker count, and the checker block (it records whether an
/// auditor ran, not what was simulated). Returns 0 on a parse error.
[[nodiscard]] std::uint64_t stats_digest(std::string_view stats_json);

/// Sum of the LLC counters `field` (accesses, misses, ...) in `stats`: the
/// shared LLC's "llc.<field>" or the private ones' "coreN.llc.<field>".
[[nodiscard]] std::uint64_t llc_counter(const rop::StatRegistry& stats,
                                        std::string_view field);

/// Every per-core CPI stack sums to the core's cycles.
[[nodiscard]] bool cpi_stacks_sum(const rop::sim::ExperimentResult& r);

// -- Host context -----------------------------------------------------------

struct HostContext {
  unsigned nproc = 0;
  double load1_before = 0.0;
  double load1_after = 0.0;
  std::string cpu_model;
  std::string build_type;
};

[[nodiscard]] HostContext capture_host_context();
void finish_host_context(HostContext* ctx);
/// One-line JSON object for the context record. `extra` holds further
/// members, each written as `, "name": value`.
[[nodiscard]] std::string host_context_json(const HostContext& ctx,
                                            std::string_view workload,
                                            unsigned threads,
                                            std::uint64_t seed, int reps,
                                            std::string_view extra);

/// Reset the process's resident-set high-water mark (VmHWM), so the next
/// peak_rss_mb reads the peak of what runs after it. False when the kernel
/// refuses; the peak then covers the whole process.
bool reset_peak_rss();
/// Peak resident set, MiB: VmHWM since the last reset_peak_rss, or the
/// process's lifetime peak when VmHWM cannot be read.
[[nodiscard]] double peak_rss_mb();
/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_seconds();

/// Seconds of one pass of the host-speed reference kernel: a fixed,
/// single-threaded mix of independent integer multiply chains with a
/// data-dependent branch, then random inserts and updates on a 64K-key
/// hash map; about 100 ms on a 4-vCPU Xeon VM. The kernel does not touch
/// the simulator, so a run's time divided by the reference time measured
/// next to it moves with the simulator's code and much less with the host
/// speed that other tenants change. Its memory is mapped and unmapped
/// inside the call, so it does not count in peak_rss_mb.
[[nodiscard]] double reference_kernel_seconds();

// -- Clock ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Median cost of one clock read, in ns, after spinning the clock so
/// frequency scaling settles (the refresh-profiling timer idiom: spin, then
/// take the median over many rounds of back-to-back reads).
[[nodiscard]] double calibrate_clock_read_ns();

/// One boundary's in-memory span record: how often it was crossed and the
/// raw time inside it. Written out once, at the end of the traced run.
struct Span {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;

  void add(std::int64_t ns) {
    ++count;
    total_ns += ns;
  }
  /// Total with one clock read per crossing subtracted, in seconds.
  [[nodiscard]] double seconds(double read_ns) const;
  /// Mean corrected time per crossing, ns (0 when never crossed).
  [[nodiscard]] double mean_ns(double read_ns) const;
};

[[nodiscard]] double median(std::vector<double> v);

}  // namespace hostbench
