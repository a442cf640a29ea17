#include "sim/parallel_sampling.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "energy/dram_power.h"
#include "sim/backbone_walker.h"
#include "sim/snapshot.h"

namespace rop::sim {

namespace {

/// One planned window: the placement ordinal (merge order), its stratum,
/// and the full simulator state at the window start.
struct WindowJob {
  std::uint64_t ordinal = 0;
  std::uint32_t stratum = 0;
  std::string snapshot;
};

/// Completion slot for one ordinal. `completed` flips exactly once, under
/// the results mutex; `valid` is false when the restored run ended inside
/// the warmup (nothing measurable) — the ordinal then contributes no
/// observation, deterministically so for every worker count.
struct WindowSlot {
  bool completed = false;
  bool valid = false;
  WindowObservation obs;
};

/// The worker pool: a bounded job queue feeding `jobs` threads, each owning
/// a full replica simulator. Replicas are built inside the worker thread
/// (first use) from the shared spec; every registry registration happens in
/// build_sim_instance order on both sides, so the planner's snapshot
/// buffers restore onto them byte-for-byte.
class WindowPool {
 public:
  WindowPool(const ExperimentSpec& spec, std::uint32_t jobs,
             std::uint64_t fingerprint)
      : spec_(spec), fingerprint_(fingerprint) {
    ROP_ASSERT(jobs >= 1);
    queue_capacity_ = static_cast<std::size_t>(jobs) * 2;
    threads_.reserve(jobs);
    for (std::uint32_t i = 0; i < jobs; ++i) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }

  ~WindowPool() { finish(); }

  /// Enqueue one window (blocks while the queue is full — bounds the
  /// number of live snapshot buffers to ~2 per worker).
  void submit(WindowJob job) {
    {
      std::lock_guard<std::mutex> lk(results_mutex_);
      if (results_.size() <= job.ordinal) results_.resize(job.ordinal + 1);
    }
    std::unique_lock<std::mutex> lk(queue_mutex_);
    queue_space_.wait(lk, [&] { return queue_.size() < queue_capacity_; });
    queue_.push_back(std::move(job));
    queue_filled_.notify_one();
  }

  /// Block until ordinals 0..n-1 all completed; return their valid
  /// observations in ordinal order (the auto-stop prefix).
  [[nodiscard]] std::vector<double> wait_prefix_ipc(std::uint64_t n) {
    std::unique_lock<std::mutex> lk(results_mutex_);
    results_cv_.wait(lk, [&] {
      if (results_.size() < n) return false;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!results_[i].completed) return false;
      }
      return true;
    });
    std::vector<double> vals;
    vals.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (results_[i].valid) vals.push_back(results_[i].obs.ipc);
    }
    return vals;
  }

  /// Close the queue, drain in-flight jobs, join the workers. Idempotent.
  void finish() {
    {
      std::lock_guard<std::mutex> lk(queue_mutex_);
      closed_ = true;
      queue_filled_.notify_all();
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// All slots, ordinal-indexed. Call after finish().
  [[nodiscard]] const std::vector<WindowSlot>& results() const {
    return results_;
  }

 private:
  void worker_main() {
    // Each worker's replica lives for the pool's lifetime: one
    // construction, one begin_run, then every job is restore + run.
    SimInstance inst = build_sim_instance(spec_);
    cpu::System& system = *inst.system;
    mem::MemorySystem& memory = *inst.memory;
    system.begin_run(spec_.instructions_per_core, spec_.max_cpu_cycles);
    const SnapshotContext ctx = inst.snapshot_context();
    const energy::DramPowerModel power(energy::DramEnergyParams{},
                                       memory.config().timings);
    Counter* const blocked =
        memory.stats()->counter_handle("mem.refresh_blocked_cycles");
    const double ratio = static_cast<double>(system.cpu_ratio());
    const auto total_instructions = [&] {
      std::uint64_t n = 0;
      for (CoreId c = 0; c < system.num_cores(); ++c) {
        n += system.core(c).stats().instructions;
      }
      return n;
    };

    for (;;) {
      WindowJob job;
      {
        std::unique_lock<std::mutex> lk(queue_mutex_);
        queue_filled_.wait(lk, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;  // closed and drained
        job = std::move(queue_.front());
        queue_.pop_front();
        queue_space_.notify_one();
      }

      std::string err;
      const bool ok =
          load_snapshot_buffer(job.snapshot, ctx, fingerprint_, &err);
      ROP_ASSERT(ok && "parallel-sampling worker failed to restore");
      job.snapshot.clear();
      job.snapshot.shrink_to_fit();

      // One sampling unit (sim/sampling.h): excluded warmup, then one
      // measured detailed window.
      WindowSlot slot;
      slot.obs.index = job.ordinal;
      slot.obs.stratum = job.stratum;
      bool done =
          system.advance_until(system.cpu_cycle() + spec_.sampling.warmup_cycles);
      if (!done) {
        const std::uint64_t c0 = system.cpu_cycle();
        const std::uint64_t i0 = total_instructions();
        const std::uint64_t b0 = blocked->value();
        const double e0 = sampled_window_energy_mj(
            memory, power, c0 / system.cpu_ratio());
        (void)system.advance_until(c0 + spec_.sampling.detail_cycles);
        const std::uint64_t c1 = system.cpu_cycle();
        if (c1 > c0) {
          const double dc = static_cast<double>(c1 - c0);
          const double dm = dc / ratio;
          slot.obs.cpu_cycles = c1 - c0;
          slot.obs.ipc =
              static_cast<double>(total_instructions() - i0) / dc;
          slot.obs.refresh_blocked_per_mem_cycle =
              static_cast<double>(blocked->value() - b0) / dm;
          const double e1 = sampled_window_energy_mj(
              memory, power, c1 / system.cpu_ratio());
          slot.obs.energy_mj_per_mcycle = (e1 - e0) * 1e6 / dm;
          slot.valid = true;
        }
      }
      slot.completed = true;

      {
        std::lock_guard<std::mutex> lk(results_mutex_);
        results_[job.ordinal] = slot;
      }
      results_cv_.notify_all();
    }
  }

  const ExperimentSpec& spec_;
  const std::uint64_t fingerprint_;

  std::mutex queue_mutex_;
  std::condition_variable queue_filled_;
  std::condition_variable queue_space_;
  std::deque<WindowJob> queue_;
  std::size_t queue_capacity_ = 0;
  bool closed_ = false;

  std::mutex results_mutex_;
  std::condition_variable results_cv_;
  std::vector<WindowSlot> results_;

  std::vector<std::thread> threads_;
};

}  // namespace

cpu::RunResult run_parallel_sampled(const ExperimentSpec& spec,
                                    SimInstance& backbone,
                                    SamplingSummary* out) {
  const SamplingSpec& s = spec.sampling;
  ROP_ASSERT(s.enabled && s.jobs >= 1);
  cpu::System& system = *backbone.system;

  const std::uint64_t fp = config_fingerprint(spec_canonical(spec));
  system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  const SnapshotContext ctx = backbone.snapshot_context();

  // Planning grid: the backbone advances in chunks of 1/kPlannerOversample
  // of the inter-window spacing, so placement resolves finer than
  // the uniform grid without changing the mean window density. The chunk
  // count is known a priori — stratum membership is a pure function of the
  // chunk index.
  const std::uint64_t chunk = std::max<std::uint64_t>(
      1, sampling_stride(s, spec.instructions_per_core) / kPlannerOversample);
  const std::uint64_t planned_chunks =
      (spec.instructions_per_core + chunk - 1) / chunk;
  const std::uint32_t strata = s.strata;
  const auto stratum_of_chunk = [&](std::uint64_t i) -> std::uint32_t {
    if (strata == 0) return 0;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        strata - 1, i * strata / planned_chunks));
  };

  WindowPool pool(spec, s.jobs, fp);
  // The backbone's record walk runs one chunk ahead on its own thread;
  // this thread only applies walked chunks to the LLC (sim/backbone_walker.h).
  BackboneWalker walker(backbone, chunk, planned_chunks);
  const cpu::System::FunctionalStep apply_walked = [&](cpu::Core& core) {
    walker.apply_chunk(core, s.critical_penalty);
  };

  // Stratified credit: a chunk earns window credit in proportion to its
  // traffic weight relative to the running mean weight; kPlannerOversample
  // credit buys one window, so uniform traffic reproduces the uniform
  // density and busy phases earn proportionally more.
  double credit = 0.0;
  double total_weight = 0.0;
  std::uint64_t executed_chunks = 0;
  std::vector<double> stratum_cycles(strata > 0 ? strata : 1, 0.0);
  std::uint64_t llc_miss_prev = system.llc_misses();

  std::uint64_t functional = 0;
  std::uint64_t placed = 0;
  bool converged = false;
  std::uint32_t prev_stratum = ~0u;
  // Per-stratum window budget: under a max_windows cap the remaining budget
  // is re-divided over the remaining strata at each stratum boundary, so
  // the cap is spent across the whole horizon instead of front-to-back.
  // (The uniform placement has no such reservation — all its windows land
  // at the start of the run once the cap binds; see test_parallel_sampling.)
  std::uint64_t stratum_budget = ~0ull;
  std::uint64_t stratum_placed = 0;

  for (std::uint64_t i = 0; i < planned_chunks; ++i) {
    if (system.cores_remaining() == 0 ||
        system.cpu_cycle() >= system.max_cpu_cycles()) {
      break;
    }
    const std::uint32_t stratum = stratum_of_chunk(i);

    bool place;
    if (strata == 0) {
      place = (i % kPlannerOversample) == 0;
    } else if (stratum != prev_stratum) {
      // Force-seed every stratum at its first chunk: coverage never drops
      // to zero even when a stratum carries almost no traffic weight.
      place = true;
      credit = 0.0;
      stratum_placed = 0;
      if (s.max_windows > 0) {
        const std::uint64_t left =
            s.max_windows > placed ? s.max_windows - placed : 0;
        const std::uint64_t strata_left = strata - stratum;
        stratum_budget = (left + strata_left - 1) / strata_left;  // ceil
        if (stratum_budget == 0) place = false;
      }
    } else {
      place = credit >= static_cast<double>(kPlannerOversample) &&
              stratum_placed < stratum_budget;
      if (place) credit -= static_cast<double>(kPlannerOversample);
    }
    prev_stratum = stratum;

    if (place && s.max_windows > 0 && placed >= s.max_windows) place = false;
    if (place && s.target_ci_frac > 0.0 && placed >= kAutoStopLookahead) {
      // Deterministic auto-stop: the decision for ordinal `placed` sees the
      // completed prefix 0..placed-kAutoStopLookahead-1 and applies the
      // convergence rule (ci95_half / mean <= target) to exactly those
      // observations. Content-only dependence -> identical for every
      // worker count.
      const std::vector<double> prefix =
          pool.wait_prefix_ipc(placed - kAutoStopLookahead);
      if (prefix.size() >= s.min_windows) {
        const SamplingEstimate e = estimate_from(prefix);
        if (e.mean > 0.0 && e.ci95_half / e.mean <= s.target_ci_frac) {
          converged = true;
          break;  // stop placing; in-flight windows drain and are kept
        }
      }
    }

    if (place) {
      WindowJob job;
      job.ordinal = placed;
      job.stratum = stratum;
      job.snapshot = save_snapshot_buffer(ctx, fp);
      pool.submit(std::move(job));
      ++placed;
      ++stratum_placed;
    }

    // Execute the chunk functional-only and observe its traffic.
    const std::uint64_t spent = system.functional_window(apply_walked);
    functional += spent;
    ++executed_chunks;
    const std::uint64_t miss_now = system.llc_misses();
    const double w = 1.0 + static_cast<double>(miss_now - llc_miss_prev);
    llc_miss_prev = miss_now;
    total_weight += w;
    if (strata > 0) {
      stratum_cycles[stratum] += static_cast<double>(spent);
      credit += w / (total_weight / static_cast<double>(executed_chunks));
    }
  }

  walker.stop();
  pool.finish();

  // Merge in placement order: the observation vector (and everything
  // derived from it) is independent of which worker ran which window.
  std::vector<WindowObservation> observations;
  std::vector<double> ipc_obs;
  std::vector<double> energy_obs;
  std::vector<double> blocked_obs;
  std::vector<std::uint32_t> obs_stratum;
  std::uint64_t measured = 0;
  for (const WindowSlot& slot : pool.results()) {
    if (!slot.valid) continue;
    observations.push_back(slot.obs);
    ipc_obs.push_back(slot.obs.ipc);
    energy_obs.push_back(slot.obs.energy_mj_per_mcycle);
    blocked_obs.push_back(slot.obs.refresh_blocked_per_mem_cycle);
    obs_stratum.push_back(slot.obs.stratum);
    measured += slot.obs.cpu_cycles;
  }

  cpu::RunResult result = system.finish_run();
  if (out != nullptr) {
    out->enabled = true;
    out->windows = observations.size();
    out->measured_cpu_cycles = measured;
    out->functional_cpu_cycles = functional;
    out->ci_converged = converged;
    out->placement = strata > 0 ? SamplingPlacement::kStratified
                                : SamplingPlacement::kUniform;
    out->workers = s.jobs;
    out->strata = strata;
    // Without strata every window is in stratum 0, which stratified_estimate
    // reduces to the plain i.i.d. estimate_from.
    out->ipc = stratified_estimate(ipc_obs, obs_stratum, stratum_cycles);
    out->energy_mj_per_mcycle =
        stratified_estimate(energy_obs, obs_stratum, stratum_cycles);
    out->refresh_blocked_per_mem_cycle =
        stratified_estimate(blocked_obs, obs_stratum, stratum_cycles);
    out->observations = std::move(observations);
  }
  return result;
}

}  // namespace rop::sim
