#include "sim/experiment.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

#include "check/sim_checker.h"
#include "mem/refresh_stats.h"
#include "sim/parallel_sampling.h"
#include "sim/sim_instance.h"
#include "sim/snapshot.h"
#include "telemetry/attribution.h"
#include "telemetry/stats_json.h"
#include "workload/synthetic.h"

namespace rop::sim {

bool checker_enabled_by_environment() {
  if (const char* env = std::getenv("ROP_CHECK")) {
    return std::strcmp(env, "0") != 0 && env[0] != '\0';
  }
#ifdef ROP_CHECKER_DEFAULT_ON
  return true;
#else
  return false;
#endif
}

double ExperimentResult::weighted_speedup(
    const std::vector<double>& ipc_alone) const {
  ROP_ASSERT(ipc_alone.size() == run.cores.size());
  double ws = 0.0;
  for (std::size_t c = 0; c < run.cores.size(); ++c) {
    ROP_ASSERT(ipc_alone[c] > 0.0);
    ws += run.cores[c].ipc / ipc_alone[c];
  }
  return ws;
}

std::string ExperimentResult::to_json() const {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::uint64_t{4});

  w.key("run");
  w.begin_object();
  w.key("cpu_cycles");
  w.value(run.cpu_cycles);
  w.key("mem_cycles");
  w.value(run.mem_cycles);
  w.key("hit_cycle_limit");
  w.value(run.hit_cycle_limit);
  w.key("wall_seconds");
  w.value(wall_seconds);
  w.key("sim_cycles_per_second");
  w.value(sim_cycles_per_second());
  w.key("cores");
  w.begin_array();
  for (const cpu::CoreResult& c : run.cores) {
    w.begin_object();
    w.key("instructions");
    w.value(c.instructions);
    w.key("cpu_cycles");
    w.value(c.cpu_cycles);
    w.key("ipc");
    w.value(c.ipc);
    w.key("mem_reads");
    w.value(c.mem_reads);
    w.key("mem_writebacks");
    w.value(c.mem_writebacks);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("energy_mj");
  w.begin_object();
  w.key("background");
  w.value(energy.background_mj);
  w.key("act_pre");
  w.value(energy.act_pre_mj);
  w.key("read");
  w.value(energy.read_mj);
  w.key("write");
  w.value(energy.write_mj);
  w.key("refresh");
  w.value(energy.refresh_mj);
  w.key("io");
  w.value(energy.io_mj);
  w.key("sram");
  w.value(energy.sram_mj);
  w.key("total");
  w.value(energy.total_mj());
  w.end_object();

  w.key("rop");
  w.begin_object();
  w.key("sram_hit_rate");
  w.value(sram_hit_rate);
  w.key("lambda");
  w.value(lambda);
  w.key("beta");
  w.value(beta);
  w.key("refreshes");
  w.value(refreshes);
  w.end_object();

  w.key("refresh_blocking");
  w.begin_array();
  for (std::size_t k = 0; k < nonblocking_fraction.size(); ++k) {
    w.begin_object();
    w.key("window_multiple");
    w.value(static_cast<std::uint64_t>(
        mem::RefreshBlockingStats::kExaminedMultiples[k]));
    w.key("nonblocking_fraction");
    w.value(nonblocking_fraction[k]);
    w.key("mean_blocked_per_blocking_refresh");
    w.value(mean_blocked_per_blocking_refresh[k]);
    w.key("max_blocked");
    w.value(max_blocked[k]);
    w.end_object();
  }
  w.end_array();

  // Attribution (schema v3): per-core CPI stacks — a disjoint decomposition
  // of cpu_cycles, categories in telemetry::kCpiCategoryKeys order — plus
  // the controller-side per-request blocked-cycle totals and the ROP
  // revived-cycles credit. cpi_stack values always sum to `cycles`.
  w.key("attribution");
  w.begin_object();
  w.key("cpu_ratio");
  w.value(static_cast<std::uint64_t>(cpu_ratio));
  w.key("cores");
  w.begin_array();
  for (std::size_t i = 0; i < run.cores.size(); ++i) {
    const cpu::CoreResult& c = run.cores[i];
    w.begin_object();
    w.key("core");
    w.value(static_cast<std::uint64_t>(i));
    w.key("cycles");
    w.value(c.cpu_cycles);
    w.key("cpi_stack");
    w.begin_object();
    for (std::size_t k = 0; k < telemetry::kCpiCategoryCount; ++k) {
      w.key(telemetry::kCpiCategoryKeys[k]);
      w.value(c.cpi.cycles[k]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("rop_recovered_cycles");
  w.value(stats.counter_value("attr.rop_recovered_cycles"));
  w.key("requests");
  w.begin_object();
  for (const char* cause : telemetry::kRefreshCauseKeys) {
    const std::string key = std::string("blocked_") + cause + "_cycles";
    w.key(key);
    w.value(stats.counter_value("attr." + key));
  }
  w.end_object();
  w.end_object();

  w.key("checker");
  w.begin_object();
  w.key("ticks");
  w.value(checker_ticks);
  w.key("violations");
  w.value(checker_violations);
  w.end_object();

  w.key("interrupted");
  w.value(interrupted);

  w.key("sampling");
  if (sampling.enabled) {
    w.begin_object();
    w.key("windows");
    w.value(sampling.windows);
    w.key("measured_cpu_cycles");
    w.value(sampling.measured_cpu_cycles);
    w.key("functional_cpu_cycles");
    w.value(sampling.functional_cpu_cycles);
    w.key("ci_converged");
    w.value(sampling.ci_converged);
    // Determinism contract (schema v4): every statistical key in this block
    // is byte-identical for any worker count at a fixed placement;
    // "workers" alone is operational metadata (like wall_seconds above).
    w.key("placement");
    w.value(sampling_placement_name(sampling.placement));
    w.key("workers");
    w.value(static_cast<std::uint64_t>(sampling.workers));
    w.key("strata");
    w.value(static_cast<std::uint64_t>(sampling.strata));
    const auto est = [&w](const char* name, const SamplingEstimate& e) {
      w.key(name);
      w.begin_object();
      w.key("mean");
      w.value(e.mean);
      w.key("stderr");
      w.value(e.stderr_);
      w.key("ci95_half");
      w.value(e.ci95_half);
      w.end_object();
    };
    est("ipc", sampling.ipc);
    est("energy_mj_per_mcycle", sampling.energy_mj_per_mcycle);
    est("refresh_blocked_per_mem_cycle",
        sampling.refresh_blocked_per_mem_cycle);
    w.end_object();
  } else {
    w.null();
  }

  telemetry::write_registry_sections(w, stats);
  telemetry::write_epoch_section(w, epochs.get());

  w.key("trace");
  if (trace) {
    w.begin_object();
    w.key("events");
    w.value(static_cast<std::uint64_t>(trace->size()));
    w.key("dropped");
    w.value(trace->dropped());
    w.end_object();
  } else {
    w.null();
  }

  w.end_object();
  os << '\n';
  return os.str();
}

std::optional<std::string> validate(const ExperimentSpec& spec) {
  const SnapshotSpec& snap = spec.snapshot;
  const bool checkpointed = snap.any() || snap.every > 0 || snap.stop_at > 0;
  const SamplingSpec& sampling = spec.sampling;

  if (spec.benchmarks.empty()) return "the spec has no cores";
  if (spec.trace_files.empty()) {
    for (const std::string& b : spec.benchmarks) {
      if (std::find(workload::kBenchmarkNames.begin(),
                    workload::kBenchmarkNames.end(),
                    b) == workload::kBenchmarkNames.end()) {
        return "unknown benchmark: " + b;
      }
    }
  } else {
    if (spec.trace_files.size() != spec.benchmarks.size()) {
      return "trace_files needs one file per core";
    }
    if (spec.channels > 1 || checkpointed || sampling.enabled ||
        !spec.progress_file.empty()) {
      return "a trace-file workload runs only as an exact single-channel "
             "run (no channels > 1, snapshots, sampling or progress "
             "heartbeat)";
    }
  }
  if (spec.instructions_per_core > kMaxInstructionsPerCore) {
    return "instructions_per_core must be at most " +
           std::to_string(kMaxInstructionsPerCore) +
           " (UINT64_MAX / " + std::to_string(kCpuCyclesPerInstructionCap) +
           ", so the CPU-cycle cap does not wrap)";
  }
  // The controller keeps one bit per rank in its scheduler masks.
  if (spec.ranks < 1 || spec.ranks > 32) return "ranks must be in [1, 32]";
  if (spec.channels < 1) return "channels must be at least 1";
  // 16 ways of 64-byte lines over a power-of-two set count.
  if (spec.llc_bytes < (1ull << 20) || !std::has_single_bit(spec.llc_bytes)) {
    return "the LLC size must be a power of two of at least 1 MiB";
  }
  if (spec.loop == cpu::LoopMode::kNaive &&
      (checkpointed || sampling.enabled)) {
    return "snapshots and sampled execution require the event loop";
  }
  if (spec.channels > 1 && spec.telemetry.tracing()) {
    return "an event trace needs one channel";
  }
  if ((snap.stop_at > 0 || snap.every > 0) && snap.out.empty()) {
    return "snapshot.stop_at and snapshot.every require snapshot.out";
  }
  if (!sampling.enabled) return std::nullopt;
  if (sampling.jobs == 0) return "sampling.jobs must be at least 1";
  if (sampling.detail_cycles == 0) {
    return "sampling.detail_cycles must be at least 1 (a window of 0 "
           "cycles measures nothing)";
  }
  if (sampling.min_windows < 2) {
    return "sampling.min_windows must be at least 2 (a confidence interval "
           "needs two windows)";
  }
  if (checkpointed) {
    return "snapshots and sampled execution are mutually exclusive";
  }
  if (spec.telemetry.tracing() || spec.telemetry.sampling()) {
    return "sampled execution runs without telemetry sinks: no epoch "
           "sampling or event trace";
  }
  return std::nullopt;
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  ROP_ASSERT(!validate(spec) && "run_experiment requires a valid spec");
  const bool snap_active = spec.snapshot.any();
  ExperimentResult result;

  // Full system assembly lives in build_sim_instance (the parallel-sampling
  // workers build byte-compatible replicas through the same path); the
  // run_experiment extras — trace sink, invariant checkers — compose through
  // its hooks so the registry layout cannot drift between the two.
  // `inst` is declared before `checkers`: ~SimChecker detaches from the
  // memory system, so the checkers must be destroyed while it still lives.
  SimInstance inst;
  std::vector<std::unique_ptr<check::SimChecker>> checkers;
  SimInstanceHooks hooks;
  // Event trace: attach before anything can issue a command so the timeline
  // is complete from cycle 0. The cycle->microsecond scale always follows
  // the resolved memory config, not the spec's placeholder.
  //
  // Checkers: opt-in invariant auditor — per-tick structural checks plus an
  // end-of-run conservation audit; any violation aborts the experiment with
  // a report. One checker per channel, each watching its channel's engine.
  // Their counters ride in snapshots, so a checked run spans a restore.
  // Disabled while sampling: a functional jump skips the ticks the audit
  // counts.
  hooks.post_memory = [&](mem::MemorySystem& memory) {
    if (spec.telemetry.tracing()) {
      telemetry::TraceConfig trace_cfg = spec.telemetry.trace;
      trace_cfg.tck_ps = memory.config().timings.tCK_ps;
      result.trace = std::make_shared<telemetry::TraceSink>(trace_cfg);
      memory.set_trace(result.trace.get());
    }
    if ((spec.check || checker_enabled_by_environment()) &&
        !spec.sampling.enabled) {
      for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
        checkers.push_back(std::make_unique<check::SimChecker>());
        checkers.back()->attach(memory, ch);
        if (result.trace) checkers.back()->set_trace(result.trace.get());
      }
    }
  };
  hooks.post_engines =
      [&](std::vector<std::unique_ptr<engine::RopEngine>>& engines) {
        if (checkers.empty()) return;
        for (ChannelId ch = 0; ch < static_cast<ChannelId>(engines.size());
             ++ch) {
          checkers[ch]->watch(*engines[ch]);
        }
      };

  inst = build_sim_instance(spec, &result.stats, hooks);
  if (!inst.error.empty()) {
    result.error = inst.error;
    return result;
  }
  mem::MemorySystem& memory = *inst.memory;
  std::vector<std::unique_ptr<engine::RopEngine>>& engines = inst.engines;
  cpu::System& system = *inst.system;
  result.cpu_ratio = inst.cpu_ratio;

  // Epoch sampler: constructed after the full system so it samples every
  // counter the subsystems registered.
  if (spec.telemetry.sampling()) {
    result.epochs = std::make_shared<telemetry::EpochSampler>(
        spec.telemetry.sampler, &result.stats);
    memory.set_sampler(result.epochs.get());
  }

  const bool progress_active =
      !spec.progress_file.empty() && !spec.sampling.enabled;
  const auto wall_start = std::chrono::steady_clock::now();
  if (spec.sampling.enabled) {
    // The instance above becomes the functional-only backbone; window
    // workers replicate it from the spec. Telemetry sinks hold
    // single-threaded ring state and the backbone never runs a detailed
    // cycle, so validate() keeps them off.
    result.run = run_parallel_sampled(spec, inst, &result.sampling);
  } else {
    // Exact run, in segments when there are checkpoints or a progress
    // heartbeat to stop for (one segment otherwise). The restore side
    // re-runs the whole construction above (everything config-derived is
    // rebuilt from the spec), then overwrites the mutable surface from the
    // file. A segment stop is exact (see System::advance_until), so extra
    // heartbeat boundaries never perturb the simulated behavior.
    SnapshotContext ctx;
    std::uint64_t fp = 0;
    if (snap_active) {
      ctx = inst.snapshot_context();
      ctx.sampler = result.epochs.get();
      ctx.trace = result.trace.get();
      for (const auto& checker : checkers) {
        ctx.checkers.push_back(checker.get());
      }
      fp = config_fingerprint(spec_canonical(spec));
    }
    const auto write_snapshot = [&] {
      if (write_snapshot_file(spec.snapshot.out, ctx, fp)) return true;
      result.error = "cannot write snapshot " + spec.snapshot.out;
      return false;
    };

    system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    if (!spec.snapshot.in.empty()) {
      std::string err;
      if (!read_snapshot_file(spec.snapshot.in, ctx, fp, &err)) {
        result.error =
            "snapshot restore failed (" + spec.snapshot.in + "): " + err;
        return result;
      }
    }
    const std::uint64_t stop_at = spec.snapshot.stop_at > 0
                                      ? spec.snapshot.stop_at
                                      : spec.max_cpu_cycles;
    std::uint64_t next_snap = 0;
    if (spec.snapshot.every > 0) {
      next_snap =
          (system.cpu_cycle() / spec.snapshot.every + 1) * spec.snapshot.every;
    }
    std::unique_ptr<telemetry::ProgressWriter> progress;
    std::uint64_t beat_every = 0;
    std::uint64_t next_beat = 0;
    const std::uint64_t target_total =
        spec.instructions_per_core * spec.benchmarks.size();
    if (progress_active) {
      progress =
          std::make_unique<telemetry::ProgressWriter>(spec.progress_file);
      beat_every = spec.progress_every > 0 ? spec.progress_every
                                           : std::uint64_t{10'000'000};
      next_beat = system.cpu_cycle() + beat_every;
    }
    const auto emit_beat = [&](bool done) {
      telemetry::ProgressWriter::RunHeartbeat h;
      h.cpu_cycles = system.cpu_cycle();
      h.max_cpu_cycles = spec.max_cpu_cycles;
      for (std::uint32_t c = 0; c < system.num_cores(); ++c) {
        h.instructions += system.core(c).stats().instructions;
      }
      h.target_instructions = target_total;
      h.cores_remaining = system.cores_remaining();
      h.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
      h.mcyc_per_s = h.wall_s > 0.0 ? static_cast<double>(h.cpu_cycles) /
                                          1e6 / h.wall_s
                                    : 0.0;
      if (h.instructions >= target_total) {
        h.eta_s = 0.0;
      } else if (h.instructions > 0) {
        h.eta_s = h.wall_s *
                  static_cast<double>(target_total - h.instructions) /
                  static_cast<double>(h.instructions);
      }
      h.done = done;
      progress->write_run(h);
    };
    for (;;) {
      std::uint64_t stop = stop_at;
      if (next_snap > 0) stop = std::min(stop, next_snap);
      if (next_beat > 0) stop = std::min(stop, next_beat);
      const bool ended = system.advance_until(stop);
      if (next_beat > 0 && (ended || system.cpu_cycle() >= next_beat)) {
        emit_beat(ended);
        while (next_beat <= system.cpu_cycle()) next_beat += beat_every;
      }
      if (ended) break;  // natural end: no checkpoint, the run is complete
      if (spec.snapshot.stop_at > 0 &&
          system.cpu_cycle() >= spec.snapshot.stop_at) {
        if (!write_snapshot()) return result;
        result.interrupted = true;
        break;
      }
      if (next_snap > 0 && system.cpu_cycle() >= next_snap) {
        if (!write_snapshot()) return result;
        while (next_snap <= system.cpu_cycle()) {
          next_snap += spec.snapshot.every;
        }
      }
    }
    result.run = system.finish_run();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // CPI-stack exactness (invariant family (e)): the frozen per-core stacks
  // must sum bit-exactly to the frozen cycles.
  if (!checkers.empty()) {
    for (std::size_t c = 0; c < result.run.cores.size(); ++c) {
      const cpu::CoreResult& r = result.run.cores[c];
      checkers.front()->audit_cpi(static_cast<std::uint32_t>(c),
                                  r.cpu_cycles, r.cpi_stack_sum());
    }
  }

  for (const auto& checker : checkers) {
    checker->finalize();
    result.checker_ticks += checker->ticks_checked();
    result.checker_violations += checker->violation_count();
    if (!checker->ok()) {
      std::fprintf(stderr, "%s\n", checker->summary().c_str());
      ROP_ASSERT(false && "SimChecker found invariant violations");
    }
  }

  // Energy: DRAM per channel + the SRAM buffer when ROP is active.
  const energy::DramPowerModel power(energy::DramEnergyParams{},
                                     memory.config().timings);
  for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const energy::EnergyBreakdown e =
        power.compute(memory.controller(ch).channel());
    result.energy.background_mj += e.background_mj;
    result.energy.act_pre_mj += e.act_pre_mj;
    result.energy.read_mj += e.read_mj;
    result.energy.write_mj += e.write_mj;
    result.energy.refresh_mj += e.refresh_mj;
    result.energy.io_mj += e.io_mj;
  }
  if (!engines.empty()) {
    const auto sram =
        energy::SramEnergyParams::for_capacity(spec.rop.buffer_lines);
    const double tck =
        static_cast<double>(memory.config().timings.tCK_ps) * 1e-12;
    for (const auto& eng : engines) {
      const auto& bs = eng->buffer().stats();
      const double on_s =
          static_cast<double>(eng->sram_on_cycles()) * tck;
      result.energy.sram_mj +=
          sram.energy_mj(bs.lookups + bs.fills, on_s);
    }
    // Paper §V-B3 hit-rate metric: the engines track hits/opportunities
    // directly (a queued read may first miss and later be served once its
    // fill lands, so raw hit/miss counters would double-count it).
    double rate_sum = 0.0;
    for (const auto& eng : engines) rate_sum += eng->overall_hit_rate();
    result.sram_hit_rate = rate_sum / static_cast<double>(engines.size());
    result.lambda = engines.front()->lambda();
    result.beta = engines.front()->beta();
  }

  // Refresh blocking statistics, merged over channels.
  result.refreshes = 0;
  const std::size_t num_windows =
      mem::RefreshBlockingStats::kExaminedMultiples.size();
  result.nonblocking_fraction.assign(num_windows, 0.0);
  result.mean_blocked_per_blocking_refresh.assign(num_windows, 0.0);
  result.max_blocked.assign(num_windows, 0);
  for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const auto& bs = memory.controller(ch).blocking_stats();
    result.refreshes += bs.total_refreshes();
    for (std::size_t k = 0; k < num_windows; ++k) {
      // Single channel in all presets; for multi-channel this is a simple
      // average rather than a weighted merge.
      result.nonblocking_fraction[k] += bs.non_blocking_fraction(k);
      result.mean_blocked_per_blocking_refresh[k] +=
          bs.mean_blocked_per_blocking_refresh(k);
      result.max_blocked[k] =
          std::max(result.max_blocked[k], bs.max_blocked(k));
    }
  }
  if (memory.num_channels() > 1) {
    for (std::size_t k = 0; k < num_windows; ++k) {
      result.nonblocking_fraction[k] /= memory.num_channels();
      result.mean_blocked_per_blocking_refresh[k] /= memory.num_channels();
    }
  }

  return result;
}

unsigned experiment_worker_width(const ExperimentSpec& spec) {
  return spec.sampling.enabled ? spec.sampling.jobs : 1;
}

ExperimentSpec single_core_spec(std::string benchmark, MemoryMode mode,
                                std::uint64_t llc_bytes) {
  ExperimentSpec spec;
  spec.benchmarks = {std::move(benchmark)};
  spec.mode = mode;
  spec.ranks = 1;
  spec.llc_bytes = llc_bytes;
  return spec;
}

ExperimentSpec multi_core_spec(std::uint32_t wl, MemoryMode mode,
                               bool rank_partition,
                               std::uint64_t llc_bytes) {
  ExperimentSpec spec;
  spec.benchmarks = workload::workload_mix(wl);
  spec.mode = mode;
  spec.ranks = 4;
  spec.rank_partition = rank_partition;
  spec.llc_bytes = llc_bytes;
  return spec;
}

}  // namespace rop::sim
