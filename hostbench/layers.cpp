#include "layers.h"

#include <algorithm>
#include <utility>

#include "cache/llc.h"
#include "energy/dram_power.h"
#include "mem/memory_system.h"
#include "mem/refresh_stats.h"
#include "sim/parallel_sampling.h"
#include "sim/snapshot.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic.h"

namespace hostbench {

namespace sim = rop::sim;
namespace mem = rop::mem;
using rop::Cycle;

namespace {

/// CPU cycles per traced advance_until span: fine enough to follow the
/// run, coarse enough that the clock reads stay negligible.
constexpr std::uint64_t kAdvanceChunk = 1'000'000;
/// Save/load rounds on the warm instance.
constexpr int kSnapshotRounds = 5;

std::uint64_t total_instructions(const rop::cpu::System& system) {
  std::uint64_t n = 0;
  for (rop::CoreId c = 0; c < system.num_cores(); ++c) {
    n += system.core(c).stats().instructions;
  }
  return n;
}

}  // namespace

const char* hook_name(Hook h) {
  switch (h) {
    case Hook::kOnTick:
      return "on_tick";
    case Hook::kOnEnqueue:
      return "on_enqueue";
    case Hook::kOnDemandServiced:
      return "on_demand_serviced";
    case Hook::kOnRankLocked:
      return "on_rank_locked";
    case Hook::kOnRefreshIssued:
      return "on_refresh_issued";
    case Hook::kOnPrefetchFilled:
      return "on_prefetch_filled";
  }
  return "?";
}

template <class Fn>
decltype(auto) TimedListener::timed(Hook h, Fn&& fn) {
  const auto i = static_cast<std::size_t>(h);
  if (depth_ > 0) {
    ++nested_[i];  // inside a timed hook, whose span already holds its time
    return fn();
  }
  Span& span = spans_[i];
  ++depth_;
  const std::int64_t t0 = now_ns();
  struct Exit {
    TimedListener* self;
    Span* span;
    std::int64_t t0;
    ~Exit() {
      span->add(now_ns() - t0);
      --self->depth_;
    }
  } exit{this, &span, t0};
  return fn();
}

std::optional<Cycle> TimedListener::on_enqueue(const mem::Request& req,
                                               Cycle now) {
  return timed(Hook::kOnEnqueue, [&] { return inner_.on_enqueue(req, now); });
}

void TimedListener::on_demand_serviced(const mem::Request& req, Cycle now) {
  timed(Hook::kOnDemandServiced,
        [&] { inner_.on_demand_serviced(req, now); });
}

void TimedListener::on_rank_locked(rop::RankId rank, Cycle now) {
  timed(Hook::kOnRankLocked, [&] { inner_.on_rank_locked(rank, now); });
}

void TimedListener::on_refresh_issued(rop::RankId rank, Cycle start,
                                      Cycle done) {
  timed(Hook::kOnRefreshIssued,
        [&] { inner_.on_refresh_issued(rank, start, done); });
}

void TimedListener::on_prefetch_filled(const mem::Request& req, Cycle now) {
  timed(Hook::kOnPrefetchFilled,
        [&] { inner_.on_prefetch_filled(req, now); });
}

void TimedListener::on_tick(Cycle now) {
  timed(Hook::kOnTick, [&] { inner_.on_tick(now); });
  tick_return_ns = now_ns();
}

void CountingAuditor::on_tick_end(const mem::Controller& ctrl, Cycle now) {
  (void)ctrl;
  (void)now;
  ++ticks;
  if (listener != nullptr && listener->tick_return_ns >= 0) {
    sched_refresh.add(now_ns() - listener->tick_return_ns);
    listener->tick_return_ns = -1;
  }
}

void CountingAuditor::on_retired(const mem::Request& req) {
  (void)req;
  ++reads_retired;
}

sim::SimInstanceHooks LayerProbes::hooks() {
  sim::SimInstanceHooks h;
  h.post_memory = [this](mem::MemorySystem& memory) {
    memory_ = &memory;
    for (rop::ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
      auditors_.push_back(std::make_unique<CountingAuditor>());
      memory.controller(ch).set_auditor(auditors_.back().get());
    }
  };
  h.post_engines =
      [this](std::vector<std::unique_ptr<rop::engine::RopEngine>>& engines) {
        // One engine per channel, in channel order (build_sim_instance).
        for (std::size_t ch = 0; ch < engines.size(); ++ch) {
          listeners_.push_back(std::make_unique<TimedListener>(*engines[ch]));
          memory_->controller(static_cast<rop::ChannelId>(ch))
              .set_listener(listeners_.back().get());
          auditors_[ch]->listener = listeners_.back().get();
        }
      };
  return h;
}

std::uint64_t LayerProbes::ticks() const {
  std::uint64_t n = 0;
  for (const auto& a : auditors_) n += a->ticks;
  return n;
}

std::uint64_t LayerProbes::reads_retired() const {
  std::uint64_t n = 0;
  for (const auto& a : auditors_) n += a->reads_retired;
  return n;
}

Span LayerProbes::hook_span(Hook h) const {
  Span s;
  for (const auto& l : listeners_) {
    s.count += l->span(h).count;
    s.total_ns += l->span(h).total_ns;
  }
  return s;
}

std::uint64_t LayerProbes::hook_calls(Hook h) const {
  std::uint64_t n = 0;
  for (const auto& l : listeners_) n += l->span(h).count + l->nested(h);
  return n;
}

Span LayerProbes::sched_refresh() const {
  Span s;
  for (const auto& a : auditors_) {
    s.count += a->sched_refresh.count;
    s.total_ns += a->sched_refresh.total_ns;
  }
  return s;
}

void finish_result(const sim::ExperimentSpec& spec, sim::SimInstance& inst,
                   sim::ExperimentResult* result) {
  // Mirrors the tail of run_experiment (sim/experiment.cpp).
  mem::MemorySystem& memory = *inst.memory;
  result->cpu_ratio = inst.cpu_ratio;
  const rop::energy::DramPowerModel power(rop::energy::DramEnergyParams{},
                                          memory.config().timings);
  for (rop::ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const rop::energy::EnergyBreakdown e =
        power.compute(memory.controller(ch).channel());
    result->energy.background_mj += e.background_mj;
    result->energy.act_pre_mj += e.act_pre_mj;
    result->energy.read_mj += e.read_mj;
    result->energy.write_mj += e.write_mj;
    result->energy.refresh_mj += e.refresh_mj;
    result->energy.io_mj += e.io_mj;
  }
  if (!inst.engines.empty()) {
    const auto sram =
        rop::energy::SramEnergyParams::for_capacity(spec.rop.buffer_lines);
    const double tck =
        static_cast<double>(memory.config().timings.tCK_ps) * 1e-12;
    double rate_sum = 0.0;
    for (const auto& eng : inst.engines) {
      const auto& bs = eng->buffer().stats();
      const double on_s = static_cast<double>(eng->sram_on_cycles()) * tck;
      result->energy.sram_mj += sram.energy_mj(bs.lookups + bs.fills, on_s);
      rate_sum += eng->overall_hit_rate();
    }
    result->sram_hit_rate =
        rate_sum / static_cast<double>(inst.engines.size());
    result->lambda = inst.engines.front()->lambda();
    result->beta = inst.engines.front()->beta();
  }
  const std::size_t num_windows =
      mem::RefreshBlockingStats::kExaminedMultiples.size();
  result->refreshes = 0;
  result->nonblocking_fraction.assign(num_windows, 0.0);
  result->mean_blocked_per_blocking_refresh.assign(num_windows, 0.0);
  result->max_blocked.assign(num_windows, 0);
  for (rop::ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const auto& bs = memory.controller(ch).blocking_stats();
    result->refreshes += bs.total_refreshes();
    for (std::size_t k = 0; k < num_windows; ++k) {
      result->nonblocking_fraction[k] += bs.non_blocking_fraction(k);
      result->mean_blocked_per_blocking_refresh[k] +=
          bs.mean_blocked_per_blocking_refresh(k);
      result->max_blocked[k] =
          std::max(result->max_blocked[k], bs.max_blocked(k));
    }
  }
  if (memory.num_channels() > 1) {
    for (std::size_t k = 0; k < num_windows; ++k) {
      result->nonblocking_fraction[k] /= memory.num_channels();
      result->mean_blocked_per_blocking_refresh[k] /= memory.num_channels();
    }
  }
}

TracedRun traced_run(const sim::ExperimentSpec& spec) {
  TracedRun out;
  LayerProbes probes;
  // Declared after the probes: the instance (whose controllers point at
  // them) is destroyed first.
  sim::SimInstance inst =
      sim::build_sim_instance(spec, &out.result.stats, probes.hooks());
  rop::cpu::System& system = *inst.system;

  const std::int64_t t0 = now_ns();
  if (spec.sampling.enabled) {
    out.result.run =
        sim::run_parallel_sampled(spec, inst, &out.result.sampling);
    out.run_s = seconds_since(t0);
  } else {
    system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
    for (;;) {
      const std::int64_t s0 = now_ns();
      const bool done = system.advance_until(system.cpu_cycle() + kAdvanceChunk);
      out.advance.add(now_ns() - s0);
      if (done) break;
    }
    out.run_s = seconds_since(t0);

    // The warm instance, between the last advance_until and finish_run:
    // the one point where a snapshot of a finished exact run is legal.
    const sim::SnapshotContext ctx = inst.snapshot_context();
    const std::uint64_t fp =
        sim::config_fingerprint(sim::spec_canonical(spec));
    for (int r = 0; r < kSnapshotRounds; ++r) {
      const std::int64_t s0 = now_ns();
      const std::string buf = sim::save_snapshot_buffer(ctx, fp);
      const std::int64_t s1 = now_ns();
      std::string err;
      const bool ok = sim::load_snapshot_buffer(buf, ctx, fp, &err);
      const std::int64_t s2 = now_ns();
      ROP_ASSERT(ok && "warm-instance snapshot did not restore");
      out.save_ms.push_back(static_cast<double>(s1 - s0) * 1e-6);
      out.load_ms.push_back(static_cast<double>(s2 - s1) * 1e-6);
      out.snapshot_mb = static_cast<double>(buf.size()) / (1024.0 * 1024.0);
    }

    const std::int64_t f0 = now_ns();
    out.result.run = system.finish_run();
    out.run_s += seconds_since(f0);
  }
  out.result.wall_seconds = out.run_s;
  finish_result(spec, inst, &out.result);
  out.stats_json = out.result.to_json();

  out.ticks = probes.ticks();
  out.reads_retired = probes.reads_retired();
  for (std::size_t h = 0; h < kHookCount; ++h) {
    out.hooks[h] = probes.hook_span(static_cast<Hook>(h));
    out.hook_calls[h] = probes.hook_calls(static_cast<Hook>(h));
  }
  out.sched_refresh = probes.sched_refresh();
  out.channels = probes.channels();
  return out;
}

SamplingReplay replay_sampling(const sim::ExperimentSpec& spec,
                               const sim::SamplingSummary& expected) {
  SamplingReplay out;
  const sim::SamplingSpec& s = spec.sampling;
  const std::uint64_t fp = sim::config_fingerprint(sim::spec_canonical(spec));

  sim::SimInstance backbone = sim::build_sim_instance(spec);
  rop::cpu::System& system = *backbone.system;
  system.begin_run(spec.instructions_per_core, spec.max_cpu_cycles);
  const sim::SnapshotContext ctx = backbone.snapshot_context();

  // The replica, as one worker of the pool would hold it: built once on
  // first use, begun once, then restore + run per window.
  LayerProbes probes;
  sim::SimInstance replica;
  sim::SnapshotContext replica_ctx;

  // Uniform placement (strata == 0), as run_parallel_sampled plans it.
  const std::uint64_t chunk = std::max<std::uint64_t>(
      1, s.functional_instructions / sim::kPlannerOversample);
  const std::uint64_t planned = (spec.instructions_per_core + chunk - 1) / chunk;
  std::vector<double> ipcs;
  for (std::uint64_t i = 0; i < planned; ++i) {
    if (system.cores_remaining() == 0 ||
        system.cpu_cycle() >= system.max_cpu_cycles()) {
      break;
    }
    if (i % sim::kPlannerOversample == 0) {
      std::int64_t t = now_ns();
      const std::string buf = sim::save_snapshot_buffer(ctx, fp);
      out.save.add(now_ns() - t);
      out.snapshot_mb = static_cast<double>(buf.size()) / (1024.0 * 1024.0);

      if (!replica.system) {
        t = now_ns();
        replica = sim::build_sim_instance(spec, nullptr, probes.hooks());
        replica.system->begin_run(spec.instructions_per_core,
                                  spec.max_cpu_cycles);
        replica_ctx = replica.snapshot_context();
        out.replica_build_s = seconds_since(t);
      }
      rop::cpu::System& rs = *replica.system;

      t = now_ns();
      std::string err;
      const bool ok = sim::load_snapshot_buffer(buf, replica_ctx, fp, &err);
      ROP_ASSERT(ok && "replica did not restore the planned window");
      out.load.add(now_ns() - t);

      // Looked up, never registered: a new entry would change the
      // registry layout the snapshots restore into.
      const rop::Scalar* accuracy =
          replica.registry->find_scalar("rop.phase_accuracy");
      const double acc_sum0 = accuracy != nullptr ? accuracy->sum() : 0.0;
      const std::uint64_t acc_count0 =
          accuracy != nullptr ? accuracy->count() : 0;
      t = now_ns();
      const std::uint64_t llc0 = llc_counter(*replica.registry, "accesses");
      const rop::Cycle m0 = rs.mem_now();
      // The worker's window body (sim/parallel_sampling.cpp).
      const bool done = rs.advance_until(rs.cpu_cycle() + s.warmup_cycles);
      if (!done) {
        const std::uint64_t c0 = rs.cpu_cycle();
        const std::uint64_t i0 = total_instructions(rs);
        (void)rs.advance_until(c0 + s.detail_cycles);
        const std::uint64_t c1 = rs.cpu_cycle();
        if (c1 > c0) {
          ipcs.push_back(static_cast<double>(total_instructions(rs) - i0) /
                         static_cast<double>(c1 - c0));
        }
      }
      out.window.add(now_ns() - t);
      out.window_llc_accesses +=
          llc_counter(*replica.registry, "accesses") - llc0;
      out.mem_cycles += rs.mem_now() - m0;
      if (accuracy != nullptr) {
        out.accuracy_sum += accuracy->sum() - acc_sum0;
        out.accuracy_count += accuracy->count() - acc_count0;
      }
      ++out.windows;
    }
    const std::int64_t t = now_ns();
    (void)system.functional_window(chunk, s.critical_penalty);
    out.functional.add(now_ns() - t);
  }
  (void)system.finish_run();

  out.observations_match = ipcs.size() == expected.observations.size();
  for (std::size_t i = 0; out.observations_match && i < ipcs.size(); ++i) {
    out.observations_match = ipcs[i] == expected.observations[i].ipc;
  }
  out.ticks = probes.ticks();
  out.reads_retired = probes.reads_retired();
  for (std::size_t h = 0; h < kHookCount; ++h) {
    out.hooks[h] = probes.hook_span(static_cast<Hook>(h));
    out.hook_calls[h] = probes.hook_calls(static_cast<Hook>(h));
  }
  out.sched_refresh = probes.sched_refresh();
  return out;
}

StreamReplay replay_streams(const sim::ExperimentSpec& spec,
                            std::uint64_t max_records) {
  StreamReplay out;
  const std::size_t cores = spec.benchmarks.size();
  const std::uint64_t per_core = std::max<std::uint64_t>(1, max_records / cores);

  std::vector<std::vector<rop::workload::TraceRecord>> records(cores);
  std::int64_t gen_ns = 0;
  for (std::size_t c = 0; c < cores; ++c) {
    rop::workload::SyntheticTrace trace(
        rop::workload::spec_profile(spec.benchmarks[c], spec.seed_salt + c));
    records[c].resize(per_core);
    const std::int64_t t0 = now_ns();
    for (auto& r : records[c]) r = trace.next();
    gen_ns += now_ns() - t0;
  }
  const auto total = static_cast<double>(per_core * cores);
  out.next_ns = static_cast<double>(gen_ns) / total;

  // Cores interleave on the shared LLC. Each core's core-local addresses
  // are placed in a region of its own, standing in for the system's
  // relocation.
  rop::cache::Llc llc(
      sim::make_system_config(spec.llc_bytes, spec.rank_partition).llc);
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < per_core; ++i) {
    for (std::size_t c = 0; c < cores; ++c) {
      const rop::workload::TraceRecord& r = records[c][i];
      (void)llc.access(r.addr + (static_cast<rop::Address>(c) << 40),
                       r.is_write);
    }
  }
  out.access_ns = static_cast<double>(now_ns() - t0) / total;
  return out;
}

}  // namespace hostbench
