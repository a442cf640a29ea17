// Determinism guarantees for the execution-speed features: the parallel
// experiment runner and the unified core/memory event loop. Both must be
// bit-identical to the serial/naive baseline — not approximately equal.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rop/rop_engine.h"
#include "sim/runner.h"
#include "workload/synthetic.h"

namespace rop::sim {
namespace {

ExperimentSpec quick_multicore_spec(MemoryMode mode) {
  // 4-core mix on 4 ranks: enough contention to exercise refresh sealing,
  // forwarding, and coalescing, small enough to run several times.
  ExperimentSpec spec = multi_core_spec(1, mode, /*rank_partition=*/true);
  spec.instructions_per_core = 120'000;
  return spec;
}

std::vector<ExperimentSpec> sweep_specs() {
  return {
      quick_multicore_spec(MemoryMode::kBaseline),
      quick_multicore_spec(MemoryMode::kRop),
      quick_multicore_spec(MemoryMode::kElastic),
      quick_multicore_spec(MemoryMode::kPausing),
  };
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  // The registry report covers every counter, scalar, and histogram the
  // simulation recorded (including the coreN.* and llc.* mirrors).
  EXPECT_EQ(a.stats.report(), b.stats.report());
  ASSERT_EQ(a.run.cores.size(), b.run.cores.size());
  EXPECT_EQ(a.run.cpu_cycles, b.run.cpu_cycles);
  EXPECT_EQ(a.run.mem_cycles, b.run.mem_cycles);
  EXPECT_EQ(a.run.hit_cycle_limit, b.run.hit_cycle_limit);
  for (std::size_t c = 0; c < a.run.cores.size(); ++c) {
    EXPECT_EQ(a.run.cores[c].instructions, b.run.cores[c].instructions);
    EXPECT_EQ(a.run.cores[c].cpu_cycles, b.run.cores[c].cpu_cycles);
    EXPECT_DOUBLE_EQ(a.run.cores[c].ipc, b.run.cores[c].ipc);
  }
  EXPECT_DOUBLE_EQ(a.total_energy_mj(), b.total_energy_mj());
  EXPECT_DOUBLE_EQ(a.energy.sram_mj, b.energy.sram_mj);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_DOUBLE_EQ(a.sram_hit_rate, b.sram_hit_rate);
}

TEST(ParallelRunner, MatchesSerialAtEveryThreadCount) {
  const std::vector<ExperimentSpec> specs = sweep_specs();

  std::vector<ExperimentResult> serial;
  serial.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) {
    serial.push_back(run_experiment(spec));
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const std::vector<ExperimentResult> parallel =
        run_experiments(specs, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "spec=" << i);
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(FastForward, BitIdenticalToNaiveLoop) {
  for (const MemoryMode mode :
       {MemoryMode::kBaseline, MemoryMode::kRop, MemoryMode::kElastic,
        MemoryMode::kPausing, MemoryMode::kPerBank, MemoryMode::kNoRefresh}) {
    SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode));
    ExperimentSpec naive = quick_multicore_spec(mode);
    naive.loop = cpu::LoopMode::kNaive;
    const ExperimentResult ref = run_experiment(naive);
    ExperimentSpec fast = naive;
    fast.loop = cpu::LoopMode::kEventDriven;
    expect_identical(ref, run_experiment(fast));
  }
}

TEST(FastForward, BitIdenticalSingleCore) {
  // Single-core runs spend the most time fully frozen, so they take the
  // longest jumps — the strongest stress on next_event_cycle being exact.
  for (const char* bench : {"libquantum", "lbm", "gobmk"}) {
    SCOPED_TRACE(bench);
    ExperimentSpec naive = single_core_spec(bench, MemoryMode::kRop);
    naive.instructions_per_core = 200'000;
    naive.loop = cpu::LoopMode::kNaive;
    const ExperimentResult ref = run_experiment(naive);
    ExperimentSpec fast = naive;
    fast.loop = cpu::LoopMode::kEventDriven;
    expect_identical(ref, run_experiment(fast));
  }
}

// ---------------------------------------------------------------------------
// Mid-span state dump: beyond aggregate stats, the *micro-architectural*
// state — every queue entry, refresh phase register, per-bank timing
// register, and per-core front-end register (instruction/cycle/stall
// counters, residual gap, RNG state, outstanding set) — must match the
// naive loop at arbitrary off-ratio cutoffs. Aggregate identity could in
// principle survive compensating errors; this cannot.

std::string dump_memory_state(
    const mem::MemorySystem& memory,
    const std::vector<std::unique_ptr<engine::RopEngine>>& engines) {
  std::ostringstream os;
  for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
    const mem::Controller& c = memory.controller(ch);
    os << "ch" << ch << "\n";
    const auto dump_queue = [&os](const char* name, mem::RequestView q) {
      os << " " << name << ":";
      for (const mem::Request& r : q) {
        os << " [" << r.id << " t" << static_cast<int>(r.type) << " r"
           << r.coord.rank << " b" << r.coord.bank << " row" << r.coord.row
           << " a" << r.arrival << " c" << r.completion << "]";
      }
      os << "\n";
    };
    dump_queue("reads", c.read_queue());
    dump_queue("writes", c.write_queue());
    dump_queue("prefetch", c.prefetch_queue());
    dump_queue("inflight", c.in_flight());
    const dram::Channel& dch = c.channel();
    for (RankId r = 0; r < dch.num_ranks(); ++r) {
      const mem::RankState& s = c.rank_state(r);
      os << " rank" << r << " phase=" << static_cast<int>(s.phase)
         << " locked_at=" << s.locked_at
         << " drain_pending=" << s.drain_pending
         << " pending=" << s.reads.size() << "/" << s.writes << "/"
         << s.queued_prefetches << "/" << s.inflight_prefetches
         << " refresh_remaining=" << s.remaining << "\n";
      const dram::Rank& rank = dch.rank(r);
      os << "  rank_timing next_act=" << rank.next_activate()
         << " next_col=" << rank.next_column()
         << " refreshing=" << rank.refreshing()
         << " done=" << rank.refresh_done() << " pb=" << rank.pb_refreshing()
         << "\n";
      for (BankId b = 0; b < rank.num_banks(); ++b) {
        const dram::Bank& bank = rank.bank(b);
        os << "  bank" << b << " s=" << static_cast<int>(bank.state())
           << " row="
           << (bank.open_row() ? std::to_string(*bank.open_row()) : "-")
           << " act=" << bank.next_activate() << " rd=" << bank.next_read()
           << " wr=" << bank.next_write() << " pre=" << bank.next_precharge()
           << "\n";
      }
    }
  }
  for (const auto& eng : engines) {
    os << "rop state=" << static_cast<int>(eng->state())
       << " sram_on=" << eng->sram_on_cycles()
       << " buffer=" << eng->buffer().size() << "\n";
  }
  return os.str();
}

std::string dump_core_state(const cpu::System& sys) {
  std::ostringstream os;
  for (std::uint32_t c = 0; c < sys.num_cores(); ++c) {
    const cpu::Core& core = sys.core(c);
    const cpu::CoreStats& s = core.stats();
    os << "core" << c << " i=" << s.instructions << " cyc=" << s.cycles
       << " stall=" << s.stall_cycles << " mr=" << s.mem_reads
       << " mf=" << s.mem_fills << " wb=" << s.mem_writebacks
       << " out=" << core.outstanding() << " gap=" << core.remaining_gap()
       << " rec=" << core.have_record() << " pend=" << core.mem_op_pending()
       << " wbq="
       << (core.pending_writeback() ? std::to_string(*core.pending_writeback())
                                    : "-")
       << " crit="
       << (core.critical_pending() ? std::to_string(*core.critical_pending())
                                   : "-")
       << " rng=";
    for (const std::uint64_t w : core.rng().state()) os << w << ",";
    os << "\n";
  }
  return os.str();
}

std::string run_truncated_and_dump(MemoryMode mode, cpu::LoopMode loop,
                                   std::uint64_t max_cpu_cycles) {
  StatRegistry stats;
  mem::MemorySystem memory(make_memory_config(4, mode), &stats);

  std::vector<std::unique_ptr<engine::RopEngine>> engines;
  if (mode == MemoryMode::kRop) {
    for (ChannelId ch = 0; ch < memory.num_channels(); ++ch) {
      engine::RopConfig rop_cfg;
      rop_cfg.seed ^= ch;
      engines.push_back(std::make_unique<engine::RopEngine>(
          rop_cfg, memory.controller(ch), memory.address_map(), &stats));
    }
  }

  std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
  std::vector<workload::TraceSource*> trace_ptrs;
  const std::vector<std::string> mix = workload::workload_mix(1);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    traces.push_back(std::make_unique<workload::SyntheticTrace>(
        workload::spec_profile(mix[c], c)));
    trace_ptrs.push_back(traces.back().get());
  }

  cpu::SystemConfig sys_cfg =
      make_system_config(4ull << 20, /*rank_partition=*/true);
  sys_cfg.loop = loop;
  cpu::System system(sys_cfg, memory, trace_ptrs);
  system.run(/*target_instructions=*/50'000'000, max_cpu_cycles);
  return dump_memory_state(memory, engines) + dump_core_state(system);
}

TEST(FastForward, MidSpanStateDumpMatchesNaiveLoop) {
  // Off-ratio cutoffs land inside boundary windows (and, for the fast runs,
  // inside skip spans), so the comparison catches any state — controller or
  // core front end — that a fast loop failed to bring current before
  // stopping.
  for (const MemoryMode mode : {MemoryMode::kRop, MemoryMode::kPausing}) {
    for (const std::uint64_t cutoff : {199'999ull, 400'001ull, 800'003ull}) {
      SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode)
                                      << " cutoff=" << cutoff);
      const std::string naive =
          run_truncated_and_dump(mode, cpu::LoopMode::kNaive, cutoff);
      const std::string event =
          run_truncated_and_dump(mode, cpu::LoopMode::kEventDriven, cutoff);
      EXPECT_EQ(naive, event);
      if (mode == MemoryMode::kPausing) continue;
      // A healthy cutoff run must actually have state in motion — guard
      // against the dump trivially matching because everything drained.
      EXPECT_NE(event.find("rop state="), std::string::npos);
      EXPECT_NE(event.find("crit="), std::string::npos);
    }
  }
}

TEST(FastForward, HeterogeneousMixBitIdenticalAcrossLoops) {
  // One memory-hog core (lbm: short gaps, large footprint, mostly asleep
  // on critical loads) + one compute-bound bursty core (wrf: long gaps,
  // long idle phases) — the event loop's target case, where the naive loop
  // burns cycles stepping a sleeping hog and a gap-retiring computer. The
  // final stats AND the per-epoch time series must be bit-identical across
  // both loops.
  ExperimentSpec naive;
  naive.benchmarks = {"lbm", "wrf"};
  naive.mode = MemoryMode::kRop;
  naive.ranks = 2;
  naive.rank_partition = true;
  naive.instructions_per_core = 150'000;
  naive.telemetry.sampler.epoch_cycles = 2'000;
  naive.loop = cpu::LoopMode::kNaive;
  const ExperimentResult ref = run_experiment(naive);
  ASSERT_TRUE(ref.epochs != nullptr);
  EXPECT_GE(ref.epochs->num_epochs(), 2u);

  ExperimentSpec fast = naive;
  fast.loop = cpu::LoopMode::kEventDriven;
  const ExperimentResult r = run_experiment(fast);
  expect_identical(ref, r);
  ASSERT_TRUE(r.epochs != nullptr);
  ASSERT_EQ(ref.epochs->num_epochs(), r.epochs->num_epochs());
  ASSERT_EQ(ref.epochs->counter_names(), r.epochs->counter_names());
  for (std::size_t i = 0; i < ref.epochs->num_epochs(); ++i) {
    ASSERT_EQ(ref.epochs->epoch_end(i), r.epochs->epoch_end(i))
        << "epoch " << i;
    for (std::size_t c = 0; c < ref.epochs->counter_names().size(); ++c) {
      ASSERT_EQ(ref.epochs->delta(i, c), r.epochs->delta(i, c))
          << "epoch " << i << " counter " << ref.epochs->counter_names()[c];
    }
  }
}

TEST(FastForward, CycleLimitEndsIdentically) {
  // Ending a run *inside* a skip span exercises the clamp to the cycle
  // limit (the final listener tick must still happen, and lazily-billed
  // sleeping cores must settle at the same final cycle).
  ExperimentSpec naive = quick_multicore_spec(MemoryMode::kRop);
  naive.instructions_per_core = 50'000'000;  // unreachable
  naive.max_cpu_cycles = 300'001;            // cut off mid-run, off-ratio
  naive.loop = cpu::LoopMode::kNaive;
  const ExperimentResult a = run_experiment(naive);
  EXPECT_TRUE(a.run.hit_cycle_limit);
  ExperimentSpec fast = naive;
  fast.loop = cpu::LoopMode::kEventDriven;
  expect_identical(a, run_experiment(fast));
}

}  // namespace
}  // namespace rop::sim
