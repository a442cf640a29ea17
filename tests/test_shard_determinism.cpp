// Multi-channel runs: the event loop, which advances each channel's
// controller (and attached engine / refresh manager) lazily on its own
// event clock, against the naive oracle, which ticks every channel at
// every boundary. Every observable output must match exactly, for every
// refresh scheme. The suite keeps the name of the retired channel-shard
// loop: `shard_channels` is still accepted, and these tests pin that it
// changes nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/channel_clocks.h"
#include "mem/memory_system.h"
#include "sim/experiment.h"
#include "telemetry/epoch_sampler.h"

namespace rop::sim {
namespace {

ExperimentSpec channel_spec(MemoryMode mode, std::uint32_t channels,
                            cpu::LoopMode loop,
                            dram::RefreshMode refresh = dram::RefreshMode::k1x,
                            std::uint64_t epoch_cycles = 0) {
  ExperimentSpec spec = multi_core_spec(1, mode, /*rank_partition=*/false);
  spec.ranks = 2;
  spec.channels = channels;
  spec.loop = loop;
  spec.refresh_mode = refresh;
  spec.instructions_per_core = 60'000;
  spec.telemetry.sampler.epoch_cycles = epoch_cycles;
  return spec;
}

ExperimentSpec naive_spec(MemoryMode mode, std::uint32_t channels,
                          dram::RefreshMode refresh = dram::RefreshMode::k1x,
                          std::uint64_t epoch_cycles = 0) {
  return channel_spec(mode, channels, cpu::LoopMode::kNaive, refresh,
                      epoch_cycles);
}

ExperimentSpec event_spec(MemoryMode mode, std::uint32_t channels,
                          dram::RefreshMode refresh = dram::RefreshMode::k1x,
                          std::uint64_t epoch_cycles = 0) {
  return channel_spec(mode, channels, cpu::LoopMode::kEventDriven, refresh,
                      epoch_cycles);
}

/// Everything observable except wall-clock and checker_ticks (the checker
/// counts executed ticks, which the two loops differ in by design;
/// violations do not).
void expect_identical(const ExperimentResult& naive,
                      const ExperimentResult& event) {
  EXPECT_EQ(naive.stats.report(), event.stats.report());
  EXPECT_EQ(naive.run.cpu_cycles, event.run.cpu_cycles);
  EXPECT_EQ(naive.run.mem_cycles, event.run.mem_cycles);
  EXPECT_EQ(naive.run.hit_cycle_limit, event.run.hit_cycle_limit);
  ASSERT_EQ(naive.run.cores.size(), event.run.cores.size());
  for (std::size_t c = 0; c < naive.run.cores.size(); ++c) {
    EXPECT_EQ(naive.run.cores[c].instructions,
              event.run.cores[c].instructions);
    EXPECT_EQ(naive.run.cores[c].cpu_cycles, event.run.cores[c].cpu_cycles);
    EXPECT_DOUBLE_EQ(naive.run.cores[c].ipc, event.run.cores[c].ipc);
  }
  EXPECT_DOUBLE_EQ(naive.total_energy_mj(), event.total_energy_mj());
  EXPECT_DOUBLE_EQ(naive.energy.refresh_mj, event.energy.refresh_mj);
  EXPECT_EQ(naive.refreshes, event.refreshes);
  EXPECT_DOUBLE_EQ(naive.sram_hit_rate, event.sram_hit_rate);
  EXPECT_DOUBLE_EQ(naive.lambda, event.lambda);
  EXPECT_DOUBLE_EQ(naive.beta, event.beta);
  EXPECT_EQ(naive.nonblocking_fraction, event.nonblocking_fraction);
  EXPECT_EQ(naive.max_blocked, event.max_blocked);
  EXPECT_EQ(naive.checker_violations, event.checker_violations);
}

void expect_identical_epochs(const ExperimentResult& naive,
                             const ExperimentResult& event) {
  ASSERT_NE(naive.epochs, nullptr);
  ASSERT_NE(event.epochs, nullptr);
  ASSERT_EQ(naive.epochs->num_epochs(), event.epochs->num_epochs());
  ASSERT_EQ(naive.epochs->counter_names(), event.epochs->counter_names());
  for (std::size_t e = 0; e < naive.epochs->num_epochs(); ++e) {
    EXPECT_EQ(naive.epochs->epoch_end(e), event.epochs->epoch_end(e));
    for (std::size_t c = 0; c < naive.epochs->counter_names().size(); ++c) {
      EXPECT_EQ(naive.epochs->delta(e, c), event.epochs->delta(e, c))
          << "epoch " << e << " series "
          << naive.epochs->counter_names()[c];
    }
  }
}

class ShardDeterminism : public ::testing::TestWithParam<MemoryMode> {};

TEST_P(ShardDeterminism, BitIdenticalAtEveryShardCount) {
  // Four channels on the event loop match the naive oracle, whatever
  // shard_channels says.
  const MemoryMode mode = GetParam();
  const ExperimentResult naive = run_experiment(naive_spec(mode, 4));
  for (const std::uint32_t shards : {0u, 4u}) {
    ExperimentSpec spec = event_spec(mode, 4);
    spec.shard_channels = shards;
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(naive, run_experiment(spec));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ShardDeterminism, ::testing::ValuesIn(kAllMemoryModes),
    [](const ::testing::TestParamInfo<MemoryMode>& param_info) {
      switch (param_info.param) {
        case MemoryMode::kBaseline: return "Baseline";
        case MemoryMode::kNoRefresh: return "NoRefresh";
        case MemoryMode::kRop: return "Rop";
        case MemoryMode::kElastic: return "Elastic";
        case MemoryMode::kPausing: return "Pausing";
        case MemoryMode::kPerBank: return "PerBank";
        case MemoryMode::kDarp: return "Darp";
        case MemoryMode::kSarp: return "Sarp";
        case MemoryMode::kHira: return "Hira";
      }
      return "Unknown";
    });

TEST(ShardDeterminism, EpochSeriesMatchSerialSampling) {
  // The channel clocks emit each epoch sample after every due tick before
  // the boundary and before any tick at or past it: the series must match
  // the naive loop's, which samples at every boundary it ticks.
  const ExperimentResult naive = run_experiment(naive_spec(
      MemoryMode::kRop, 4, dram::RefreshMode::k1x, /*epoch_cycles=*/5'000));
  const ExperimentResult event = run_experiment(event_spec(
      MemoryMode::kRop, 4, dram::RefreshMode::k1x, /*epoch_cycles=*/5'000));
  expect_identical(naive, event);
  expect_identical_epochs(naive, event);
}

TEST(ShardDeterminism, RefreshRateSweepStaysIdentical) {
  for (const dram::RefreshMode refresh :
       {dram::RefreshMode::k1x, dram::RefreshMode::k2x,
        dram::RefreshMode::k4x}) {
    SCOPED_TRACE("refresh=" +
                 std::to_string(static_cast<int>(refresh)) + "x");
    expect_identical(
        run_experiment(naive_spec(MemoryMode::kBaseline, 2, refresh)),
        run_experiment(event_spec(MemoryMode::kBaseline, 2, refresh)));
  }
}

TEST(ShardDeterminism, CheckerCleanUnderSharding) {
  // One checker per channel audits queue conservation, refresh deadlines,
  // and buffer coherence; the channel-0 checker additionally runs the
  // end-of-run conservation audit over the shared registry.
  ExperimentSpec spec = event_spec(MemoryMode::kRop, 4);
  spec.check = true;
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.checker_ticks, 0u);
  EXPECT_EQ(result.checker_violations, 0u);
}

TEST(ShardDeterminism, ShardCountClampsToChannels) {
  // More shards than channels is still a legal spec, and changes nothing.
  ExperimentSpec spec = event_spec(MemoryMode::kBaseline, 2);
  const ExperimentResult plain = run_experiment(spec);
  spec.shard_channels = 8;
  expect_identical(plain, run_experiment(spec));
}

/// Counts the ticks a controller executes.
class TickCounter final : public mem::ControllerAuditor {
 public:
  void on_tick_end(const mem::Controller&, Cycle) override { ++ticks; }
  void on_retired(const mem::Request&) override {}
  std::uint64_t ticks = 0;
};

TEST(ChannelClocks, DeliveryLeavesNoEchoTick) {
  // The channel's next event after a delivery comes from the drained
  // state: the cycle after the delivery is not ticked just to find the
  // completion queue empty.
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.channels = 2;
  StatRegistry stats;
  mem::MemorySystem memory(cfg, &stats);
  mem::ChannelClocks clocks(memory);

  ChannelId ch = 0;
  ASSERT_TRUE(memory.enqueue(0x40, mem::ReqType::kRead, 0, 0, &ch));
  clocks.note_enqueue(ch, 0);
  TickCounter counter;
  memory.controller(ch).set_auditor(&counter);

  // Visit the delivery bounds the event loop would visit until the read is
  // delivered.
  Cycle d = 0;
  std::uint64_t delivered = 0;
  while (delivered == 0) {
    d = clocks.next_required_boundary(d);
    ASSERT_LT(d, cfg.timings.tREFI) << "the read never completed";
    clocks.advance_to(d);
    clocks.for_each_completed([&](const mem::Request&) { ++delivered; });
  }
  EXPECT_EQ(delivered, 1u);

  const std::uint64_t before = counter.ticks;
  clocks.advance_to(d + 1);
  EXPECT_EQ(counter.ticks, before) << "echo tick at " << d + 1;
  memory.controller(ch).set_auditor(nullptr);
}

TEST(ChannelClocks, CatchUpLeavesSamplesAfterTheLastTickPending) {
  // A segment exit catches the channels up without emitting the samples
  // no tick passes: those wait for the next visit, as in the naive loop,
  // and so see what the cores do in between (a functional window's LLC
  // traffic). advance_to, a visit, emits them all.
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  StatRegistry stats;
  mem::MemorySystem memory(cfg, &stats);
  telemetry::SamplerConfig sampler_cfg;
  sampler_cfg.epoch_cycles = 100;
  telemetry::EpochSampler sampler(sampler_cfg, &stats);
  memory.set_sampler(&sampler);
  mem::ChannelClocks clocks(memory);
  const Cycle idle_until = cfg.timings.tREFI / 2;  // no refresh before it
  ASSERT_GT(idle_until, 300u);

  clocks.catch_up(idle_until);  // one tick, at cycle 0
  EXPECT_EQ(sampler.num_epochs(), 0u);
  clocks.advance_to(idle_until);
  EXPECT_EQ(sampler.num_epochs(), idle_until / 100);
  memory.set_sampler(nullptr);
}

}  // namespace
}  // namespace rop::sim
