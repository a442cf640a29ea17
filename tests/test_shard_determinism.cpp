// Channel-sharded simulation loop: bit-identity against the serial
// event-driven loop. The sharded loop runs each channel's controller (and
// attached engine / refresh manager) lazily, folding per-channel stats into
// the shared registry at epoch boundaries and finalize — every observable
// output must match the single-thread loop exactly, for every refresh
// scheme, at every shard count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/memory_system.h"
#include "mem/shard_pool.h"
#include "sim/experiment.h"

namespace rop::sim {
namespace {

ExperimentSpec sharded_spec(MemoryMode mode, std::uint32_t channels,
                            std::uint32_t shards,
                            dram::RefreshMode refresh = dram::RefreshMode::k1x,
                            std::uint64_t epoch_cycles = 0) {
  ExperimentSpec spec = multi_core_spec(1, mode, /*rank_partition=*/false);
  spec.ranks = 2;
  spec.channels = channels;
  spec.shard_channels = shards;
  spec.refresh_mode = refresh;
  spec.instructions_per_core = 60'000;
  spec.telemetry.sampler.epoch_cycles = epoch_cycles;
  return spec;
}

/// Everything observable except wall-clock and checker_ticks (the checker
/// tick count depends on how many per-channel checkers were attached, which
/// is loop-mode-dependent by design; violations are not).
void expect_identical(const ExperimentResult& serial,
                      const ExperimentResult& sharded) {
  EXPECT_EQ(serial.stats.report(), sharded.stats.report());
  EXPECT_EQ(serial.run.cpu_cycles, sharded.run.cpu_cycles);
  EXPECT_EQ(serial.run.mem_cycles, sharded.run.mem_cycles);
  EXPECT_EQ(serial.run.hit_cycle_limit, sharded.run.hit_cycle_limit);
  ASSERT_EQ(serial.run.cores.size(), sharded.run.cores.size());
  for (std::size_t c = 0; c < serial.run.cores.size(); ++c) {
    EXPECT_EQ(serial.run.cores[c].instructions,
              sharded.run.cores[c].instructions);
    EXPECT_EQ(serial.run.cores[c].cpu_cycles, sharded.run.cores[c].cpu_cycles);
    EXPECT_DOUBLE_EQ(serial.run.cores[c].ipc, sharded.run.cores[c].ipc);
  }
  EXPECT_DOUBLE_EQ(serial.total_energy_mj(), sharded.total_energy_mj());
  EXPECT_DOUBLE_EQ(serial.energy.refresh_mj, sharded.energy.refresh_mj);
  EXPECT_EQ(serial.refreshes, sharded.refreshes);
  EXPECT_DOUBLE_EQ(serial.sram_hit_rate, sharded.sram_hit_rate);
  EXPECT_DOUBLE_EQ(serial.lambda, sharded.lambda);
  EXPECT_DOUBLE_EQ(serial.beta, sharded.beta);
  EXPECT_EQ(serial.nonblocking_fraction, sharded.nonblocking_fraction);
  EXPECT_EQ(serial.max_blocked, sharded.max_blocked);
  EXPECT_EQ(serial.checker_violations, sharded.checker_violations);
}

void expect_identical_epochs(const ExperimentResult& serial,
                             const ExperimentResult& sharded) {
  ASSERT_NE(serial.epochs, nullptr);
  ASSERT_NE(sharded.epochs, nullptr);
  ASSERT_EQ(serial.epochs->num_epochs(), sharded.epochs->num_epochs());
  ASSERT_EQ(serial.epochs->counter_names(), sharded.epochs->counter_names());
  for (std::size_t e = 0; e < serial.epochs->num_epochs(); ++e) {
    EXPECT_EQ(serial.epochs->epoch_end(e), sharded.epochs->epoch_end(e));
    for (std::size_t c = 0; c < serial.epochs->counter_names().size(); ++c) {
      EXPECT_EQ(serial.epochs->delta(e, c), sharded.epochs->delta(e, c))
          << "epoch " << e << " series "
          << serial.epochs->counter_names()[c];
    }
  }
}

class ShardDeterminism : public ::testing::TestWithParam<MemoryMode> {};

TEST_P(ShardDeterminism, BitIdenticalAtEveryShardCount) {
  const MemoryMode mode = GetParam();
  ExperimentSpec serial_spec = sharded_spec(mode, /*channels=*/4,
                                            /*shards=*/0);
  const ExperimentResult serial = run_experiment(serial_spec);

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const ExperimentResult sharded =
        run_experiment(sharded_spec(mode, /*channels=*/4, shards));
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(serial, sharded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ShardDeterminism,
    ::testing::Values(MemoryMode::kBaseline, MemoryMode::kRop,
                      MemoryMode::kElastic, MemoryMode::kPausing,
                      MemoryMode::kPerBank, MemoryMode::kDarp,
                      MemoryMode::kSarp, MemoryMode::kHira),
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
  // Epoch folding is the trickiest part of the sharded loop: counters must
  // be folded into the shared registry exactly at each boundary, not late.
  const ExperimentResult serial = run_experiment(
      sharded_spec(MemoryMode::kRop, 4, 0, dram::RefreshMode::k1x,
                   /*epoch_cycles=*/5'000));
  const ExperimentResult sharded = run_experiment(
      sharded_spec(MemoryMode::kRop, 4, 4, dram::RefreshMode::k1x,
                   /*epoch_cycles=*/5'000));
  expect_identical(serial, sharded);
  expect_identical_epochs(serial, sharded);
}

TEST(ShardDeterminism, RefreshRateSweepStaysIdentical) {
  for (const dram::RefreshMode refresh :
       {dram::RefreshMode::k1x, dram::RefreshMode::k2x,
        dram::RefreshMode::k4x}) {
    const ExperimentResult serial =
        run_experiment(sharded_spec(MemoryMode::kBaseline, 2, 0, refresh));
    const ExperimentResult sharded =
        run_experiment(sharded_spec(MemoryMode::kBaseline, 2, 2, refresh));
    SCOPED_TRACE("refresh=" +
                 std::to_string(static_cast<int>(refresh)) + "x");
    expect_identical(serial, sharded);
  }
}

TEST(ShardDeterminism, CheckerCleanUnderSharding) {
  // Per-channel checkers audit queue conservation, refresh deadlines, and
  // buffer coherence inside each shard; the channel-0 checker additionally
  // runs the end-of-run conservation audit over the folded registry.
  ExperimentSpec spec = sharded_spec(MemoryMode::kRop, 4, 4);
  spec.check = true;
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.checker_ticks, 0u);
  EXPECT_EQ(result.checker_violations, 0u);
}

TEST(ShardDeterminism, ShardCountClampsToChannels) {
  // Asking for more shards than channels is legal: the pool clamps.
  const ExperimentResult serial =
      run_experiment(sharded_spec(MemoryMode::kBaseline, 2, 0));
  const ExperimentResult sharded =
      run_experiment(sharded_spec(MemoryMode::kBaseline, 2, 8));
  expect_identical(serial, sharded);
}

/// Counts the ticks a controller executes.
class TickCounter final : public mem::ControllerAuditor {
 public:
  void on_tick_end(const mem::Controller&, Cycle) override { ++ticks; }
  void on_retired(const mem::Request&) override {}
  std::uint64_t ticks = 0;
};

TEST(ShardPool, DeliveryLeavesNoEchoTick) {
  // The channel's next event after a delivery comes from the drained
  // state, as in the serial loop: the cycle after the delivery is not
  // ticked just to find the completion queue empty.
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.channels = 2;
  cfg.per_channel_stats = true;
  StatRegistry stats;
  mem::MemorySystem memory(cfg, &stats);
  mem::ShardPool pool(memory);

  ChannelId ch = 0;
  ASSERT_TRUE(memory.enqueue(0x40, mem::ReqType::kRead, 0, 0, &ch));
  pool.note_enqueue(ch, 0);
  TickCounter counter;
  memory.controller(ch).set_auditor(&counter);

  // Visit the delivery bounds the sharded loop would visit until the read
  // is delivered.
  Cycle d = 0;
  std::uint64_t delivered = 0;
  while (delivered == 0) {
    d = pool.next_required_boundary(d);
    ASSERT_LT(d, cfg.timings.tREFI) << "the read never completed";
    pool.advance_to(d);
    pool.for_each_completed([&](const mem::Request&) { ++delivered; });
  }
  EXPECT_EQ(delivered, 1u);

  const std::uint64_t before = counter.ticks;
  pool.advance_to(d + 1);
  EXPECT_EQ(counter.ticks, before) << "echo tick at " << d + 1;
  memory.controller(ch).set_auditor(nullptr);
}

}  // namespace
}  // namespace rop::sim
