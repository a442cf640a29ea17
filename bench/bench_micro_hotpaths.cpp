// Microbenchmarks (google-benchmark) for the simulator's hot paths: these
// bound the simulation rate and guard against accidental slowdowns.
#include <benchmark/benchmark.h>

#include "cache/llc.h"
#include "common/rng.h"
#include "mem/address_map.h"
#include "mem/memory_system.h"
#include "rop/pattern_profiler.h"
#include "rop/prediction_table.h"
#include "rop/sram_buffer.h"

namespace {

using namespace rop;

void BM_AddressMapRoundTrip(benchmark::State& state) {
  dram::DramOrganization org;
  org.ranks = 4;
  const mem::AddressMap map(org);
  Rng rng(1);
  const std::uint64_t total = org.total_lines();
  for (auto _ : state) {
    const Address a = rng.next_below(total) << kLineShift;
    const DramCoord c = map.map(a);
    benchmark::DoNotOptimize(map.unmap(c));
  }
}
BENCHMARK(BM_AddressMapRoundTrip);

void BM_LlcAccess(benchmark::State& state) {
  cache::LlcConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cache::Llc llc(cfg);
  Rng rng(2);
  for (auto _ : state) {
    const Address a = rng.next_below(1 << 20) << kLineShift;
    benchmark::DoNotOptimize(llc.access(a, rng.next_bool(0.3)));
  }
}
BENCHMARK(BM_LlcAccess);

void BM_PredictionTableUpdate(benchmark::State& state) {
  engine::PredictionTable table(8, 1 << 23);
  Rng rng(3);
  std::uint64_t offset = 0;
  Cycle now = 0;
  for (auto _ : state) {
    offset += 1 + rng.next_below(3);
    table.on_access(static_cast<BankId>(rng.next_below(8)), offset, ++now);
  }
}
BENCHMARK(BM_PredictionTableUpdate);

void BM_PredictionTablePredict(benchmark::State& state) {
  engine::PredictionTable table(8, 1 << 23);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    table.on_access(static_cast<BankId>(i % 8), i / 8, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.predict(64, false, 20'000, 1'000));
  }
}
BENCHMARK(BM_PredictionTablePredict);

void BM_SramBufferProbe(benchmark::State& state) {
  engine::SramBuffer buf(64);
  buf.begin_round(0);
  for (Address a = 0; a < 64; ++a) buf.insert(a << kLineShift);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.lookup(rng.next_below(128) << kLineShift));
  }
}
BENCHMARK(BM_SramBufferProbe);

void BM_WindowCorrelator(benchmark::State& state) {
  engine::WindowCorrelator wc(6240, 4);
  Rng rng(5);
  Cycle now = 0;
  for (auto _ : state) {
    now += 1 + rng.next_below(40);
    const RankId rank = static_cast<RankId>(rng.next_below(4));
    if (rng.next_bool(0.01)) {
      wc.on_refresh(rank, now);
    } else {
      wc.on_request(rank, now, true);
    }
  }
}
BENCHMARK(BM_WindowCorrelator);

void BM_StatRegistryCounterLookup(benchmark::State& state) {
  // Cost of one string-keyed counter lookup + increment — what every
  // completed event used to pay before the handle API.
  StatRegistry stats;
  stats.counter("mem.reads");
  stats.counter("mem.writes");
  stats.counter("rop.buffer_fills");
  for (auto _ : state) {
    stats.counter("mem.reads").inc();
    benchmark::DoNotOptimize(&stats);
  }
}
BENCHMARK(BM_StatRegistryCounterLookup);

void BM_StatRegistryHandleInc(benchmark::State& state) {
  // Same increment through a cached handle — the pattern all hot paths use
  // now (resolve once at construction, pointer-bump per event).
  StatRegistry stats;
  Counter* reads = stats.counter_handle("mem.reads");
  stats.counter("mem.writes");
  stats.counter("rop.buffer_fills");
  for (auto _ : state) {
    reads->inc();
    benchmark::DoNotOptimize(&stats);
  }
}
BENCHMARK(BM_StatRegistryHandleInc);

mem::Request make_request(std::uint64_t line, mem::ReqType type,
                          const dram::DramOrganization& org) {
  mem::Request r;
  r.type = type;
  r.line_addr = line << kLineShift;
  r.coord.rank = static_cast<RankId>(line % org.ranks);
  r.coord.bank = static_cast<BankId>((line / org.ranks) % org.banks);
  r.coord.row = static_cast<RowId>(line / 1024);
  r.coord.column = static_cast<ColumnId>(line % 128);
  return r;
}

void BM_ControllerEnqueueComplete(benchmark::State& state) {
  // The demand enqueue/complete hot loop: a steady read stream mixed with
  // writes that coalesce and reads that forward from the write queue.
  // Stresses per-event stat accounting and the write-queue lookup paths.
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = 4;
  mem::ControllerConfig cfg;
  cfg.refresh = mem::RefreshScheme::kNoRefresh;
  StatRegistry stats;
  mem::Controller ctrl(0, t, org, cfg, &stats);
  Cycle now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    mem::Request req;
    if (i % 4 == 3) {
      // Writes cycle over a 64-line pool: repeats coalesce.
      req = make_request(1'000'000 + i % 64, mem::ReqType::kWrite, org);
    } else if (i % 16 == 1) {
      // Reads into the write pool: read-after-write forwarding.
      req = make_request(1'000'000 + i % 64, mem::ReqType::kRead, org);
    } else {
      req = make_request(i, mem::ReqType::kRead, org);
    }
    if (ctrl.can_accept(req.type)) ctrl.enqueue(req, now);
    ctrl.tick(now);
    benchmark::DoNotOptimize(ctrl.drain_completed());
    ++now;
    ++i;
  }
}
BENCHMARK(BM_ControllerEnqueueComplete);

void BM_ControllerPendingDemand(benchmark::State& state) {
  // pending_demand() is called on every refresh-management tick; the seed
  // implementation scanned both queues per call.
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = 4;
  mem::ControllerConfig cfg;
  cfg.refresh = mem::RefreshScheme::kNoRefresh;
  StatRegistry stats;
  mem::Controller ctrl(0, t, org, cfg, &stats);
  for (std::uint64_t i = 0; i < 56; ++i) {
    ctrl.enqueue(make_request(i, mem::ReqType::kRead, org), 0);
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    ctrl.enqueue(make_request(500'000 + i, mem::ReqType::kWrite, org), 0);
  }
  RankId r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.pending_demand(r));
    r = (r + 1) % org.ranks;
  }
}
BENCHMARK(BM_ControllerPendingDemand);

void BM_MemorySystemTick(benchmark::State& state) {
  // End-to-end controller tick rate under a steady read stream.
  mem::MemoryConfig cfg;
  cfg.timings = dram::make_ddr4_1600_timings();
  cfg.org.ranks = 1;
  StatRegistry stats;
  mem::MemorySystem memsys(cfg, &stats);
  std::uint64_t line = 0;
  Cycle now = 0;
  for (auto _ : state) {
    if (now % 12 == 0 && memsys.can_accept(line << kLineShift,
                                           mem::ReqType::kRead)) {
      (void)memsys.enqueue(line << kLineShift, mem::ReqType::kRead, 0, now);
      ++line;
    }
    memsys.tick(now);
    benchmark::DoNotOptimize(memsys.drain_completed());
    ++now;
  }
}
BENCHMARK(BM_MemorySystemTick);

void BM_ControllerTickQueued(benchmark::State& state) {
  // One executed tick of the event-driven loop with ~9 reads queued over
  // the 8 banks of one rank, the headline lbm/ROP regime: tick, deliver
  // completions, top the read queue back up (an enqueue forces the next
  // tick, as the loop's dirty flag does), otherwise jump to
  // next_event_cycle. FR-FCFS pick and horizon dominate the cost.
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;  // 1 rank, 8 banks
  mem::ControllerConfig cfg;   // auto-refresh on
  StatRegistry stats;
  mem::Controller ctrl(0, t, org, cfg, &stats);
  constexpr std::size_t kQueued = 9;
  std::uint64_t line = 0;
  const auto top_up = [&](Cycle now) {
    bool enqueued = false;
    while (ctrl.read_queue_depth() < kQueued) {
      // Rows change every 8 lines per bank: streaming hits, then a
      // conflict.
      mem::Request req = make_request(line, mem::ReqType::kRead, org);
      req.coord.row = static_cast<RowId>(line / 64);
      req.id = ++line;
      (void)ctrl.enqueue(req, now);
      enqueued = true;
    }
    return enqueued;
  };
  Cycle due = 0;
  (void)top_up(due);
  for (auto _ : state) {
    ctrl.tick(due);
    ctrl.drain_completed_into(
        [](const mem::Request& req) { benchmark::DoNotOptimize(req.id); });
    due = top_up(due) ? due + 1 : ctrl.next_event_cycle(due);
  }
}
BENCHMARK(BM_ControllerTickQueued);

void BM_ControllerTickWriteStream(benchmark::State& state) {
  // The same event-loop tick in the write-stream regime of lbm/ROP: the
  // read queue is mostly empty and about 8 writes wait, 8 lines to a row
  // and bank, so the scheduler views the write queue on every rebuild.
  // One read joins per 16 writes and flips the view order while it waits.
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;  // 1 rank, 8 banks
  mem::ControllerConfig cfg;   // auto-refresh on
  StatRegistry stats;
  mem::Controller ctrl(0, t, org, cfg, &stats);
  constexpr std::size_t kQueued = 8;
  std::uint64_t line = 0;
  const auto top_up = [&](Cycle now) {
    bool enqueued = false;
    while (ctrl.write_queue_depth() < kQueued) {
      const bool read = line % 16 == 15;
      mem::Request req = make_request(
          read ? 1'000'000 + line : line,
          read ? mem::ReqType::kRead : mem::ReqType::kWrite, org);
      req.coord.bank = static_cast<BankId>((line / 8) % org.banks);
      req.coord.row = static_cast<RowId>(line / 64);
      req.id = ++line;
      (void)ctrl.enqueue(req, now);
      enqueued = true;
    }
    return enqueued;
  };
  Cycle due = 0;
  (void)top_up(due);
  for (auto _ : state) {
    ctrl.tick(due);
    ctrl.drain_completed_into(
        [](const mem::Request& req) { benchmark::DoNotOptimize(req.id); });
    due = top_up(due) ? due + 1 : ctrl.next_event_cycle(due);
  }
}
BENCHMARK(BM_ControllerTickWriteStream);

void BM_ControllerTickMultiRank(benchmark::State& state) {
  // The event-loop tick in the wl1 regime of the 4-channel DARP runs: 4
  // ranks of 8 banks, per-bank refresh out of order, and about 2 reads
  // queued, spread over the ranks and banks. With shallow queues the
  // per-tick refresh and blocked-rank work weighs as much as the pick.
  const dram::DramTimings t = dram::make_ddr4_1600_timings();
  dram::DramOrganization org;
  org.ranks = 4;
  mem::ControllerConfig cfg;
  cfg.refresh = mem::RefreshScheme::kDarp;
  StatRegistry stats;
  mem::Controller ctrl(0, t, org, cfg, &stats);
  constexpr std::size_t kQueued = 2;
  std::uint64_t line = 0;
  const auto top_up = [&](Cycle now) {
    bool enqueued = false;
    while (ctrl.read_queue_depth() < kQueued) {
      mem::Request req = make_request(line, mem::ReqType::kRead, org);
      req.coord.row = static_cast<RowId>(line / 256);
      req.id = ++line;
      (void)ctrl.enqueue(req, now);
      enqueued = true;
    }
    return enqueued;
  };
  Cycle due = 0;
  (void)top_up(due);
  for (auto _ : state) {
    ctrl.tick(due);
    ctrl.drain_completed_into(
        [](const mem::Request& req) { benchmark::DoNotOptimize(req.id); });
    due = top_up(due) ? due + 1 : ctrl.next_event_cycle(due);
  }
}
BENCHMARK(BM_ControllerTickMultiRank);

}  // namespace
