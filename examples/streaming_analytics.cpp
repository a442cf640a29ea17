// Scenario: an in-memory analytics engine scanning large column segments
// (the DRAM-based storage systems the paper's introduction motivates, e.g.
// log-structured DRAM stores). Scans are latency-sensitive: a refresh that
// freezes the rank mid-scan stretches the tail.
//
// This example runs a scan-heavy workload on baseline and ROP memories and
// reports mean and tail read latency at the controller, showing where the
// improvement comes from rather than just the bottom-line IPC.
//
//   ./example_streaming_analytics [instructions]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace {

rop::workload::SyntheticConfig scan_workload() {
  rop::workload::SyntheticConfig wc;
  wc.name = "column-scan";
  wc.mean_gap = 200;  // filter/aggregate work between line touches
  wc.write_fraction = 0.05;  // scans are read-dominant
  wc.footprint_lines = (512ull << 20) / rop::kLineBytes;  // 512 MB segment
  wc.streams = {{{+1}, 1.0}};  // one column segment, sequential scan
  wc.random_fraction = 0.01;  // occasional dictionary lookups
  wc.seed = 2016;
  return wc;
}

struct ScanResult {
  double ipc = 0;
  double mean_latency = 0;
  double p95_latency = 0;
  double p99_latency = 0;
  double max_latency = 0;
  double sram_served_frac = 0;
};

ScanResult run(rop::sim::MemoryMode mode, std::uint64_t instructions) {
  using namespace rop;
  StatRegistry stats;
  const mem::MemoryConfig mem_cfg = sim::make_memory_config(1, mode);
  mem::MemorySystem memory(mem_cfg, &stats);
  std::unique_ptr<engine::RopEngine> eng;
  if (mode == sim::MemoryMode::kRop) {
    eng = std::make_unique<engine::RopEngine>(engine::RopConfig{},
                                              memory.controller(0),
                                              memory.address_map(), &stats);
  }
  workload::SyntheticTrace trace(scan_workload());
  std::vector<workload::TraceSource*> traces{&trace};
  cpu::System system(sim::make_system_config(2ull << 20, false), memory,
                     traces);
  const auto rr = system.run(instructions, instructions * 64);

  ScanResult out;
  out.ipc = rr.cores[0].ipc;
  if (const auto* lat = stats.find_scalar("mem.read_latency")) {
    out.mean_latency = lat->mean();
    out.max_latency = lat->max();
  }
  if (const auto* hist = stats.find_histogram("mem.read_latency_hist")) {
    out.p95_latency = hist->percentile(95.0);
    out.p99_latency = hist->percentile(99.0);
  }
  const double reads =
      static_cast<double>(stats.counter_value("mem.reads"));
  out.sram_served_frac =
      reads > 0 ? static_cast<double>(stats.counter_value("mem.sram_serviced")) / reads
                : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rop;
  const std::uint64_t instructions =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000'000ull;

  std::printf("streaming analytics scan: 512 MB column segment, "
              "%llu instructions\n\n",
              static_cast<unsigned long long>(instructions));

  TextTable table("scan latency under refresh (controller clock cycles)");
  table.set_header({"memory", "IPC", "mean", "p95", "p99", "max",
                    "SRAM-served"});
  for (const sim::MemoryMode mode :
       {sim::MemoryMode::kBaseline, sim::MemoryMode::kNoRefresh,
        sim::MemoryMode::kRop}) {
    const ScanResult r = run(mode, instructions);
    table.add_row({sim::memory_mode_name(mode), TextTable::fmt(r.ipc, 4),
                   TextTable::fmt(r.mean_latency, 1),
                   TextTable::fmt(r.p95_latency, 0),
                   TextTable::fmt(r.p99_latency, 0),
                   TextTable::fmt(r.max_latency, 0),
                   TextTable::pct(r.sram_served_frac, 2)});
  }
  table.print();
  std::printf(
      "\nReading the table: under the baseline, scans that collide with a "
      "refresh wait out the tRFC freeze (~280 cycles) — that is the p99. "
      "ROP serves those reads from the SRAM buffer, collapsing the p99 to "
      "near the no-refresh bound; the remaining max outliers are rare "
      "drain-window stragglers.\n");
  return 0;
}
