// Scenario: a consolidation server running four applications on a 4-rank
// memory (the paper's multiprogrammed setup, §V-C). Demonstrates the
// public experiment API: workload mixes, rank partitioning, weighted
// speedup (Eq. 4), and per-core fairness.
//
//   ./example_multiprogrammed_server [mix 1..6] [instructions]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  using namespace rop;
  const std::uint32_t wl =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 1;
  const std::uint64_t instructions =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8'000'000ull;
  if (wl < 1 || wl > workload::kNumWorkloadMixes) {
    std::fprintf(stderr, "mix must be 1..6\n");
    return 1;
  }

  const auto mix = workload::workload_mix(wl);
  std::printf("workload mix WL%u:", wl);
  for (const auto& b : mix) std::printf(" %s", b.c_str());
  std::printf("  (%llu instructions per core)\n\n",
              static_cast<unsigned long long>(instructions));

  // IPC_alone per benchmark (Eq. 4 denominators).
  std::vector<double> alone;
  for (const auto& b : mix) {
    sim::ExperimentSpec spec;
    spec.benchmarks = {b};
    spec.ranks = 4;
    spec.llc_bytes = 4ull << 20;
    spec.instructions_per_core = instructions;
    alone.push_back(sim::run_experiment(spec).ipc());
  }

  TextTable table("4-core consolidation: baseline vs rank partitioning vs ROP");
  table.set_header({"system", "WS (Eq. 4)", "core0", "core1", "core2",
                    "core3", "energy (mJ)", "SRAM hit"});
  for (const auto& [mode, rp] :
       {std::pair{sim::MemoryMode::kBaseline, false},
        std::pair{sim::MemoryMode::kBaseline, true},
        std::pair{sim::MemoryMode::kRop, true}}) {
    sim::ExperimentSpec spec = sim::multi_core_spec(wl, mode, rp);
    spec.instructions_per_core = instructions;
    const auto res = sim::run_experiment(spec);
    std::vector<std::string> row{std::string(sim::memory_mode_name(mode)) +
                                     (rp ? "-RP" : ""),
                                 TextTable::fmt(res.weighted_speedup(alone),
                                                3)};
    for (std::size_t c = 0; c < 4; ++c) {
      row.push_back(TextTable::fmt(res.run.cores[c].ipc / alone[c], 3));
    }
    row.push_back(TextTable::fmt(res.total_energy_mj(), 2));
    row.push_back(mode == sim::MemoryMode::kRop
                      ? TextTable::fmt(res.sram_hit_rate, 3)
                      : std::string("-"));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nPer-core columns are IPC_shared / IPC_alone (1.0 = no slowdown "
      "from sharing). Rank partitioning removes inter-application rank "
      "interference; ROP additionally hides each rank's refresh freezes.\n");
  return 0;
}
