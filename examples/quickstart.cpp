// Quickstart: run one benchmark on the three memory systems the paper
// compares — auto-refresh baseline, idealized no-refresh, and ROP — and
// print the headline metrics.
//
//   ./example_quickstart [benchmark] [instructions]
//
// Benchmark defaults to libquantum (the paper's best case); instruction
// count defaults to 4M per core.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  using namespace rop;

  const std::string benchmark = argc > 1 ? argv[1] : "libquantum";
  const std::uint64_t instructions =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4'000'000ull;

  std::printf("ROP quickstart: benchmark=%s, %llu instructions\n\n",
              benchmark.c_str(),
              static_cast<unsigned long long>(instructions));

  TextTable table("baseline vs no-refresh vs ROP (64-line buffer)");
  table.set_header({"system", "IPC", "norm. IPC", "energy (mJ)",
                    "norm. energy", "refreshes", "SRAM hit rate"});

  double base_ipc = 0.0;
  double base_energy = 0.0;
  for (const sim::MemoryMode mode :
       {sim::MemoryMode::kBaseline, sim::MemoryMode::kNoRefresh,
        sim::MemoryMode::kRop}) {
    sim::ExperimentSpec spec = sim::single_core_spec(benchmark, mode);
    spec.instructions_per_core = instructions;
    const sim::ExperimentResult res = sim::run_experiment(spec);
    if (mode == sim::MemoryMode::kBaseline) {
      base_ipc = res.ipc();
      base_energy = res.total_energy_mj();
    }
    table.add_row({sim::memory_mode_name(mode), TextTable::fmt(res.ipc(), 4),
                   TextTable::fmt(res.ipc() / base_ipc, 4),
                   TextTable::fmt(res.total_energy_mj(), 3),
                   TextTable::fmt(res.total_energy_mj() / base_energy, 4),
                   std::to_string(res.refreshes),
                   mode == sim::MemoryMode::kRop
                       ? TextTable::fmt(res.sram_hit_rate, 3)
                       : std::string("-")});
  }
  table.print();

  std::printf(
      "\nExpected shape: no-refresh > rop > baseline in IPC;\n"
      "ROP recovers most of the refresh-induced loss (paper Fig. 7).\n");
  return 0;
}
