// Cross-scheme comparison (paper §VI context): auto-refresh baseline,
// Elastic Refresh (MICRO'10), Refresh Pausing (HPCA'13), per-bank refresh
// (REFpb, the §VII future-work granularity), DARP and SARP (refresh–access
// parallelism, Chang et al. HPCA'14), a HiRA-style refresh/activation
// overlap (MICRO'22), ROP, and the no-refresh upper bound — on the same
// workloads, same memory.
//
// The paper argues ROP is orthogonal to scheduling-based schemes (elastic/
// pausing) because prefetching removes the conflict instead of moving it,
// and that finer refresh granularity "cannot completely avoid access
// conflicts". This bench puts those claims side by side, including the
// strongest published competitors. Alongside IPC it reports the
// refresh-blocking integral (mem.refresh_blocked_cycles: request-cycles
// queued demand reads spend behind an in-flight refresh lock), the metric
// DARP/SARP explicitly attack.
#include "bench_util.h"

int main() {
  using namespace rop;
  const std::uint64_t instr = bench::instructions_per_core(15'000'000);

  bench::StatsSidecar sidecar("bench_comparison_schemes");

  TextTable table("refresh schemes — IPC normalized to auto-refresh baseline");
  TextTable blocking(
      "refresh-blocked request-cycles (x1000) — lower is better");
  std::vector<std::string> header{"benchmark"};
  for (const sim::MemoryMode mode : sim::kAllMemoryModes) {
    header.push_back(sim::memory_mode_name(mode));
  }
  std::vector<std::string> blocking_header = header;
  table.set_header(std::move(header));
  blocking.set_header(std::move(blocking_header));

  for (const auto name : workload::kBenchmarkNames) {
    double base_ipc = 0.0;
    std::vector<std::string> row{std::string(name)};
    std::vector<std::string> blocked_row{std::string(name)};
    for (const sim::MemoryMode mode : sim::kAllMemoryModes) {
      auto res = sim::run_experiment(
          bench::bench_spec(std::string(name), mode, instr));
      if (mode == sim::MemoryMode::kBaseline) base_ipc = res.ipc();
      row.push_back(TextTable::fmt(res.ipc() / base_ipc, 4));
      const double blocked_k =
          static_cast<double>(
              res.stats.counter("mem.refresh_blocked_cycles").value()) /
          1000.0;
      blocked_row.push_back(TextTable::fmt(blocked_k, 1));
      sidecar.add(std::string(name) + "/" + sim::memory_mode_name(mode), res);
    }
    table.add_row(std::move(row));
    blocking.add_row(std::move(blocked_row));
  }
  table.print();
  blocking.print();
  bench::print_paper_note(
      "scheme comparison (related work, §VI)",
      "expected ordering on intensive benchmarks: baseline <= elastic <= "
      "pausing/per-bank <= darp/sarp/hira <= ROP <= no-refresh. Scheduling "
      "schemes move the freeze out of busy periods; per-bank shrinks its "
      "blast radius; DARP steers it into idle banks, SARP/HiRA shrink it to "
      "one subarray; ROP hides it behind the SRAM buffer.");
  sidecar.write();
  return 0;
}
