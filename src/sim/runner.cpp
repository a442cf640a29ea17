#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/worker_budget.h"

namespace rop::sim {

void run_claimed(std::span<const ExperimentSpec> specs, unsigned jobs,
                 const std::function<bool(std::size_t)>& task) {
  // Budget the pool against nested parallelism: a planned-sampled spec
  // brings its own window workers.
  unsigned max_width = 1;
  for (const ExperimentSpec& spec : specs) {
    max_width = std::max(max_width, experiment_worker_width(spec));
  }
  const unsigned n_threads = worker_budget(jobs, max_width, specs.size());

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  const auto worker = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      if (!task(i)) stop.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < n_threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentSpec>& specs, unsigned n_threads) {
  // Each task writes its pre-sized result slot; no other state is shared,
  // so scheduling order cannot affect the output.
  std::vector<ExperimentResult> results(specs.size());
  run_claimed(specs, n_threads, [&](std::size_t i) {
    results[i] = run_experiment(specs[i]);
    return true;
  });
  return results;
}

}  // namespace rop::sim
