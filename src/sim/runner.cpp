#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/worker_budget.h"

namespace rop::sim {

std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentSpec>& specs, unsigned n_threads) {
  std::vector<ExperimentResult> results(specs.size());
  if (specs.empty()) return results;

  // Budget the pool against nested parallelism: a planned-sampled spec
  // brings its own window workers, so the default (n_threads == 0)
  // divides hardware_concurrency by the widest spec.
  unsigned max_width = 1;
  for (const ExperimentSpec& spec : specs) {
    max_width = std::max(max_width, experiment_worker_width(spec));
  }
  n_threads = worker_budget(n_threads, max_width, specs.size());

  // Each worker claims the next unstarted spec and writes its pre-sized
  // result slot; no other state is shared, so scheduling order cannot
  // affect the output.
  std::atomic<std::size_t> next{0};
  const auto worker = [&specs, &results, &next] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      results[i] = run_experiment(specs[i]);
    }
  };

  if (n_threads == 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace rop::sim
