// Worker-budget policy shared by the experiment runner and the campaign
// engine: one place that answers "how many concurrent jobs?" so that jobs
// times per-job workers never oversubscribes the machine.
//
// The rule: jobs * workers_per_job <= hardware_concurrency (floored at one
// job — a single job may still oversubscribe a tiny machine with its own
// workers; that is the user's explicit choice via --sample-jobs). An
// explicit request is honored verbatim except for the task-count clamp, so
// `--jobs 1` always means serial.
#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>

namespace rop::sim {

/// Number of worker threads to launch for `n_tasks` independent jobs, each
/// of which may internally run `workers_per_job` workers (parallel-sampling
/// window workers; see experiment_worker_width in sim/experiment.h).
/// `requested_jobs` = 0 derives the budget from the machine; any other
/// value is the user's call. `hardware` = 0 queries
/// hardware_concurrency(); tests pass an explicit value to pin the policy.
/// Always in [1, n_tasks] for n_tasks >= 1.
[[nodiscard]] inline unsigned worker_budget(unsigned requested_jobs,
                                            unsigned workers_per_job,
                                            std::size_t n_tasks,
                                            unsigned hardware = 0) {
  if (n_tasks == 0) return 1;
  unsigned jobs = requested_jobs;
  if (jobs == 0) {
    const unsigned hw = hardware > 0
                            ? hardware
                            : std::max(1u, std::thread::hardware_concurrency());
    const unsigned width = std::max(1u, workers_per_job);
    jobs = std::max(1u, hw / width);
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(jobs, n_tasks));
}

}  // namespace rop::sim
