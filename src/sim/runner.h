// Parallel experiment runner: executes independent ExperimentSpecs on a
// small thread pool. Every experiment owns its RNGs, StatRegistry, and
// memory system, so results are bit-identical to serial run_experiment
// calls and ordered like the input regardless of thread count.
//
// run_claimed is the one worker pool that runs experiments:
// run_experiments and the campaign engine (sim/campaign.h) both use it.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sim/experiment.h"

namespace rop::sim {

/// Call `task(i)` once for each i in [0, specs.size()), where task i runs
/// specs[i]. Workers claim the next unclaimed index; once any task returns
/// false no worker claims another (tasks already running finish). `jobs`
/// = 0 budgets the pool against the widest spec so that jobs times each
/// spec's own workers fits the machine (worker_budget); 1 runs serially on
/// the calling thread. The pool is never larger than the spec count.
void run_claimed(std::span<const ExperimentSpec> specs, unsigned jobs,
                 const std::function<bool(std::size_t)>& task);

/// Run every spec and return results in input order. `n_threads` = 0 uses
/// one thread per hardware thread; the pool is never larger than the spec
/// count. `n_threads` = 1 runs serially on the calling thread.
[[nodiscard]] std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentSpec>& specs, unsigned n_threads = 0);

}  // namespace rop::sim
