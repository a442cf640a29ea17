// Campaign engine: expand a JSON sweep spec into a grid of
// ExperimentSpecs, run them on the experiment runner's worker pool
// (sim/runner.h; budgeted against per-run sampling window workers),
// checkpoint every completed cell into a resumable manifest, and merge the
// per-cell stats documents into one aggregate JSON the figure harnesses can
// consume. The merge reads each cell's registry sections back into a
// StatRegistry (telemetry::read_registry_sections), folds them with
// StatRegistry::merge_from and writes the fold with the same
// write_registry_sections every stats document uses.
//
// Spec format (all axes optional; missing axes pin their default):
//
//   {
//     "name": "paper-grid",
//     "instructions_per_core": 200000,
//     "epoch_cycles": 0,             // > 0 turns on epoch sampling
//     "check": false,                // SimChecker per cell
//     "shard_channels": 0,           // accepted and ignored
//     "axes": {
//       "benchmark": ["lbm", "wl1"], // names or wl1..wl6 4-core mixes
//       "mode": ["baseline", "rop"],
//       "ranks": [1, 4],
//       "refresh": ["1x", "2x"],
//       "rank_partition": [false],
//       "channels": [1],
//       "llc_mb": [2]
//     }
//   }
//
// Cells expand in fixed axis order (benchmark, mode, ranks, refresh,
// rank_partition, channels, llc_mb — last axis fastest), so cell indices
// and labels are stable across invocations: the manifest checkpoints by
// index, and a resumed campaign reruns only the missing cells. The merged
// document excludes wall-clock fields, making an interrupted-then-resumed
// campaign byte-identical to an uninterrupted one. A cell whose run fails
// is listed in the manifest under "failed" (index and reason) while the
// other cells finish; the campaign then ends incomplete, without a merged
// document, and a resume reruns the failed cells.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "sim/experiment.h"

namespace rop::sim {

struct CampaignCell {
  std::size_t index = 0;
  std::string label;
  ExperimentSpec spec;
};

struct CampaignOptions {
  std::string spec_path;  // JSON sweep spec
  std::string out_dir;    // manifest + per-cell + merged documents
  /// Concurrent cells; 0 derives jobs from hardware_concurrency divided by
  /// the widest cell's worker width (worker_budget).
  unsigned jobs = 0;
  /// Reuse completed cells from an existing manifest (same spec only —
  /// a fingerprint mismatch starts over).
  bool resume = true;
  /// Testing hook: stop claiming new cells after this many fresh
  /// completions (0 = run to the end). The campaign exits incomplete,
  /// exactly as if it had been killed between two checkpoints.
  std::size_t stop_after = 0;
  /// Stream one progress line per completed cell to stderr.
  bool progress = true;
  /// When non-empty, append one JSONL heartbeat per cell transition
  /// (claimed / completed) to this file: done/failed/running/total counts,
  /// wall-clock, throughput-based ETA, and the transitioning cell's label
  /// (see telemetry::ProgressWriter). Operational side channel only — it
  /// never affects the manifest or the merged document.
  std::string progress_file;
};

struct CampaignSummary {
  std::size_t total_cells = 0;
  std::size_t completed_cells = 0;  // cumulative, including resumed ones
  std::size_t ran_cells = 0;        // fresh completions this invocation
  std::size_t skipped_cells = 0;    // restored from the manifest
  bool complete = false;
  std::string merged_path;  // set when complete: out_dir/merged.json
  /// "cell N (label): reason" for every cell that failed this invocation.
  std::vector<std::string> failed_cells;
};

/// Expand a parsed spec into the cell grid. Returns nullopt and sets
/// `error` on a malformed spec or on the first cell that fails validate()
/// (the message names the cell's index and label). A cell with
/// snapshot_every carries its checkpoint path relative to the output
/// directory.
[[nodiscard]] std::optional<std::vector<CampaignCell>> expand_campaign(
    const json::Value& spec, std::string* error);

/// Run (or resume) a campaign end to end. Returns nullopt and sets
/// `error` on spec/IO failures — a manifest or merged-document write, or
/// a cell document that does not read back (the message names the file);
/// `bad_spec`, when given, tells the two apart (true: the spec did not
/// read, parse or expand). A failed cell is not an error here: it is in
/// the summary's failed_cells and the summary is incomplete. An intra-cell
/// checkpoint that does not restore is discarded and its cell rerun from
/// cycle 0; checker violations still abort (the checker's contract).
[[nodiscard]] std::optional<CampaignSummary> run_campaign(
    const CampaignOptions& opts, std::string* error,
    bool* bad_spec = nullptr);

}  // namespace rop::sim
