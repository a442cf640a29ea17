// Versioned binary checkpoint of a full in-flight simulation.
//
// A snapshot captures every mutable byte of a run split between
// System::advance_until segments: RNG words, per-core front-end and sleep
// state, the pooled request arena and every queue index, bank/subarray/rank
// timing records, refresh bookkeeping, ROP engine tables, LLC arrays, the
// stat registries (Shewchuk partials verbatim, so exact sums survive), the
// epoch-sampler ring, and the trace-sink ring. Restore is bit-identical: a
// run split at any snapshot boundary executes literally the same
// operations as the unbroken run — Controller::tick is not idempotent, so
// the serialized surface includes the exact loop cursor (cpu_cycle,
// next_window_cpu, mem_next_event, mem_dirty) rather than just "a state at
// cycle N".
//
// File format: "ROPSNAP1" magic (as a little-endian u64), a format version,
// and an FNV-1a fingerprint of the canonical spec string — both sides of a
// save/restore must describe the identical experiment, since all
// config-derived structure (geometry, table sizes, trace profiles) is
// rebuilt from the spec, not the file. Sections, in restore-dependency
// order: shared registry, memory system (controllers + per-channel
// registries), CPU system (loop cursor, cores, shard-pool event clocks
// and counter-fold baselines), ROP engines, workload traces, epoch
// sampler, trace sink.
//
// Writes are atomic (tmp file + rename), so a kill mid-write leaves the
// previous checkpoint intact — what the campaign resume path relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace rop::cpu {
class System;
}
namespace rop::mem {
class MemorySystem;
}
namespace rop::engine {
class RopEngine;
}
namespace rop::workload {
class SyntheticTrace;
}
namespace rop::telemetry {
class EpochSampler;
class TraceSink;
}

namespace rop::sim {

struct ExperimentSpec;

/// Snapshot format version, written after the magic. A file of any other
/// version is rejected (load fails, snapshot_compatible is false).
///   v2: Request lifecycle stamps + per-cause blocked fields, CoreStats CPI
///       ledger, Core critical_since_, CoreResult CPI stack.
///   v3: LLC as flat tag/recency/dirty/fill arrays.
///   v4: only the LLCs a run uses (the shared one, or one per core).
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/// Everything a snapshot touches. Engine/trace vectors follow channel /
/// core order; sampler and trace may be null (their presence is
/// config-derived, so both sides of a save/restore agree).
struct SnapshotContext {
  cpu::System* system = nullptr;
  mem::MemorySystem* memory = nullptr;
  std::vector<engine::RopEngine*> engines;
  std::vector<workload::SyntheticTrace*> traces;
  telemetry::EpochSampler* sampler = nullptr;
  telemetry::TraceSink* trace = nullptr;
  StatRegistry* stats = nullptr;
};

/// Canonical text form of a spec: every field that shapes simulation
/// behavior, in a fixed order. Two specs with equal canonical strings
/// produce interchangeable snapshots.
[[nodiscard]] std::string spec_canonical(const ExperimentSpec& spec);

/// FNV-1a 64-bit over the canonical string.
[[nodiscard]] std::uint64_t config_fingerprint(const std::string& canonical);

/// Serialize the full context into a buffer (header included).
[[nodiscard]] std::string save_snapshot_buffer(const SnapshotContext& ctx,
                                               std::uint64_t fingerprint);

/// Restore from a buffer. Returns false (context partially written — the
/// caller must abort the run) on magic/version/fingerprint mismatch or a
/// short/long buffer; `error` gets a one-line reason.
[[nodiscard]] bool load_snapshot_buffer(const std::string& buf,
                                        const SnapshotContext& ctx,
                                        std::uint64_t fingerprint,
                                        std::string* error);

/// Cheap header probe: true when `path` exists, is a ROPSNAP1 file of the
/// current format version, and was written under a spec with this
/// fingerprint. Lets a resuming campaign ignore stale checkpoints from an
/// earlier, different sweep without aborting mid-restore.
[[nodiscard]] bool snapshot_compatible(const std::string& path,
                                       std::uint64_t fingerprint);

/// Atomic file I/O wrappers (tmp + rename on write).
[[nodiscard]] bool write_snapshot_file(const std::string& path,
                                       const SnapshotContext& ctx,
                                       std::uint64_t fingerprint);
[[nodiscard]] bool read_snapshot_file(const std::string& path,
                                      const SnapshotContext& ctx,
                                      std::uint64_t fingerprint,
                                      std::string* error);

}  // namespace rop::sim
