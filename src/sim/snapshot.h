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
// next_window_cpu, mem_next_event) and every channel's event clock rather
// than just "a state at cycle N".
//
// File format: "ROPSNAP1" magic (as a little-endian u64), a format version,
// and an FNV-1a fingerprint of the canonical spec string — both sides of a
// save/restore must describe the identical experiment, since all
// config-derived structure (geometry, table sizes, trace profiles) is
// rebuilt from the spec, not the file. Sections, in restore-dependency
// order: the stat registry, memory system (controllers), CPU system (loop
// cursor, cores, per-channel event clocks), ROP engines, workload traces,
// epoch sampler, trace sink, and — only when a checker audits the run — a
// trailing checker section. An unchecked run's bytes never change; a
// checked snapshot restores into an unchecked run by dropping the section.
//
// Snapshot files end in a 64-bit FNV-1a checksum of everything before it,
// so a truncated or bit-flipped file fails the restore with an error
// instead of feeding corrupt state to the simulator. In-memory buffers
// (save/load_snapshot_buffer) carry no checksum; either way a controller
// checks the queue indices and refresh cursors it read before it rebuilds
// anything from them, and fails the load with the reason. Writes are
// atomic (tmp file + rename), so a kill mid-write leaves the previous
// checkpoint intact — what the campaign resume path relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace rop::check {
class SimChecker;
}
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
///   v5: one stat registry (no per-channel registries), the channel clocks
///       always present, no memory dirty flag; files end in a checksum.
///   v6: the controller writes one record of primary state per rank and
///       rebuilds its queue-derived counts and lists on load; the checksum
///       and spec fingerprint are true FNV-1a (v5 used a basis one digit
///       short).
inline constexpr std::uint32_t kSnapshotFormatVersion = 6;

/// Everything a snapshot touches. Engine/trace/checker vectors follow
/// channel / core order; sampler and trace may be null (their presence is
/// config-derived, so both sides of a save/restore agree). `checkers` is
/// empty on unchecked runs, else one entry per channel.
struct SnapshotContext {
  cpu::System* system = nullptr;
  mem::MemorySystem* memory = nullptr;
  std::vector<engine::RopEngine*> engines;
  std::vector<workload::SyntheticTrace*> traces;
  telemetry::EpochSampler* sampler = nullptr;
  telemetry::TraceSink* trace = nullptr;
  StatRegistry* stats = nullptr;
  std::vector<check::SimChecker*> checkers;
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
/// caller must abort the run) on magic/version/fingerprint mismatch, a
/// short/long buffer, or a queue index or refresh cursor out of range;
/// `error` gets a one-line reason.
[[nodiscard]] bool load_snapshot_buffer(const std::string& buf,
                                        const SnapshotContext& ctx,
                                        std::uint64_t fingerprint,
                                        std::string* error);

/// Header probe: true when `path` exists, is a ROPSNAP1 file of the
/// current format version, and was written under a spec with this
/// fingerprint. Lets a resuming campaign ignore stale checkpoints from an
/// earlier, different sweep without aborting mid-restore.
[[nodiscard]] bool snapshot_compatible(const std::string& path,
                                       std::uint64_t fingerprint);

/// File I/O wrappers: the buffer plus a trailing checksum, written
/// atomically (tmp + rename); a read verifies the checksum before
/// restoring anything.
[[nodiscard]] bool write_snapshot_file(const std::string& path,
                                       const SnapshotContext& ctx,
                                       std::uint64_t fingerprint);
[[nodiscard]] bool read_snapshot_file(const std::string& path,
                                      const SnapshotContext& ctx,
                                      std::uint64_t fingerprint,
                                      std::string* error);

}  // namespace rop::sim
