#include "sim/snapshot.h"

#include <sstream>

#include "check/sim_checker.h"
#include "common/file_io.h"
#include "common/fnv1a.h"
#include "common/snapshot_io.h"
#include "common/types.h"
#include "cpu/system.h"
#include "mem/memory_system.h"
#include "rop/rop_engine.h"
#include "sim/experiment.h"
#include "telemetry/epoch_sampler.h"
#include "telemetry/trace_sink.h"
#include "workload/synthetic.h"

namespace rop::sim {

namespace {

// "ROPSNAP1" read as a little-endian u64.
constexpr std::uint64_t kMagic = 0x3150414E53504F52ULL;
// "CHECKER1": tag of the optional trailing checker section.
constexpr std::uint64_t kCheckerTag = 0x3152454B43454843ULL;
// Bytes of the header (magic, version, fingerprint) and of the checksum
// that ends a snapshot file.
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

template <class Ar>
void serialize_sections(Ar& ar, const SnapshotContext& ctx) {
  ROP_ASSERT(ctx.system != nullptr && ctx.memory != nullptr &&
             ctx.stats != nullptr);
  // Restore-dependency order (see the header comment): the registry first,
  // then the memory system, then the CPU system (loop cursor, cores,
  // channel clocks), then the attachments.
  ar.field(*ctx.stats);
  ar.field(*ctx.memory);
  ar.field(*ctx.system);
  for (engine::RopEngine* e : ctx.engines) ar.field(*e);
  for (workload::SyntheticTrace* t : ctx.traces) ar.field(*t);
  if (ctx.sampler != nullptr) ar.field(*ctx.sampler);
  if (ctx.trace != nullptr) ar.field(*ctx.trace);
}

/// Read and check the header: magic, format version, spec fingerprint.
bool read_header(snap::Reader& r, std::uint64_t fingerprint,
                 std::string* error) {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fp = 0;
  r(magic, version, fp);
  const char* why = nullptr;
  if (!r.ok() || magic != kMagic) {
    why = "not a ROPSNAP1 snapshot";
  } else if (version != kSnapshotFormatVersion) {
    why = "unsupported snapshot format version";
  } else if (fp != fingerprint) {
    why = "snapshot was taken under a different experiment spec";
  }
  if (why != nullptr && error != nullptr) *error = why;
  return why == nullptr;
}

}  // namespace

std::string spec_canonical(const ExperimentSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << "v1;benchmarks=";
  for (const std::string& b : spec.benchmarks) os << b << ',';
  // Absent for synthetic workloads, so their canonical strings (and every
  // existing snapshot fingerprint) are unchanged.
  if (!spec.trace_files.empty()) {
    os << ";trace_files=";
    for (const std::string& f : spec.trace_files) os << f << ',';
  }
  os << ";mode=" << static_cast<int>(spec.mode)
     << ";rank_partition=" << spec.rank_partition << ";ranks=" << spec.ranks
     << ";channels=" << spec.channels << ";llc=" << spec.llc_bytes
     << ";refresh=" << static_cast<int>(spec.refresh_mode)
     << ";instr=" << spec.instructions_per_core
     << ";max=" << spec.max_cpu_cycles << ";salt=" << spec.seed_salt
     << ";loop=" << static_cast<int>(spec.loop);
  // The ROP constants, an 8 for the retired adaptive-count floor and a 0
  // for the prefetch distance fill slots that once held RopConfig fields:
  // fingerprints of snapshots on disk stay valid.
  const engine::RopConfig& r = spec.rop;
  os << ";rop=" << r.buffer_lines << ',' << r.training_refreshes << ','
     << engine::kHitRateThreshold << ',' << r.window_multiple << ','
     << engine::kSramLatency << ',' << r.eval_period_refreshes << ','
     << engine::kEvalMinOpportunities << ',' << r.seed << ','
     << static_cast<int>(r.gating) << ',' << r.uniform_budget << ','
     << r.adaptive_count << ',' << 8 << ',' << 0 << ','
     << r.bank_recency_horizon << ',' << r.saturation_guard_bursts;
  os << ";epoch=" << spec.telemetry.sampler.epoch_cycles << ','
     << spec.telemetry.sampler.max_epochs << ',';
  os << ";trace=" << spec.telemetry.trace.categories << ','
     << spec.telemetry.trace.capacity;
  // The resolved stride: a spec that names none and one that names the
  // stride it resolves to share a fingerprint. An exact spec resolves
  // against a zero horizon, to 100k, which keeps the exact fingerprints
  // that snapshots on disk carry (SnapshotHeader.FingerprintIsPinned).
  const std::uint64_t stride = sampling_stride(
      spec.sampling, spec.sampling.enabled ? spec.instructions_per_core : 0);
  os << ";sampling=" << spec.sampling.enabled << ','
     << spec.sampling.warmup_cycles << ',' << spec.sampling.detail_cycles
     << ',' << stride << ',' << spec.sampling.critical_penalty << ','
     << spec.sampling.min_windows << ',' << spec.sampling.max_windows << ','
     << spec.sampling.target_ci_frac;
  // The stratum count shapes the output (placement grid, estimator); the
  // worker count deliberately does not — jobs=1 and jobs=8 must interchange
  // snapshots and produce identical stats. `planned=` repeats `enabled`
  // (every sampled run is planned) so existing fingerprints keep their
  // bytes.
  os << ";planned=" << spec.sampling.enabled << ','
     << spec.sampling.strata;
  // Snapshot paths and the checker flag are deliberately absent: they do
  // not shape simulated behavior, and the save/restore sides differ in
  // them by construction.
  return os.str();
}

std::uint64_t config_fingerprint(const std::string& canonical) {
  return fnv1a(canonical);
}

std::string save_snapshot_buffer(const SnapshotContext& ctx,
                                 std::uint64_t fingerprint) {
  snap::Writer w;
  std::uint64_t magic = kMagic;
  std::uint32_t version = kSnapshotFormatVersion;
  std::uint64_t fp = fingerprint;
  w(magic, version, fp);
  serialize_sections(w, ctx);
  if (!ctx.checkers.empty()) {
    std::uint64_t tag = kCheckerTag;
    auto count = static_cast<std::uint32_t>(ctx.checkers.size());
    w(tag, count);
    for (check::SimChecker* c : ctx.checkers) w.field(*c);
  }
  return w.take();
}

bool load_snapshot_buffer(const std::string& buf, const SnapshotContext& ctx,
                          std::uint64_t fingerprint, std::string* error) {
  snap::Reader r(buf);
  if (!read_header(r, fingerprint, error)) return false;
  serialize_sections(r, ctx);
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  if (!r.ok()) {
    return fail(r.error().empty() ? "snapshot truncated or corrupt"
                                  : r.error());
  }
  if (r.at_end()) return true;  // no checker section
  std::uint64_t tag = 0;
  std::uint32_t count = 0;
  r(tag, count);
  if (!r.ok() || tag != kCheckerTag) return fail("snapshot has trailing bytes");
  // An unchecked run restoring a checked snapshot drops the section.
  if (ctx.checkers.empty()) return true;
  if (count != ctx.checkers.size()) {
    return fail("snapshot checker section does not match the run");
  }
  for (check::SimChecker* c : ctx.checkers) r.field(*c);
  if (!r.ok()) return fail("snapshot truncated or corrupt");
  if (!r.at_end()) return fail("snapshot has trailing bytes");
  return true;
}

bool snapshot_compatible(const std::string& path, std::uint64_t fingerprint) {
  std::string bytes;
  if (!read_file(path, &bytes)) return false;
  snap::Reader r(bytes);
  return read_header(r, fingerprint, nullptr);
}

bool write_snapshot_file(const std::string& path, const SnapshotContext& ctx,
                         std::uint64_t fingerprint) {
  std::string bytes = save_snapshot_buffer(ctx, fingerprint);
  snap::Writer tail;
  std::uint64_t sum = fnv1a(bytes);
  tail(sum);
  bytes += tail.take();
  return write_file_atomic(path, bytes);
}

bool read_snapshot_file(const std::string& path, const SnapshotContext& ctx,
                        std::uint64_t fingerprint, std::string* error) {
  std::string bytes;
  if (!read_file(path, &bytes)) {
    if (error != nullptr) *error = "cannot open snapshot file";
    return false;
  }
  // Nothing is restored until the header and the checksum both hold. A
  // header that reads leaves at least kHeaderBytes >= kChecksumBytes.
  snap::Reader header(bytes);
  if (!read_header(header, fingerprint, error)) return false;
  const std::size_t payload = bytes.size() - kChecksumBytes;
  std::uint64_t sum = 0;
  snap::Reader tail(bytes.data() + payload, kChecksumBytes);
  tail(sum);
  if (payload < kHeaderBytes ||
      sum != fnv1a(std::string_view(bytes).substr(0, payload))) {
    if (error != nullptr) *error = "snapshot checksum mismatch";
    return false;
  }
  bytes.resize(payload);
  return load_snapshot_buffer(bytes, ctx, fingerprint, error);
}

}  // namespace rop::sim
