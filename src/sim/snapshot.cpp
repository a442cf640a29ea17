#include "sim/snapshot.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/snapshot_io.h"
#include "common/types.h"
#include "cpu/system.h"
#include "mem/memory_system.h"
#include "mem/shard_pool.h"
#include "rop/rop_engine.h"
#include "sim/experiment.h"
#include "telemetry/epoch_sampler.h"
#include "telemetry/trace_sink.h"
#include "workload/synthetic.h"

namespace rop::sim {

namespace {

// "ROPSNAP1" read as a little-endian u64.
constexpr std::uint64_t kMagic = 0x3150414E53504F52ULL;

template <class Ar>
void serialize_sections(Ar& ar, const SnapshotContext& ctx) {
  ROP_ASSERT(ctx.system != nullptr && ctx.memory != nullptr &&
             ctx.stats != nullptr);
  // Restore-dependency order (see the header comment): registries first,
  // then the memory system (whose per-channel registries ride inside its
  // io), then the CPU system (loop cursor, cores, shard-pool event clocks
  // and fold baselines), then the attachments.
  ar.field(*ctx.stats);
  ar.field(*ctx.memory);
  ar.field(*ctx.system);
  for (engine::RopEngine* e : ctx.engines) ar.field(*e);
  for (workload::SyntheticTrace* t : ctx.traces) ar.field(*t);
  if (ctx.sampler != nullptr) ar.field(*ctx.sampler);
  if (ctx.trace != nullptr) ar.field(*ctx.trace);
}

}  // namespace

std::string spec_canonical(const ExperimentSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << "v1;benchmarks=";
  for (const std::string& b : spec.benchmarks) os << b << ',';
  os << ";mode=" << static_cast<int>(spec.mode)
     << ";rank_partition=" << spec.rank_partition << ";ranks=" << spec.ranks
     << ";channels=" << spec.channels << ";shards=" << spec.shard_channels
     << ";llc=" << spec.llc_bytes
     << ";refresh=" << static_cast<int>(spec.refresh_mode)
     << ";instr=" << spec.instructions_per_core
     << ";max=" << spec.max_cpu_cycles << ";salt=" << spec.seed_salt
     << ";loop=" << static_cast<int>(spec.loop);
  const engine::RopConfig& r = spec.rop;
  os << ";rop=" << r.buffer_lines << ',' << r.training_refreshes << ','
     << r.hit_rate_threshold << ',' << r.window_multiple << ','
     << r.sram_latency << ',' << r.eval_period_refreshes << ','
     << r.eval_min_opportunities << ',' << r.seed << ','
     << static_cast<int>(r.gating) << ',' << r.uniform_budget << ','
     << r.adaptive_count << ',' << r.min_prefetch << ',' << r.distance_scale
     << ',' << r.bank_recency_horizon << ',' << r.saturation_guard_bursts;
  os << ";epoch=" << spec.telemetry.sampler.epoch_cycles << ','
     << spec.telemetry.sampler.max_epochs << ',';
  for (const std::string& c : spec.telemetry.sampler.counters) os << c << '+';
  os << ";trace=" << spec.telemetry.trace.categories << ','
     << spec.telemetry.trace.capacity;
  os << ";sampling=" << spec.sampling.enabled << ','
     << spec.sampling.warmup_cycles << ',' << spec.sampling.detail_cycles
     << ',' << spec.sampling.functional_instructions << ','
     << spec.sampling.critical_penalty << ',' << spec.sampling.min_windows
     << ',' << spec.sampling.max_windows << ','
     << spec.sampling.target_ci_frac;
  // Planned mode and the stratum count both shape the output (placement
  // grid, estimator); the worker count deliberately does not — jobs=1 and
  // jobs=8 must interchange snapshots and produce identical stats.
  os << ";planned=" << (spec.sampling.jobs > 0) << ','
     << spec.sampling.strata;
  // Snapshot paths and the checker flag are deliberately absent: they do
  // not shape simulated behavior, and the save/restore sides differ in
  // them by construction.
  return os.str();
}

std::uint64_t config_fingerprint(const std::string& canonical) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : canonical) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::string save_snapshot_buffer(const SnapshotContext& ctx,
                                 std::uint64_t fingerprint) {
  snap::Writer w;
  std::uint64_t magic = kMagic;
  std::uint32_t version = kSnapshotFormatVersion;
  std::uint64_t fp = fingerprint;
  w(magic, version, fp);
  serialize_sections(w, ctx);
  return w.take();
}

bool load_snapshot_buffer(const std::string& buf, const SnapshotContext& ctx,
                          std::uint64_t fingerprint, std::string* error) {
  snap::Reader r(buf);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fp = 0;
  r(magic, version, fp);
  if (!r.ok() || magic != kMagic) {
    if (error != nullptr) *error = "not a ROPSNAP1 snapshot";
    return false;
  }
  if (version != kSnapshotFormatVersion) {
    if (error != nullptr) *error = "unsupported snapshot format version";
    return false;
  }
  if (fp != fingerprint) {
    if (error != nullptr) {
      *error = "snapshot was taken under a different experiment spec";
    }
    return false;
  }
  serialize_sections(r, ctx);
  if (!r.ok()) {
    if (error != nullptr) *error = "snapshot truncated or corrupt";
    return false;
  }
  if (!r.at_end()) {
    if (error != nullptr) *error = "snapshot has trailing bytes";
    return false;
  }
  return true;
}

bool snapshot_compatible(const std::string& path, std::uint64_t fingerprint) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char header[20];
  if (!is.read(header, sizeof header)) return false;
  snap::Reader r(header, sizeof header);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fp = 0;
  r(magic, version, fp);
  return r.ok() && magic == kMagic && version == kSnapshotFormatVersion &&
         fp == fingerprint;
}

bool write_snapshot_file(const std::string& path, const SnapshotContext& ctx,
                         std::uint64_t fingerprint) {
  const std::string bytes = save_snapshot_buffer(ctx, fingerprint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

bool read_snapshot_file(const std::string& path, const SnapshotContext& ctx,
                        std::uint64_t fingerprint, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error != nullptr) *error = "cannot open snapshot file";
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return load_snapshot_buffer(ss.str(), ctx, fingerprint, error);
}

}  // namespace rop::sim
