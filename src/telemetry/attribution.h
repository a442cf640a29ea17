// Attribution: the canonical CPI-stack category set and the live-progress
// heartbeat writer.
//
// The CPI stack is a disjoint decomposition of every core's cycles — each
// executed cycle bills exactly one category, and a critical-load sleep span
// is decomposed at wake from the fill's lifecycle stamps (see
// cpu::CoreStats and Core::attribute_critical_span). This header names
// the categories once: their order, their export keys and the CpiStack
// that holds them. It names the four refresh locks that can freeze a read
// (RefreshCause) once too; the controller charges each lock span through
// one call, and every per-cause stat, array and JSON key follows that
// list. The schema validator (tools/check_stats_schema.py) and the
// renderer (tools/report_cpi.py) check the keys the exporter writes.
//
// ProgressWriter is the JSONL heartbeat behind `ropsim --progress FILE` and
// `campaign --progress FILE`: one self-contained JSON object per line
// (cycles, throughput, ETA for runs; done/running/total for campaigns),
// flushed on every write so `tail -f` and dashboards see live state. The
// file is an operational side channel — it is not part of the experiment's
// deterministic surface (like snapshot paths, it is excluded from the spec
// fingerprint).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

namespace rop::telemetry {

/// CPI-stack categories in canonical export order. The enum order is the
/// snapshot byte order of every CpiStack, so append, never reorder.
enum class CpiCategory : std::uint8_t {
  kRetire = 0,        // >= 1 instruction retired this cycle
  kStallMlp,          // outstanding-miss budget full
  kStallPort,         // memory queue rejected the op
  kMemQueue,          // critical fill: controller queue wait
  kMemBank,           // critical fill: row activation (bank conflict)
  kMemCas,            // critical fill: column-access latency
  kMemBus,            // critical fill: data burst
  kRefreshRank,       // rank REF lock
  kRefreshBank,       // per-bank REFpb lock
  kRefreshSubarray,   // subarray lock (SARP/HiRA)
  kRefreshPause,      // pausing segments
  kRopSram,           // residual wait of SRAM-buffer fills (revived service)
  kOther,             // align/functional jumps, end-of-run residue
};

inline constexpr std::size_t kCpiCategoryCount =
    static_cast<std::size_t>(CpiCategory::kOther) + 1;

/// Stable export name of each category, in enum order: the stats JSON
/// `cpi_stack` keys and the registry's "coreN.cpi.<key>" counters.
inline constexpr std::array<const char*, kCpiCategoryCount> kCpiCategoryKeys = {
    "retire",
    "stall_mlp",
    "stall_port",
    "mem_queue",
    "mem_bank",
    "mem_cas",
    "mem_bus",
    "refresh_rank",
    "refresh_bank",
    "refresh_subarray",
    "refresh_pause",
    "rop_sram",
    "other",
};

/// One core's CPI stack: cycles per category, indexed by CpiCategory. This
/// is the whole ledger; cpu::CoreStats bills it, cpu::CoreResult freezes
/// it, and every export iterates it with kCpiCategoryKeys.
struct CpiStack {
  std::array<std::uint64_t, kCpiCategoryCount> cycles{};

  [[nodiscard]] std::uint64_t& operator[](CpiCategory c) {
    return cycles[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t operator[](CpiCategory c) const {
    return cycles[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t sum() const {
    std::uint64_t s = 0;
    for (const std::uint64_t v : cycles) s += v;
    return s;
  }

  /// Snapshot serialization: the categories in enum order, no length.
  template <class Ar>
  void io(Ar& ar) {
    ar(cycles);
  }
};

/// The locks that can hold a demand read behind a refresh, in the order of
/// their CPI categories. The enum order is the snapshot byte order of every
/// per-cause array (mem::Request::blocked, cpu::FillInfo::refresh), so
/// append, never reorder.
enum class RefreshCause : std::uint8_t {
  kRank = 0,  // whole-rank REF lock
  kBank,      // per-bank REFpb lock
  kSubarray,  // subarray REFpb lock (SARP/HiRA)
  kPause,     // pausing-segment lock
};

inline constexpr std::size_t kRefreshCauseCount =
    static_cast<std::size_t>(RefreshCause::kPause) + 1;

/// Stable export name of each cause, in enum order: the registry's
/// "attr.blocked_<key>_cycles" / "attr.blocked_<key>_hist" stats and the
/// stats JSON "blocked_<key>_cycles" keys.
inline constexpr std::array<const char*, kRefreshCauseCount> kRefreshCauseKeys =
    {"rank", "bank", "subarray", "pause"};

/// A critical fill's wait under cause k bills CPI category
/// kRefreshRank + k.
inline constexpr std::size_t kRefreshCategoryBase =
    static_cast<std::size_t>(CpiCategory::kRefreshRank);
static_assert(kRefreshCategoryBase + kRefreshCauseCount - 1 ==
                  static_cast<std::size_t>(CpiCategory::kRefreshPause),
              "one refresh CPI category per RefreshCause, in cause order");

/// JSONL heartbeat file. Construction truncates the target; every write_*
/// appends one line and flushes. A writer that failed to open is inert
/// (ok() == false, writes are dropped) so a bad path degrades to "no
/// progress file", never to a crashed run.
class ProgressWriter {
 public:
  explicit ProgressWriter(const std::string& path);
  ~ProgressWriter();

  ProgressWriter(const ProgressWriter&) = delete;
  ProgressWriter& operator=(const ProgressWriter&) = delete;

  [[nodiscard]] bool ok() const { return out_ != nullptr; }

  /// One simulation-run heartbeat (`{"kind":"run",...}`). eta_s < 0 means
  /// unknown (nothing retired yet).
  struct RunHeartbeat {
    std::uint64_t cpu_cycles = 0;
    std::uint64_t max_cpu_cycles = 0;
    std::uint64_t instructions = 0;         // retired, summed over cores
    std::uint64_t target_instructions = 0;  // total across cores
    std::uint64_t cores_remaining = 0;      // cores short of their target
    double wall_s = 0.0;
    double mcyc_per_s = 0.0;  // CPU Mcycles per wall second
    double eta_s = -1.0;
    bool done = false;
  };
  void write_run(const RunHeartbeat& h);

  /// One campaign heartbeat (`{"kind":"campaign",...}`), written per cell
  /// transition. eta_s < 0 means unknown (no cell finished yet).
  struct CampaignHeartbeat {
    std::uint64_t done = 0;  // completed cells (reused + fresh)
    std::uint64_t failed = 0;
    std::uint64_t running = 0;
    std::uint64_t total = 0;
    double wall_s = 0.0;
    double eta_s = -1.0;
    std::string last_cell;  // label of the most recent transition
  };
  void write_campaign(const CampaignHeartbeat& h);

 private:
  std::FILE* out_ = nullptr;
};

}  // namespace rop::telemetry
