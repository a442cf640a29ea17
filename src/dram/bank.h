// Per-bank state machine with earliest-issue constraint tracking.
//
// The bank records, for each command class, the earliest cycle at which that
// command may legally be issued, updating the constraints whenever a command
// is accepted. This is the classic DRAMSim-style formulation: legality is a
// pure function of (state, constraint registers, now).
//
// Banks optionally model N subarrays (contiguous row blocks, Chang et al.
// SARP / HiRA). With subarrays > 1 a per-bank refresh (REFpb) locks only the
// targeted subarray for tRFCpb — the bank does *not* enter kRefreshing, so
// activates and column accesses to the other subarrays proceed in parallel.
// Bank-level legality also permits the HiRA-style overlap (REFpb while a row
// is open in a *different* subarray); whether that overlap is exploited is a
// controller-policy decision (SARP only refreshes precharged banks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace rop::dram {

enum class BankState : std::uint8_t {
  kPrecharged,  // no row open (also covers "precharging" until next_activate)
  kActive,      // a row is open in the row buffer
  kRefreshing,  // locked by an in-flight REF (tracked at rank scope too)
};

class Bank {
 public:
  Bank() = default;

  /// Switch to the subarray-aware model: `count` subarrays of contiguous
  /// rows out of `rows_per_bank`. count == 1 keeps the classic whole-bank
  /// model (bit-identical to the pre-subarray Bank).
  void configure_subarrays(std::uint32_t count, std::uint32_t rows_per_bank);

  [[nodiscard]] BankState state() const { return state_; }
  [[nodiscard]] std::optional<RowId> open_row() const { return open_row_; }

  /// Earliest legal issue cycles, considering only *this bank's* history.
  /// Rank- and channel-scope constraints (tRRD, tFAW, bus) layer on top.
  [[nodiscard]] Cycle next_activate() const { return next_activate_; }
  [[nodiscard]] Cycle next_read() const { return next_read_; }
  [[nodiscard]] Cycle next_write() const { return next_write_; }
  [[nodiscard]] Cycle next_precharge() const { return next_precharge_; }

  /// Subarray introspection (checker / telemetry / refresh policies).
  [[nodiscard]] std::uint32_t subarrays() const { return sub_count_; }
  [[nodiscard]] std::uint32_t subarray_of(RowId row) const;
  /// A representative row inside subarray `sub` (REFpb targeting).
  [[nodiscard]] RowId subarray_row(std::uint32_t sub) const;
  /// End of the busy interval for `sub` (0 when never refreshed).
  [[nodiscard]] Cycle subarray_busy_until(std::uint32_t sub) const;
  /// End of the latest subarray busy interval (kRefreshBank legality: only
  /// one subarray refresh may be in flight per bank; a REF waits for it).
  [[nodiscard]] Cycle any_subarray_busy_until() const;
  /// The subarray still refresh-locked at `now`, if any (at most one REFpb
  /// is in flight per bank at a time).
  [[nodiscard]] std::optional<std::uint32_t> refreshing_subarray(
      Cycle now) const;
  /// Last row activated in `sub` (the subarray's local row-buffer record).
  [[nodiscard]] std::optional<RowId> subarray_last_row(std::uint32_t sub) const;

  /// Would `cmd` targeting this bank be legal at `now` (bank scope only)?
  [[nodiscard]] bool can_issue(CmdType type, RowId row, Cycle now) const;

  /// Earliest cycle at which `type` targeting `row` could legally issue at
  /// bank scope, assuming no further commands reach this bank in between.
  /// Returns kNeverCycle when no passage of time alone can make the command
  /// legal from the current state (e.g. RD to a row that is not open): some
  /// other command must land first, which re-derives the answer. The only
  /// state transitions time *does* perform are the refresh release (an ACT
  /// against a kRefreshing bank becomes legal at next_activate(), recorded
  /// by begin_refresh()) and subarray-lock expiry (an ACT into a locked
  /// subarray becomes legal when its busy interval ends).
  [[nodiscard]] Cycle earliest_issue(CmdType type, RowId row) const;

  /// Apply `cmd` at `now`, updating state and constraints. The caller must
  /// have checked legality; violations abort (simulator bug, not workload
  /// behaviour).
  void issue(CmdType type, RowId row, Cycle now, const DramTimings& t);

  /// Begin a refresh lock of `duration` cycles (used for full-rank REF,
  /// per-bank REFpb, and the segments of Refresh Pausing). Legality is the
  /// same as CmdType::kRefresh.
  void begin_refresh(Cycle now, Cycle duration);

  /// Rank-level refresh completion releases the bank.
  void complete_refresh(Cycle refresh_done);

  /// Used by WR issue on *sibling* banks in the same rank: defer reads by
  /// the write-to-read turnaround.
  void defer_read_until(Cycle c) { next_read_ = std::max(next_read_, c); }

  /// Snapshot serialization (see common/snapshot_io.h). The subarray
  /// geometry (sub_count_/rows_per_sub_) is reconstructed by
  /// configure_subarrays at assembly time; only the mutable records ride.
  template <class Ar>
  void io(Ar& ar) {
    ar(state_, open_row_, next_activate_, next_read_, next_write_,
       next_precharge_, sub_busy_until_, sub_last_row_);
    if constexpr (Ar::kIsReader) {
      if (const std::string bad = loaded_state_error(); !bad.empty()) {
        ar.fail(bad);
      }
    }
  }

 private:
  /// Why just-loaded bytes cannot be a bank's state, or empty: a state
  /// outside the enum, kActive without an open row (the scheduler reads
  /// it), or subarray records that do not match the configured geometry.
  [[nodiscard]] std::string loaded_state_error() const;

  BankState state_ = BankState::kPrecharged;
  std::optional<RowId> open_row_;
  Cycle next_activate_ = 0;
  Cycle next_read_ = 0;
  Cycle next_write_ = 0;
  Cycle next_precharge_ = 0;

  // Subarray model (empty vectors in whole-bank mode).
  std::uint32_t sub_count_ = 1;
  std::uint32_t rows_per_sub_ = 0;
  std::vector<Cycle> sub_busy_until_;
  std::vector<std::optional<RowId>> sub_last_row_;
};

// Defined here so that they inline into Channel::earliest_issue, which the
// FR-FCFS scheduler calls for every candidate on every rebuild.

inline std::uint32_t Bank::subarray_of(RowId row) const {
  if (sub_count_ <= 1) return 0;
  return std::min<std::uint32_t>(row / rows_per_sub_, sub_count_ - 1);
}

inline Cycle Bank::earliest_issue(CmdType type, RowId row) const {
  switch (type) {
    case CmdType::kActivate:
      // kPrecharged waits out tRP/tRC recovery; kRefreshing is released at
      // next_activate_ (see complete_refresh), after which ACT is legal the
      // same cycle; a refresh-locked subarray is released when its busy
      // interval ends. Only an open row blocks ACT until someone precharges.
      if (state_ == BankState::kActive) return kNeverCycle;
      return sub_count_ <= 1
                 ? next_activate_
                 : std::max(next_activate_, sub_busy_until_[subarray_of(row)]);
    case CmdType::kPrecharge:
      return state_ == BankState::kActive ? next_precharge_ : kNeverCycle;
    case CmdType::kRead:
      return state_ == BankState::kActive && open_row_ && *open_row_ == row
                 ? next_read_
                 : kNeverCycle;
    case CmdType::kWrite:
      return state_ == BankState::kActive && open_row_ && *open_row_ == row
                 ? next_write_
                 : kNeverCycle;
    case CmdType::kRefresh:
      return state_ == BankState::kActive
                 ? kNeverCycle
                 : std::max(next_activate_, any_subarray_busy_until());
    case CmdType::kRefreshBank:
      if (state_ != BankState::kActive || sub_count_ <= 1) {
        return state_ == BankState::kActive
                   ? kNeverCycle
                   : std::max(next_activate_, any_subarray_busy_until());
      }
      // HiRA overlap path: legal once the last ACT's tRC and any in-flight
      // subarray refresh have elapsed, unless the open row shares the
      // target subarray.
      return open_row_ && subarray_of(*open_row_) != subarray_of(row)
                 ? std::max(next_activate_, any_subarray_busy_until())
                 : kNeverCycle;
  }
  return kNeverCycle;
}

}  // namespace rop::dram
