// Rank model: a set of banks operating in lockstep plus rank-scope timing
// constraints (tRRD, tFAW, tCCD, write-to-read turnaround) and the refresh
// lockout that freezes every bank for tRFC.
//
// The rank also integrates busy/idle/refresh cycle counts, which the energy
// model turns into background power.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "dram/bank.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace rop::dram {

/// Cycle-count breakdown used by the background-power model.
struct RankActivity {
  std::uint64_t active_cycles = 0;      // >= 1 bank active (IDD3N regime)
  std::uint64_t precharged_cycles = 0;  // all banks precharged (IDD2N regime)
  std::uint64_t refresh_cycles = 0;     // rank-level REF in flight (IDD5)
  /// Bank-cycles spent in per-bank refresh locks (REFpb). These overlap
  /// the active/precharged integration above; the power model charges them
  /// as an IDD5 surcharge scaled by 1/banks.
  std::uint64_t bank_refresh_cycles = 0;
};

class Rank {
 public:
  /// `subarrays` > 1 switches every bank to the subarray-aware model (SARP /
  /// HiRA); `rows_per_bank` sizes the contiguous row blocks.
  Rank(const DramTimings& timings, std::uint32_t num_banks,
       std::uint32_t subarrays = 1, std::uint32_t rows_per_bank = 0);

  [[nodiscard]] std::uint32_t num_banks() const {
    return static_cast<std::uint32_t>(banks_.size());
  }
  /// Banks change only through the rank (issue, begin_refresh_segment,
  /// tick), which keeps the summaries below in step with them.
  [[nodiscard]] const Bank& bank(BankId b) const { return banks_.at(b); }

  /// True while a REF command is executing (banks frozen).
  [[nodiscard]] bool refreshing() const { return refreshing_; }
  [[nodiscard]] Cycle refresh_done() const { return refresh_done_; }
  /// True while at least one bank holds a per-bank refresh lock (REFpb).
  [[nodiscard]] bool pb_refreshing() const { return pb_refreshing_; }

  /// Rank-scope constraint registers (exposed for next-event computation
  /// and state-dump determinism tests).
  [[nodiscard]] Cycle next_activate() const { return next_activate_; }
  [[nodiscard]] Cycle next_column() const { return next_column_; }

  /// Banks with an open row: bit b is set while bank b is kActive.
  [[nodiscard]] std::uint32_t active_banks() const { return active_; }

  [[nodiscard]] bool all_banks_precharged() const {
    return active_ == 0 && !refreshing_ && !pb_refreshing_;
  }

  /// Rank-scope legality for a command at `now` (bank-scope already layered
  /// in; channel-scope data-bus checks layer on top).
  [[nodiscard]] bool can_issue(const Command& cmd, Cycle now) const;

  /// Earliest cycle at which `cmd` could legally issue, folding bank-scope
  /// constraints with tRRD, tFAW window slots, tCCD, and the refresh
  /// lockout. kNeverCycle when time alone cannot make it legal (another
  /// command must land first). Exact for the frozen state: if no command
  /// reaches this rank in between, can_issue(cmd, c) is false for every
  /// c < result and true at c == result.
  [[nodiscard]] Cycle earliest_issue(const Command& cmd) const;

  /// Earliest cycle a full-rank REF (or pausing segment) could begin:
  /// every bank precharged and past its recovery point and its subarray
  /// refresh locks. kNeverCycle while any bank holds an open row (a PRE
  /// must land first).
  [[nodiscard]] Cycle earliest_refresh_ready() const {
    if (active_ != 0) return kNeverCycle;
    return refreshing_ ? std::max(banks_ready_, refresh_done_) : banks_ready_;
  }

  /// Earliest cycle at which any per-bank refresh lock is released by
  /// tick(). kNeverCycle when no bank is locked.
  [[nodiscard]] Cycle earliest_pb_release() const { return pb_release_; }

  /// The next cycle at which tick() changes anything: refresh_done() while
  /// a REF or pausing segment runs, else earliest_pb_release().
  [[nodiscard]] Cycle next_release() const {
    return refreshing_ ? refresh_done_ : pb_release_;
  }

  /// Apply the command. Aborts on illegality.
  void issue(const Command& cmd, Cycle now);

  /// Begin a partial refresh of `duration` cycles (Refresh Pausing
  /// segments). Same legality as a full REF.
  void begin_refresh_segment(Cycle now, Cycle duration);

  /// Release the refresh locks that have elapsed by `now`. One compare
  /// before next_release().
  void tick(Cycle now) {
    if (now >= next_release()) release(now);
  }

  /// Finalize activity accounting up to `now` (call once at end of run or
  /// whenever a consistent snapshot is needed).
  void settle_accounting(Cycle now);
  [[nodiscard]] const RankActivity& activity() const { return activity_; }

  /// Snapshot serialization: every mutable field, including the activity
  /// integration point, so restored energy accounting continues exactly.
  /// The summaries (active_, banks_ready_, pb_release_) are rebuilt from
  /// the banks on load, after checking that the flags agree with them.
  template <class Ar>
  void io(Ar& ar) {
    // Banks serialize in place: the bank count and subarray geometry are
    // fixed by the configuration the restored simulator was built with.
    for (BankId b = 0; b < banks_.size(); ++b) {
      ar.enter("bank", b);
      ar.field(banks_[b]);
      ar.leave();
    }
    ar(next_activate_, next_column_);
    // The tFAW history's format v6 wire form: a 64-bit length, then the
    // cycles, oldest first.
    std::uint64_t faw_count = faw_count_;
    ar(faw_count);
    if constexpr (Ar::kIsReader) {
      if (faw_count > faw_.size()) {
        ar.fail("tFAW history of " + std::to_string(faw_count) +
                " activates (at most 4)");
        return;
      }
      faw_count_ = static_cast<std::uint32_t>(faw_count);
    }
    for (std::uint32_t i = 0; i < faw_count_; ++i) ar(faw_[i]);
    ar(refreshing_, refresh_done_, pb_refreshing_, accounted_until_,
       activity_.active_cycles, activity_.precharged_cycles,
       activity_.refresh_cycles, activity_.bank_refresh_cycles);
    if constexpr (Ar::kIsReader) {
      if (const std::string bad = loaded_state_error(); !bad.empty()) {
        ar.fail(bad);
        return;
      }
      rebuild_summaries();
    }
  }

 private:
  void account_until(Cycle now);
  /// tick() past next_release(): end the REF, or the elapsed REFpb locks.
  void release(Cycle now);
  /// Why the just-loaded tFAW history or refresh flags cannot be trusted,
  /// or empty: cycles out of order, a REF flag with a bank not frozen, a
  /// REFpb flag that disagrees with the banks.
  [[nodiscard]] std::string loaded_state_error() const;
  /// Recompute active_, banks_ready_ and pb_release_ from the banks.
  void rebuild_summaries();

  const DramTimings& t_;
  std::vector<Bank> banks_;

  Cycle next_activate_ = 0;  // tRRD constraint across banks
  Cycle next_column_ = 0;    // tCCD constraint across banks
  // The tFAW window: the last faw_count_ (at most 4) ACT cycles, oldest
  // first.
  std::array<Cycle, 4> faw_{};
  std::uint32_t faw_count_ = 0;

  bool refreshing_ = false;
  Cycle refresh_done_ = 0;
  // At least one bank holds a per-bank refresh lock (REFpb).
  bool pb_refreshing_ = false;

  Cycle accounted_until_ = 0;
  RankActivity activity_;

  // Summaries of the banks, derived (not serialized): updated where a
  // command or a release changes a bank, rebuilt from the banks on load.
  std::uint32_t active_ = 0;  // bit b: bank b is kActive
  // Max over the banks' next_activate() and any_subarray_busy_until().
  Cycle banks_ready_ = 0;
  // Earliest next_activate() over the REFpb-locked banks; kNeverCycle
  // when none is locked.
  Cycle pb_release_ = kNeverCycle;
};

// Inline for the scheduler, like Bank::earliest_issue.
inline Cycle Rank::earliest_issue(const Command& cmd) const {
  const Bank& bank = banks_.at(cmd.coord.bank);
  Cycle when = bank.earliest_issue(cmd.type, cmd.coord.row);
  if (when == kNeverCycle) return kNeverCycle;
  switch (cmd.type) {
    case CmdType::kActivate:
      when = std::max(when, next_activate_);
      if (faw_count_ == faw_.size()) {
        when = std::max(when, faw_.front() + t_.tFAW);
      }
      break;
    case CmdType::kRead:
    case CmdType::kWrite:
      when = std::max(when, next_column_);
      break;
    case CmdType::kRefreshBank:
      if (bank.subarrays() > 1) when = std::max(when, next_activate_);
      break;
    case CmdType::kPrecharge:
    case CmdType::kRefresh:
      break;
  }
  if (refreshing_) when = std::max(when, refresh_done_);
  return when;
}

}  // namespace rop::dram
