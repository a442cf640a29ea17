// Rank model: a set of banks operating in lockstep plus rank-scope timing
// constraints (tRRD, tFAW, tCCD, write-to-read turnaround) and the refresh
// lockout that freezes every bank for tRFC.
//
// The rank also integrates busy/idle/refresh cycle counts, which the energy
// model turns into background power.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
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
  [[nodiscard]] const Bank& bank(BankId b) const { return banks_.at(b); }
  [[nodiscard]] Bank& bank(BankId b) { return banks_.at(b); }

  /// True while a REF command is executing (banks frozen).
  [[nodiscard]] bool refreshing() const { return refreshing_; }
  [[nodiscard]] Cycle refresh_done() const { return refresh_done_; }
  /// True while at least one bank holds a per-bank refresh lock (REFpb).
  [[nodiscard]] bool pb_refreshing() const { return pb_refreshing_; }

  /// Rank-scope constraint registers (exposed for next-event computation
  /// and state-dump determinism tests).
  [[nodiscard]] Cycle next_activate() const { return next_activate_; }
  [[nodiscard]] Cycle next_column() const { return next_column_; }

  [[nodiscard]] bool all_banks_precharged() const;

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
  /// every bank precharged and past its recovery point. kNeverCycle while
  /// any bank holds an open row (a PRE must land first).
  [[nodiscard]] Cycle earliest_refresh_ready() const;

  /// Earliest cycle at which any per-bank refresh lock is released by
  /// tick(). kNeverCycle when no bank is locked.
  [[nodiscard]] Cycle earliest_pb_release() const;

  /// Apply the command. Aborts on illegality.
  void issue(const Command& cmd, Cycle now);

  /// Begin a partial refresh of `duration` cycles (Refresh Pausing
  /// segments). Same legality as a full REF.
  void begin_refresh_segment(Cycle now, Cycle duration);

  /// Release the refresh lockout once `now` has reached refresh_done().
  /// Called every controller tick; cheap when nothing changes.
  void tick(Cycle now);

  /// Finalize activity accounting up to `now` (call once at end of run or
  /// whenever a consistent snapshot is needed).
  void settle_accounting(Cycle now);
  [[nodiscard]] const RankActivity& activity() const { return activity_; }

  /// Snapshot serialization: every mutable field, including the activity
  /// integration point, so restored energy accounting continues exactly.
  template <class Ar>
  void io(Ar& ar) {
    // Banks serialize in place: the bank count and subarray geometry are
    // fixed by the configuration the restored simulator was built with.
    for (Bank& b : banks_) ar.field(b);
    ar(next_activate_, next_column_, recent_activates_, refreshing_,
       refresh_done_, pb_refreshing_, accounted_until_,
       activity_.active_cycles, activity_.precharged_cycles,
       activity_.refresh_cycles, activity_.bank_refresh_cycles);
  }

 private:
  void account_until(Cycle now);
  [[nodiscard]] bool any_bank_active() const;

  const DramTimings& t_;
  std::vector<Bank> banks_;

  Cycle next_activate_ = 0;  // tRRD constraint across banks
  Cycle next_column_ = 0;    // tCCD constraint across banks
  std::deque<Cycle> recent_activates_;  // for the tFAW window

  bool refreshing_ = false;
  Cycle refresh_done_ = 0;
  // At least one bank may hold a per-bank refresh lock (REFpb). Lets tick()
  // skip the bank scan on the vast majority of cycles where none exists.
  bool pb_refreshing_ = false;

  Cycle accounted_until_ = 0;
  RankActivity activity_;
};

// Inline for the scheduler, like Bank::earliest_issue.
inline Cycle Rank::earliest_issue(const Command& cmd) const {
  const Bank& bank = banks_.at(cmd.coord.bank);
  Cycle when = bank.earliest_issue(cmd.type, cmd.coord.row);
  if (when == kNeverCycle) return kNeverCycle;
  switch (cmd.type) {
    case CmdType::kActivate:
      when = std::max(when, next_activate_);
      if (recent_activates_.size() >= 4) {
        when = std::max(when, recent_activates_.front() + t_.tFAW);
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
