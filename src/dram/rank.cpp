#include "dram/rank.h"

#include <algorithm>

namespace rop::dram {

Rank::Rank(const DramTimings& timings, std::uint32_t num_banks,
           std::uint32_t subarrays, std::uint32_t rows_per_bank)
    : t_(timings), banks_(num_banks) {
  ROP_ASSERT(num_banks > 0);
  if (subarrays > 1) {
    for (Bank& b : banks_) b.configure_subarrays(subarrays, rows_per_bank);
  }
}

bool Rank::all_banks_precharged() const {
  return std::all_of(banks_.begin(), banks_.end(), [](const Bank& b) {
    return b.state() == BankState::kPrecharged;
  });
}

bool Rank::any_bank_active() const {
  return std::any_of(banks_.begin(), banks_.end(), [](const Bank& b) {
    return b.state() == BankState::kActive;
  });
}

bool Rank::can_issue(const Command& cmd, Cycle now) const {
  if (refreshing_ && now < refresh_done_) return false;
  const Bank& bank = banks_.at(cmd.coord.bank);
  switch (cmd.type) {
    case CmdType::kActivate: {
      if (now < next_activate_) return false;
      // tFAW: at most 4 activates within any rolling tFAW window.
      if (recent_activates_.size() >= 4 &&
          now < recent_activates_.front() + t_.tFAW) {
        return false;
      }
      return bank.can_issue(cmd.type, cmd.coord.row, now);
    }
    case CmdType::kRead:
    case CmdType::kWrite:
      if (now < next_column_) return false;
      return bank.can_issue(cmd.type, cmd.coord.row, now);
    case CmdType::kPrecharge:
      return bank.can_issue(cmd.type, cmd.coord.row, now);
    case CmdType::kRefresh: {
      if (!all_banks_precharged()) return false;
      // Every bank must be past its precharge-recovery point.
      return std::all_of(banks_.begin(), banks_.end(), [now](const Bank& b) {
        return now >= b.next_activate();
      });
    }
    case CmdType::kRefreshBank:
      // Subarray-targeted refresh performs a hidden activation internally:
      // space it tRRD from other activates in the rank (the tFAW window is
      // deliberately not charged — see DESIGN.md). Whole-bank REFpb keeps
      // the classic rank-agnostic legality.
      if (bank.subarrays() > 1 && now < next_activate_) return false;
      return bank.can_issue(cmd.type, cmd.coord.row, now);
  }
  return false;
}

Cycle Rank::earliest_refresh_ready() const {
  Cycle ready = 0;
  for (const Bank& b : banks_) {
    // An open row never precharges by itself: REF cannot become legal
    // through the passage of time alone.
    if (b.state() == BankState::kActive) return kNeverCycle;
    ready = std::max(ready, b.next_activate());
  }
  if (refreshing_) ready = std::max(ready, refresh_done_);
  return ready;
}

Cycle Rank::earliest_pb_release() const {
  Cycle release = kNeverCycle;
  if (!pb_refreshing_) return release;
  for (const Bank& b : banks_) {
    if (b.state() == BankState::kRefreshing) {
      release = std::min(release, b.next_activate());
    }
  }
  return release;
}

void Rank::issue(const Command& cmd, Cycle now) {
  ROP_ASSERT(can_issue(cmd, now));
  account_until(now);
  Bank& bank = banks_.at(cmd.coord.bank);
  switch (cmd.type) {
    case CmdType::kActivate:
      bank.issue(cmd.type, cmd.coord.row, now, t_);
      next_activate_ = std::max(next_activate_, now + t_.tRRD);
      recent_activates_.push_back(now);
      while (recent_activates_.size() > 4) recent_activates_.pop_front();
      break;
    case CmdType::kPrecharge:
      bank.issue(cmd.type, cmd.coord.row, now, t_);
      break;
    case CmdType::kRead:
      bank.issue(cmd.type, cmd.coord.row, now, t_);
      next_column_ = std::max(next_column_, now + t_.tCCD);
      break;
    case CmdType::kWrite: {
      bank.issue(cmd.type, cmd.coord.row, now, t_);
      next_column_ = std::max(next_column_, now + t_.tCCD);
      // Write-to-read turnaround applies rank-wide.
      const Cycle rd_ok = t_.write_data_done(now) + t_.tWTR;
      for (Bank& b : banks_) b.defer_read_until(rd_ok);
      break;
    }
    case CmdType::kRefresh:
      for (Bank& b : banks_) b.issue(CmdType::kRefresh, 0, now, t_);
      refreshing_ = true;
      refresh_done_ = now + t_.tRFC;
      break;
    case CmdType::kRefreshBank:
      bank.issue(CmdType::kRefreshBank, cmd.coord.row, now, t_);
      activity_.bank_refresh_cycles += t_.tRFCpb;
      if (bank.state() == BankState::kRefreshing) {
        // Whole-bank lock: tick() must release it. Subarray-targeted
        // refreshes are purely time-based (no kRefreshing transition), but
        // their hidden activation counts against tRRD like an ACT.
        pb_refreshing_ = true;
      } else {
        next_activate_ = std::max(next_activate_, now + t_.tRRD);
      }
      break;
  }
}

void Rank::begin_refresh_segment(Cycle now, Cycle duration) {
  ROP_ASSERT(can_issue(Command{CmdType::kRefresh, DramCoord{}, 0}, now));
  account_until(now);
  for (Bank& b : banks_) b.begin_refresh(now, duration);
  refreshing_ = true;
  refresh_done_ = now + duration;
}

void Rank::tick(Cycle now) {
  if (refreshing_) {
    if (now >= refresh_done_) {
      account_until(refresh_done_);
      refreshing_ = false;
      for (Bank& b : banks_) b.complete_refresh(refresh_done_);
    }
    return;
  }
  if (!pb_refreshing_) return;
  // Release any per-bank refresh locks that have elapsed (REFpb).
  bool still_locked = false;
  for (Bank& b : banks_) {
    if (b.state() != BankState::kRefreshing) continue;
    if (now >= b.next_activate()) {
      b.complete_refresh(b.next_activate());
    } else {
      still_locked = true;
    }
  }
  pb_refreshing_ = still_locked;
}

void Rank::settle_accounting(Cycle now) { account_until(now); }

void Rank::account_until(Cycle now) {
  if (now <= accounted_until_) return;
  const std::uint64_t span = now - accounted_until_;
  if (refreshing_) {
    // Split the span at refresh completion when it straddles it; the
    // caller's tick() normally prevents straddles, but settle_accounting
    // at end-of-run may not.
    if (now <= refresh_done_) {
      activity_.refresh_cycles += span;
    } else {
      activity_.refresh_cycles += refresh_done_ - accounted_until_;
      activity_.precharged_cycles += now - refresh_done_;
    }
  } else if (any_bank_active()) {
    activity_.active_cycles += span;
  } else {
    activity_.precharged_cycles += span;
  }
  accounted_until_ = now;
}

}  // namespace rop::dram
