#include "dram/rank.h"

#include <algorithm>

namespace rop::dram {

Rank::Rank(const DramTimings& timings, std::uint32_t num_banks,
           std::uint32_t subarrays, std::uint32_t rows_per_bank)
    : t_(timings), banks_(num_banks) {
  ROP_ASSERT(num_banks > 0);
  // active_ holds one bit per bank.
  ROP_ASSERT(num_banks <= 32);
  if (subarrays > 1) {
    for (Bank& b : banks_) b.configure_subarrays(subarrays, rows_per_bank);
  }
}

bool Rank::can_issue(const Command& cmd, Cycle now) const {
  if (refreshing_ && now < refresh_done_) return false;
  const Bank& bank = banks_.at(cmd.coord.bank);
  switch (cmd.type) {
    case CmdType::kActivate: {
      if (now < next_activate_) return false;
      // tFAW: at most 4 activates within any rolling tFAW window.
      if (faw_count_ == faw_.size() && now < faw_.front() + t_.tFAW) {
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
    case CmdType::kRefresh:
      // Every bank precharged and past its precharge-recovery point and its
      // subarray refresh locks.
      return all_banks_precharged() && now >= banks_ready_;
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

void Rank::issue(const Command& cmd, Cycle now) {
  ROP_ASSERT(can_issue(cmd, now));
  account_until(now);
  const BankId b = cmd.coord.bank;
  Bank& bank = banks_.at(b);
  switch (cmd.type) {
    case CmdType::kActivate:
      bank.issue(cmd.type, cmd.coord.row, now, t_);
      active_ |= 1u << b;
      next_activate_ = std::max(next_activate_, now + t_.tRRD);
      if (faw_count_ < faw_.size()) {
        faw_[faw_count_++] = now;
      } else {
        std::copy(faw_.begin() + 1, faw_.end(), faw_.begin());
        faw_.back() = now;
      }
      break;
    case CmdType::kPrecharge:
      bank.issue(cmd.type, cmd.coord.row, now, t_);
      active_ &= ~(1u << b);
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
      for (Bank& other : banks_) other.defer_read_until(rd_ok);
      break;
    }
    case CmdType::kRefresh:
      for (Bank& each : banks_) {
        each.issue(CmdType::kRefresh, 0, now, t_);
        banks_ready_ = std::max(banks_ready_, each.next_activate());
      }
      refreshing_ = true;
      refresh_done_ = now + t_.tRFC;
      return;
    case CmdType::kRefreshBank:
      bank.issue(CmdType::kRefreshBank, cmd.coord.row, now, t_);
      activity_.bank_refresh_cycles += t_.tRFCpb;
      if (bank.state() == BankState::kRefreshing) {
        // Whole-bank lock: tick() must release it. Subarray-targeted
        // refreshes are purely time-based (no kRefreshing transition), but
        // their hidden activation counts against tRRD like an ACT.
        pb_refreshing_ = true;
        pb_release_ = std::min(pb_release_, bank.next_activate());
      } else {
        next_activate_ = std::max(next_activate_, now + t_.tRRD);
        // A REF must wait for the subarray lock to end.
        banks_ready_ = std::max(banks_ready_, bank.any_subarray_busy_until());
      }
      break;
  }
  banks_ready_ = std::max(banks_ready_, bank.next_activate());
}

void Rank::begin_refresh_segment(Cycle now, Cycle duration) {
  ROP_ASSERT(can_issue(Command{CmdType::kRefresh, DramCoord{}, 0}, now));
  account_until(now);
  for (Bank& b : banks_) {
    b.begin_refresh(now, duration);
    banks_ready_ = std::max(banks_ready_, b.next_activate());
  }
  refreshing_ = true;
  refresh_done_ = now + duration;
}

void Rank::release(Cycle now) {
  if (refreshing_) {
    account_until(refresh_done_);
    refreshing_ = false;
    for (Bank& b : banks_) b.complete_refresh(refresh_done_);
    return;
  }
  // Release the per-bank refresh locks (REFpb) that have elapsed.
  pb_release_ = kNeverCycle;
  for (Bank& b : banks_) {
    if (b.state() != BankState::kRefreshing) continue;
    if (now >= b.next_activate()) {
      b.complete_refresh(b.next_activate());
    } else {
      pb_release_ = std::min(pb_release_, b.next_activate());
    }
  }
  pb_refreshing_ = pb_release_ != kNeverCycle;
}

std::string Rank::loaded_state_error() const {
  for (std::uint32_t i = 1; i < faw_count_; ++i) {
    if (faw_[i] < faw_[i - 1]) return "tFAW history out of cycle order";
  }
  bool pb_locked = false;
  for (BankId b = 0; b < banks_.size(); ++b) {
    const bool frozen = banks_[b].state() == BankState::kRefreshing;
    if (refreshing_ && !frozen) {
      return "bank " + std::to_string(b) + " not frozen under a rank REF";
    }
    if (!refreshing_ && frozen && !pb_refreshing_) {
      return "bank " + std::to_string(b) +
             " refresh-locked with the REFpb flag clear";
    }
    pb_locked = pb_locked || (!refreshing_ && frozen);
  }
  if (pb_refreshing_ && !pb_locked) {
    return "REFpb flag set with no bank refresh-locked";
  }
  return {};
}

void Rank::rebuild_summaries() {
  active_ = 0;
  banks_ready_ = 0;
  pb_release_ = kNeverCycle;
  for (BankId b = 0; b < banks_.size(); ++b) {
    const Bank& bank = banks_[b];
    if (bank.state() == BankState::kActive) active_ |= 1u << b;
    banks_ready_ = std::max({banks_ready_, bank.next_activate(),
                             bank.any_subarray_busy_until()});
    if (pb_refreshing_ && bank.state() == BankState::kRefreshing) {
      pb_release_ = std::min(pb_release_, bank.next_activate());
    }
  }
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
  } else if (active_ != 0) {
    activity_.active_cycles += span;
  } else {
    activity_.precharged_cycles += span;
  }
  accounted_until_ = now;
}

}  // namespace rop::dram
