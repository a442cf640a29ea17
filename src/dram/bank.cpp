#include "dram/bank.h"

#include <algorithm>

namespace rop::dram {

void Bank::configure_subarrays(std::uint32_t count, std::uint32_t rows_per_bank) {
  ROP_ASSERT(count >= 1);
  ROP_ASSERT(state_ == BankState::kPrecharged && !open_row_);
  sub_count_ = count;
  if (count <= 1) {
    rows_per_sub_ = 0;
    sub_busy_until_.clear();
    sub_last_row_.clear();
    return;
  }
  rows_per_sub_ = std::max<std::uint32_t>(1, (rows_per_bank + count - 1) / count);
  sub_busy_until_.assign(count, 0);
  sub_last_row_.assign(count, std::nullopt);
}

RowId Bank::subarray_row(std::uint32_t sub) const {
  return sub_count_ <= 1 ? 0 : static_cast<RowId>(sub) * rows_per_sub_;
}

Cycle Bank::subarray_busy_until(std::uint32_t sub) const {
  return sub_count_ <= 1 ? 0 : sub_busy_until_[sub];
}

std::optional<std::uint32_t> Bank::refreshing_subarray(Cycle now) const {
  for (std::uint32_t s = 0; s < sub_count_ && sub_count_ > 1; ++s) {
    if (sub_busy_until_[s] > now) return s;
  }
  return std::nullopt;
}

std::optional<RowId> Bank::subarray_last_row(std::uint32_t sub) const {
  return sub_count_ <= 1 ? std::nullopt : sub_last_row_[sub];
}

Cycle Bank::any_subarray_busy_until() const {
  Cycle latest = 0;
  for (const Cycle c : sub_busy_until_) latest = std::max(latest, c);
  return latest;
}

std::string Bank::loaded_state_error() const {
  if (state_ > BankState::kRefreshing) {
    return "state " + std::to_string(static_cast<unsigned>(state_)) +
           " outside the bank state enum";
  }
  if (state_ == BankState::kActive && !open_row_) {
    return "active without an open row";
  }
  const std::size_t subs = sub_count_ > 1 ? sub_count_ : 0;
  if (sub_busy_until_.size() != subs || sub_last_row_.size() != subs) {
    return "subarray records sized " + std::to_string(sub_busy_until_.size()) +
           "/" + std::to_string(sub_last_row_.size()) + " for " +
           std::to_string(subs) + " subarrays";
  }
  return {};
}

bool Bank::can_issue(CmdType type, RowId row, Cycle now) const {
  switch (type) {
    case CmdType::kActivate:
      if (state_ != BankState::kPrecharged || now < next_activate_)
        return false;
      // The target subarray must be out of its refresh-busy interval; the
      // other subarrays' locks do not block an ACT (SARP parallelism).
      return sub_count_ <= 1 || now >= sub_busy_until_[subarray_of(row)];
    case CmdType::kPrecharge:
      // PRE on an already-precharged bank is a harmless no-op electrically,
      // but we treat it as illegal to catch controller bugs.
      return state_ == BankState::kActive && now >= next_precharge_;
    case CmdType::kRead:
      return state_ == BankState::kActive && open_row_ &&
             *open_row_ == row && now >= next_read_;
    case CmdType::kWrite:
      return state_ == BankState::kActive && open_row_ &&
             *open_row_ == row && now >= next_write_;
    case CmdType::kRefresh:
      // REF legality is a rank-scope decision; at bank scope it requires
      // the bank to be precharged and past its precharge-to-activate time
      // (and, with subarrays, no subarray refresh still in flight).
      return state_ == BankState::kPrecharged && now >= next_activate_ &&
             now >= any_subarray_busy_until();
    case CmdType::kRefreshBank:
      if (sub_count_ <= 1) {
        return state_ == BankState::kPrecharged && now >= next_activate_;
      }
      // Subarray-targeted refresh: at most one per bank in flight. Legal
      // from kPrecharged (SARP), or — the HiRA overlap — while a row is
      // open in a *different* subarray; next_activate_ spaces the hidden
      // activation tRC from the last explicit ACT.
      if (now < any_subarray_busy_until() || now < next_activate_)
        return false;
      if (state_ == BankState::kPrecharged) return true;
      return state_ == BankState::kActive && open_row_ &&
             subarray_of(*open_row_) != subarray_of(row);
  }
  return false;
}

void Bank::issue(CmdType type, RowId row, Cycle now, const DramTimings& t) {
  ROP_ASSERT(can_issue(type, row, now));
  switch (type) {
    case CmdType::kActivate:
      state_ = BankState::kActive;
      open_row_ = row;
      next_activate_ = now + t.tRC;
      next_read_ = std::max(next_read_, now + t.tRCD);
      next_write_ = std::max(next_write_, now + t.tRCD);
      next_precharge_ = std::max(next_precharge_, now + t.tRAS);
      if (sub_count_ > 1) sub_last_row_[subarray_of(row)] = row;
      break;
    case CmdType::kPrecharge:
      state_ = BankState::kPrecharged;
      open_row_.reset();
      next_activate_ = std::max(next_activate_, now + t.tRP);
      break;
    case CmdType::kRead:
      next_precharge_ = std::max(next_precharge_, now + t.tRTP);
      break;
    case CmdType::kWrite:
      // The written row may be precharged only after write recovery
      // following the end of the data burst.
      next_precharge_ =
          std::max(next_precharge_, t.write_data_done(now) + t.tWR);
      break;
    case CmdType::kRefresh:
      begin_refresh(now, t.tRFC);
      break;
    case CmdType::kRefreshBank:
      if (sub_count_ <= 1) {
        begin_refresh(now, t.tRFCpb);
      } else {
        // Lock only the targeted subarray; the bank state is untouched so
        // other subarrays keep serving (SARP) and an open row elsewhere
        // keeps its buffer (HiRA overlap). The refreshed subarray loses
        // its local row-buffer record.
        const std::uint32_t sub = subarray_of(row);
        sub_busy_until_[sub] = now + t.tRFCpb;
        sub_last_row_[sub].reset();
      }
      break;
  }
}

void Bank::begin_refresh(Cycle now, Cycle duration) {
  ROP_ASSERT(state_ == BankState::kPrecharged && now >= next_activate_);
  state_ = BankState::kRefreshing;
  next_activate_ = std::max(next_activate_, now + duration);
}

void Bank::complete_refresh(Cycle refresh_done) {
  ROP_ASSERT(state_ == BankState::kRefreshing);
  state_ = BankState::kPrecharged;
  next_activate_ = std::max(next_activate_, refresh_done);
}

}  // namespace rop::dram
