#include "mem/scheduler.h"

namespace rop::mem {

void Scheduler::size_from_channel() {
  // Ranks and banks live in vectors sized once by the channel's
  // constructor, so their addresses are fixed for the channel's lifetime.
  banks_per_rank_ =
      channel_.num_ranks() > 0 ? channel_.rank(0).num_banks() : 0;
  banks_.resize(std::size_t{channel_.num_ranks()} * banks_per_rank_);
  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    for (BankId b = 0; b < banks_per_rank_; ++b) {
      banks_[std::size_t{r} * banks_per_rank_ + b].bank =
          &channel_.rank(r).bank(b);
    }
  }
  // One candidate per bank covers the queue depths the controller
  // usually holds; deeper queues grow the table on a later scan.
  table_.reserve(banks_.size());
  conflicts_.reserve(banks_per_rank_);
}

void Scheduler::scan(std::span<const QueueView> queues,
                     const BlockedRanks& blocked) {
  // Sized on the first scan rather than at construction: simulator
  // assembly (and every sampling replica) stays as cheap as before.
  if (banks_.empty()) size_from_channel();
  table_.clear();
  conflicts_.clear();
  min_earliest_ = kNeverCycle;
  if (++stamp_ == 0) {
    for (BankSlot& s : banks_) s.stamp = 0;
    stamp_ = 1;
  }

  // Table entries get their earliest cycle as they are added; PRE
  // candidates wait in conflicts_ for the taker bits, which only the
  // complete scan knows.
  const auto add = [](std::vector<Candidate>& into, dram::Command cmd,
                      std::uint64_t order, std::uint32_t position,
                      int queue_id) -> Candidate& {
    Candidate& c = into.emplace_back();
    c.cmd = cmd;
    c.order = order;
    c.position = position;
    c.queue_id = queue_id;
    return c;
  };
  const auto time = [this](Candidate& c) {
    c.earliest = channel_.earliest_issue(c.cmd);
    min_earliest_ = std::min(min_earliest_, c.earliest);
  };

  for (std::size_t v = 0; v < queues.size(); ++v) {
    const QueueView& qv = queues[v];
    const RequestArena& arena = *qv.arena;
    const std::vector<RequestIndex>& indices = *qv.indices;
    const std::uint32_t masked =
        blocked.by_queue[static_cast<std::size_t>(qv.id)];
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const Request& req = arena[indices[i]];
      const DramCoord& at = req.coord;
      BankSlot& slot =
          banks_[std::size_t{at.rank} * banks_per_rank_ + at.bank];
      if (slot.stamp != stamp_) {
        slot.stamp = stamp_;
        slot.read = slot.write = slot.act = slot.conflict = slot.taker = false;
      }
      const dram::Bank& bank = *slot.bank;
      const bool open = bank.state() == dram::BankState::kActive;
      const bool hit = open && *bank.open_row() == at.row;
      // A row hit keeps its row open even while it is itself blocked.
      slot.taker = slot.taker || hit;
      if (((masked >> at.rank) & 1u) != 0) continue;

      const std::uint64_t order = (std::uint64_t{v} << 32) | i;
      const auto position = static_cast<std::uint32_t>(i);
      if (hit) {
        const bool write = req.type == ReqType::kWrite;
        bool& seen = write ? slot.write : slot.read;
        if (!seen) {
          seen = true;
          const dram::CmdType type =
              write ? dram::CmdType::kWrite : dram::CmdType::kRead;
          time(add(table_, dram::Command{type, at, req.id}, order, position,
                   qv.id));
        }
      } else if (open) {
        if (!slot.conflict) {
          slot.conflict = true;
          add(conflicts_, dram::Command{dram::CmdType::kPrecharge, at, 0},
              order, position, qv.id);
        }
      } else if (!slot.act || bank.subarrays() > 1) {
        // Precharged, or refreshing: the refresh release lands at the
        // ACT's earliest cycle (Bank::earliest_issue).
        slot.act = true;
        time(add(table_, dram::Command{dram::CmdType::kActivate, at, req.id},
                 order, position, qv.id));
      }
    }
  }

  for (const Candidate& c : conflicts_) {
    const DramCoord& at = c.cmd.coord;
    if (banks_[std::size_t{at.rank} * banks_per_rank_ + at.bank].taker) {
      continue;
    }
    time(table_.emplace_back(c));
  }
}

}  // namespace rop::mem
