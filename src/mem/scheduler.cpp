#include "mem/scheduler.h"

#include <bit>

namespace rop::mem {

namespace {

/// What a bank's choice of candidates reads of the bank: its open row, or
/// kNoRow while it is closed (precharged or refreshing).
RowId row_key(const dram::Bank& bank) {
  return bank.state() == dram::BankState::kActive ? *bank.open_row()
                                                  : ~RowId{0};
}

}  // namespace

void Scheduler::size_from_channel() {
  // Ranks and banks live in vectors sized once by the channel's
  // constructor, so their addresses are fixed for the channel's lifetime.
  banks_per_rank_ =
      channel_.num_ranks() > 0 ? channel_.rank(0).num_banks() : 0;
  banks_.resize(std::size_t{channel_.num_ranks()} * banks_per_rank_);
  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    for (BankId b = 0; b < banks_per_rank_; ++b) {
      BankSlot& slot = banks_[std::size_t{r} * banks_per_rank_ + b];
      slot.bank = &channel_.rank(r).bank(b);
      slot.rank = r;
    }
  }
  occupied_.assign((banks_.size() + 63) / 64, {});
  dirty_.assign(occupied_.size(), 0);
  // One candidate per bank covers the queue depths the controller
  // usually holds; deeper queues grow the table on a later rebuild.
  table_.reserve(banks_.size());
}

void Scheduler::push(int queue_id, RequestIndex idx) {
  // Sized on first use rather than at construction: simulator assembly
  // (and every sampling replica) stays as cheap as before.
  if (banks_.empty()) size_from_channel();
  if (idx >= nodes_.size()) nodes_.resize(arena_.capacity());
  const Request& req = arena_[idx];
  const DramCoord& at = req.coord;
  const auto b = static_cast<std::uint32_t>(at.rank * banks_per_rank_ +
                                            at.bank);
  const auto q = static_cast<std::size_t>(queue_id);
  List& list = banks_[b].lists[q];
  nodes_[idx] = Node{next_seq_[q]++,
                     at.row,
                     list.tail,
                     kNoRequest,
                     b,
                     static_cast<std::uint8_t>(queue_id),
                     req.type == ReqType::kWrite};
  (list.tail == kNoRequest ? list.head : nodes_[list.tail].next) = idx;
  list.tail = idx;
  // A request joining at the back is the first hit only if none was.
  if (list.hit == kNoRequest && list.hit_row == at.row) list.hit = idx;
  occupied_[b / 64][q] |= std::uint64_t{1} << (b % 64);
  dirty_[b / 64] |= std::uint64_t{1} << (b % 64);
  changed_ = true;
}

void Scheduler::erase(RequestIndex idx) {
  const Node& n = nodes_[idx];
  BankSlot& slot = banks_[n.bank];
  List& list = slot.lists[n.queue];
  (n.prev == kNoRequest ? list.head : nodes_[n.prev].next) = n.next;
  (n.next == kNoRequest ? list.tail : nodes_[n.next].prev) = n.prev;
  if (list.hit == idx) {
    list.hit = kNoRequest;
    list.hit_row = kNoRow;
  }
  if (list.head == kNoRequest) {
    occupied_[n.bank / 64][n.queue] &= ~(std::uint64_t{1} << (n.bank % 64));
  }
  dirty_[n.bank / 64] |= std::uint64_t{1} << (n.bank % 64);
  changed_ = true;
}

void Scheduler::reset(std::span<const QueueView> queues) {
  if (banks_.empty()) size_from_channel();
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    const auto& occ = occupied_[w];
    for (std::uint64_t bits = occ[0] | occ[1] | occ[2]; bits != 0;
         bits &= bits - 1) {
      banks_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
          .lists = {};
    }
    occupied_[w] = {};
  }
  next_seq_ = {};
  for (const QueueView& qv : queues) {
    for (const RequestIndex idx : *qv.indices) push(qv.id, idx);
  }
  reselect_all_ = true;
  changed_ = true;
}

void Scheduler::scan(std::span<const QueueView> queues,
                     const BlockedRanks& blocked) {
  reset(queues);
  rebuild(queues, blocked);
}

void Scheduler::rebuild(std::span<const QueueView> queues,
                        const BlockedRanks& blocked) {
  const std::uint32_t key = views_key(queues);
  const std::uint64_t commands = channel_.events().total();
  // A new view order or blocked set changes every bank's choice; a command
  // moves every earliest cycle and may open or close a bank.
  const bool every =
      reselect_all_ || key != views_key_ || !(blocked == blocked_);
  const bool retime = commands != commands_;
  changed_ = false;
  reselect_all_ = false;
  views_key_ = key;
  blocked_ = blocked;
  commands_ = commands;
  const auto viewed = [&](std::size_t w) {
    std::uint64_t bits = 0;
    for (const QueueView& qv : queues) {
      bits |= occupied_[w][static_cast<std::size_t>(qv.id)];
    }
    return bits;
  };

  // push() and erase() marked the banks whose lists changed. Mark every
  // bank too after a view or blocked change, and after a command each
  // viewed bank whose open row changed: a bank's choice reads nothing else.
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    if (every) {
      dirty_[w] = ~std::uint64_t{0};
    } else if (retime) {
      for (std::uint64_t bits = viewed(w) & ~dirty_[w]; bits != 0;
           bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const BankSlot& slot = banks_[w * 64 + static_cast<std::size_t>(b)];
        if (slot.row != row_key(*slot.bank)) dirty_[w] |= std::uint64_t{1} << b;
      }
    }
  }

  // Keep the other banks' candidates, re-timed after a command.
  min_earliest_ = kNeverCycle;
  std::size_t kept = 0;
  for (Candidate& c : table_) {
    if (((dirty_[c.bank / 64] >> (c.bank % 64)) & 1u) != 0) continue;
    if (retime) c.earliest = channel_.earliest_issue(c.cmd);
    min_earliest_ = std::min(min_earliest_, c.earliest);
    table_[kept++] = c;
  }
  table_.resize(kept);

  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    for (std::uint64_t bits = dirty_[w] & viewed(w); bits != 0;
         bits &= bits - 1) {
      const auto b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      select(banks_[b], static_cast<std::uint32_t>(b), queues, blocked);
    }
    dirty_[w] = 0;
  }
}

void Scheduler::select(BankSlot& slot, std::uint32_t index,
                       std::span<const QueueView> queues,
                       const BlockedRanks& blocked) {
  const auto masked = [&](int queue_id) {
    return ((blocked.by_queue[static_cast<std::size_t>(queue_id)] >>
             slot.rank) & 1u) != 0;
  };
  const dram::Bank& bank = *slot.bank;
  slot.row = row_key(bank);
  if (bank.state() != dram::BankState::kActive) {
    // Precharged, or refreshing: the refresh release lands at the ACT's
    // earliest cycle (Bank::earliest_issue).
    const bool every = bank.subarrays() > 1;
    for (std::size_t v = 0; v < queues.size(); ++v) {
      const int id = queues[v].id;
      if (masked(id)) continue;
      const List& list = slot.lists[static_cast<std::size_t>(id)];
      for (RequestIndex i = list.head; i != kNoRequest; i = nodes_[i].next) {
        add(dram::CmdType::kActivate, i, index, v, id);
        if (!every) return;
      }
    }
    return;
  }

  const RowId row = slot.row;
  bool taker = false;
  bool read = false;
  bool write = false;
  RequestIndex conflict = kNoRequest;  // front of the first unmasked list
  std::size_t conflict_view = 0;
  for (std::size_t v = 0; v < queues.size(); ++v) {
    const int id = queues[v].id;
    List& list = slot.lists[static_cast<std::size_t>(id)];
    if (list.head == kNoRequest) continue;
    if (list.hit_row != row) {
      list.hit_row = row;
      list.hit = list.head;
      while (list.hit != kNoRequest && nodes_[list.hit].row != row) {
        list.hit = nodes_[list.hit].next;
      }
    }
    // A row hit keeps its row open even while it is itself blocked.
    taker = taker || list.hit != kNoRequest;
    if (masked(id)) continue;
    if (conflict == kNoRequest) {
      conflict = list.head;
      conflict_view = v;
    }
    if (list.hit == kNoRequest) continue;
    const bool is_write = nodes_[list.hit].write;
    bool& seen = is_write ? write : read;
    if (!seen) {
      seen = true;
      add(is_write ? dram::CmdType::kWrite : dram::CmdType::kRead, list.hit,
          index, v, id);
    }
  }
  // With no taker every viewed request conflicts, so the oldest unmasked
  // one is its list's front.
  if (!taker && conflict != kNoRequest) {
    add(dram::CmdType::kPrecharge, conflict, index, conflict_view,
        queues[conflict_view].id);
  }
}

void Scheduler::add(dram::CmdType type, RequestIndex idx, std::uint32_t bank,
                    std::size_t view, int queue_id) {
  const Request& req = arena_[idx];
  Candidate& c = table_.emplace_back();
  // A PRE closes the row for the request; it is not tied to it.
  c.cmd = dram::Command{
      type, req.coord,
      type == dram::CmdType::kPrecharge ? RequestId{0} : req.id};
  c.order = (std::uint64_t{view} << 56) | nodes_[idx].seq;
  c.slot = idx;
  c.bank = bank;
  c.queue_id = queue_id;
  c.earliest = channel_.earliest_issue(c.cmd);
  min_earliest_ = std::min(min_earliest_, c.earliest);
}

}  // namespace rop::mem
