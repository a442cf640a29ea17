// The functional backbone's record walk, shared by Core::functional_advance
// and the pipelined backbone's walker thread (sim/backbone_walker.h).
//
// A functional step over N instructions splits into two halves. The walk
// pulls trace records and spends their compute gaps; it reads nothing but
// the trace. The apply half takes each record's memory operation through
// the LLC and the criticality draw. walk_records is the one definition of
// the walk, templated on what receives the memory ops: the core applies
// them on the spot, the walker packs them into a ring for the planner.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "workload/trace.h"

namespace rop::cpu {

/// Where a core stands in its trace: the record in hand and the compute
/// slots it still owes. Trace-only state — a walk needs nothing else.
struct TraceFront {
  workload::TraceRecord current{};
  bool have_record = false;
  std::uint32_t remaining_gap = 0;
};

/// One walked memory operation: the line-aligned address with the write
/// flag in bit 0.
using WalkedOp = std::uint64_t;

[[nodiscard]] inline WalkedOp pack_op(const workload::TraceRecord& rec) {
  ROP_ASSERT((rec.addr & 1) == 0);
  return rec.addr | (rec.is_write ? 1u : 0u);
}
[[nodiscard]] inline Address op_addr(WalkedOp op) { return op & ~WalkedOp{1}; }
[[nodiscard]] inline bool op_is_write(WalkedOp op) { return (op & 1) != 0; }

/// Retire `instructions` from `trace` starting at `front`: compute gaps are
/// spent at no cost beyond the slots, and every record whose gap is used
/// up hands its memory op to `on_op(const TraceRecord&)`. Retires exactly
/// `instructions` (an op counts as one) and returns the compute slots
/// among them, so the op count is `instructions` minus the result.
template <class Trace, class OnOp>
std::uint64_t walk_records(Trace& trace, TraceFront& front,
                           std::uint64_t instructions, OnOp&& on_op) {
  std::uint64_t retired = 0;
  std::uint64_t slots = 0;
  while (retired < instructions) {
    if (!front.have_record) {
      front.current = trace.next();
      front.have_record = true;
      front.remaining_gap = front.current.gap;
    }
    if (front.remaining_gap > 0) {
      const std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(front.remaining_gap, instructions - retired));
      front.remaining_gap -= take;
      retired += take;
      slots += take;
      continue;
    }
    on_op(front.current);
    retired += 1;
    front.have_record = false;
  }
  return slots;
}

}  // namespace rop::cpu
