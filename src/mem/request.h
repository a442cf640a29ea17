// Memory transactions as seen by the controller, plus the pooled arena
// that backs every controller queue.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "telemetry/attribution.h"

namespace rop::mem {

enum class ReqType : std::uint8_t {
  kRead,      // demand read (LLC miss fill)
  kWrite,     // writeback from the LLC
  kPrefetch,  // ROP prefetch read into the SRAM buffer
};

/// How a completed request was serviced — the experiment layer uses this to
/// split latency statistics.
enum class ServicedBy : std::uint8_t {
  kDram,
  kSramBuffer,    // hit in the ROP SRAM buffer during a refresh
  kWriteForward,  // read forwarded from a pending write in the write queue
};

struct Request {
  RequestId id = 0;
  ReqType type = ReqType::kRead;
  Address line_addr = 0;  // line-granular byte address (low 6 bits zero)
  DramCoord coord{};
  CoreId core = 0;
  Cycle arrival = 0;                 // controller clock
  Cycle completion = kNeverCycle;    // set when serviced
  ServicedBy serviced_by = ServicedBy::kDram;

  // Lifecycle stamps for latency attribution (telemetry/attribution.h):
  // arrival -> eligible -> act -> issued -> completion. `eligible` is the
  // first cycle the request could have been scheduled (arrival, or the
  // refresh-lock release when it arrived mid-lock); `act` is set only when
  // a row activation was issued *for this request* (row hits inherit the
  // open row and never pay activation wait); `issued` is the column
  // command issue cycle for DRAM-serviced reads.
  Cycle eligible = 0;
  Cycle act = kNeverCycle;
  Cycle issued = kNeverCycle;

  // Refresh-blocked controller cycles per cause, indexed by
  // telemetry::RefreshCause. Controller::block charges a span here and to
  // mem.refresh_blocked_cycles in one call, and the read folds its
  // accumulators into attr.blocked_<cause>_cycles when it completes, so the
  // two ledgers agree by construction (SimChecker audits it).
  std::array<std::uint32_t, telemetry::kRefreshCauseCount> blocked{};

  [[nodiscard]] bool is_read() const { return type != ReqType::kWrite; }

  /// Snapshot serialization (see common/snapshot_io.h).
  template <class Ar>
  void io(Ar& ar) {
    ar(id, type, line_addr, coord, core, arrival, completion, serviced_by,
       eligible, act, issued, blocked);
  }
};

/// Stable handle into a RequestArena slot.
using RequestIndex = std::uint32_t;
inline constexpr RequestIndex kNoRequest = 0xffffffffu;

/// Pooled storage for in-controller requests. Queues hold RequestIndex
/// values instead of Request copies, so moving a request between queues
/// (read queue -> in flight -> completed) is an index move, not a 64-byte
/// copy, and queue erases shuffle 4-byte indices. Slots are recycled
/// through a free list; indices stay stable for the lifetime of the
/// request inside the controller.
class RequestArena {
 public:
  [[nodiscard]] RequestIndex alloc(const Request& req) {
    if (!free_.empty()) {
      const RequestIndex idx = free_.back();
      free_.pop_back();
      slots_[idx] = req;
      return idx;
    }
    const auto idx = static_cast<RequestIndex>(slots_.size());
    ROP_ASSERT(idx != kNoRequest);
    slots_.push_back(req);
    return idx;
  }

  void release(RequestIndex idx) { free_.push_back(idx); }

  [[nodiscard]] Request& operator[](RequestIndex idx) { return slots_[idx]; }
  [[nodiscard]] const Request& operator[](RequestIndex idx) const {
    return slots_[idx];
  }

  /// Number of live (allocated, not yet released) slots.
  [[nodiscard]] std::size_t live() const {
    return slots_.size() - free_.size();
  }
  /// Number of slots, live or free: every valid index is below it.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// The released slots, next to be recycled last.
  [[nodiscard]] const std::vector<RequestIndex>& free_list() const {
    return free_;
  }

  /// Snapshot serialization: slots and the free list verbatim, so every
  /// RequestIndex held by the controller's queues stays valid and future
  /// allocations recycle the same slots in the same order.
  template <class Ar>
  void io(Ar& ar) {
    ar(slots_, free_);
  }

 private:
  std::vector<Request> slots_;
  std::vector<RequestIndex> free_;
};

/// Read-only view of one index queue dereferenced through its arena.
/// Iterates like the container of Request values it replaces, so
/// inspection code (the invariant checker, tests) keeps its range-for
/// loops.
class RequestView {
 public:
  RequestView(const RequestArena* arena,
              const std::vector<RequestIndex>* indices)
      : arena_(arena), indices_(indices) {}

  class iterator {
   public:
    using value_type = Request;
    using reference = const Request&;
    using difference_type = std::ptrdiff_t;

    iterator(const RequestArena* arena,
             const std::vector<RequestIndex>::const_iterator it)
        : arena_(arena), it_(it) {}
    reference operator*() const { return (*arena_)[*it_]; }
    const Request* operator->() const { return &(*arena_)[*it_]; }
    iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const iterator& o) const { return it_ == o.it_; }
    bool operator!=(const iterator& o) const { return it_ != o.it_; }

   private:
    const RequestArena* arena_;
    std::vector<RequestIndex>::const_iterator it_;
  };

  [[nodiscard]] iterator begin() const {
    return iterator(arena_, indices_->begin());
  }
  [[nodiscard]] iterator end() const {
    return iterator(arena_, indices_->end());
  }
  [[nodiscard]] std::size_t size() const { return indices_->size(); }
  [[nodiscard]] bool empty() const { return indices_->empty(); }
  [[nodiscard]] const Request& operator[](std::size_t i) const {
    return (*arena_)[(*indices_)[i]];
  }
  /// Arena slot of the i-th entry.
  [[nodiscard]] RequestIndex index(std::size_t i) const {
    return (*indices_)[i];
  }

 private:
  const RequestArena* arena_;
  const std::vector<RequestIndex>* indices_;
};

}  // namespace rop::mem
