#include "mem/controller.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>

#include "telemetry/trace_sink.h"

namespace rop::mem {

using telemetry::RefreshCause;

Controller::Controller(ChannelId id, const dram::DramTimings& timings,
                       const dram::DramOrganization& org, ControllerConfig cfg,
                       StatRegistry* stats)
    : id_(id),
      cfg_(cfg),
      channel_(timings, org),
      rm_(timings, org.ranks,
          scheme_info(cfg.refresh).unit == RefreshUnit::kBank ? org.banks : 1,
          stats),
      scheduler_(channel_, arena_),
      blocking_(org.ranks, timings.tRFC),
      stats_(stats),
      ranks_(org.ranks) {
  for (RankState& rs : ranks_) rs.banks.resize(org.banks);
  ROP_ASSERT(stats != nullptr);
  // BlockedRanks and the pausing urgency scan hold one bit per rank.
  ROP_ASSERT(org.ranks <= 32);
  // Subarray-targeted schemes need the subarray-aware bank model.
  ROP_ASSERT(scheme_info(cfg.refresh).subarrays == 1 || org.subarrays > 1);
  h_.reads = stats->counter_handle("mem.reads");
  h_.writes = stats->counter_handle("mem.writes");
  h_.sram_serviced = stats->counter_handle("mem.sram_serviced");
  h_.read_forwarded = stats->counter_handle("mem.read_forwarded");
  h_.write_coalesced = stats->counter_handle("mem.write_coalesced");
  h_.writes_issued = stats->counter_handle("mem.writes_issued");
  h_.refreshes = stats->counter_handle("mem.refreshes");
  h_.bank_refreshes = stats->counter_handle("mem.bank_refreshes");
  h_.refresh_pauses = stats->counter_handle("mem.refresh_pauses");
  h_.refresh_blocked_cycles =
      stats->counter_handle("mem.refresh_blocked_cycles");
  h_.prefetch_enqueued = stats->counter_handle("rop.prefetch_enqueued");
  h_.prefetch_issued = stats->counter_handle("rop.prefetch_issued");
  h_.prefetch_dropped = stats->counter_handle("rop.prefetch_dropped");
  h_.prefetch_dropped_queue_full =
      stats->counter_handle("rop.prefetch_dropped_queue_full");
  h_.prefetch_dropped_stale =
      stats->counter_handle("rop.prefetch_dropped_stale");
  h_.prefetch_completed = stats->counter_handle("rop.prefetch_completed");
  h_.read_latency = stats->scalar_handle("mem.read_latency");
  // 8-cycle buckets out to 1024 cycles (beyond 2x tRFC), overflow above.
  h_.read_latency_hist =
      stats->histogram_handle("mem.read_latency_hist", 8, 128);
  for (std::size_t k = 0; k < telemetry::kRefreshCauseCount; ++k) {
    const std::string prefix =
        std::string("attr.blocked_") + telemetry::kRefreshCauseKeys[k];
    h_.attr_blocked[k] = stats->counter_handle(prefix + "_cycles");
    h_.attr_blocked_hist[k] = stats->histogram_handle(prefix + "_hist", 8, 128);
  }
  h_.attr_rop_recovered = stats->counter_handle("attr.rop_recovered_cycles");
  h_.attr_queue_wait_hist =
      stats->histogram_handle("attr.queue_wait_hist", 8, 128);
  h_.attr_act_wait_hist =
      stats->histogram_handle("attr.act_wait_hist", 8, 128);
}

void Controller::record_read_latency(const Request& req) {
  const Cycle latency = req.completion - req.arrival;
  h_.read_latency->record(static_cast<double>(latency));
  h_.read_latency_hist->record(latency);
  // Fold the per-request attribution accumulators into the ledger. The
  // zero-skips keep the common unblocked read at four integer compares.
  for (std::size_t k = 0; k < telemetry::kRefreshCauseCount; ++k) {
    if (req.blocked[k] == 0) continue;
    h_.attr_blocked[k]->inc(req.blocked[k]);
    h_.attr_blocked_hist[k]->record(req.blocked[k]);
  }
  if (req.issued != kNeverCycle) {
    h_.attr_queue_wait_hist->record(req.issued - req.arrival);
    if (req.act != kNeverCycle) {
      h_.attr_act_wait_hist->record(req.issued - req.act);
    }
  }
  if (trace_ != nullptr && trace_->wants(telemetry::kCatReqs)) {
    telemetry::TraceEvent e;
    e.ts = req.arrival;
    e.dur = latency;
    e.arg = static_cast<std::uint64_t>(req.serviced_by);
    e.kind = telemetry::EventKind::kReadSpan;
    e.category = telemetry::kCatReqs;
    e.channel = static_cast<std::uint16_t>(id_);
    e.rank = static_cast<std::uint16_t>(req.coord.rank);
    e.bank = static_cast<std::uint16_t>(req.coord.bank);
    e.core = req.core;
    trace_->record(e);
    // Nested lifecycle slices inside the read span: queue wait
    // (arrival -> issue), activation wait (ACT -> issue) and the data
    // transfer (issue -> data). Chrome/Perfetto nest them by containment
    // on the same lane.
    if (req.issued != kNeverCycle) {
      if (req.issued > req.arrival) {
        e.ts = req.arrival;
        e.dur = req.issued - req.arrival;
        e.kind = telemetry::EventKind::kReadQueueSpan;
        trace_->record(e);
      }
      if (req.act != kNeverCycle && req.issued > req.act) {
        e.ts = req.act;
        e.dur = req.issued - req.act;
        e.kind = telemetry::EventKind::kReadActSpan;
        trace_->record(e);
      }
      e.ts = req.issued;
      e.dur = req.completion - req.issued;
      e.kind = telemetry::EventKind::kReadXferSpan;
      trace_->record(e);
    }
  }
}

bool Controller::can_accept(ReqType type) const {
  switch (type) {
    case ReqType::kRead:
      return read_q_.size() < cfg_.sched.read_queue_capacity;
    case ReqType::kWrite:
      return write_q_.size() < cfg_.sched.write_queue_capacity;
    case ReqType::kPrefetch:
      return prefetch_q_.size() < cfg_.sched.read_queue_capacity;
  }
  return false;
}

bool Controller::enqueue(Request req, Cycle now) {
  ROP_ASSERT(req.type != ReqType::kPrefetch);
  // Admission control comes first: a rejected request must leave stats,
  // arrival tracking, and listener/profiler state completely untouched —
  // the caller retries the same request next cycle and it would otherwise
  // be double-counted.
  if (!can_accept(req.type)) return false;
  req.arrival = now;
  req.eligible = now;
  ranks_[req.coord.rank].last_arrival = now;

  if (req.type == ReqType::kRead) {
    h_.reads->inc();
    blocking_.on_read_arrival(req.coord.rank, now);
    // The ROP engine observes every demand arrival; it may service a read
    // from the SRAM buffer while the rank is frozen.
    if (listener_ != nullptr) {
      if (const auto done = listener_->on_enqueue(req, now)) {
        req.completion = *done;
        req.serviced_by = ServicedBy::kSramBuffer;
        h_.sram_serviced->inc();
        // The revived-cycle credit: without the buffer this read would
        // have waited out the rest of the refresh window.
        const dram::Rank& rk = channel_.rank(req.coord.rank);
        if (rk.refreshing() && rk.refresh_done() > req.completion) {
          h_.attr_rop_recovered->inc(rk.refresh_done() - req.completion);
        }
        record_read_latency(req);
        completed_.push_back(arena_.alloc(req));
        return true;
      }
    }
    // Read-after-write forwarding: coalescing keeps at most one queued
    // write per line, so set membership is exact.
    if (write_index_.count(req.line_addr) != 0) {
      req.completion = now + 1;
      req.serviced_by = ServicedBy::kWriteForward;
      h_.read_forwarded->inc();
      record_read_latency(req);
      completed_.push_back(arena_.alloc(req));
      return true;
    }
    const RankId r = req.coord.rank;
    const RequestIndex idx = arena_.alloc(req);
    read_q_.push_back(idx);
    scheduler_.push(0, idx);
    count_read(idx);
    // Refresh-blocking metric: a read arriving mid-lock is charged the
    // remaining lock span under its cause (issue-time charges cover the
    // reads already queued when the lock began), and `eligible` moves to
    // the lock release.
    Request& qr = arena_[idx];
    const auto blocked_until = [&](RefreshCause cause, Cycle release) {
      if (release <= now) return;
      block(qr, cause, release - now);
      qr.eligible = release;
    };
    const dram::Rank& rank = channel_.rank(r);
    const dram::Bank& bank = rank.bank(req.coord.bank);
    if (rank.refreshing()) {
      blocked_until(cfg_.refresh == RefreshScheme::kPausing
                        ? RefreshCause::kPause
                        : RefreshCause::kRank,
                    rank.refresh_done());
    } else if (bank.state() == dram::BankState::kRefreshing) {
      blocked_until(RefreshCause::kBank, bank.next_activate());
    } else if (const auto sub = bank.refreshing_subarray(now);
               sub && bank.subarray_of(req.coord.row) == *sub) {
      blocked_until(RefreshCause::kSubarray, bank.subarray_busy_until(*sub));
    }
  } else {
    h_.writes->inc();
    // Writes never complete through the listener, but it must still see the
    // arrival to invalidate any buffered copy of the line.
    if (listener_ != nullptr) {
      const auto done = listener_->on_enqueue(req, now);
      ROP_ASSERT(!done);
    }
    // Coalesce repeated writes to the same line: the queued entry (and its
    // scheduler age) stands for the newest data.
    if (write_index_.count(req.line_addr) != 0) {
      h_.write_coalesced->inc();
      return true;
    }
    const RequestIndex idx = arena_.alloc(req);
    write_q_.push_back(idx);
    scheduler_.push(1, idx);
    count_write(req);
  }
  return true;
}

bool Controller::enqueue_prefetch(Request req, Cycle now) {
  ROP_ASSERT(req.type == ReqType::kPrefetch);
  if (prefetch_q_.size() >= cfg_.sched.read_queue_capacity) {
    h_.prefetch_dropped_queue_full->inc();
    return false;
  }
  req.arrival = now;
  h_.prefetch_enqueued->inc();
  const RequestIndex idx = arena_.alloc(req);
  prefetch_q_.push_back(idx);
  scheduler_.push(2, idx);
  ++ranks_[req.coord.rank].queued_prefetches;
  return true;
}

void Controller::count_read(RequestIndex idx) {
  const Request& req = arena_[idx];
  RankState& rs = ranks_[req.coord.rank];
  rs.reads.push_back(idx);
  ++rs.banks[req.coord.bank].reads;
  // A read arriving at the lock cycle itself satisfies `arrival <= lock`
  // and the drain must wait for it too.
  if (rs.locked_at != kNeverCycle && req.arrival <= rs.locked_at) {
    ++rs.drain_pending;
  }
}

void Controller::count_write(const Request& req) {
  RankState& rs = ranks_[req.coord.rank];
  ++rs.writes;
  ++rs.banks[req.coord.bank].writes;
  write_index_.insert(req.line_addr);
}

void Controller::on_read_leaves_queue(RankState& rs, const Request& req) {
  --rs.banks[req.coord.bank].reads;
  // Pre-lock reads count toward the drain the refresh is waiting on.
  if (rs.locked_at != kNeverCycle && req.arrival <= rs.locked_at) {
    ROP_ASSERT(rs.drain_pending > 0);
    --rs.drain_pending;
  }
}

std::string Controller::loaded_state_error() const {
  const std::string where = "snapshot channel " + std::to_string(id_) + ": ";
  // Per arena slot: 0 unseen, 1 on the free list, 2 queued.
  std::vector<std::uint8_t> seen(arena_.capacity(), 0);
  const auto slot = [&](const char* list, RequestIndex idx) {
    return where + list + " index " + std::to_string(idx);
  };
  for (const RequestIndex idx : arena_.free_list()) {
    if (idx >= seen.size()) return slot("free-list", idx) + " past the arena";
    if (seen[idx] != 0) return slot("free-list", idx) + " listed twice";
    seen[idx] = 1;
  }
  const std::pair<const char*, const std::vector<RequestIndex>*> queues[] = {
      {"read-queue", &read_q_},  {"write-queue", &write_q_},
      {"prefetch-queue", &prefetch_q_}, {"in-flight", &in_flight_},
      {"completed", &completed_}};
  for (const auto& [list, queue] : queues) {
    for (const RequestIndex idx : *queue) {
      if (idx >= seen.size()) return slot(list, idx) + " past the arena";
      if (seen[idx] == 1) return slot(list, idx) + " on the free list";
      if (seen[idx] == 2) return slot(list, idx) + " queued twice";
      seen[idx] = 2;
      const DramCoord& at = arena_[idx].coord;
      if (at.rank >= ranks_.size()) {
        return slot(list, idx) + " names rank " + std::to_string(at.rank);
      }
      if (at.bank >= ranks_[at.rank].banks.size()) {
        return slot(list, idx) + " names bank " + std::to_string(at.bank);
      }
    }
  }
  for (RankId r = 0; r < ranks_.size(); ++r) {
    const RankState& rs = ranks_[r];
    if (rs.next_bank >= rs.banks.size()) {
      return where + "rank " + std::to_string(r) + " bank cursor " +
             std::to_string(rs.next_bank) + " out of range";
    }
    for (BankId b = 0; b < rs.banks.size(); ++b) {
      const std::uint32_t subs = channel_.rank(r).bank(b).subarrays();
      if (rs.banks[b].next_sub >= std::max<std::uint32_t>(1, subs)) {
        return where + "rank " + std::to_string(r) + " bank " +
               std::to_string(b) + " subarray cursor out of range";
      }
    }
  }
  return {};
}

void Controller::rebuild_derived() {
  write_index_.clear();
  for (const RequestIndex idx : read_q_) count_read(idx);
  for (const RequestIndex idx : write_q_) count_write(arena_[idx]);
  for (const RequestIndex idx : prefetch_q_) {
    ++ranks_[arena_[idx].coord.rank].queued_prefetches;
  }
  sealing_ = 0;
  for (RankId r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].phase == RefreshPhase::kSealing) sealing_ |= 1u << r;
  }
  const QueueView queues[] = {
      {&read_q_, 0}, {&write_q_, 1}, {&prefetch_q_, 2}};
  scheduler_.reset(queues);
  inflight_min_completion_ = kNeverCycle;
  for (const RequestIndex idx : in_flight_) {
    const Request& req = arena_[idx];
    if (req.type == ReqType::kPrefetch) {
      ++ranks_[req.coord.rank].inflight_prefetches;
    }
    inflight_min_completion_ = std::min(inflight_min_completion_,
                                        req.completion);
  }
}

void Controller::drop_prefetches(RankId rank) {
  std::size_t out = 0;
  for (const RequestIndex idx : prefetch_q_) {
    if (arena_[idx].coord.rank == rank) {
      h_.prefetch_dropped->inc();
      if (trace_ != nullptr && trace_->wants(telemetry::kCatRop)) {
        const Request& req = arena_[idx];
        telemetry::TraceEvent e;
        e.ts = req.arrival;
        e.arg = req.line_addr;
        e.kind = telemetry::EventKind::kPrefetchDrop;
        e.category = telemetry::kCatRop;
        e.channel = static_cast<std::uint16_t>(id_);
        e.rank = static_cast<std::uint16_t>(rank);
        e.bank = static_cast<std::uint16_t>(req.coord.bank);
        trace_->record(e);
      }
      --ranks_[rank].queued_prefetches;
      scheduler_.erase(idx);
      arena_.release(idx);
    } else {
      prefetch_q_[out++] = idx;
    }
  }
  prefetch_q_.resize(out);
}

void Controller::complete_bursts(Cycle now) {
  // The cached minimum makes the common "nothing lands this cycle" case a
  // single compare (kNeverCycle when nothing is in flight).
  if (inflight_min_completion_ > now) return;
  std::size_t out = 0;
  Cycle min_completion = kNeverCycle;
  for (const RequestIndex idx : in_flight_) {
    if (arena_[idx].completion > now) {
      min_completion = std::min(min_completion, arena_[idx].completion);
      in_flight_[out++] = idx;
      continue;
    }
    if (arena_[idx].type == ReqType::kPrefetch) {
      // Copy out: the fill listener may service queued reads reentrantly.
      const Request req = arena_[idx];
      arena_.release(idx);
      --ranks_[req.coord.rank].inflight_prefetches;
      // Drop fills whose line has a newer pending write — the buffer must
      // never hold data staler than the write queue.
      if (write_index_.count(req.line_addr) != 0) {
        h_.prefetch_dropped_stale->inc();
        if (trace_ != nullptr && trace_->wants(telemetry::kCatRop)) {
          telemetry::TraceEvent e;
          e.ts = now;
          e.arg = req.line_addr;
          e.kind = telemetry::EventKind::kStaleDrop;
          e.category = telemetry::kCatRop;
          e.channel = static_cast<std::uint16_t>(id_);
          e.rank = static_cast<std::uint16_t>(req.coord.rank);
          e.bank = static_cast<std::uint16_t>(req.coord.bank);
          trace_->record(e);
        }
      } else {
        h_.prefetch_completed->inc();
        if (listener_ != nullptr) listener_->on_prefetch_filled(req, now);
      }
    } else {
      record_read_latency(arena_[idx]);
      completed_.push_back(idx);
    }
  }
  in_flight_.resize(out);
  inflight_min_completion_ = min_completion;
}

// -- Refresh ----------------------------------------------------------------
// Each scheme decides in one function (its *_step below) what a rank does
// next and from which cycle; manage_refresh runs the steps that are due and
// next_event_cycle wakes at the cycles they name, so the executed decision
// and the event horizon cannot disagree.

bool Controller::manage_refresh(Cycle now) {
  bool issued = false;
  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    if (channel_.rank(r).refreshing()) continue;
    // Phase changes run at once and re-decide. A command ends the rank's
    // turn; once the bus is taken, later ranks only change phase.
    for (;;) {
      const RefreshStep s = next_refresh_step(r, now);
      if (s.at > now) break;
      if (s.action >= Action::kPrecharge) {
        if (!issued) run_refresh_step(r, s, now);
        issued = true;
        break;
      }
      run_refresh_step(r, s, now);
    }
  }
  return issued;
}

Controller::RefreshStep Controller::next_refresh_step(RankId r,
                                                      Cycle now) const {
  if (cfg_.refresh == RefreshScheme::kNoRefresh) return RefreshStep{};
  // Nothing owed means no lock or pausing obligation is open either (a
  // refresh is credited only once done): every scheme idles until owed()
  // next grows, at a tREFI boundary.
  if (rm_.owed(r, now) == 0) {
    return RefreshStep::wait_until(rm_.next_owed_increase(r, now));
  }
  switch (cfg_.refresh) {
    case RefreshScheme::kBaseline: return baseline_step(r, now);
    case RefreshScheme::kNoRefresh: break;
    case RefreshScheme::kRop: return rop_step(r, now);
    case RefreshScheme::kElastic: return elastic_step(r, now);
    case RefreshScheme::kPausing: return pausing_step(r, now);
    case RefreshScheme::kPerBank: return per_bank_step(r, now);
    case RefreshScheme::kDarp: return darp_step(r, now);
    case RefreshScheme::kSarp:
    case RefreshScheme::kHira: return subarray_step(r, now);
  }
  return RefreshStep{};
}

Controller::RefreshStep Controller::baseline_step(RankId r, Cycle now) const {
  // Lock the moment a refresh is owed; the rank seals at once.
  if (ranks_[r].phase != RefreshPhase::kIdle) return seal_step(r, now);
  return RefreshStep::of(Action::kLock, now);
}

/// Elastic refresh's rank-idle threshold at zero backlog; the threshold
/// decays linearly to zero as owed refreshes approach the JEDEC budget.
constexpr Cycle kElasticBaseIdle = 96;

Controller::RefreshStep Controller::elastic_step(RankId r, Cycle now) const {
  if (ranks_[r].phase != RefreshPhase::kIdle) return seal_step(r, now);
  // Lock once the rank has been idle for a threshold that shrinks linearly
  // with the backlog, reaching zero (forced) at the JEDEC budget. An
  // arrival resets the idle clock and re-decides; the threshold next
  // shrinks at the boundary.
  const std::uint32_t owed = rm_.owed(r, now);
  const std::uint32_t budget = channel_.timings().max_postponed_refreshes;
  const std::uint32_t slack = owed >= budget ? 0 : budget - owed;
  const Cycle threshold = kElasticBaseIdle * slack / budget;
  if (now - ranks_[r].last_arrival >= threshold) {
    return RefreshStep::of(Action::kLock, now);
  }
  return RefreshStep::of(Action::kLock,
                         std::min(ranks_[r].last_arrival + threshold,
                                  rm_.next_owed_increase(r, now)));
}

Controller::RefreshStep Controller::rop_step(RankId r, Cycle now) const {
  // Lock at due time and drain the reads queued before the lock while
  // demand keeps flowing; then seal (the engine stages its prefetch round
  // against the final pre-refresh stream position) and hold REF until the
  // prefetches land. The drain bound and the JEDEC budget cut both waits.
  const RankState& rs = ranks_[r];
  if (rs.phase == RefreshPhase::kIdle) {
    return RefreshStep::of(Action::kLock, now);
  }
  const bool draining = rs.phase == RefreshPhase::kDraining;
  const Cycle bound_end = rs.locked_at + cfg_.drain_bound;
  const std::size_t waiting =
      draining ? rs.drain_pending : pending_prefetches(r);
  if (waiting > 0 && now < bound_end && !rm_.urgent(r, now)) {
    // Progress comes from commands (the scheduler scan and in-flight
    // completions wake the loop); failing that, the bound or a budget flip.
    return RefreshStep::wait_until(
        std::min(bound_end, rm_.next_owed_increase(r, now)));
  }
  if (draining) return RefreshStep::of(Action::kSeal, now);
  return seal_step(r, now);
}

Controller::RefreshStep Controller::seal_step(RankId r, Cycle now) const {
  if (ranks_[r].queued_prefetches > 0 && rm_.urgent(r, now)) {
    return RefreshStep::of(Action::kDropPrefetches, now);
  }
  return rank_refresh_step(r, now, Action::kRefresh);
}

Controller::RefreshStep Controller::pausing_step(RankId r, Cycle now) const {
  // An owed refresh becomes tRFC of segment work. While demand is pending
  // and the budget allows, the rank stays available between segments; each
  // resume after a pause pays the re-lock overhead. Urgent work finishes
  // in one segment.
  if (ranks_[r].remaining == 0) return RefreshStep::of(Action::kOpen, now);
  if (pending_demand(r) > 0 && !rm_.urgent(r, now)) {
    if (ranks_[r].started) return RefreshStep::of(Action::kPause, now);
    // Paused: urgency, which forces the finish, can only flip at the next
    // boundary crossing.
    return RefreshStep::wait_until(rm_.next_owed_increase(r, now));
  }
  return rank_refresh_step(r, now, Action::kSegment);
}

bool Controller::pausing_holds(RankId r, Cycle now) const {
  // Urgent pausing refreshes must be allowed to close: new demand to the
  // rank keeps re-activating rows, which can hold off the forced-full REF
  // past the next boundary and blow the JEDEC postponement budget.
  return cfg_.refresh == RefreshScheme::kPausing && rm_.urgent(r, now);
}

Controller::RefreshStep Controller::rank_refresh_step(RankId r, Cycle now,
                                                      Action action) const {
  // While rows are open the step is a PRE: the first bank whose PRE is
  // legal now, else the one legal soonest. REF needs every bank closed.
  const dram::Rank& rank = channel_.rank(r);
  RefreshStep pre = RefreshStep::wait_until(kNeverCycle);
  for (std::uint32_t open = rank.active_banks(); open != 0;
       open &= open - 1) {
    const auto b = static_cast<BankId>(std::countr_zero(open));
    const RefreshStep s = bank_step(Action::kPrecharge, r, b);
    if (s.at <= now) return s;
    if (s.at < pre.at) pre = s;
  }
  if (pre.action == Action::kPrecharge) return pre;
  return RefreshStep::of(action, rank.earliest_refresh_ready());
}

Controller::RefreshStep Controller::per_bank_step(RankId r, Cycle) const {
  // Round-robin REFpb, one bank at a time.
  const BankId b = ranks_[r].next_bank;
  const dram::Bank& bank = channel_.rank(r).bank(b);
  if (bank.state() == dram::BankState::kRefreshing) {
    // Cursor bank still locked: the machinery idles until it releases.
    return RefreshStep::wait_until(bank.next_activate());
  }
  return whole_bank_step(r, b);
}

Controller::RefreshStep Controller::darp_step(RankId r, Cycle now) const {
  // The boundary crossing can flip urgency and change the pick, so it
  // bounds every wait. A postponed refresh (every candidate bank has
  // demand) also re-decides as queues drain (the scheduler scan) or a
  // per-bank lock releases (earliest_pb_release).
  const Cycle boundary = rm_.next_owed_increase(r, now);
  const BankId b = darp_pick_bank(r, rm_.urgent(r, now));
  if (b >= channel_.rank(r).num_banks()) {
    return RefreshStep::wait_until(boundary);
  }
  // An idle-but-open bank (or the forced fallback) is closed first.
  RefreshStep s = whole_bank_step(r, b);
  s.at = std::min(s.at, boundary);
  return s;
}

Controller::RefreshStep Controller::subarray_step(RankId r, Cycle now) const {
  // Round-robin over banks, and over subarrays within each bank. SARP waits
  // for a precharged bank; HiRA also overlaps the refresh with an open row
  // in a *different* subarray. An urgent refresh forces the row closed.
  const Cycle boundary = rm_.next_owed_increase(r, now);
  const BankId b = ranks_[r].next_bank;
  const dram::Bank& bank = channel_.rank(r).bank(b);
  const std::uint32_t sub = ranks_[r].banks[b].next_sub;
  const bool conflict =
      bank.state() == dram::BankState::kActive &&
      (cfg_.refresh != RefreshScheme::kHira ||
       (bank.open_row() && bank.subarray_of(*bank.open_row()) == sub));
  // A conflict postpones the refresh until the row closes (a command) or
  // urgency flips at the boundary.
  if (conflict && !rm_.urgent(r, now)) return RefreshStep::wait_until(boundary);
  RefreshStep s = conflict ? bank_step(Action::kPrecharge, r, b)
                           : bank_step(Action::kRefreshBank, r, b, sub);
  s.at = std::min(s.at, boundary);
  return s;
}

Controller::RefreshStep Controller::whole_bank_step(RankId r, BankId b) const {
  return bank_step(channel_.rank(r).bank(b).state() == dram::BankState::kActive
                       ? Action::kPrecharge
                       : Action::kRefreshBank,
                   r, b);
}

Controller::RefreshStep Controller::bank_step(Action action, RankId r,
                                              BankId b,
                                              std::uint32_t sub) const {
  RefreshStep s{action, b, sub, kNeverCycle};
  s.at = channel_.earliest_issue(bank_command(s, r));
  return s;
}

dram::Command Controller::bank_command(const RefreshStep& s, RankId r) const {
  if (s.action == Action::kPrecharge) {
    return dram::Command{dram::CmdType::kPrecharge,
                         DramCoord{id_, r, s.bank, 0, 0}, 0};
  }
  const RowId row = channel_.rank(r).bank(s.bank).subarray_row(s.sub);
  return dram::Command{dram::CmdType::kRefreshBank,
                       DramCoord{id_, r, s.bank, row, 0}, 0};
}

void Controller::run_refresh_step(RankId r, const RefreshStep& s, Cycle now) {
  RankState& rs = ranks_[r];
  switch (s.action) {
    case Action::kWait:
      ROP_ASSERT(false && "a wait step is never due");
      break;
    case Action::kLock:
      rs.locked_at = now;
      if (cfg_.refresh == RefreshScheme::kRop) {
        rs.phase = RefreshPhase::kDraining;
      } else {
        rs.phase = RefreshPhase::kSealing;
        sealing_ |= 1u << r;
      }
      // Snapshot the drain target: every queued read to this rank arrived
      // strictly before `now`, so all of them predate the lock (same-cycle
      // arrivals land after this tick and bump the counter in enqueue).
      rs.drain_pending = static_cast<std::uint32_t>(rs.reads.size());
      break;
    case Action::kSeal:
      // Demand freezes here: the moment the ROP engine stages its prefetch
      // round.
      rs.phase = RefreshPhase::kSealing;
      sealing_ |= 1u << r;
      if (listener_ != nullptr) listener_->on_rank_locked(r, now);
      break;
    case Action::kDropPrefetches:
      drop_prefetches(r);
      break;
    case Action::kOpen:
      rs.remaining = channel_.timings().tRFC;
      rs.started = false;
      rs.window_opened = false;
      break;
    case Action::kPause:
      h_.refresh_pauses->inc();
      rs.remaining += cfg_.pause_overhead;
      rs.started = false;  // count one pause per gap
      break;
    case Action::kPrecharge:
      channel_.issue(bank_command(s, r), now);
      break;
    case Action::kRefresh:
      issue_rank_refresh(r, now);
      break;
    case Action::kSegment:
      issue_refresh_segment(r, now);
      break;
    case Action::kRefreshBank:
      issue_bank_refresh(r, s, now);
      break;
  }
}

void Controller::issue_rank_refresh(RankId r, Cycle now) {
  RankState& rs = ranks_[r];
  // Any prefetch that failed to issue before the seal is pointless now.
  drop_prefetches(r);
  // Snapshot before the bookkeeping resets: postponement depth at issue
  // and the due-time lock this REF closes.
  if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
    telemetry::TraceEvent e;
    e.category = telemetry::kCatRefresh;
    e.channel = static_cast<std::uint16_t>(id_);
    e.rank = static_cast<std::uint16_t>(r);
    if (rs.locked_at != kNeverCycle && now > rs.locked_at) {
      e.ts = rs.locked_at;
      e.dur = now - rs.locked_at;
      e.kind = telemetry::EventKind::kRankLock;
      trace_->record(e);
    }
    e.ts = now;
    e.dur = channel_.timings().tRFC;
    e.kind = telemetry::EventKind::kRefreshWindow;
    e.arg = rm_.owed(r, now);
    trace_->record(e);
  }
  channel_.issue(dram::Command{dram::CmdType::kRefresh,
                               DramCoord{id_, r, 0, 0, 0}, 0},
                 now);
  rm_.on_refresh_issued(r);
  blocking_.on_refresh_start(r, now);
  // Every read still queued to the rank is frozen for the full tRFC.
  for (const RequestIndex qidx : rs.reads) {
    block(arena_[qidx], RefreshCause::kRank, channel_.timings().tRFC);
  }
  h_.refreshes->inc();
  rs.phase = RefreshPhase::kIdle;
  sealing_ &= ~(1u << r);
  rs.locked_at = kNeverCycle;
  rs.drain_pending = 0;
  if (listener_ != nullptr) {
    listener_->on_refresh_issued(r, now, channel_.rank(r).refresh_done());
  }
}

void Controller::issue_refresh_segment(RankId r, Cycle now) {
  RankState& rs = ranks_[r];
  const Cycle duration =
      rm_.urgent(r, now) ? rs.remaining
                         : std::min<Cycle>(cfg_.pause_quantum, rs.remaining);
  // Open the blocking window exactly once per refresh obligation. The
  // first-segment test must not be inferred from `remaining`:
  // pause overhead grows it, so with pause_overhead >= pause_quantum it
  // can return to (or overshoot) tRFC mid-refresh and the sentinel
  // mis-counts window starts.
  if (!rs.window_opened) {
    blocking_.on_refresh_start(r, now);
    rs.window_opened = true;
    // Nominal tRFC span; the actual segments (and their pause gaps) are
    // traced individually via begin_refresh_segment.
    if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
      telemetry::TraceEvent e;
      e.ts = now;
      e.dur = channel_.timings().tRFC;
      e.arg = rm_.owed(r, now);
      e.kind = telemetry::EventKind::kRefreshWindow;
      e.category = telemetry::kCatRefresh;
      e.channel = static_cast<std::uint16_t>(id_);
      e.rank = static_cast<std::uint16_t>(r);
      trace_->record(e);
    }
  }
  channel_.begin_refresh_segment(r, now, duration);
  for (const RequestIndex qidx : rs.reads) {
    block(arena_[qidx], RefreshCause::kPause, duration);
  }
  rs.started = true;
  rs.remaining -= duration;
  if (rs.remaining == 0) {
    rm_.on_refresh_issued(r);
    h_.refreshes->inc();
    rs.started = false;
  }
}

void Controller::issue_bank_refresh(RankId r, const RefreshStep& s,
                                    Cycle now) {
  const BankId b = s.bank;
  const std::uint32_t sub = s.sub;
  RankState& rs = ranks_[r];
  channel_.issue(bank_command(s, r), now);
  rm_.on_refresh_issued(r);
  h_.bank_refreshes->inc();
  const dram::Rank& rank = channel_.rank(r);
  const dram::Bank& bank = rank.bank(b);
  const Cycle trfcpb = channel_.timings().tRFCpb;
  // Whole-bank REFpb blocks every read queued to the bank for tRFCpb. A
  // subarray REFpb blocks only reads into the locked subarray; the rest of
  // the bank keeps serving (that asymmetry is SARP's win).
  const bool per_subarray = scheme_info(cfg_.refresh).subarrays > 1;
  for (const RequestIndex idx : rs.reads) {
    Request& req = arena_[idx];
    if (req.coord.bank != b) continue;
    if (!per_subarray) {
      block(req, RefreshCause::kBank, trfcpb);
    } else if (bank.subarray_of(req.coord.row) == sub) {
      block(req, RefreshCause::kSubarray, trfcpb);
    }
  }
  if (per_subarray) {
    if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
      telemetry::TraceEvent e;
      e.ts = now;
      e.dur = trfcpb;
      e.arg = sub;
      e.kind = telemetry::EventKind::kSubarrayRefresh;
      e.category = telemetry::kCatRefresh;
      e.channel = static_cast<std::uint16_t>(id_);
      e.rank = static_cast<std::uint16_t>(r);
      e.bank = static_cast<std::uint16_t>(b);
      trace_->record(e);
    }
    // Rotate subarrays within the bank, banks within the rank.
    rs.banks[b].next_sub =
        (sub + 1) % std::max<std::uint32_t>(1, bank.subarrays());
    rs.next_bank = static_cast<BankId>((b + 1) % rank.num_banks());
    return;
  }
  if (cfg_.refresh == RefreshScheme::kDarp) {
    rs.darp_round_mask |= 1u << b;
    const std::uint32_t full = (1u << rank.num_banks()) - 1u;
    if (rs.darp_round_mask == full) rs.darp_round_mask = 0;
  } else {
    rs.next_bank = static_cast<BankId>((b + 1) % rank.num_banks());
  }
}

bool Controller::darp_bank_idle(RankId r, BankId b) const {
  const BankRecord& bank = ranks_[r].banks[b];
  if (bank.reads != 0) return false;
  // During write drain reads are off the critical path anyway: a bank with
  // only writes pending is fair game (DARP's write-refresh
  // parallelization). Outside drain mode the bank must be fully idle.
  return draining_writes_ || bank.writes == 0;
}

BankId Controller::darp_pick_bank(RankId r, bool urgent) const {
  // Out-of-order selection: any bank not yet refreshed this round whose
  // queues make it idle. When every candidate has demand the refresh is
  // postponed — unless the JEDEC budget forces it, in which case the first
  // un-refreshed bank is taken regardless.
  const dram::Rank& rank = channel_.rank(r);
  const std::uint32_t nb = rank.num_banks();
  const std::uint32_t mask = ranks_[r].darp_round_mask;
  BankId fallback = static_cast<BankId>(nb);
  for (BankId b = 0; b < nb; ++b) {
    if ((mask >> b) & 1u) continue;
    if (rank.bank(b).state() == dram::BankState::kRefreshing) continue;
    if (darp_bank_idle(r, b)) return b;
    if (fallback == nb) fallback = b;
  }
  return urgent ? fallback : static_cast<BankId>(nb);
}

void Controller::issue_pick(const SchedulerPick& pick, Cycle now) {
  const Cycle done = channel_.issue(pick.cmd, now);
  if (!pick.services_request()) {
    // A row activation picked for a specific queued read stamps its `act`
    // time: only the request that triggered the ACT pays activation wait;
    // row-hitting followers see pure queue wait. PRE picks (conflict
    // closes) carry request context too but stamp nothing.
    if (pick.cmd.type == dram::CmdType::kActivate && pick.queue_id == 0) {
      Request& req = arena_[pick.slot];
      if (req.act == kNeverCycle) req.act = now;
    }
    return;
  }

  std::vector<RequestIndex>* q = nullptr;
  switch (pick.queue_id) {
    case 0: q = &read_q_; break;
    case 1: q = &write_q_; break;
    case 2: q = &prefetch_q_; break;
    default: ROP_ASSERT(false);
  }
  // The pick names its request by arena slot; its queue position is
  // resolved here, once it issues.
  const RequestIndex idx = pick.slot;
  const auto at = std::find(q->begin(), q->end(), idx);
  ROP_ASSERT(at != q->end());
  q->erase(at);
  scheduler_.erase(idx);
  Request& req = arena_[idx];
  RankState& rs = ranks_[req.coord.rank];
  switch (pick.queue_id) {
    case 0: {
      const auto it = std::find(rs.reads.begin(), rs.reads.end(), idx);
      ROP_ASSERT(it != rs.reads.end());
      rs.reads.erase(it);
      on_read_leaves_queue(rs, req);
      break;
    }
    case 1:
      --rs.writes;
      --rs.banks[req.coord.bank].writes;
      write_index_.erase(req.line_addr);
      break;
    case 2: --rs.queued_prefetches; break;
    default: break;
  }

  if (req.type != ReqType::kPrefetch && listener_ != nullptr) {
    listener_->on_demand_serviced(req, now);
  }

  if (req.type == ReqType::kWrite) {
    // Writes are posted: the data burst retires silently.
    h_.writes_issued->inc();
    arena_.release(idx);
    return;
  }
  req.issued = now;
  req.completion = done;
  in_flight_.push_back(idx);
  inflight_min_completion_ = std::min(inflight_min_completion_, done);
  if (req.type == ReqType::kPrefetch) {
    ++rs.inflight_prefetches;
    h_.prefetch_issued->inc();
  }
}

void Controller::tick(Cycle now) {
  step(now);
  // The audit hook runs after every exit path of the per-tick work, when
  // queue/counter/refresh state is stable for this cycle.
  if (auditor_ != nullptr) auditor_->on_tick_end(*this, now);
}

void Controller::step(Cycle now) {
  channel_.tick(now);
  complete_bursts(now);
  if (listener_ != nullptr) listener_->on_tick(now);

  // Write-drain hysteresis.
  if (write_q_.size() >= cfg_.sched.write_drain_high) draining_writes_ = true;
  if (write_q_.size() <= cfg_.sched.write_drain_low) draining_writes_ = false;

  // Inside the refresh-quiet window every rank's next refresh step waits
  // for a boundary at or after the window's end.
  if (now >= refresh_quiet_until_) {
    const bool refresh_cmd = manage_refresh(now);
    refresh_quiet_until_ = refresh_quiet_end(now);
    if (refresh_cmd) return;
  }

  if (read_q_.empty() && write_q_.empty() && prefetch_q_.empty()) return;
  const BlockedRanks blocked = blocked_ranks(now);
  const std::optional<SchedulerPick> pick =
      synced_scheduler(draining_writes_, blocked).pick(now);
  if (audit_scheduler_ != nullptr) {
    audit_pick(now, draining_writes_, blocked, pick);
  }
  if (pick) issue_pick(*pick, now);
}

BlockedRanks Controller::blocked_ranks(Cycle now) const {
  std::uint32_t held = channel_.refreshing_ranks();  // every queue
  if (cfg_.refresh == RefreshScheme::kPausing) {
    for (RankId r = 0; r < channel_.num_ranks(); ++r) {
      if (pausing_holds(r, now)) held |= 1u << r;
    }
  }
  // Demand is also held while the rank seals for the REF command (baseline
  // enters sealing immediately at due time); prefetches flow through.
  return BlockedRanks{{held | sealing_, held | sealing_, held}};
}

std::span<const QueueView> Controller::scheduler_views(
    bool drain, std::array<QueueView, 3>& storage) const {
  // Outside drain mode writes are only serviced when no read work exists at
  // all — opportunistic writes would otherwise pay bus-turnaround penalties
  // against latency-critical reads.
  std::size_t n = 0;
  if (drain) {
    storage[n++] = QueueView{&write_q_, 1};
    storage[n++] = QueueView{&read_q_, 0};
  } else {
    storage[n++] = QueueView{&read_q_, 0};
    if (read_q_.empty()) storage[n++] = QueueView{&write_q_, 1};
  }
  storage[n++] = QueueView{&prefetch_q_, 2};
  return {storage.data(), n};
}

const Scheduler& Controller::synced_scheduler(
    bool drain, const BlockedRanks& blocked) const {
  std::array<QueueView, 3> views;
  scheduler_.sync(scheduler_views(drain, views), blocked);
  return scheduler_;
}

namespace {

std::string describe(const std::optional<SchedulerPick>& pick) {
  if (!pick) return "none";
  const DramCoord& c = pick->cmd.coord;
  return std::string(dram::to_string(pick->cmd.type)) + " r" +
         std::to_string(c.rank) + " b" + std::to_string(c.bank) + " row " +
         std::to_string(c.row) + " req " + std::to_string(pick->cmd.request) +
         " (queue " + std::to_string(pick->queue_id) + " slot " +
         std::to_string(pick->slot) + ")";
}

}  // namespace

void Controller::set_auditor(ControllerAuditor* auditor) {
  auditor_ = auditor;
  if (auditor != nullptr && auditor->audits_scheduler()) {
    if (audit_scheduler_ == nullptr) {
      audit_scheduler_ = std::make_unique<Scheduler>(channel_, arena_);
    }
  } else {
    audit_scheduler_.reset();
  }
}

void Controller::audit_pick(Cycle now, bool drain, const BlockedRanks& blocked,
                            const std::optional<SchedulerPick>& cached) const {
  std::array<QueueView, 3> views;
  audit_scheduler_->scan(scheduler_views(drain, views), blocked);
  const std::optional<SchedulerPick> fresh = audit_scheduler_->pick(now);
  if (cached != fresh) {
    auditor_->on_scheduler_mismatch(
        *this, now,
        "cached pick " + describe(cached) + " != rescanned " + describe(fresh));
  }
}

void Controller::audit_horizon(Cycle now, bool drain,
                               const BlockedRanks& blocked,
                               Cycle cached) const {
  std::array<QueueView, 3> views;
  audit_scheduler_->scan(scheduler_views(drain, views), blocked);
  const Cycle fresh = audit_scheduler_->horizon(now);
  if (cached != fresh) {
    auditor_->on_scheduler_mismatch(
        *this, now,
        "cached horizon " + std::to_string(cached) + " != rescanned " +
            std::to_string(fresh));
  }
}

void Controller::audit_quiet_window(Cycle now) const {
  Cycle fresh = kNeverCycle;
  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    fresh = std::min(fresh, next_refresh_step(r, now).at);
  }
  if (fresh != refresh_quiet_until_) {
    auditor_->on_scheduler_mismatch(
        *this, now,
        "refresh-quiet window ends at " +
            std::to_string(refresh_quiet_until_) +
            " != earliest next refresh step " + std::to_string(fresh));
  }
}

std::vector<Request> Controller::drain_completed() {
  std::vector<Request> out;
  out.reserve(completed_.size());
  drain_completed_into([&out](const Request& req) { out.push_back(req); });
  return out;
}

void Controller::complete_matching_reads(
    RankId rank,
    const std::function<std::optional<Cycle>(const Request&)>& probe) {
  // The per-rank index walks exactly the candidates (in age order, which
  // matches read-queue order for one rank) instead of rescanning the whole
  // read queue per probe.
  RankState& rs = ranks_[rank];
  const dram::Rank& rk = channel_.rank(rank);
  std::size_t out = 0;
  for (const RequestIndex idx : rs.reads) {
    Request& req = arena_[idx];
    const auto done = probe(req);
    if (!done) {
      rs.reads[out++] = idx;
      continue;
    }
    const auto it = std::find(read_q_.begin(), read_q_.end(), idx);
    ROP_ASSERT(it != read_q_.end());
    read_q_.erase(it);
    scheduler_.erase(idx);
    on_read_leaves_queue(rs, req);
    req.completion = *done;
    req.serviced_by = ServicedBy::kSramBuffer;
    h_.sram_serviced->inc();
    if (rk.refreshing() && rk.refresh_done() > *done) {
      h_.attr_rop_recovered->inc(rk.refresh_done() - *done);
    }
    record_read_latency(req);
    completed_.push_back(idx);
  }
  rs.reads.resize(out);
}

void Controller::finalize(Cycle now) {
  if (listener_ != nullptr) listener_->on_finalize(now);
  channel_.settle_accounting(now);
  blocking_.finalize();
}

Cycle Controller::refresh_quiet_end(Cycle now) const {
  // owed() only grows at a tREFI boundary and only a refresh issue (which
  // needs something owed) lowers it, so with nothing owed and no pausing
  // refresh in progress, no rank's refresh machinery can act before the
  // earliest next boundary. (Pausing credits the refresh manager only when
  // `remaining` reaches 0, so today owed == 0 implies it; the test
  // keeps a change to that crediting from opening a window mid-refresh.)
  Cycle end = kNeverCycle;
  if (scheme_info(cfg_.refresh).unit == RefreshUnit::kNone) return end;
  for (RankId r = 0; r < channel_.num_ranks(); ++r) {
    if (rm_.owed(r, now) > 0 || ranks_[r].remaining > 0) return 0;
    end = std::min(end, rm_.next_owed_increase(r, now));
  }
  return end;
}

Cycle Controller::next_event_cycle(Cycle now) const {
  // Completed requests await drain on the very next tick.
  if (!completed_.empty()) return now + 1;

  // Refresh-quiet window: every rank's next refresh step waits for its
  // next boundary, so the earliest of them stands in for the per-rank
  // calls (refreshing ranks included: conservative-early at worst).
  const bool quiet = now < refresh_quiet_until_;
  if (quiet && audit_scheduler_ != nullptr) audit_quiet_window(now);

  const Cycle soonest = now + 1;
  Cycle next = kNeverCycle;
  const auto consider = [&next, soonest](Cycle c) {
    if (c != kNeverCycle) next = std::min(next, std::max(c, soonest));
  };

  // Data bursts in flight (cached min, rebuilt by complete_bursts).
  consider(inflight_min_completion_);
  if (next == soonest) return next;

  // Every refresh release (a REF's thaw, a REFpb lock's end) is observable
  // (demand resumes, the ROP window closes, pausing re-evaluates) and must
  // land on its exact cycle: the channel keeps the earliest.
  consider(channel_.next_release());
  if (quiet) {
    consider(refresh_quiet_until_);
  } else {
    for (RankId r = 0; r < channel_.num_ranks(); ++r) {
      // The refresh machinery skips refreshing ranks.
      if (channel_.rank(r).refreshing()) continue;
      consider(next_refresh_step(r, now).at);
      if (next == soonest) return next;
    }
  }

  if (read_q_.empty() && write_q_.empty() && prefetch_q_.empty()) {
    return next;
  }

  // Scheduler horizon: the earliest cycle any queued request could put a
  // command on the bus. Queue sizes are frozen until the next executed
  // tick (enqueues dirty-force one), so the next tick's write-drain
  // hysteresis and view order are pure functions of current state.
  bool drain_next = draining_writes_;
  if (write_q_.size() >= cfg_.sched.write_drain_high) drain_next = true;
  if (write_q_.size() <= cfg_.sched.write_drain_low) drain_next = false;

  const BlockedRanks blocked = blocked_ranks(now);
  const Cycle horizon = synced_scheduler(drain_next, blocked).horizon(now);
  if (audit_scheduler_ != nullptr) {
    audit_horizon(now, drain_next, blocked, horizon);
  }
  consider(horizon);

  return next;
}

Cycle Controller::completion_lower_bound(Cycle pos) const {
  if (!completed_.empty()) return pos + 1;

  Cycle bound = kNeverCycle;
  const auto consider = [&bound](Cycle c) { bound = std::min(bound, c); };

  // In-flight data bursts: demand completions land exactly here; prefetch
  // fills can reentrantly service queued reads at the same cycle, so this
  // one cached minimum covers both (conservative-early when the earliest
  // burst is a prefetch with no matching read).
  consider(inflight_min_completion_);

  if (!read_q_.empty()) {
    // A queued read not yet in flight needs an issue (earliest pos + 1)
    // plus the CAS latency and burst before data lands.
    const auto& t = channel_.timings();
    consider(pos + 1 + t.CL + t.tBL);

    // A refresh issue can probe the SRAM buffer and service queued reads
    // via the ROP listener. With the rank idle and nothing owed, that
    // cannot happen before the next tREFI boundary.
    if (listener_ != nullptr &&
        scheme_info(cfg_.refresh).unit != RefreshUnit::kNone) {
      for (RankId r = 0; r < channel_.num_ranks(); ++r) {
        const RankState& rs = ranks_[r];
        if (rs.reads.empty()) continue;
        if (rs.phase != RefreshPhase::kIdle || rs.remaining > 0 ||
            rm_.owed(r, pos) > 0) {
          consider(pos + 1);
        } else {
          consider(rm_.next_owed_increase(r, pos));
        }
      }
    }
  }

  if (bound == kNeverCycle) return bound;
  return std::max(bound, pos + 1);
}

}  // namespace rop::mem
