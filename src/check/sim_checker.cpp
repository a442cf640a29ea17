#include "check/sim_checker.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "telemetry/trace_sink.h"

namespace rop::check {

SimChecker::~SimChecker() {
  // Defensive detach: a controller must never hold a dangling auditor.
  if (mem_ == nullptr) return;
  for (ChannelId ch = 0; ch < mem_->num_channels(); ++ch) {
    if (mem_->controller(ch).auditor() == this) {
      mem_->controller(ch).set_auditor(nullptr);
    }
  }
}

void SimChecker::attach(mem::MemorySystem& mem) {
  ROP_ASSERT(mem_ == nullptr && "one checker audits one memory system");
  mem_ = &mem;
  for (ChannelId ch = 0; ch < mem.num_channels(); ++ch) {
    mem.controller(ch).set_auditor(this);
  }
}

void SimChecker::attach(mem::MemorySystem& mem, ChannelId ch) {
  ROP_ASSERT(mem_ == nullptr && "one checker audits one memory system");
  ROP_ASSERT(ch < mem.num_channels());
  mem_ = &mem;
  scope_ = ch;
  mem.controller(ch).set_auditor(this);
}

void SimChecker::watch(const engine::RopEngine& eng) {
  engines_.push_back(&eng);
}

void SimChecker::set_trace(const telemetry::TraceSink* trace,
                           std::size_t context_events) {
  trace_ = trace;
  trace_context_ = context_events;
}

/// Violation messages kept verbatim; every violation is still counted.
constexpr std::size_t kMaxReports = 16;

void SimChecker::violate(std::string msg) {
  ++violation_count_;
  if (reports_.size() < kMaxReports) reports_.push_back(std::move(msg));
  // Snapshot the trace tail at the *first* violation: that is the timeline
  // that led into the bug; later violations are usually fallout.
  if (violation_count_ == 1 && trace_ != nullptr) {
    trace_tail_ = trace_->format_recent(trace_context_);
  }
}

void SimChecker::on_tick_end(const mem::Controller& ctrl, Cycle now) {
  ++ticks_checked_;
  last_now_ = std::max(last_now_, now);
  check_queue_counters(ctrl, now);
  check_refresh_deadlines(ctrl, now);
  check_subarray_locks(ctrl, now);
  check_buffer_coherence(ctrl, now);
  check_refresh_summaries(ctrl, now);
}

void SimChecker::on_retired(const mem::Request& req) {
  ++retired_;
  if (req.completion < req.arrival) {
    std::ostringstream os;
    os << "[conservation] request " << req.id << " line 0x" << std::hex
       << req.line_addr << std::dec << " retired with completion "
       << req.completion << " < arrival " << req.arrival;
    violate(os.str());
  }
}

void SimChecker::on_scheduler_mismatch(const mem::Controller& ctrl,
                                       Cycle now, const std::string& what) {
  std::ostringstream os;
  os << "[scheduler] ch " << ctrl.id() << " cycle " << now << ": " << what;
  violate(os.str());
}

void SimChecker::check_queue_counters(const mem::Controller& c, Cycle now) {
  // Each rank's derived fields, recounted from the queues: the read-queue
  // entries in queue order, the per-bank read and write counts, and the
  // drain — queued reads that arrived at or before the rank's lock (the
  // naive definition the event core replaced with incremental updates).
  const std::uint32_t banks = c.channel().rank(0).num_banks();
  std::vector<mem::RankState> want(c.channel().num_ranks());
  for (mem::RankState& w : want) w.banks.resize(banks);
  const mem::RequestView read_q = c.read_queue();
  for (std::size_t i = 0; i < read_q.size(); ++i) {
    const mem::Request& req = read_q[i];
    mem::RankState& w = want.at(req.coord.rank);
    w.reads.push_back(read_q.index(i));
    ++w.banks.at(req.coord.bank).reads;
    const Cycle lock = c.rank_state(req.coord.rank).locked_at;
    if (lock != kNeverCycle && req.arrival <= lock) ++w.drain_pending;
  }
  for (const auto& r : c.write_queue()) {
    ++want.at(r.coord.rank).writes;
    ++want.at(r.coord.rank).banks.at(r.coord.bank).writes;
  }
  for (const auto& r : c.prefetch_queue()) {
    ++want.at(r.coord.rank).queued_prefetches;
  }
  for (const auto& r : c.in_flight()) {
    if (r.type == mem::ReqType::kPrefetch) {
      ++want.at(r.coord.rank).inflight_prefetches;
    }
    // Bursts with completion <= now were drained at the top of this tick;
    // anything issued later lands strictly in the future.
    if (r.completion <= now) {
      std::ostringstream os;
      os << "[counters] ch " << c.id() << " in-flight request " << r.id
         << " completion " << r.completion << " <= now " << now;
      violate(os.str());
    }
  }

  for (RankId r = 0; r < want.size(); ++r) {
    const auto mismatch = [&](const char* what, std::uint64_t cached,
                              std::uint64_t actual, BankId bank = ~BankId{0}) {
      if (cached == actual) return;
      std::ostringstream os;
      os << "[counters] ch " << c.id() << " rank " << r << " cycle " << now
         << ": ";
      if (bank != ~BankId{0}) os << "bank " << bank << " ";
      os << what << " " << cached << " != " << actual
         << " recounted from the queues";
      violate(os.str());
    };
    const mem::RankState& s = c.rank_state(r);
    const mem::RankState& w = want[r];
    mismatch("pending_reads", s.reads.size(), w.reads.size());
    // The rank's list must be its read-queue entries in read-queue order
    // (its age order): report the first arena slot that differs.
    const auto [got, exp] = std::ranges::mismatch(s.reads, w.reads);
    if (got != s.reads.end() && exp != w.reads.end()) {
      mismatch("read-list arena slot", *got, *exp);
    }
    mismatch("pending_writes", s.writes, w.writes);
    mismatch("queued_prefetches", s.queued_prefetches, w.queued_prefetches);
    mismatch("inflight_prefetches", s.inflight_prefetches,
             w.inflight_prefetches);
    mismatch("drain_pending", s.drain_pending, w.drain_pending);
    for (BankId b = 0; b < banks; ++b) {
      mismatch("reads", s.banks.at(b).reads, w.banks[b].reads, b);
      mismatch("writes", s.banks.at(b).writes, w.banks[b].writes, b);
    }
  }

  // write_index_ must be *exactly* the queued write lines: every queued
  // write present, and no stale leftover entries (coalescing guarantees
  // one queued write per line, so the sizes must match too).
  if (c.write_index().size() != c.write_queue().size()) {
    std::ostringstream os;
    os << "[counters] ch " << c.id() << " cycle " << now
       << ": write_index size " << c.write_index().size()
       << " != write queue size " << c.write_queue().size();
    violate(os.str());
  }
  for (const auto& w : c.write_queue()) {
    if (c.write_index().count(w.line_addr) == 0) {
      std::ostringstream os;
      os << "[counters] ch " << c.id() << " cycle " << now
         << ": queued write line 0x" << std::hex << w.line_addr << std::dec
         << " missing from write_index";
      violate(os.str());
    }
  }
}

void SimChecker::check_refresh_deadlines(const mem::Controller& c,
                                         Cycle now) {
  if (mem::scheme_info(c.config().refresh).unit == mem::RefreshUnit::kNone) {
    return;
  }
  const auto& rm = c.refresh_manager();
  const std::uint32_t budget =
      c.channel().timings().max_postponed_refreshes;
  for (RankId r = 0; r < c.channel().num_ranks(); ++r) {
    if (rm.owed(r, now) > budget) {
      std::ostringstream os;
      os << "[refresh] ch " << c.id() << " rank " << r << " cycle " << now
         << ": owed " << rm.owed(r, now) << " refresh units exceeds the "
         << "JEDEC postponement budget " << budget;
      violate(os.str());
    }
  }
}

void SimChecker::check_subarray_locks(const mem::Controller& c, Cycle now) {
  for (RankId r = 0; r < c.channel().num_ranks(); ++r) {
    const auto& rank = c.channel().rank(r);
    for (BankId b = 0; b < rank.num_banks(); ++b) {
      const auto& bank = rank.bank(b);
      if (bank.subarrays() <= 1) continue;
      // At most one subarray refresh in flight per bank.
      std::uint32_t locked = 0;
      for (std::uint32_t s = 0; s < bank.subarrays(); ++s) {
        if (now < bank.subarray_busy_until(s)) ++locked;
      }
      if (locked > 1) {
        std::ostringstream os;
        os << "[subarray] ch " << c.id() << " rank " << r << " bank " << b
           << " cycle " << now << ": " << locked
           << " subarrays locked at once (max 1 REFpb in flight per bank)";
        violate(os.str());
      }
      const auto sub = bank.refreshing_subarray(now);
      if (!sub.has_value()) continue;
      // Subarray refresh is not a whole-bank lock: the bank must stay out
      // of kRefreshing so the other subarrays keep serving.
      if (bank.state() == dram::BankState::kRefreshing) {
        std::ostringstream os;
        os << "[subarray] ch " << c.id() << " rank " << r << " bank " << b
           << " cycle " << now << ": subarray " << *sub
           << " refreshing while bank is whole-bank kRefreshing";
        violate(os.str());
      }
      // An open row must never live in the locked subarray: the HiRA
      // overlap is only legal across *different* subarrays.
      if (bank.state() == dram::BankState::kActive &&
          bank.open_row().has_value() &&
          bank.subarray_of(*bank.open_row()) == *sub) {
        std::ostringstream os;
        os << "[subarray] ch " << c.id() << " rank " << r << " bank " << b
           << " cycle " << now << ": open row " << *bank.open_row()
           << " lives in refreshing subarray " << *sub;
        violate(os.str());
      }
    }
  }
}

void SimChecker::check_refresh_summaries(const mem::Controller& c,
                                         Cycle now) {
  const auto mismatch = [&](const char* what, std::uint64_t cached,
                            std::uint64_t scanned, RankId rank = ~RankId{0}) {
    if (cached == scanned) return;
    std::ostringstream os;
    os << "[summary] ch " << c.id() << " cycle " << now << ": ";
    if (rank != ~RankId{0}) os << "rank " << rank << " ";
    os << what << " " << cached << " != " << scanned << " scanned";
    violate(os.str());
  };
  const dram::Channel& ch = c.channel();
  std::uint32_t refreshing = 0;
  std::uint32_t sealing = 0;
  std::uint32_t paused = 0;
  Cycle release = kNeverCycle;
  for (RankId r = 0; r < ch.num_ranks(); ++r) {
    const dram::Rank& rank = ch.rank(r);
    std::uint32_t active = 0;
    std::uint32_t precharged = 0;
    Cycle ready = 0;
    Cycle pb_release = kNeverCycle;
    for (BankId b = 0; b < rank.num_banks(); ++b) {
      const dram::Bank& bank = rank.bank(b);
      if (bank.state() == dram::BankState::kActive) active |= 1u << b;
      if (bank.state() == dram::BankState::kPrecharged) ++precharged;
      ready = std::max(
          {ready, bank.next_activate(), bank.any_subarray_busy_until()});
      if (!rank.refreshing() && bank.state() == dram::BankState::kRefreshing) {
        pb_release = std::min(pb_release, bank.next_activate());
      }
    }
    mismatch("active banks", rank.active_banks(), active, r);
    mismatch("all banks precharged", rank.all_banks_precharged(),
             precharged == rank.num_banks(), r);
    mismatch("refresh ready", rank.earliest_refresh_ready(),
             active != 0         ? kNeverCycle
             : rank.refreshing() ? std::max(ready, rank.refresh_done())
                                 : ready,
             r);
    mismatch("REFpb release", rank.earliest_pb_release(), pb_release, r);
    mismatch("REFpb flag", rank.pb_refreshing(), pb_release != kNeverCycle,
             r);
    if (rank.refreshing()) {
      refreshing |= 1u << r;
      release = std::min(release, rank.refresh_done());
    } else {
      release = std::min(release, pb_release);
    }
    if (c.rank_state(r).phase == mem::RefreshPhase::kSealing) {
      sealing |= 1u << r;
    }
    if (c.config().refresh == mem::RefreshScheme::kPausing &&
        c.refresh_manager().urgent(r, now)) {
      paused |= 1u << r;
    }
  }
  mismatch("refreshing ranks", ch.refreshing_ranks(), refreshing);
  mismatch("earliest release", ch.next_release(), release);
  mismatch("sealing ranks", c.sealing_ranks(), sealing);
  const mem::BlockedRanks blocked = c.blocked_ranks(now);
  const std::uint32_t held = refreshing | paused;
  mismatch("blocked ranks (reads)", blocked.by_queue[0], held | sealing);
  mismatch("blocked ranks (writes)", blocked.by_queue[1], held | sealing);
  mismatch("blocked ranks (prefetches)", blocked.by_queue[2], held);
}

void SimChecker::check_buffer_coherence(const mem::Controller& c,
                                        Cycle now) {
  for (const engine::RopEngine* eng : engines_) {
    if (&eng->controller() != &c) continue;
    const auto& buf = eng->buffer();
    if (buf.size() > buf.capacity()) {
      std::ostringstream os;
      os << "[buffer] ch " << c.id() << " cycle " << now << ": buffer holds "
         << buf.size() << " lines, capacity " << buf.capacity();
      violate(os.str());
    }
    if (!buf.owner().has_value()) continue;
    for (const Address line : buf.lines()) {
      if (c.write_index().count(line) != 0) {
        std::ostringstream os;
        os << "[buffer] ch " << c.id() << " cycle " << now
           << ": SRAM buffer holds line 0x" << std::hex << line << std::dec
           << " which has a queued newer write";
        violate(os.str());
      }
    }
  }
}

void SimChecker::check_conservation() {
  const StatRegistry& stats = *mem_->stats();

  std::uint64_t queued_reads = 0;
  std::uint64_t queued_writes = 0;
  std::uint64_t queued_pf = 0;
  std::uint64_t inflight_demand = 0;
  std::uint64_t inflight_pf = 0;
  std::uint64_t live_blocked = 0;
  const auto carried = [](const mem::Request& r) {
    return std::accumulate(r.blocked.begin(), r.blocked.end(),
                           std::uint64_t{0});
  };
  for (ChannelId ch = 0; ch < mem_->num_channels(); ++ch) {
    const auto& c = mem_->controller(ch);
    queued_reads += c.read_queue().size();
    queued_writes += c.write_queue().size();
    queued_pf += c.prefetch_queue().size();
    for (const auto& r : c.read_queue()) live_blocked += carried(r);
    for (const auto& r : c.in_flight()) {
      live_blocked += carried(r);
      if (r.type == mem::ReqType::kPrefetch) {
        ++inflight_pf;
      } else {
        ++inflight_demand;
      }
    }
  }

  const auto identity = [this](const char* what, std::uint64_t enqueued,
                               std::uint64_t accounted) {
    if (enqueued == accounted) return;
    std::ostringstream os;
    os << "[conservation] " << what << ": enqueued " << enqueued
       << " != completed + queued + in-flight " << accounted;
    violate(os.str());
  };

  // Reads: every accepted read either retired (its latency was recorded at
  // that moment, drained or not), is still queued, or is in flight.
  const auto* lat = stats.find_scalar("mem.read_latency");
  const std::uint64_t retired_reads = lat != nullptr ? lat->count() : 0;
  identity("reads", stats.counter_value("mem.reads"),
           retired_reads + queued_reads + inflight_demand);

  // Writes are posted: issued to DRAM, coalesced into a queued entry, or
  // still queued.
  identity("writes", stats.counter_value("mem.writes"),
           stats.counter_value("mem.writes_issued") +
               stats.counter_value("mem.write_coalesced") + queued_writes);

  // Prefetches: enqueued ones are queued, dropped, or issued; issued ones
  // are in flight, dropped stale at fill time, or completed.
  identity("prefetches (queue)",
           stats.counter_value("rop.prefetch_enqueued"),
           stats.counter_value("rop.prefetch_issued") +
               stats.counter_value("rop.prefetch_dropped") + queued_pf);
  identity("prefetches (in flight)",
           stats.counter_value("rop.prefetch_issued"),
           stats.counter_value("rop.prefetch_completed") +
               stats.counter_value("rop.prefetch_dropped_stale") +
               inflight_pf);

  // Refresh blocking: every span charged to mem.refresh_blocked_cycles is
  // also charged to one read's per-cause accumulator, which folds into
  // attr.blocked_<cause>_cycles when the read completes. So the aggregate
  // is the folded ledger plus what the live reads still carry.
  std::uint64_t folded = 0;
  for (const char* cause : telemetry::kRefreshCauseKeys) {
    folded += stats.counter_value(std::string("attr.blocked_") + cause +
                                  "_cycles");
  }
  const std::uint64_t charged =
      stats.counter_value("mem.refresh_blocked_cycles");
  if (charged != folded + live_blocked) {
    std::ostringstream os;
    os << "[conservation] refresh blocking: mem.refresh_blocked_cycles "
       << charged << " != per-cause ledger " << folded
       << " + live accumulators " << live_blocked;
    violate(os.str());
  }
}

void SimChecker::audit_cpi(std::uint32_t core, std::uint64_t cycles,
                           std::uint64_t stack_sum) {
  if (stack_sum == cycles) return;
  std::ostringstream os;
  os << "(e) CPI stack: core " << core << " categories sum to " << stack_sum
     << " but cycles = " << cycles << " (delta "
     << (stack_sum > cycles ? "+" : "-")
     << (stack_sum > cycles ? stack_sum - cycles : cycles - stack_sum)
     << ")";
  violate(os.str());
}

void SimChecker::finalize() {
  ROP_ASSERT(mem_ != nullptr && "finalize requires an attached memory");
  if (finalized_) return;
  finalized_ = true;
  // Conservation is a whole-memory identity against the shared registry;
  // channel-scoped checkers delegate it to the channel-0 instance so the
  // run audits it exactly once.
  if (scope_ == kAllChannels || scope_ == 0) check_conservation();
  // Final deadline sweep: a backlog beyond the budget at end of run means
  // some tREFI interval was never covered.
  for (ChannelId ch = 0; ch < mem_->num_channels(); ++ch) {
    if (scope_ != kAllChannels && ch != scope_) continue;
    check_refresh_deadlines(mem_->controller(ch), last_now_);
  }
}

std::string SimChecker::summary() const {
  std::ostringstream os;
  os << "checker: " << (ok() ? "OK" : "FAILED") << " (" << ticks_checked_
     << " ticks audited, " << retired_ << " requests retired, "
     << violation_count_ << " violations)";
  for (const auto& r : reports_) os << "\n  " << r;
  if (violation_count_ > reports_.size()) {
    os << "\n  ... " << violation_count_ - reports_.size() << " more";
  }
  if (!trace_tail_.empty()) {
    os << "\n  trace context (last " << trace_tail_.size()
       << " events before the first violation):";
    for (const auto& line : trace_tail_) os << "\n    " << line;
  }
  return os.str();
}

}  // namespace rop::check
