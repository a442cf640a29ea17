// Per-channel memory controller.
//
// Owns the DRAM channel, the transaction queues, the FR-FCFS scheduler and
// the refresh manager, and exposes the hook interface the ROP engine plugs
// into. One command is issued on the command bus per controller clock.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/channel.h"
#include "mem/refresh_manager.h"
#include "mem/refresh_scheme.h"
#include "mem/refresh_stats.h"
#include "mem/request.h"
#include "mem/scheduler.h"

namespace rop::mem {

/// Hook interface implemented by the ROP engine (src/rop). The controller
/// works identically with a null listener (baseline / no-refresh systems).
class ControllerListener {
 public:
  virtual ~ControllerListener() = default;

  /// A demand request is about to be enqueued. The listener may service a
  /// read immediately (SRAM buffer hit while the rank is locked or
  /// refreshing) by returning its completion cycle; writes always return
  /// nullopt but give the listener the chance to invalidate buffered copies.
  virtual std::optional<Cycle> on_enqueue(const Request& req, Cycle now) = 0;

  /// A demand column command went on the bus. The prediction tables learn
  /// from the *serviced* command stream, so that at staging time LastAddr
  /// points at the last line actually read from DRAM and the generated
  /// candidates start exactly at the still-queued blocked requests.
  virtual void on_demand_serviced(const Request& req, Cycle now) = 0;

  /// The rank sealed for its due refresh: queued demand has drained, new
  /// demand is frozen. This is the moment the ROP engine takes its
  /// prefetch decision and stages prefetch reads (paper §IV-D); REF goes
  /// out once they land.
  virtual void on_rank_locked(RankId rank, Cycle now) = 0;

  /// REF command went on the bus; the rank is frozen during [start, done).
  virtual void on_refresh_issued(RankId rank, Cycle start, Cycle done) = 0;

  /// A prefetch read finished its data burst: fill the SRAM buffer.
  virtual void on_prefetch_filled(const Request& req, Cycle now) = 0;

  /// Called once per controller tick before scheduling, so the engine can
  /// enqueue prefetch requests ahead of an imminent refresh.
  ///
  /// Under the event-driven clock (cpu::System fast-forward) ticks between
  /// controller events are skipped, so consecutive calls may be more than
  /// one cycle apart. Listener state must therefore be a function of `now`,
  /// not of the call count — the ROP engine accumulates deltas.
  virtual void on_tick(Cycle now) = 0;

  /// End of run at controller cycle `now`: settle any time-integrated
  /// accounting (the last on_tick may have landed well before `now` when
  /// ticks were skipped). Called from Controller::finalize in both the
  /// naive and the event-driven loop with the same cycle, which keeps
  /// accumulated statistics bit-identical between them.
  virtual void on_finalize(Cycle now) { (void)now; }
};

class Controller;

/// Read-only audit hook (src/check). Unlike ControllerListener — which
/// participates in request servicing — an auditor only observes: the
/// controller calls it after every tick and for every retired request so an
/// invariant checker can validate queue/counter/refresh bookkeeping. A null
/// auditor (the default) costs one branch per tick.
class ControllerAuditor {
 public:
  virtual ~ControllerAuditor() = default;

  /// All per-tick work (burst completion, refresh management, scheduling)
  /// for `now` has finished; the controller's state is stable.
  virtual void on_tick_end(const Controller& ctrl, Cycle now) = 0;

  /// A demand read left the controller through drain_completed_into().
  virtual void on_retired(const Request& req) = 0;

  /// Opt in to the scheduler-table audit: the controller then rescans its
  /// FR-FCFS candidate table from scratch for every pick and horizon and
  /// reports any difference from the cached table through
  /// on_scheduler_mismatch. Queried once, when the auditor is attached.
  [[nodiscard]] virtual bool audits_scheduler() const { return false; }

  /// The cached candidate table answered `what` differently from a fresh
  /// scan at `now` (a rescan trigger is missing).
  virtual void on_scheduler_mismatch(const Controller& ctrl, Cycle now,
                                     const std::string& what) {
    (void)ctrl;
    (void)now;
    (void)what;
  }
};

struct ControllerConfig {
  SchedulerConfig sched{};
  RefreshScheme refresh = RefreshScheme::kBaseline;
  /// kRop: bound on the drain+staging window past due time.
  Cycle drain_bound = 1024;
  /// kPausing: refresh segment length (~60 ns) and re-lock overhead per
  /// resume.
  Cycle pause_quantum = 48;
  Cycle pause_overhead = 8;
};

/// Per-rank refresh progression. kIdle: no refresh pending. kDraining (ROP
/// only): refresh due; demand keeps flowing while queued requests drain
/// and staged prefetches fill the buffer. kSealing: demand to the rank is
/// held while banks are precharged and REF goes out. Baseline auto-refresh
/// jumps straight from kIdle to kSealing at due time.
enum class RefreshPhase : std::uint8_t { kIdle, kDraining, kSealing };

/// One bank's share of its rank's record.
struct BankRecord {
  /// kSarp / kHira: the next subarray to refresh. Primary.
  std::uint32_t next_sub = 0;
  /// Queued demand reads and writes to the bank. Derived: DARP's idle-bank
  /// pick and the whole-bank REFpb blocking charge read them.
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;
};

/// Everything the controller keeps about one rank. The primary fields are
/// history (what the refresh schemes decided) and ride in snapshots; the
/// derived ones are counts and lists the queues determine, kept
/// incrementally on the hot paths and rebuilt from the queues on load.
struct RankState {
  // -- Primary --------------------------------------------------------------
  RefreshPhase phase = RefreshPhase::kIdle;
  /// Cycle the pending refresh came due (bounds the drain window);
  /// kNeverCycle when no lock is active.
  Cycle locked_at = kNeverCycle;
  /// kElastic: last demand arrival (idle detection).
  Cycle last_arrival = 0;
  /// kPausing: refresh work remaining (0 = none in progress), whether the
  /// in-progress refresh ran a segment since its last pause, and whether
  /// blocking stats saw its first segment. The last is tracked explicitly:
  /// pause overhead grows `remaining`, so "remaining == tRFC" is not a
  /// reliable first-segment test (see docs/CORRECTNESS.md).
  Cycle remaining = 0;
  bool started = false;
  bool window_opened = false;
  /// kPerBank / kSarp / kHira: round-robin cursor of the next bank.
  BankId next_bank = 0;
  /// kDarp: banks already refreshed in the current round (reset when all
  /// are set), so out-of-order selection stays fair.
  std::uint32_t darp_round_mask = 0;
  /// One entry per bank; next_sub is primary, the counts derived.
  std::vector<BankRecord> banks;

  // -- Derived --------------------------------------------------------------
  /// Queued demand reads to the rank, in read-queue order (the rank's age
  /// order): complete_matching_reads and the refresh charges walk this
  /// instead of the whole read queue. Its size is the pending-read count.
  std::vector<RequestIndex> reads;
  std::uint32_t writes = 0;               // queued writes
  std::uint32_t queued_prefetches = 0;
  std::uint32_t inflight_prefetches = 0;
  /// Queued reads with arrival <= locked_at (0 while unlocked): the drain
  /// a ROP lock waits on.
  std::uint32_t drain_pending = 0;

  /// Serializes the primary fields; the bank count is config-derived. A
  /// load starts from a blank record, derived fields zero, for the
  /// controller to recount from its queues.
  template <class Ar>
  void io(Ar& ar) {
    if constexpr (Ar::kIsReader) {
      const std::size_t num_banks = banks.size();
      *this = RankState{};
      banks.resize(num_banks);
    }
    ar(phase, locked_at, last_arrival, remaining, started, window_opened,
       next_bank, darp_round_mask);
    for (BankRecord& b : banks) ar(b.next_sub);
  }
};

class Controller {
 public:
  Controller(ChannelId id, const dram::DramTimings& timings,
             const dram::DramOrganization& org, ControllerConfig cfg,
             StatRegistry* stats);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  void set_listener(ControllerListener* listener) { listener_ = listener; }

  /// Attach/detach an invariant auditor (nullptr disables; see
  /// check::SimChecker). Near-zero cost when null.
  void set_auditor(ControllerAuditor* auditor);
  [[nodiscard]] ControllerAuditor* auditor() const { return auditor_; }

  /// Attach a telemetry trace sink (nullptr detaches). The controller
  /// records refresh windows, request latency spans and ROP drop events;
  /// the channel (handed the sink here too) records command issues. A null
  /// sink costs one pointer compare per would-be event.
  void set_trace(telemetry::TraceSink* trace) {
    trace_ = trace;
    channel_.set_trace(trace, id_);
  }
  [[nodiscard]] telemetry::TraceSink* trace() const { return trace_; }

  [[nodiscard]] bool can_accept(ReqType type) const;

  /// Enqueue a demand request. Returns false when the target queue is full
  /// (the caller must retry). On acceptance the request id is recorded and
  /// reads complete through drain_completed(); writes are posted.
  bool enqueue(Request req, Cycle now);

  /// Enqueue a prefetch read (ROP engine only). Prefetches are dropped
  /// silently if the prefetch queue is full.
  bool enqueue_prefetch(Request req, Cycle now);

  /// Advance one controller clock: complete data bursts, manage refresh,
  /// issue at most one command.
  void tick(Cycle now);

  /// The drain: for each demand read completed since the last drain, in
  /// completion order, release its arena slot, report it to the auditor,
  /// then invoke `fn(const Request&)`. Writes are posted and never appear.
  template <typename Fn>
  void drain_completed_into(Fn&& fn) {
    if (completed_.empty()) return;
    for (const RequestIndex idx : completed_) {
      const Request req = arena_[idx];
      arena_.release(idx);
      if (auditor_ != nullptr) auditor_->on_retired(req);
      fn(req);
    }
    completed_.clear();
  }

  /// drain_completed_into, collected into a vector the caller owns.
  std::vector<Request> drain_completed();

  /// Remove queued demand reads to `rank` that `probe` can service (SRAM
  /// buffer hits at refresh start); each serviced request completes at the
  /// cycle `probe` returns.
  void complete_matching_reads(
      RankId rank,
      const std::function<std::optional<Cycle>(const Request&)>& probe);

  [[nodiscard]] const dram::Channel& channel() const { return channel_; }
  [[nodiscard]] dram::Channel& channel() { return channel_; }
  [[nodiscard]] const RefreshManager& refresh_manager() const { return rm_; }
  [[nodiscard]] RefreshBlockingStats& blocking_stats() { return blocking_; }
  [[nodiscard]] const RefreshBlockingStats& blocking_stats() const {
    return blocking_;
  }
  [[nodiscard]] ChannelId id() const { return id_; }
  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }

  [[nodiscard]] bool rank_refreshing(RankId rank) const {
    return channel_.rank(rank).refreshing();
  }
  /// True from the refresh-due lock until REF issues.
  [[nodiscard]] bool rank_locked(RankId rank) const {
    return ranks_[rank].phase != RefreshPhase::kIdle;
  }
  /// True while demand requests to the rank cannot be serviced from DRAM
  /// (locked for refresh or refresh in flight) — the window during which
  /// the SRAM buffer stands in.
  [[nodiscard]] bool rank_unavailable(RankId rank) const {
    return rank_refreshing(rank) || rank_locked(rank);
  }
  [[nodiscard]] std::size_t pending_demand(RankId rank) const {
    return ranks_[rank].reads.size() + ranks_[rank].writes;
  }
  [[nodiscard]] std::size_t pending_prefetches(RankId rank) const {
    return ranks_[rank].queued_prefetches + ranks_[rank].inflight_prefetches;
  }
  [[nodiscard]] std::size_t read_queue_depth() const { return read_q_.size(); }
  [[nodiscard]] std::size_t write_queue_depth() const {
    return write_q_.size();
  }
  /// One rank's record, for the invariant checker and state dumps.
  [[nodiscard]] const RankState& rank_state(RankId rank) const {
    return ranks_.at(rank);
  }
  /// Ranks sealing for their REF: bit r is set while ranks_[r].phase is
  /// kSealing. Kept at the phase changes.
  [[nodiscard]] std::uint32_t sealing_ranks() const { return sealing_; }

  /// Ranks whose requests the scheduler must skip at `now`, per queue: a
  /// refreshing rank or a pausing hold (pausing_holds) blocks every queue;
  /// demand is also held while the rank seals for its REF command. Built
  /// from the channel's refreshing mask and sealing_ranks().
  [[nodiscard]] BlockedRanks blocked_ranks(Cycle now) const;

  /// True when no demand work is queued, in flight, or awaiting drain.
  [[nodiscard]] bool idle() const {
    return read_q_.empty() && write_q_.empty() && in_flight_.empty() &&
           completed_.empty();
  }

  // -- Read-only inspection surface for the invariant checker ------------
  // (src/check/sim_checker.cpp). Exposes the raw structures the fast paths
  // maintain incrementally so an auditor can recompute them from scratch.
  // Queues are arena-backed; the views iterate like the Request containers
  // they replaced.
  [[nodiscard]] RequestView read_queue() const {
    return RequestView(&arena_, &read_q_);
  }
  [[nodiscard]] RequestView write_queue() const {
    return RequestView(&arena_, &write_q_);
  }
  [[nodiscard]] RequestView prefetch_queue() const {
    return RequestView(&arena_, &prefetch_q_);
  }
  [[nodiscard]] RequestView in_flight() const {
    return RequestView(&arena_, &in_flight_);
  }
  [[nodiscard]] const std::unordered_set<Address>& write_index() const {
    return write_index_;
  }
  /// Settle cycle accounting (energy) at end of run.
  void finalize(Cycle now);

  /// Earliest controller cycle > `now` at which this controller can do
  /// anything observable (complete a burst, issue a command, start or end a
  /// refresh, hit a refresh boundary), assuming no new request is enqueued
  /// in between (an enqueue invalidates the answer; cpu::System tracks that
  /// with a dirty flag). Must be called right after tick(now). May return a
  /// cycle where nothing happens (conservative-early is harmless: the tick
  /// executes as a no-op and recomputes), but never a cycle later than the
  /// true next action — the event-driven loop in cpu::System relies on
  /// every tick in (now, next_event_cycle) being a provable no-op.
  /// kNeverCycle when nothing is queued, in flight, or scheduled (e.g. the
  /// refresh-disabled idle controller).
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const;

  /// True when completed demand reads await drain.
  [[nodiscard]] bool has_completed() const { return !completed_.empty(); }

  /// Delivery bound for the event loop: the earliest tick cycle >= `pos`
  /// + 1 at which completed_ could gain an entry, given that no further
  /// request is enqueued (an enqueue invalidates the answer; the channel
  /// clocks track that per channel). Unlike next_event_cycle this ignores
  /// channel-internal activity (command issues, refresh phases) — those
  /// advance on the channel's own clock without the CPU having to observe
  /// them. Conservative-early is harmless (the clocks re-advance and
  /// recompute); late would mis-deliver a completion and is never
  /// returned. kNeverCycle when no queued or in-flight read exists.
  ///
  /// Soundness: completed_ gains entries during tick(T) only via
  ///  (1) an in-flight demand read whose data burst lands at T
  ///      (complete_bursts) — bounded by inflight_min_completion_;
  ///  (2) a prefetch fill at T whose listener services queued reads
  ///      reentrantly (on_prefetch_filled -> complete_matching_reads) —
  ///      also bounded by inflight_min_completion_;
  ///  (3) a queued read issued to DRAM after `pos` — its data needs at
  ///      least CL + tBL cycles after the earliest possible issue pos + 1;
  ///  (4) a refresh issue at T whose listener probes the SRAM buffer
  ///      (on_refresh_issued -> complete_matching_reads) — only possible
  ///      once the rank's refresh machinery is engaged or a refresh is
  ///      owed, so bounded by the next tREFI boundary when idle.
  [[nodiscard]] Cycle completion_lower_bound(Cycle pos) const;

  /// Snapshot serialization (see common/snapshot_io.h): the channel, the
  /// refresh bookkeeping, the arena-backed queues and each rank's primary
  /// state. Whatever the queues determine (each rank's read list and
  /// counts, the drain count, write_index_, the in-flight minimum, the
  /// scheduler's lists) is rebuilt on load instead: unordered containers
  /// have no canonical byte order, and a count that travels could disagree
  /// with its queue. Stat
  /// handles, the listener/auditor and the trace sink are runtime wiring
  /// and do not ride.
  template <class Ar>
  void io(Ar& ar) {
    ar.enter("snapshot channel", id_);
    ar(channel_);
    ar.leave();
    ar(rm_, blocking_, arena_, read_q_, write_q_, prefetch_q_, in_flight_,
       completed_, draining_writes_);
    for (RankState& rs : ranks_) rs.io(ar);
    if constexpr (Ar::kIsReader) {
      refresh_quiet_until_ = 0;
      // The rebuild indexes the arena and the rank records with values
      // read from the bytes: check them first (a failed load leaves the
      // controller unusable, as every failed load does).
      if (!ar.ok()) return;
      if (std::string bad = loaded_state_error(); !bad.empty()) {
        ar.fail(std::move(bad));
        return;
      }
      rebuild_derived();
    }
  }

 private:
  /// tick() body; split out so the auditor hook runs after every exit path.
  void step(Cycle now);
  /// Runs every rank's due refresh steps; true when one put a command (PRE,
  /// REF, REFpb or a pausing segment) on the bus.
  bool manage_refresh(Cycle now);
  /// The queues the scheduler draws from, in priority order.
  [[nodiscard]] std::span<const QueueView> scheduler_views(
      bool drain, std::array<QueueView, 3>& storage) const;
  /// The scheduler with its candidate table synced to `drain`'s view order
  /// and `blocked` (Scheduler::sync).
  const Scheduler& synced_scheduler(bool drain,
                                    const BlockedRanks& blocked) const;
  /// Scheduler-table audit (auditor opted in): rescan from scratch and
  /// report a cached pick or horizon that differs from the fresh one.
  void audit_pick(Cycle now, bool drain, const BlockedRanks& blocked,
                  const std::optional<SchedulerPick>& cached) const;
  void audit_horizon(Cycle now, bool drain, const BlockedRanks& blocked,
                     Cycle cached) const;
  /// Quiet-window audit (same opt-in): the minimum over the ranks' next
  /// refresh step cycles must equal refresh_quiet_until_.
  void audit_quiet_window(Cycle now) const;
  void issue_pick(const SchedulerPick& pick, Cycle now);
  void complete_bursts(Cycle now);
  /// Flush queued prefetches for a rank (urgent refresh override).
  void drop_prefetches(RankId rank);
  /// Latency bookkeeping + a kReadSpan trace event for a serviced demand
  /// read; `req` must have arrival and completion set.
  void record_read_latency(const Request& req);

  /// One rank's next refresh step: what its scheme does next and the
  /// earliest cycle it can. step() runs every step whose cycle has come
  /// (phase changes at once, at most one command per tick across ranks);
  /// next_event_cycle() wakes at the cycle. For a step that cannot happen
  /// yet, `at` may be earlier than the step itself: it is the first cycle
  /// at which the decision can change without a command landing (a tREFI
  /// boundary flipping urgency, a drain bound, a lock release), so the
  /// event loop re-decides there.
  struct RefreshStep {
    enum class Action : std::uint8_t {
      kWait,            // nothing before `at`
      kLock,            // refresh due: lock the rank (ROP drains first)
      kSeal,            // ROP drain done: seal; the engine stages prefetches
      kDropPrefetches,  // urgent while sealing: flush staged prefetches
      kOpen,            // pausing: take on an owed refresh as tRFC of work
      kPause,           // pausing: demand arrived between segments
      // Commands from here on: one per tick on the command bus.
      kPrecharge,    // close `bank` so the refresh command becomes legal
      kRefresh,      // REF: freeze the rank for tRFC
      kSegment,      // pausing: the next refresh segment
      kRefreshBank,  // REFpb on `bank` (subarray `sub` under SARP/HiRA)
    };
    Action action = Action::kWait;
    BankId bank = 0;
    std::uint32_t sub = 0;
    Cycle at = kNeverCycle;

    static RefreshStep wait_until(Cycle cycle) {
      return {Action::kWait, 0, 0, cycle};
    }
    static RefreshStep of(Action what, Cycle cycle) {
      return {what, 0, 0, cycle};
    }
  };
  using Action = RefreshStep::Action;

  /// The scheme's decision function for rank `r` (not refreshing) at `now`.
  [[nodiscard]] RefreshStep next_refresh_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep baseline_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep elastic_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep rop_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep pausing_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep per_bank_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep darp_step(RankId r, Cycle now) const;
  [[nodiscard]] RefreshStep subarray_step(RankId r, Cycle now) const;
  /// A sealed rank's REF (baseline, elastic, ROP): an urgent refresh first
  /// flushes the rank's staged prefetches.
  [[nodiscard]] RefreshStep seal_step(RankId r, Cycle now) const;
  /// REF or a pausing segment (`action`): close open banks one PRE at a
  /// time, then refresh once every bank has recovered.
  [[nodiscard]] RefreshStep rank_refresh_step(RankId r, Cycle now,
                                              Action action) const;
  /// Whole-bank REFpb on (r, b), closing the bank first if a row is open.
  [[nodiscard]] RefreshStep whole_bank_step(RankId r, BankId b) const;
  /// kPrecharge or kRefreshBank on (r, b), at its earliest legal cycle.
  [[nodiscard]] RefreshStep bank_step(Action action, RankId r, BankId b,
                                      std::uint32_t sub = 0) const;
  /// The DRAM command a kPrecharge / kRefreshBank step issues.
  [[nodiscard]] dram::Command bank_command(const RefreshStep& s,
                                           RankId r) const;
  /// Carry out a step that is due at `now`.
  void run_refresh_step(RankId r, const RefreshStep& s, Cycle now);
  /// REF, pausing segment and REFpb issue with their blocking charges.
  void issue_rank_refresh(RankId r, Cycle now);
  void issue_refresh_segment(RankId r, Cycle now);
  void issue_bank_refresh(RankId r, const RefreshStep& s, Cycle now);
  /// Refresh Pausing holds every queue to a rank whose refresh is urgent.
  [[nodiscard]] bool pausing_holds(RankId r, Cycle now) const;

  /// DARP: pick the bank to refresh next on rank `r`, honouring the round
  /// mask and the idle-bank / write-drain heuristics. Returns num_banks
  /// when every eligible bank should be postponed (none when urgent).
  [[nodiscard]] BankId darp_pick_bank(RankId r, bool urgent) const;
  /// DARP idle test for (r, b): no pending demand, or no pending reads
  /// while the controller drains writes.
  [[nodiscard]] bool darp_bank_idle(RankId r, BankId b) const;

  /// Charge `span` cycles of refresh blocking under `cause` to the queued
  /// read `req`: to mem.refresh_blocked_cycles and to the read's
  /// accumulator, which folds into attr.blocked_<cause>_cycles when the
  /// read completes. Every blocking charge goes through here.
  void block(Request& req, telemetry::RefreshCause cause, Cycle span) {
    h_.refresh_blocked_cycles->inc(span);
    req.blocked[static_cast<std::size_t>(cause)] +=
        static_cast<std::uint32_t>(span);
  }

  /// End of the refresh-quiet window starting at `now`: the earliest next
  /// tREFI boundary over the ranks when no rank owes a refresh or has a
  /// pausing refresh in progress, else 0 (not quiet); kNeverCycle for a
  /// scheme that never refreshes.
  [[nodiscard]] Cycle refresh_quiet_end(Cycle now) const;

  /// A request joins the read or write queue: add it to its rank's list
  /// and counts (enqueue, and the recount on load).
  void count_read(RequestIndex idx);
  void count_write(const Request& req);
  /// A queued read left the read queue and its rank's list: drop it from
  /// the rank's counts. The one removal path of issue_pick and
  /// complete_matching_reads.
  void on_read_leaves_queue(RankState& rs, const Request& req);
  /// Recount every derived field from the queues, the scheduler's lists
  /// included (snapshot load).
  void rebuild_derived();
  /// Why the just-loaded queues or refresh cursors cannot be trusted, or
  /// empty: a queued index past the arena, on its free list or queued
  /// twice; a request to a rank or bank outside the organisation; a bank
  /// or subarray cursor out of range.
  [[nodiscard]] std::string loaded_state_error() const;

  /// Hot-path statistics, resolved to stable pointers once at construction.
  /// Event code must go through these — a string-keyed registry lookup per
  /// event costs more than the event itself (see docs/PERFORMANCE.md).
  struct StatHandles {
    Counter* reads = nullptr;
    Counter* writes = nullptr;
    Counter* sram_serviced = nullptr;
    Counter* read_forwarded = nullptr;
    Counter* write_coalesced = nullptr;
    Counter* writes_issued = nullptr;
    Counter* refreshes = nullptr;
    Counter* bank_refreshes = nullptr;
    Counter* refresh_pauses = nullptr;
    /// Integral of refresh-induced demand blocking, in request-cycles:
    /// every queued demand read is charged the span during which its
    /// rank / bank / subarray is locked by an in-flight refresh. The
    /// scheme-comparison bench uses this as the cross-policy
    /// "refresh-blocking" metric (event-driven, so it is exact under
    /// skipped frozen cycles, unlike a per-tick census).
    Counter* refresh_blocked_cycles = nullptr;
    Counter* prefetch_enqueued = nullptr;
    Counter* prefetch_issued = nullptr;
    Counter* prefetch_dropped = nullptr;
    Counter* prefetch_dropped_queue_full = nullptr;
    Counter* prefetch_dropped_stale = nullptr;
    Counter* prefetch_completed = nullptr;
    Scalar* read_latency = nullptr;
    Histogram* read_latency_hist = nullptr;
    /// Attribution ledger (telemetry/attribution.h): per-cause
    /// refresh-blocked request-cycles folded at read retirement from the
    /// per-request accumulators (their sum across causes reproduces
    /// mem.refresh_blocked_cycles for demand reads), matching per-cause
    /// latency histograms, queue/activation wait spans, and the residual
    /// refresh-window cycles SRAM service recovered (the paper's revived
    /// frozen cycles). The per-cause arrays are indexed by RefreshCause.
    std::array<Counter*, telemetry::kRefreshCauseCount> attr_blocked{};
    std::array<Histogram*, telemetry::kRefreshCauseCount> attr_blocked_hist{};
    Counter* attr_rop_recovered = nullptr;
    Histogram* attr_queue_wait_hist = nullptr;
    Histogram* attr_act_wait_hist = nullptr;
  };

  ChannelId id_;
  ControllerConfig cfg_;
  dram::Channel channel_;
  RefreshManager rm_;
  /// FR-FCFS candidate table over per-bank lists of the three queues:
  /// every push to or erase from a queue below goes to it too, and the
  /// snapshot load resets it (rebuild_derived). next_event_cycle() may
  /// rebuild the table, hence mutable. Always read through
  /// synced_scheduler().
  mutable Scheduler scheduler_;
  /// Refresh-quiet window: while now < refresh_quiet_until_, no rank owes
  /// a refresh, so step() skips refresh management and next_event_cycle()
  /// takes this one cycle for every rank's next refresh step. Recomputed each
  /// time refresh management runs; derived, so not serialized (the reader
  /// resets it). 0 = not quiet.
  Cycle refresh_quiet_until_ = 0;
  /// Bit r: ranks_[r].phase == kSealing. Derived: set and cleared at the
  /// phase changes (run_refresh_step, issue_rank_refresh), recounted on
  /// load.
  std::uint32_t sealing_ = 0;
  RefreshBlockingStats blocking_;
  StatRegistry* stats_;
  StatHandles h_;
  ControllerListener* listener_ = nullptr;
  ControllerAuditor* auditor_ = nullptr;
  /// Fresh-scan reference for the scheduler-table audit; null unless the
  /// attached auditor opted in.
  std::unique_ptr<Scheduler> audit_scheduler_;

  /// Pooled request storage; every queue below holds indices into it.
  RequestArena arena_;
  std::vector<RequestIndex> read_q_;
  std::vector<RequestIndex> write_q_;
  std::vector<RequestIndex> prefetch_q_;
  std::vector<RequestIndex> in_flight_;  // reads/prefetches waiting on data
  std::vector<RequestIndex> completed_;

  /// Min completion cycle over in_flight_, maintained incrementally
  /// (tightened on push, rebuilt during the complete_bursts sweep) so
  /// next_event_cycle avoids a per-call linear scan.
  Cycle inflight_min_completion_ = kNeverCycle;

  /// Lines currently present in write_q_. Coalescing keeps at most one
  /// queued write per line, so a set gives O(1) read-after-write forwarding,
  /// coalescing, and stale-prefetch checks without index fix-ups when
  /// issue_pick erases from the middle of the queue.
  std::unordered_set<Address> write_index_;

  bool draining_writes_ = false;

  /// One record per rank (see RankState).
  std::vector<RankState> ranks_;

  /// Event recorder for the telemetry timelines; null in the common case
  /// (every hook is a pointer compare). Kept at the cold end of the class
  /// so attaching telemetry support does not shift the hot queue members.
  telemetry::TraceSink* trace_ = nullptr;
};

}  // namespace rop::mem
