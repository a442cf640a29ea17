#include "rop/rop_engine.h"

#include <algorithm>

namespace rop::engine {

RopEngine::RopEngine(const RopConfig& cfg, mem::Controller& ctrl,
                     const mem::AddressMap& map, StatRegistry* stats)
    : cfg_(cfg),
      ctrl_(ctrl),
      stats_(stats),
      window_(static_cast<Cycle>(cfg.window_multiple) *
              ctrl.channel().timings().tREFI),
      profiler_(window_, ctrl.channel().num_ranks(), cfg.training_refreshes),
      prefetcher_(map, ctrl.id(), ctrl.channel().num_ranks(),
                  cfg.uniform_budget, stats),
      buffer_(cfg.buffer_lines),
      rng_(cfg.seed),
      last_access_(ctrl.channel().num_ranks(), kNeverCycle),
      ema_interarrival_(ctrl.channel().num_ranks(), 1e6),
      ema_freeze_demand_(ctrl.channel().num_ranks(), 0.0),
      reads_this_freeze_(ctrl.channel().num_ranks(), 0) {
  ROP_ASSERT(stats != nullptr);
  ROP_ASSERT(cfg.window_multiple >= 1);
  h_.buffer_hits = stats->counter_handle("rop.buffer_hits");
  h_.buffer_misses = stats->counter_handle("rop.buffer_misses");
  h_.lock_window_served = stats->counter_handle("rop.lock_window_served");
  h_.skipped_saturated = stats->counter_handle("rop.skipped_saturated");
  h_.decisions_skip = stats->counter_handle("rop.decisions_skip");
  h_.decisions_prefetch = stats->counter_handle("rop.decisions_prefetch");
  h_.rounds_empty = stats->counter_handle("rop.rounds_empty");
  h_.retrain_events = stats->counter_handle("rop.retrain_events");
  h_.buffer_fills = stats->counter_handle("rop.buffer_fills");
  h_.lambda = stats->scalar_handle("rop.lambda");
  h_.beta = stats->scalar_handle("rop.beta");
  h_.phase_accuracy = stats->scalar_handle("rop.phase_accuracy");
  h_.phase_hits_per_fill = stats->scalar_handle("rop.phase_hits_per_fill");
  ctrl_.set_listener(this);
}

std::optional<Cycle> RopEngine::on_enqueue(const mem::Request& req,
                                           Cycle now) {
  const RankId rank = req.coord.rank;
  const bool is_read = req.type == mem::ReqType::kRead;

  profiler_.on_request(rank, now, is_read);
  if (last_access_.at(rank) != kNeverCycle && now > last_access_[rank]) {
    const auto dt = static_cast<double>(now - last_access_[rank]);
    ema_interarrival_[rank] = 0.875 * ema_interarrival_[rank] + 0.125 * dt;
  }
  last_access_.at(rank) = now;
  if (last_channel_arrival_ != kNeverCycle && now > last_channel_arrival_) {
    const auto dt = static_cast<double>(now - last_channel_arrival_);
    ema_channel_interarrival_ =
        0.875 * ema_channel_interarrival_ + 0.125 * dt;
  }
  last_channel_arrival_ = now;

  if (!is_read) {
    // Coherence: a newer write supersedes any buffered copy.
    buffer_.invalidate(req.line_addr);
    return std::nullopt;
  }

  if (ctrl_.rank_unavailable(rank)) {
    // Paper §V-B3 hit rate counts reads arriving during the refresh period
    // proper; services inside the pre-refresh lock window are tracked as a
    // separate counter.
    const bool in_refresh = ctrl_.rank_refreshing(rank);
    ++reads_this_freeze_[rank];
    // The retrain decision tracks the whole freeze window (seal+refresh);
    // the reported Fig. 9 hit rate keeps the paper's refresh-only scope.
    ++phase_opportunities_;
    if (in_refresh) ++overall_opportunities_;
    if (state_ != RopState::kTraining && buffer_.owner() == rank &&
        buffer_.lookup(req.line_addr)) {
      ++phase_hits_;
      if (phase_unconsumed_.erase(req.line_addr) > 0) ++phase_consumed_;
      if (in_refresh) {
        ++overall_hits_;
        h_.buffer_hits->inc();
        trace_rop(telemetry::EventKind::kBufferHit, rank, req.line_addr, now);
      } else {
        h_.lock_window_served->inc();
        trace_rop(telemetry::EventKind::kLockServed, rank, req.line_addr,
                  now);
      }
      return now + kSramLatency;
    }
    if (in_refresh) h_.buffer_misses->inc();
  }
  return std::nullopt;
}

void RopEngine::on_demand_serviced(const mem::Request& req, Cycle now) {
  // Learn only from the read stream: demand reads and write-allocate fills
  // follow the program's access order, while writebacks are LLC evictions
  // that lag it and would pollute the delta patterns.
  if (req.type == mem::ReqType::kRead) prefetcher_.on_access(req.coord, now);
}

void RopEngine::on_rank_locked(RankId rank, Cycle now) {
  // Fold the demand observed during the previous freeze window into the
  // per-rank EMA that sizes the next prefetch round.
  ema_freeze_demand_[rank] =
      0.75 * ema_freeze_demand_[rank] +
      0.25 * static_cast<double>(reads_this_freeze_[rank]);
  reads_this_freeze_[rank] = 0;

  if (state_ == RopState::kTraining) return;

  // Saturation guard: when demand already saturates the shared data bus,
  // every staged line delays a demand line by the same amount and the
  // refresh shadow cannot be hidden, only moved. The *channel-wide*
  // arrival rate is what matters — with rank partitioning each rank's own
  // stream may look sparse while four of them fill the bus.
  if (cfg_.saturation_guard_bursts > 0.0 &&
      ema_channel_interarrival_ <
          cfg_.saturation_guard_bursts *
              static_cast<double>(ctrl_.channel().timings().tBL)) {
    h_.skipped_saturated->inc();
    return;
  }

  // B>0 iff a demand request hit this rank inside the observational window
  // ending at the lock (the refresh boundary).
  const bool b_positive = last_access_.at(rank) != kNeverCycle &&
                          last_access_.at(rank) + window_ > now;

  bool prefetch = false;
  switch (cfg_.gating) {
    case GatingMode::kProbabilistic:
      // B>0: prefetch with confidence lambda. B=0: skip with confidence
      // beta, i.e. prefetch with probability 1-beta (paper §IV-C).
      prefetch = b_positive ? rng_.next_bool(profiler_.lambda())
                            : rng_.next_bool(1.0 - profiler_.beta());
      break;
    case GatingMode::kAlwaysPrefetch:
      prefetch = true;
      break;
    case GatingMode::kNeverPrefetch:
      prefetch = false;
      break;
  }

  if (!prefetch) {
    h_.decisions_skip->inc();
    return;
  }
  h_.decisions_prefetch->inc();

  // Size the round to the demand actually seen during refresh windows —
  // blindly staging the whole buffer wastes bus bandwidth on quiet ranks.
  std::uint32_t count = cfg_.buffer_lines;
  if (cfg_.adaptive_count) {
    const double want = 1.5 * ema_freeze_demand_[rank] + 8.0;
    count = std::min(static_cast<std::uint32_t>(want), cfg_.buffer_lines);
  }

  // Active-bank horizon: banks touched within the last ~8 demand
  // inter-arrivals are where the freeze-window demand will land. The
  // configured horizon caps it, even below the 32-cycle floor.
  const Cycle horizon = std::min(
      std::max(static_cast<Cycle>(8.0 * ema_interarrival_[rank]), Cycle{32}),
      cfg_.bank_recency_horizon);

  buffer_.begin_round(rank);
  auto requests = prefetcher_.make_prefetches(
      rank, count, now,
      cfg_.bank_recency_horizon == 0 ? 0 : horizon);
  if (requests.empty()) {
    h_.rounds_empty->inc();
    return;
  }
  for (mem::Request& req : requests) {
    ctrl_.enqueue_prefetch(req, now);
  }
  state_ = RopState::kPrefetching;
}

void RopEngine::on_tick(Cycle now) {
  profiler_.advance(now);
  if (state_ != RopState::kTraining && now > last_tick_) {
    // The buffer is powered only outside Training (leakage accounting).
    sram_on_cycles_ += now - last_tick_;
  }
  last_tick_ = now;
}

void RopEngine::on_finalize(Cycle now) {
  // Settle the delta accounting at the end-of-run cycle. Under the
  // event-driven clock the last executed tick may land well before `now`;
  // both loops call finalize with the same cycle, so the accumulated
  // SRAM-on time and profiler windows end up bit-identical.
  on_tick(now);
}

void RopEngine::on_refresh_issued(RankId rank, Cycle start, Cycle /*done*/) {
  // Age the pattern frequencies so the next Eq. 3 split favours the banks
  // that were hot during this window.
  prefetcher_.table(rank).decay();
  const bool training_complete = profiler_.on_refresh(rank, start);
  if (training_complete) {
    state_ = RopState::kObserving;
    h_.lambda->record(profiler_.lambda());
    h_.beta->record(profiler_.beta());
    // Opportunities seen while the buffer was off must not poison the
    // first hit-rate evaluation of the new predicting phase.
    phase_hits_ = 0;
    phase_opportunities_ = 0;
    phase_fills_ = 0;
    phase_consumed_ = 0;
    phase_unconsumed_.clear();
    refreshes_since_eval_ = 0;
  }

  if (state_ == RopState::kPrefetching) state_ = RopState::kObserving;

  if (state_ != RopState::kTraining && buffer_.owner() == rank &&
      buffer_.size() > 0) {
    // Reads that arrived during the lock window (and missed because their
    // fill had not landed yet) are still queued; serve the ones the buffer
    // now holds instead of letting them stall for tRFC. These are lock-
    // window services, outside the paper's refresh-period hit-rate metric.
    ctrl_.complete_matching_reads(
        rank,
        [this, start, rank](const mem::Request& req) -> std::optional<Cycle> {
          if (buffer_.lookup(req.line_addr)) {
            ++phase_hits_;
            if (phase_unconsumed_.erase(req.line_addr) > 0) {
              ++phase_consumed_;
            }
            h_.lock_window_served->inc();
            trace_rop(telemetry::EventKind::kLockServed, rank, req.line_addr,
                      start);
            return start + kSramLatency;
          }
          return std::nullopt;
        });
  }

  if (state_ != RopState::kTraining &&
      ++refreshes_since_eval_ >= cfg_.eval_period_refreshes) {
    evaluate_phase();
  }
}

void RopEngine::evaluate_phase() {
  refreshes_since_eval_ = 0;
  // Retrain on prefetch *accuracy* (staged lines that were consumed), not
  // raw coverage: when freeze-window demand exceeds the buffer capacity,
  // coverage is capacity-limited even though every prediction was right,
  // and falling back to Training would only forfeit the lines we do serve.
  // Accuracy counts each staged line at most once per fill: a hot line
  // served many times (or retained in the buffer across rounds without a
  // refill) must not mask rounds full of unconsumed fills, so consumed is
  // bounded by fills and accuracy by 1.0; repeat traffic is reported
  // separately as hits-per-fill.
  if (phase_fills_ >= kEvalMinOpportunities) {
    const double accuracy = static_cast<double>(phase_consumed_) /
                            static_cast<double>(phase_fills_);
    ROP_ASSERT(accuracy <= 1.0);
    h_.phase_accuracy->record(accuracy);
    h_.phase_hits_per_fill->record(static_cast<double>(phase_hits_) /
                                   static_cast<double>(phase_fills_));
    if (accuracy < kHitRateThreshold) {
      // Patterns drifted: retrain lambda/beta from scratch (paper §IV-C).
      h_.retrain_events->inc();
      profiler_.restart();
      prefetcher_.clear();
      buffer_.clear();
      state_ = RopState::kTraining;
    }
  }
  phase_hits_ = 0;
  phase_opportunities_ = 0;
  phase_fills_ = 0;
  phase_consumed_ = 0;
  phase_unconsumed_.clear();
}

void RopEngine::on_prefetch_filled(const mem::Request& req, Cycle now) {
  if (buffer_.owner() != req.coord.rank) return;
  buffer_.insert(req.line_addr);
  ++phase_fills_;
  phase_unconsumed_.insert(req.line_addr);
  h_.buffer_fills->inc();
  trace_rop(telemetry::EventKind::kPrefetchFill, req.coord.rank,
            req.line_addr, now);

  // A blocked read for this exact line may already be queued (it arrived
  // during the seal before the fill landed); release it immediately rather
  // than letting it stall until the refresh completes.
  ctrl_.complete_matching_reads(
      req.coord.rank,
      [this, &req, now](const mem::Request& queued) -> std::optional<Cycle> {
        if (queued.line_addr != req.line_addr) return std::nullopt;
        if (!buffer_.lookup(queued.line_addr)) return std::nullopt;
        // Arrival was already counted as a freeze opportunity; the late
        // fill flips it from a stall into a service.
        ++phase_hits_;
        if (phase_unconsumed_.erase(queued.line_addr) > 0) {
          ++phase_consumed_;
        }
        h_.lock_window_served->inc();
        trace_rop(telemetry::EventKind::kLockServed, queued.coord.rank,
                  queued.line_addr, now);
        return now + kSramLatency;
      });
}

void RopEngine::trace_rop(telemetry::EventKind kind, RankId rank,
                          Address line, Cycle now) {
  telemetry::TraceSink* trace = ctrl_.trace();
  if (trace == nullptr || !trace->wants(telemetry::kCatRop)) return;
  telemetry::TraceEvent e;
  e.ts = now;
  e.arg = line;
  e.kind = kind;
  e.category = telemetry::kCatRop;
  e.channel = static_cast<std::uint16_t>(ctrl_.id());
  e.rank = static_cast<std::uint16_t>(rank);
  trace->record(e);
}

}  // namespace rop::engine
