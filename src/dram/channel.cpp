#include "dram/channel.h"

#include <algorithm>

#include "telemetry/trace_sink.h"

namespace rop::dram {

namespace {

telemetry::EventKind cmd_event_kind(CmdType type) {
  switch (type) {
    case CmdType::kActivate: return telemetry::EventKind::kCmdActivate;
    case CmdType::kPrecharge: return telemetry::EventKind::kCmdPrecharge;
    case CmdType::kRead: return telemetry::EventKind::kCmdRead;
    case CmdType::kWrite: return telemetry::EventKind::kCmdWrite;
    case CmdType::kRefresh: return telemetry::EventKind::kCmdRefresh;
    case CmdType::kRefreshBank: return telemetry::EventKind::kCmdRefreshBank;
  }
  return telemetry::EventKind::kCmdActivate;
}

}  // namespace

Channel::Channel(const DramTimings& timings, const DramOrganization& org)
    : t_(timings) {
  ROP_ASSERT(validate(timings));
  // refreshing_ holds one bit per rank.
  ROP_ASSERT(org.ranks <= 32);
  ranks_.reserve(org.ranks);
  for (std::uint32_t r = 0; r < org.ranks; ++r) {
    ranks_.emplace_back(t_, org.banks, org.subarrays, org.rows);
  }
}

bool Channel::can_issue(const Command& cmd, Cycle now) const {
  // Data-bus occupancy first: it is the cheapest check and, on a saturated
  // bus, the one that vetoes almost every candidate the scheduler probes.
  if (cmd.is_column()) {
    const Cycle data_start =
        cmd.type == CmdType::kRead ? now + t_.CL : now + t_.CWL;
    if (data_start < data_bus_free(cmd.type, cmd.coord.rank)) return false;
  }
  return ranks_.at(cmd.coord.rank).can_issue(cmd, now);
}

Cycle Channel::issue(const Command& cmd, Cycle now) {
  ROP_ASSERT(can_issue(cmd, now));
  Rank& rank = ranks_.at(cmd.coord.rank);
  rank.issue(cmd, now);
  Cycle done = now;
  switch (cmd.type) {
    case CmdType::kActivate:
      ++events_.activates;
      break;
    case CmdType::kPrecharge:
      ++events_.precharges;
      break;
    case CmdType::kRead:
      ++events_.reads;
      done = t_.read_data_done(now);
      bus_busy_until_ = done;
      last_bus_op_ = CmdType::kRead;
      last_bus_rank_ = cmd.coord.rank;
      bus_used_ = true;
      break;
    case CmdType::kWrite:
      ++events_.writes;
      done = t_.write_data_done(now);
      bus_busy_until_ = done;
      last_bus_op_ = CmdType::kWrite;
      last_bus_rank_ = cmd.coord.rank;
      bus_used_ = true;
      break;
    case CmdType::kRefresh:
      ++events_.refreshes;
      done = now + t_.tRFC;
      recount();
      break;
    case CmdType::kRefreshBank:
      ++events_.bank_refreshes;
      done = now + t_.tRFCpb;
      recount();
      break;
  }
  if (trace_ != nullptr && trace_->wants(telemetry::kCatCmds)) {
    telemetry::TraceEvent e;
    e.ts = now;
    e.dur = done - now;
    e.kind = cmd_event_kind(cmd.type);
    e.category = telemetry::kCatCmds;
    e.channel = static_cast<std::uint16_t>(trace_channel_);
    e.rank = static_cast<std::uint16_t>(cmd.coord.rank);
    e.bank = static_cast<std::uint16_t>(cmd.coord.bank);
    trace_->record(e);
  }
  return done;
}

void Channel::begin_refresh_segment(RankId rank, Cycle now, Cycle duration) {
  ++events_.refresh_segments;
  ranks_.at(rank).begin_refresh_segment(now, duration);
  recount();
  if (trace_ != nullptr && trace_->wants(telemetry::kCatRefresh)) {
    telemetry::TraceEvent e;
    e.ts = now;
    e.dur = duration;
    e.kind = telemetry::EventKind::kPauseSegment;
    e.category = telemetry::kCatRefresh;
    e.channel = static_cast<std::uint16_t>(trace_channel_);
    e.rank = static_cast<std::uint16_t>(rank);
    trace_->record(e);
  }
}

void Channel::release(Cycle now) {
  for (Rank& r : ranks_) r.tick(now);
  recount();
}

void Channel::recount() {
  refreshing_ = 0;
  release_ = kNeverCycle;
  for (RankId r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].refreshing()) refreshing_ |= 1u << r;
    release_ = std::min(release_, ranks_[r].next_release());
  }
}

void Channel::settle_accounting(Cycle now) {
  for (Rank& r : ranks_) r.settle_accounting(now);
}

}  // namespace rop::dram
