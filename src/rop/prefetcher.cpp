#include "rop/prefetcher.h"

namespace rop::engine {

Prefetcher::Prefetcher(const mem::AddressMap& map, ChannelId channel,
                       std::uint32_t num_ranks, bool uniform_budget,
                       StatRegistry* stats)
    : map_(map), channel_(channel), uniform_budget_(uniform_budget) {
  if (stats != nullptr) {
    generated_ = stats->counter_handle("rop.prefetch_generated");
  }
  const auto& org = map.organization();
  tables_.reserve(num_ranks);
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    tables_.emplace_back(org.banks, org.lines_per_bank());
  }
}

void Prefetcher::on_access(const DramCoord& coord, Cycle now) {
  if (coord.channel != channel_) return;
  tables_.at(coord.rank).on_access(coord.bank, map_.line_offset_in_bank(coord),
                                   now);
}

std::vector<mem::Request> Prefetcher::make_prefetches(
    RankId rank, std::uint32_t capacity, Cycle now,
    Cycle recency_horizon) const {
  std::vector<mem::Request> out;
  const auto predictions = tables_.at(rank).predict(
      capacity, uniform_budget_, now, recency_horizon);
  for (const BankPrediction& bp : predictions) {
    for (const std::uint64_t offset : bp.offsets) {
      mem::Request req;
      req.type = mem::ReqType::kPrefetch;
      req.coord = map_.coord_from_bank_offset(channel_, rank, bp.bank, offset);
      req.line_addr = map_.unmap(req.coord);
      out.push_back(req);
      if (out.size() >= capacity) break;
    }
    if (out.size() >= capacity) break;
  }
  if (generated_ != nullptr) generated_->inc(out.size());
  return out;
}

}  // namespace rop::engine
