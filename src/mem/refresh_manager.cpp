#include "mem/refresh_manager.h"

#include <numeric>

namespace rop::mem {

RefreshManager::RefreshManager(const dram::DramTimings& timings,
                               std::uint32_t num_ranks,
                               std::uint32_t units_per_trefi,
                               StatRegistry* stats)
    : t_(timings),
      issued_(num_ranks, 0),
      interval_(units_per_trefi > 0 ? timings.tREFI / units_per_trefi : 0),
      offsets_(num_ranks) {
  ROP_ASSERT(num_ranks > 0);
  ROP_ASSERT(units_per_trefi > 0 && units_per_trefi <= t_.tREFI);
  for (RankId r = 0; r < num_ranks; ++r) {
    offsets_[r] = static_cast<Cycle>(r) * interval_ / num_ranks;
  }
  if (stats != nullptr) {
    units_issued_ = stats->counter_handle("mem.refresh_units_issued");
  }
}

std::uint32_t RefreshManager::owed(RankId rank, Cycle now) const {
  // Rank r's k-th boundary sits at offset + k * interval (k >= 1, never at
  // the phase offset itself), so nothing is owed before the boundary after
  // the last issued refresh — a multiply, no division, on the common path.
  const Cycle offset = offsets_[rank];
  const std::uint64_t done = issued_[rank];
  if (now < offset + (done + 1) * interval_) return 0;
  return static_cast<std::uint32_t>((now - offset) / interval_ - done);
}

Cycle RefreshManager::next_boundary(RankId rank, Cycle now) const {
  // The next boundary not yet covered by an issued refresh; when overdue
  // the boundary is in the past and a refresh is owed now.
  (void)now;
  return offsets_[rank] + (issued_[rank] + 1) * interval_;
}

void RefreshManager::on_refresh_issued(RankId rank) {
  ++issued_.at(rank);
  if (units_issued_ != nullptr) units_issued_->inc();
}

std::uint64_t RefreshManager::total_issued() const {
  return std::accumulate(issued_.begin(), issued_.end(), std::uint64_t{0});
}

}  // namespace rop::mem
