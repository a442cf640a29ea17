// ROP Prefetcher (paper §IV-C/D): owns the per-rank prediction tables and
// turns their predictions into prefetch requests addressed at real DRAM
// coordinates.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/address_map.h"
#include "mem/request.h"
#include "rop/prediction_table.h"

namespace rop::engine {

class Prefetcher {
 public:
  /// `uniform_budget` replaces the Eq. 3 proportional split with an even
  /// one (ablation knob). When a registry is supplied the candidate count
  /// is published as "rop.prefetch_generated" (handle resolved here, once).
  Prefetcher(const mem::AddressMap& map, ChannelId channel,
             std::uint32_t num_ranks, bool uniform_budget = false,
             StatRegistry* stats = nullptr);

  /// Observe a demand access (updates the target rank's prediction table).
  void on_access(const DramCoord& coord, Cycle now);

  /// Build up to `capacity` prefetch requests for `rank` from the current
  /// prediction table contents (see PredictionTable::predict).
  [[nodiscard]] std::vector<mem::Request> make_prefetches(
      RankId rank, std::uint32_t capacity, Cycle now = 0,
      Cycle recency_horizon = 0) const;

  [[nodiscard]] const PredictionTable& table(RankId rank) const {
    return tables_.at(rank);
  }
  [[nodiscard]] PredictionTable& table(RankId rank) { return tables_.at(rank); }

  void clear() {
    for (auto& t : tables_) t.clear();
  }

  /// Snapshot serialization: only the prediction tables are mutable, and
  /// they serialize in place (not default-constructible; the per-rank
  /// count is fixed by config).
  template <class Ar>
  void io(Ar& ar) {
    for (PredictionTable& t : tables_) ar.field(t);
  }

 private:
  const mem::AddressMap& map_;
  ChannelId channel_;
  bool uniform_budget_;
  Counter* generated_ = nullptr;  // optional, resolved at construction
  std::vector<PredictionTable> tables_;
};

}  // namespace rop::engine
