// Parameterised synthetic workload generator.
//
// Substitutes the paper's SPEC CPU2006 traces (see DESIGN.md §1). Traces are
// modeled at the post-L2 level: each record is an LLC access plus the
// compute gap before it. The generator controls exactly the axes ROP is
// sensitive to:
//   * intensity        — mean compute gap between LLC accesses,
//   * spatial locality — weighted strided streams with multi-delta
//                        patterns (what the VLDP-style table predicts),
//   * irregularity     — a fraction of uniform-random accesses,
//   * footprint        — reuse distance vs. LLC size (miss filtering),
//   * burstiness       — busy phases separated by long idle gaps (what
//                        makes B=0 windows and high beta),
//   * read/write mix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "workload/geometric_gap.h"
#include "workload/trace.h"

namespace rop::workload {

/// A strided walker. `deltas` is a cyclic line-granular delta sequence —
/// {+1} is a unit stream, {+1,+1,+130} is the kind of multi-delta pattern
/// VLDP exploits.
struct StreamSpec {
  std::vector<std::int64_t> deltas;
  double weight = 1.0;
};

struct SyntheticConfig {
  std::string name = "synthetic";
  double mean_gap = 50.0;          // mean instructions between LLC accesses
  double write_fraction = 0.25;
  std::uint64_t footprint_lines = 1ull << 20;  // 64 MB default
  std::vector<StreamSpec> streams{{{+1}, 1.0}};
  double random_fraction = 0.1;    // uniform-random accesses in footprint
  /// Burstiness: after ~`burst_ops` memory operations, insert an idle gap
  /// of ~`idle_instructions` instructions. 0 idle = steady traffic.
  double burst_ops = 0.0;
  double idle_instructions = 0.0;
  std::uint64_t seed = 7;
  /// Records generated per refill of the internal ring. next() hands out
  /// prefilled records so the generation cost (RNG draws, credit updates,
  /// delta walk) amortizes over the batch. 0 or 1 disables batching. The
  /// record *stream* is identical for any batch size (the generator is
  /// self-contained, so generation order equals consumption order).
  std::uint32_t batch_records = 32;
};

class SyntheticTrace final : public TraceSource {
 public:
  explicit SyntheticTrace(const SyntheticConfig& cfg);

  TraceRecord next() override;
  void reset() override;

  [[nodiscard]] const SyntheticConfig& config() const { return cfg_; }

  /// Snapshot serialization: the RNG, the walker cursors, and the record
  /// ring (with its consumption cursor), so the restored stream hands out
  /// exactly the records the captured generator would have.
  template <class Ar>
  void io(Ar& ar) {
    ar(rng_, positions_, delta_idx_, credits_, ops_until_idle_, ring_,
       ring_pos_);
  }

 private:
  /// Generate the next record (the pre-batching next()). Draws from `rng`
  /// so refill() can hand in a register-resident local copy.
  TraceRecord generate(Rng& rng);
  /// Refill the record ring with the next batch_records records.
  void refill();

  SyntheticConfig cfg_;
  Rng rng_;
  /// The compute gap, drawn every record through a threshold table
  /// (derived from mean_gap, never serialized). Built by the first refill()
  /// or unbatched next(), not the constructor: the table costs about half
  /// of an instance's set-up (docs/PERFORMANCE.md §11).
  std::optional<GeometricGap> gap_;
  /// Precomputed log1p(-1/mean) for the idle-period and busy-phase lengths
  /// (0 when the mean is <= 1 and the denominator path is unused). They
  /// are drawn once per busy phase, so they keep the reference path.
  double idle_denom_ = 0.0;
  double burst_denom_ = 0.0;
  /// write_fraction and random_fraction as integer-threshold trials
  /// (derived from the config, never serialized).
  Bernoulli write_;
  Bernoulli random_;
  /// Per stream: each delta reduced mod footprint_lines into [0, footprint).
  std::vector<std::vector<std::uint64_t>> steps_;
  std::vector<std::uint64_t> positions_;  // per-stream line cursor
  std::vector<std::size_t> delta_idx_;    // per-stream cursor into deltas
  std::vector<double> credits_;  // weighted round-robin selection state
  double total_weight_ = 0.0;
  std::uint64_t ops_until_idle_ = 0;
  std::vector<TraceRecord> ring_;  // prefilled batch; empty when disabled
  std::size_t ring_pos_ = 0;       // next record to hand out
};

}  // namespace rop::workload
