#include "workload/synthetic.h"

namespace rop::workload {

namespace {

/// Draw one idle-period or busy-phase length: the reference gap for the
/// cached denominator when the mean supports it (mean > 1), the plain path
/// otherwise. `denom` must be Rng::gap_denom(mean) when mean > 1; its value
/// is ignored otherwise.
std::uint64_t draw_gap(Rng& rng, double mean, double denom) {
  return mean > 1.0 ? Rng::gap_from_bits(rng.next_u64() >> 11, denom)
                    : rng.next_gap(mean);
}

}  // namespace

SyntheticTrace::SyntheticTrace(const SyntheticConfig& cfg)
    : cfg_(cfg),
      write_(cfg.write_fraction),
      random_(cfg.random_fraction) {
  ROP_ASSERT(!cfg_.streams.empty());
  ROP_ASSERT(cfg_.footprint_lines > 0);
  ROP_ASSERT(cfg_.mean_gap >= 0.0);
  idle_denom_ = cfg_.idle_instructions > 1.0
                    ? Rng::gap_denom(cfg_.idle_instructions)
                    : 0.0;
  burst_denom_ = cfg_.burst_ops > 1.0 ? Rng::gap_denom(cfg_.burst_ops) : 0.0;
  const auto fp = static_cast<std::int64_t>(cfg_.footprint_lines);
  steps_.resize(cfg_.streams.size());
  for (std::size_t s = 0; s < cfg_.streams.size(); ++s) {
    for (const std::int64_t d : cfg_.streams[s].deltas) {
      steps_[s].push_back(static_cast<std::uint64_t>(((d % fp) + fp) % fp));
    }
  }
  reset();
}

void SyntheticTrace::reset() {
  st_.rng.reseed(cfg_.seed);
  st_.positions.assign(cfg_.streams.size(), 0);
  st_.delta_idx.assign(cfg_.streams.size(), 0);
  st_.credits.assign(cfg_.streams.size(), 0.0);
  total_weight_ = 0.0;
  for (std::size_t s = 0; s < cfg_.streams.size(); ++s) {
    ROP_ASSERT(!cfg_.streams[s].deltas.empty());
    ROP_ASSERT(cfg_.streams[s].weight > 0.0);
    total_weight_ += cfg_.streams[s].weight;
    // Spread stream start positions over the footprint deterministically.
    // The odd per-stream stagger keeps equal-stride streams from walking
    // the same DRAM bank in lockstep forever (real arrays are not
    // bank-aligned relative to each other).
    st_.positions[s] =
        ((cfg_.footprint_lines / cfg_.streams.size()) * s + 131 * s) %
        cfg_.footprint_lines;
  }
  st_.ops_until_idle = cfg_.burst_ops > 0
                            ? draw_gap(st_.rng, cfg_.burst_ops, burst_denom_)
                            : 0;
  st_.ring.clear();
  st_.ring_pos = 0;
}

TraceRecord SyntheticTrace::next() {
  if (cfg_.batch_records <= 1) {
    if (!gap_) gap_.emplace(cfg_.mean_gap);
    return generate(st_.rng);
  }
  if (st_.ring_pos == st_.ring.size()) refill();
  return st_.ring[st_.ring_pos++];
}

void SyntheticTrace::prepare() {
  if (!gap_) gap_.emplace(cfg_.mean_gap);
  st_.reserve(cfg_);
}

void SyntheticTrace::refill() {
  // Hoist the RNG into a local for the whole batch: the per-record draws
  // then keep the 256-bit xoshiro state in registers instead of
  // round-tripping it through the member on every call, and write it back
  // once. The record stream is identical to the unbatched path — the local
  // starts from and ends in the exact member state.
  if (!gap_) gap_.emplace(cfg_.mean_gap);
  Rng rng = st_.rng;
  st_.ring.resize(cfg_.batch_records);
  for (std::uint32_t i = 0; i < cfg_.batch_records; ++i) {
    st_.ring[i] = generate(rng);
  }
  st_.rng = rng;
  st_.ring_pos = 0;
}

TraceRecord SyntheticTrace::generate(Rng& rng) {
  TraceRecord rec;
  // A mean_gap <= 1 (0 included) draws nothing and yields gap 0.
  std::uint64_t gap = gap_->draw(rng) - 1;

  // Burst phase accounting: when the busy phase ends, splice in a long
  // idle compute period before the next access.
  if (cfg_.burst_ops > 0 && cfg_.idle_instructions > 0) {
    if (st_.ops_until_idle == 0) {
      gap += draw_gap(rng, cfg_.idle_instructions, idle_denom_);
      st_.ops_until_idle = draw_gap(rng, cfg_.burst_ops, burst_denom_);
    } else {
      --st_.ops_until_idle;
    }
  }

  rec.gap = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(gap, 0x7FFFFFFFull));
  rec.is_write = write_.draw(rng);

  std::uint64_t line;
  if (random_.draw(rng)) {
    line = rng.next_below(cfg_.footprint_lines);
  } else {
    // Streams interleave deterministically in proportion to their weights
    // (weighted round-robin), the way a loop body walks its arrays in a
    // fixed order each iteration. A random pick per access would destroy
    // the periodic multi-delta signature real code exposes.
    std::size_t s = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
      st_.credits[i] += cfg_.streams[i].weight;
      if (st_.credits[i] > best) {
        best = st_.credits[i];
        s = i;
      }
    }
    st_.credits[s] -= total_weight_;
    // Each step is its delta reduced into [0, footprint), so the cursor
    // leaves the footprint by at most one lap and one subtraction wraps it.
    const std::vector<std::uint64_t>& steps = steps_[s];
    std::size_t& idx = st_.delta_idx[s];
    std::uint64_t pos = st_.positions[s] + steps[idx];
    if (++idx == steps.size()) idx = 0;
    if (pos >= cfg_.footprint_lines) pos -= cfg_.footprint_lines;
    st_.positions[s] = pos;
    line = pos;
  }
  rec.addr = line << kLineShift;
  return rec;
}

}  // namespace rop::workload
