#include "rop/prediction_table.h"

#include <algorithm>
#include <numeric>

namespace rop::engine {

namespace {

constexpr std::uint16_t kFreqMax = 0xFFFF;

/// Proper modulo for signed walks over an unsigned ring of `size` lines.
std::uint64_t wrap_offset(std::int64_t value, std::uint64_t size) {
  std::int64_t m = value % static_cast<std::int64_t>(size);
  if (m < 0) m += static_cast<std::int64_t>(size);
  return static_cast<std::uint64_t>(m);
}

}  // namespace

PredictionTable::PredictionTable(std::uint32_t num_banks,
                                 std::uint64_t lines_per_bank)
    : entries_(num_banks), lines_per_bank_(lines_per_bank) {
  ROP_ASSERT(num_banks > 0);
  ROP_ASSERT(lines_per_bank > 0);
}

void PredictionTable::on_access(BankId bank, std::uint64_t offset,
                                Cycle now) {
  TableEntry& e = entries_.at(bank);
  e.last_access = now;
  if (last_bank_ && *last_bank_ != bank) {
    const auto n = static_cast<std::uint32_t>(entries_.size());
    transition_stride_ = (bank + n - *last_bank_) % n;
  }
  last_bank_ = bank;
  if (!e.last_addr) {
    e.last_addr = offset;
    return;
  }
  const Delta d = static_cast<Delta>(offset) -
                  static_cast<Delta>(*e.last_addr);
  e.last_addr = offset;

  const auto bump = [&e](std::uint16_t& f) {
    if (f == kFreqMax) {
      // Overflow: halve all three frequencies (paper §IV-C).
      e.f1 = static_cast<std::uint16_t>(e.f1 >> 1);
      e.f2 = static_cast<std::uint16_t>(e.f2 >> 1);
      e.f3 = static_cast<std::uint16_t>(e.f3 >> 1);
    }
    ++f;
  };

  // Single-delta pattern.
  if (e.delta1_valid && d == e.delta1) {
    bump(e.f1);
  } else {
    e.delta1 = d;
    e.f1 = 0;
    e.delta1_valid = true;
  }

  // Shift the new delta into the recent-history window.
  e.recent[0] = e.recent[1];
  e.recent[1] = e.recent[2];
  e.recent[2] = d;
  // 1..6 rolling counter keeps both the mod-2 and mod-3 boundaries aligned.
  e.deltas_seen = static_cast<std::uint8_t>((e.deltas_seen % 6) + 1);

  // Every two accesses generate a two-delta tuple.
  if (e.deltas_seen % 2 == 0) {
    const std::array<Delta, 2> tuple{e.recent[1], e.recent[2]};
    if (e.delta2_valid && tuple == e.delta2) {
      bump(e.f2);
    } else {
      e.delta2 = tuple;
      e.f2 = 0;
      e.delta2_valid = true;
    }
  }

  // Every three accesses generate a three-delta tuple.
  if (e.deltas_seen % 3 == 0) {
    const std::array<Delta, 3> tuple{e.recent[0], e.recent[1], e.recent[2]};
    if (e.delta3_valid && tuple == e.delta3) {
      bump(e.f3);
    } else {
      e.delta3 = tuple;
      e.f3 = 0;
      e.delta3_valid = true;
    }
  }
}

std::optional<BankId> PredictionTable::predicted_next_bank() const {
  if (!last_bank_ || !transition_stride_) return std::nullopt;
  const auto n = static_cast<std::uint32_t>(entries_.size());
  return static_cast<BankId>((*last_bank_ + *transition_stride_) % n);
}

std::uint64_t PredictionTable::total_weight() const {
  return std::accumulate(entries_.begin(), entries_.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const TableEntry& e) {
                           return acc + e.weight();
                         });
}

void PredictionTable::generate_offsets(const TableEntry& e,
                                       std::uint32_t budget,
                                       std::vector<std::uint64_t>& out) const {
  if (budget == 0 || !e.last_addr) return;
  const auto last = static_cast<std::int64_t>(*e.last_addr);
  const std::uint32_t w = e.weight();

  // Per-pattern shares proportional to the pattern frequencies; when no
  // pattern has repeated yet, fall back to a next-line walk.
  std::array<std::uint32_t, 3> share{};
  if (w == 0) {
    share[0] = budget;
  } else {
    share[0] = e.f1 * budget / w;
    share[1] = e.f2 * budget / w;
    share[2] = e.f3 * budget / w;
    std::uint32_t assigned = share[0] + share[1] + share[2];
    // Largest-frequency patterns absorb the rounding remainder.
    std::array<std::size_t, 3> order{0, 1, 2};
    const std::array<std::uint16_t, 3> freqs{e.f1, e.f2, e.f3};
    std::sort(order.begin(), order.end(), [&freqs](std::size_t a, std::size_t b) {
      return freqs[a] > freqs[b];
    });
    for (std::size_t k = 0; assigned < budget; k = (k + 1) % 3) {
      if (freqs[order[k]] == 0) continue;
      ++share[order[k]];
      ++assigned;
    }
  }

  const auto push = [this, &out](std::int64_t addr) {
    const std::uint64_t off = wrap_offset(addr, lines_per_bank_);
    if (std::find(out.begin(), out.end(), off) == out.end()) out.push_back(off);
  };

  // Pattern 1: repeated single delta.
  {
    const Delta raw = e.delta1_valid ? e.delta1 : Delta{1};
    const Delta step = raw == 0 ? Delta{1} : raw;
    std::int64_t addr = last;
    for (std::uint32_t k = 0; k < share[0]; ++k) {
      addr += step;
      push(addr);
    }
  }
  // Pattern 2: cycle the two-delta tuple.
  if (e.delta2_valid) {
    std::int64_t addr = last;
    for (std::uint32_t k = 0; k < share[1]; ++k) {
      addr += e.delta2[k % 2];
      push(addr);
    }
  }
  // Pattern 3: cycle the three-delta tuple.
  if (e.delta3_valid) {
    std::int64_t addr = last;
    for (std::uint32_t k = 0; k < share[2]; ++k) {
      addr += e.delta3[k % 3];
      push(addr);
    }
  }
}

std::vector<BankPrediction> PredictionTable::predict(
    std::uint32_t capacity, bool uniform, Cycle now,
    Cycle recency_horizon) const {
  const std::size_t n = entries_.size();
  std::vector<BankPrediction> out(n);
  for (std::size_t b = 0; b < n; ++b) {
    out[b].bank = static_cast<BankId>(b);
  }

  // Effective weights: Eq. 3 uses pattern frequencies; the uniform ablation
  // treats every touched bank equally.
  std::vector<std::uint64_t> weights(n, 0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const TableEntry& e = entries_[b];
    weights[b] = uniform ? (e.last_addr ? 1 : 0) : e.weight();
    total += weights[b];
  }
  if (total == 0) {
    for (std::size_t b = 0; b < n; ++b) {
      weights[b] = entries_[b].last_addr ? 1 : 0;
      total += weights[b];
    }
  }
  if (total == 0) return out;  // table empty: nothing to prefetch

  // Recency split: banks accessed within the horizon are the ones demand
  // can reach during the freeze; they share 3/4 of the budget by weight.
  // The rest is spread over the other touched banks so that a stream
  // crossing a row boundary into its next bank mid-freeze still finds its
  // continuation staged (per-bank offsets continue linearly across visits).
  const bool use_recency = recency_horizon > 0 && now > recency_horizon;
  std::vector<bool> active(n, false);
  std::size_t num_active = 0;
  if (use_recency) {
    for (std::size_t b = 0; b < n; ++b) {
      if (weights[b] > 0 && entries_[b].last_access != kNeverCycle &&
          entries_[b].last_access >= now - recency_horizon) {
        active[b] = true;
        ++num_active;
      }
    }
  }

  const auto distribute = [&](std::uint32_t pool,
                              const std::vector<std::uint64_t>& w) {
    std::uint64_t w_total = 0;
    for (std::size_t b = 0; b < n; ++b) w_total += w[b];
    if (w_total == 0 || pool == 0) return;
    std::uint64_t assigned = 0;
    std::vector<std::uint64_t> remainders(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
      const std::uint64_t num = w[b] * pool;
      out[b].budget += static_cast<std::uint32_t>(num / w_total);
      remainders[b] = num % w_total;
      assigned += num / w_total;
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&remainders](std::size_t a, std::size_t b) {
                return remainders[a] > remainders[b];
              });
    for (std::size_t k = 0; assigned < pool && k < n; ++k) {
      if (w[order[k]] == 0) continue;
      ++out[order[k]].budget;
      ++assigned;
    }
  };

  if (num_active > 0 && num_active < n) {
    // Active banks take the budget (Eq. 3 among themselves); a small
    // reserve goes to the predicted next bank so a stream crossing a row
    // boundary mid-freeze finds its continuation staged.
    std::vector<std::uint64_t> w_active(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
      if (active[b]) w_active[b] = weights[b];
    }
    std::uint32_t reserve = 0;
    const auto next = predicted_next_bank();
    if (next && !active[*next] && entries_[*next].last_addr) {
      reserve = std::max<std::uint32_t>(1, capacity / 8);
      out[*next].budget += reserve;
    }
    distribute(capacity - reserve, w_active);
  } else {
    // Plain Eq. 3 over every touched bank.
    distribute(capacity, weights);
  }

  for (std::size_t b = 0; b < n; ++b) {
    generate_offsets(entries_[b], out[b].budget, out[b].offsets);
  }
  return out;
}

void PredictionTable::decay() {
  for (TableEntry& e : entries_) {
    e.f1 = static_cast<std::uint16_t>(e.f1 >> 1);
    e.f2 = static_cast<std::uint16_t>(e.f2 >> 1);
    e.f3 = static_cast<std::uint16_t>(e.f3 >> 1);
  }
}

void PredictionTable::clear() {
  std::fill(entries_.begin(), entries_.end(), TableEntry{});
}

}  // namespace rop::engine
