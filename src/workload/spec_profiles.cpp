#include "workload/spec_profiles.h"

#include <algorithm>

#include "common/types.h"

namespace rop::workload {

bool is_intensive(std::string_view name) {
  static constexpr std::array<std::string_view, 6> kIntensive{
      "gemsfdtd", "lbm", "bwaves", "gcc", "libquantum", "cactusadm"};
  return std::find(kIntensive.begin(), kIntensive.end(), name) !=
         kIntensive.end();
}

// Calibration note (see DESIGN.md §1): the trace-driven core has no
// dependency stalls, so raw SPEC MPKI numbers would saturate the DDR4 bus
// where the authors' OOO cores did not. The gaps below are chosen to land
// each benchmark in the same *memory regime* as the paper instead: the
// intensive six keep the channel 15-40% utilized and latency-bound, the
// non-intensive six are sparse and bursty at the tREFI scale (~100k
// instructions per refresh interval), which is what produces the paper's
// lambda/beta structure in Table I.
SyntheticConfig spec_profile(std::string_view name, std::uint64_t seed_salt) {
  SyntheticConfig c;
  c.name = std::string(name);
  const std::uint64_t base_seed =
      std::hash<std::string_view>{}(name) ^ (seed_salt * 0x9e3779b97f4a7c15ULL);
  c.seed = base_seed | 1;

  const auto mb = [](std::uint64_t mbytes) {
    return (mbytes << 20) / kLineBytes;  // footprint in cache lines
  };

  if (name == "gemsfdtd") {
    // FDTD stencil: several strided sweeps over a large grid with a
    // repeating multi-delta signature between field components.
    c.mean_gap = 170;
    c.write_fraction = 0.30;
    c.footprint_lines = mb(256);
    // Three field-component arrays swept in lockstep each iteration.
    c.streams = {{{+1}, 1.0}, {{+1}, 1.0}, {{+1}, 1.0}};
    c.random_fraction = 0.02;
  } else if (name == "lbm") {
    // Lattice-Boltzmann: write-heavy dual streaming, never idle.
    c.mean_gap = 180;
    c.write_fraction = 0.45;
    c.footprint_lines = mb(512);
    c.streams = {{{+1}, 1.0}, {{+1}, 1.0}};
    c.random_fraction = 0.01;
  } else if (name == "libquantum") {
    // Single perfectly sequential sweep over the state vector.
    c.mean_gap = 200;
    c.write_fraction = 0.25;
    c.footprint_lines = mb(256);
    c.streams = {{{+1}, 1.0}};
    c.random_fraction = 0.0;
  } else if (name == "bwaves") {
    c.mean_gap = 220;
    c.write_fraction = 0.20;
    c.footprint_lines = mb(384);
    c.streams = {{{+1}, 1.0}, {{+1}, 1.0}, {{+1, +1, +2}, 1.0}};
    c.random_fraction = 0.03;
  } else if (name == "gcc") {
    // Compiler: intensive but phase-y — pointer-rich bursts with pauses.
    c.mean_gap = 260;
    c.write_fraction = 0.30;
    c.footprint_lines = mb(128);
    c.streams = {{{+1}, 1.0}, {{+5}, 0.6}};
    c.random_fraction = 0.25;
    c.burst_ops = 600;
    c.idle_instructions = 120'000;
  } else if (name == "cactusadm") {
    c.mean_gap = 240;
    c.write_fraction = 0.30;
    c.footprint_lines = mb(192);
    c.streams = {{{+1}, 1.0}, {{+1}, 1.0}};
    c.random_fraction = 0.08;
    c.burst_ops = 700;
    c.idle_instructions = 100'000;
  } else if (name == "wrf") {
    // Weather model: dense strided bursts separated by long compute.
    c.mean_gap = 300;
    c.write_fraction = 0.30;
    c.footprint_lines = mb(96);
    c.streams = {{{+1}, 1.0}, {{+4}, 0.5}};
    c.random_fraction = 0.05;
    c.burst_ops = 2'000;
    c.idle_instructions = 1'500'000;
  } else if (name == "bzip2") {
    // Compression: small working set, sparse bursty misses.
    c.mean_gap = 350;
    c.write_fraction = 0.35;
    c.footprint_lines = mb(8);
    c.streams = {{{+1}, 1.0}};
    c.random_fraction = 0.30;
    c.burst_ops = 400;
    c.idle_instructions = 400'000;
  } else if (name == "perlbench") {
    // Interpreter: mostly cache-resident, short irregular bursts.
    c.mean_gap = 400;
    c.write_fraction = 0.30;
    c.footprint_lines = mb(3);
    c.streams = {{{+1}, 0.5}, {{+7}, 0.5}};
    c.random_fraction = 0.50;
    c.burst_ops = 120;
    c.idle_instructions = 500'000;
  } else if (name == "astar") {
    // Path-finding: pointer chasing over a moderate graph.
    c.mean_gap = 450;
    c.write_fraction = 0.25;
    c.footprint_lines = mb(16);
    c.streams = {{{+1}, 0.4}, {{+13}, 0.6}};
    c.random_fraction = 0.60;
    c.burst_ops = 400;
    c.idle_instructions = 300'000;
  } else if (name == "omnetpp") {
    // Discrete-event simulator: heap-walking, moderate footprint.
    c.mean_gap = 380;
    c.write_fraction = 0.35;
    c.footprint_lines = mb(24);
    c.streams = {{{+1}, 0.5}, {{+11, +3}, 0.5}};
    c.random_fraction = 0.50;
    c.burst_ops = 350;
    c.idle_instructions = 350'000;
  } else if (name == "gobmk") {
    // Game tree search: tiny hot set, very sparse short bursts.
    c.mean_gap = 600;
    c.write_fraction = 0.25;
    c.footprint_lines = mb(4);
    c.streams = {{{+1}, 1.0}};
    c.random_fraction = 0.40;
    c.burst_ops = 80;
    c.idle_instructions = 800'000;
  } else {
    ROP_ASSERT(false && "unknown benchmark name");
  }
  return c;
}

std::vector<std::string> workload_mix(std::uint32_t wl) {
  switch (wl) {
    case 1: return {"gemsfdtd", "lbm", "bwaves", "libquantum"};
    case 2: return {"bwaves", "gcc", "libquantum", "cactusadm"};
    case 3: return {"gemsfdtd", "lbm", "wrf", "bzip2"};
    case 4: return {"gcc", "cactusadm", "perlbench", "astar"};
    case 5: return {"libquantum", "wrf", "omnetpp", "gobmk"};
    case 6: return {"bzip2", "perlbench", "astar", "gobmk"};
    default: ROP_ASSERT(false && "workload mixes are WL1..WL6");
  }
  return {};
}

std::uint32_t workload_mix_number(std::string_view name) {
  if (name.size() != 3 || !name.starts_with("wl")) return 0;
  const auto wl = static_cast<std::uint32_t>(name[2] - '0');
  return wl >= 1 && wl <= kNumWorkloadMixes ? wl : 0;
}

}  // namespace rop::workload
