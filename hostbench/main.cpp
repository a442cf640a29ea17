// hostbench: host-speed benchmark of the simulator (see README.md).
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 times repeated runs of the workload for S seconds and reports
// the end-to-end metrics (medians). --trace 1 makes untraced and traced
// runs and reports the per-layer metrics. Either way the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_core.h"
#include "layers.h"
#include "sim/sim_instance.h"

namespace {

namespace sim = rop::sim;
using namespace hostbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Gate bookkeeping: a run fails when it hits the cycle limit, its CPI
/// stacks do not sum to its cycles, or its digest differs from the
/// invocation's reference digest.
struct Gate {
  std::uint64_t reference = 0;
  int attempted = 0;
  int failed = 0;

  bool check(const sim::ExperimentResult& r, std::uint64_t digest,
             const char* what) {
    ++attempted;
    if (reference == 0) reference = digest;
    const bool ok = digest != 0 && digest == reference &&
                    !r.run.hit_cycle_limit && cpi_stacks_sum(r);
    if (!ok) {
      ++failed;
      std::fprintf(stderr,
                   "hostbench: %s failed the gate (digest %016" PRIx64
                   ", reference %016" PRIx64 ", cycle limit %d)\n",
                   what, digest, reference, r.run.hit_cycle_limit ? 1 : 0);
    }
    return ok;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      a.workload = val;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      a.trace = std::atoi(val);
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    usage();
  }
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Seconds of `n` build_sim_instance calls for `spec`, one each
/// (destruction untimed).
std::vector<double> time_setups(const sim::ExperimentSpec& spec, int n) {
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    const sim::SimInstance inst = sim::build_sim_instance(spec);
    samples.push_back(seconds_since(t0));
  }
  return samples;
}

/// IPC of an untimed exact run of the sampled spec: the accuracy reference.
double exact_reference_ipc(const sim::ExperimentSpec& sampled_spec) {
  sim::ExperimentSpec exact = sampled_spec;
  exact.sampling = sim::SamplingSpec{};
  return sim::run_experiment(exact).ipc(0);
}

/// What an invocation reports besides its metrics, in the context record.
struct RunInfo {
  int reps = 0;
  /// Further context members, each written as `, "name": value`.
  std::string extra;
};

std::vector<Metric> end_to_end(const sim::ExperimentSpec& spec,
                               double seconds, Gate* gate, RunInfo* info) {
  // Set-up is timed a few builds at a time between the repetitions, so its
  // samples spread over the whole run like the repetitions' do. The first
  // builds take the first-touch page faults and are not kept.
  constexpr int kSetupsPerRep = 5;
  (void)time_setups(spec, kSetupsPerRep);

  // Each repetition is followed by one pass of the reference kernel, and
  // the reported times are scaled by it, paired per repetition: other
  // tenants of the host change its speed by tens of percent over minutes,
  // and the scaling cancels most of that drift. Run times are reported as
  // ratios to the reference time; set-up time, which the format wants in
  // seconds, as seconds on a host where the reference takes kNominalRefS.
  // The raw medians go to the context record.
  constexpr double kNominalRefS = 0.1;
  std::vector<double> setups;
  std::vector<double> setups_scaled;
  std::vector<double> rates;
  std::vector<double> walls;
  std::vector<double> refs;
  std::vector<double> rate_per_ref;
  std::vector<double> wall_per_ref;
  std::vector<double> rss;
  const std::int64_t start = now_ns();
  constexpr int kMinReps = 3;
  while (static_cast<int>(walls.size()) < kMinReps ||
         seconds_since(start) < seconds) {
    const std::vector<double> rep_setups = time_setups(spec, kSetupsPerRep);
    (void)reset_peak_rss();
    const std::int64_t t0 = now_ns();
    const sim::ExperimentResult r = sim::run_experiment(spec);
    const std::string json = r.to_json();
    walls.push_back(seconds_since(t0));
    rss.push_back(peak_rss_mb());
    rates.push_back(ratio(simulated_instructions(spec) / 1e6, r.wall_seconds));
    refs.push_back(reference_kernel_seconds());
    rate_per_ref.push_back(rates.back() * refs.back());
    wall_per_ref.push_back(ratio(walls.back(), refs.back()));
    for (const double t : rep_setups) {
      setups.push_back(t);
      setups_scaled.push_back(t * ratio(kNominalRefS, refs.back()));
    }
    (void)gate->check(r, stats_digest(json), "timed run");
  }
  info->reps = static_cast<int>(walls.size());
  std::fprintf(stderr, "hostbench: wall_s/ref_s/peak_rss_mb per repetition:");
  for (std::size_t i = 0; i < walls.size(); ++i) {
    std::fprintf(stderr, " %.4f/%.4f/%.2f", walls[i], refs[i], rss[i]);
  }
  std::fprintf(stderr, "\n");
  char extra[200];
  std::snprintf(extra, sizeof extra,
                ", \"sim_minstr_per_s\": %.6g, \"wall_s\": %.6g, "
                "\"setup_raw_s\": %.6g, \"ref_s\": %.6g",
                median(rates), median(walls), median(setups), median(refs));
  info->extra = extra;

  // Once per invocation, outside the timed runs: the exact workloads must
  // pass the invariant checker and simulate exactly what the timed runs did.
  if (!spec.sampling.enabled) {
    sim::ExperimentSpec checked = spec;
    checked.check = true;
    const sim::ExperimentResult r = sim::run_experiment(checked);
    const bool same = gate->check(r, stats_digest(r.to_json()), "checked run");
    if (same && r.checker_violations != 0) ++gate->failed;
  }

  return {
      {"sim_minstr_per_ref", median(rate_per_ref), "Minstr/ref"},
      {"wall_ref", median(wall_per_ref), "x"},
      {"setup_s", median(setups_scaled), "s"},
      {"peak_rss_mb", median(rss), "MB"},
  };
}

std::vector<Metric> per_layer(const sim::ExperimentSpec& spec,
                              double seconds, Gate* gate, RunInfo* info) {
  const double read_ns = calibrate_clock_read_ns();
  const bool sampled = spec.sampling.enabled;

  // Pairs of an untraced and a traced run of the same spec: the simulated
  // result must be identical (the decorators are transparent), and the
  // ratio of their median run times is the trace overhead. Pairs repeat
  // while another one fits in a third of the time budget; the layer
  // numbers come from the first traced run.
  const double cpu0 = process_cpu_seconds();
  const std::int64_t t0 = now_ns();
  const sim::ExperimentResult base = sim::run_experiment(spec);
  const double cpu_per_wall =
      ratio(process_cpu_seconds() - cpu0, seconds_since(t0));
  (void)gate->check(base, stats_digest(base.to_json()), "untraced run");
  const TracedRun tr = traced_run(spec);
  (void)gate->check(tr.result, stats_digest(tr.stats_json), "traced run");
  std::vector<double> untraced_s = {base.wall_seconds};
  std::vector<double> traced_s = {tr.run_s};
  const double pair_s = seconds_since(t0);
  while (seconds_since(t0) + pair_s <= seconds / 3.0) {
    const sim::ExperimentResult u = sim::run_experiment(spec);
    (void)gate->check(u, stats_digest(u.to_json()), "untraced run");
    const TracedRun t = traced_run(spec);
    (void)gate->check(t.result, stats_digest(t.stats_json), "traced run");
    untraced_s.push_back(u.wall_seconds);
    traced_s.push_back(t.run_s);
  }
  info->reps = static_cast<int>(traced_s.size());

  const StreamReplay streams = replay_streams(spec, 4'000'000);

  std::vector<double> to_json_ms;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t j0 = now_ns();
    const std::string json = tr.result.to_json();
    to_json_ms.push_back(static_cast<double>(now_ns() - j0) * 1e-6);
  }

  // Layer sources: exact workloads read the traced run; the sampled
  // workload reads the serial re-enactment of its planner, whose probed
  // replica runs every detailed window.
  Span advance = tr.advance;
  std::array<Span, kHookCount> hooks = tr.hooks;
  std::array<std::uint64_t, kHookCount> hook_calls = tr.hook_calls;
  Span sched_refresh = tr.sched_refresh;
  std::uint64_t ticks = tr.ticks;
  std::uint64_t reads_retired = tr.reads_retired;
  double mem_cycles = static_cast<double>(tr.result.run.mem_cycles) *
                      static_cast<double>(tr.channels);
  // One trace record per LLC access: the records the generators produced.
  const double llc_accesses =
      static_cast<double>(llc_counter(tr.result.stats, "accesses"));
  const double llc_misses =
      static_cast<double>(llc_counter(tr.result.stats, "misses"));
  double run_records = llc_accesses;
  double advance_records = llc_accesses;
  double save_ms = median(tr.save_ms);
  double load_ms = median(tr.load_ms);
  double snapshot_mb = tr.snapshot_mb;
  const rop::Scalar* accuracy =
      tr.result.stats.find_scalar("rop.phase_accuracy");
  double prefetch_accuracy = accuracy != nullptr ? accuracy->mean() : 0.0;
  std::vector<Metric> sampling_metrics = {
      {"sampling.functional_s", 0.0, "s"},
      {"sampling.window_ms", 0.0, "ms"},
      {"sampling.replica_build_ms", 0.0, "ms"},
      {"sampling.windows", 0.0, "count"},
      {"sampling.serial_share", 0.0, "ratio"},
      {"sampling.cpu_per_wall", 0.0, "ratio"},
      {"sample_ipc_err_pct", 0.0, "%"},
      {"sample_ipc_ci_pct", 0.0, "%"},
  };
  if (sampled) {
    const SamplingReplay rp = replay_sampling(spec, base.sampling);
    ++gate->attempted;
    if (!rp.observations_match) {
      ++gate->failed;
      std::fprintf(stderr,
                   "hostbench: the serial re-enactment's windows differ "
                   "from the planned run's\n");
    }
    advance = rp.window;
    hooks = rp.hooks;
    hook_calls = rp.hook_calls;
    sched_refresh = rp.sched_refresh;
    ticks = rp.ticks;
    reads_retired = rp.reads_retired;
    mem_cycles = static_cast<double>(rp.mem_cycles);
    advance_records = static_cast<double>(rp.window_llc_accesses);
    run_records += advance_records;
    save_ms = rp.save.mean_ns(read_ns) * 1e-6;
    load_ms = rp.load.mean_ns(read_ns) * 1e-6;
    snapshot_mb = rp.snapshot_mb;
    prefetch_accuracy = ratio(rp.accuracy_sum,
                              static_cast<double>(rp.accuracy_count));

    const double exact_ipc = exact_reference_ipc(spec);
    const sim::SamplingEstimate& est = base.sampling.ipc;
    sampling_metrics = {
        {"sampling.functional_s", rp.functional.seconds(read_ns), "s"},
        {"sampling.window_ms", rp.window.mean_ns(read_ns) * 1e-6, "ms"},
        {"sampling.replica_build_ms", rp.replica_build_s * 1e3, "ms"},
        {"sampling.windows", static_cast<double>(rp.windows), "count"},
        {"sampling.serial_share",
         ratio(rp.functional.seconds(read_ns) + rp.save.seconds(read_ns),
               median(untraced_s)),
         "ratio"},
        {"sampling.cpu_per_wall", cpu_per_wall, "ratio"},
        {"sample_ipc_err_pct",
         100.0 * std::fabs(est.mean - exact_ipc) / exact_ipc, "%"},
        {"sample_ipc_ci_pct", 100.0 * ratio(est.ci95_half, est.mean), "%"},
    };
  }

  double rop_self_s = 0.0;
  std::vector<Metric> rop_metrics;
  for (std::size_t h = 0; h < kHookCount; ++h) {
    const std::string name = hook_name(static_cast<Hook>(h));
    rop_metrics.push_back(
        {"rop." + name + ".calls", static_cast<double>(hook_calls[h]), "count"});
    rop_metrics.push_back({"rop." + name + "_ns", hooks[h].mean_ns(read_ns), "ns"});
    rop_self_s += hooks[h].seconds(read_ns);
  }
  rop_metrics.push_back({"rop.self_s", rop_self_s, "s"});
  rop_metrics.push_back({"rop.prefetch_accuracy", prefetch_accuracy, "ratio"});

  const double advance_s = advance.seconds(read_ns);
  const double sched_refresh_s = sched_refresh.seconds(read_ns);
  const double cpu_self_s =
      std::max(0.0, advance_s - rop_self_s - sched_refresh_s);
  const double replay_estimate_s =
      advance_records * (streams.next_ns + streams.access_ns) * 1e-9;
  const double unaccounted_s =
      advance_s - rop_self_s - sched_refresh_s - replay_estimate_s;

  std::vector<Metric> m = {
      {"workload.records", run_records, "count"},
      {"workload.next_ns", streams.next_ns, "ns"},
      {"cache.accesses", run_records, "count"},
      {"cache.miss_ratio", ratio(llc_misses, llc_accesses), "ratio"},
      {"cache.access_ns", streams.access_ns, "ns"},
      {"cpu.advance_s", advance_s, "s"},
      {"cpu.self_s", cpu_self_s, "s"},
      {"mem.ticks_executed", static_cast<double>(ticks), "count"},
      {"mem.tick_exec_ratio", ratio(static_cast<double>(ticks), mem_cycles),
       "ratio"},
      {"mem.reads_retired", static_cast<double>(reads_retired), "count"},
      {"mem.sched_refresh_ns", sched_refresh.mean_ns(read_ns), "ns"},
      {"mem.shard_cpu_per_wall", spec.shard_channels > 0 ? cpu_per_wall : 0.0,
       "ratio"},
  };
  m.insert(m.end(), rop_metrics.begin(), rop_metrics.end());
  m.push_back({"snapshot.save_ms", save_ms, "ms"});
  m.push_back({"snapshot.load_ms", load_ms, "ms"});
  m.push_back({"snapshot.mb", snapshot_mb, "MB"});
  m.insert(m.end(), sampling_metrics.begin(), sampling_metrics.end());
  m.push_back({"telemetry.to_json_ms", median(to_json_ms), "ms"});
  m.push_back({"trace.overhead_pct",
               100.0 * (ratio(median(traced_s), median(untraced_s)) - 1.0),
               "%"});
  m.push_back({"trace.unaccounted_pct", 100.0 * ratio(unaccounted_s, advance_s),
               "%"});
  m.push_back({"trace.clock_read_ns", read_ns, "ns"});
  return m;
}

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              gate.failed == 0 ? "true" : "false", gate.attempted,
              gate.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  HostContext ctx = capture_host_context();
  if (ctx.build_type != "Release") {
    std::fprintf(stderr, "hostbench: refusing a %s build; timings need Release\n",
                 ctx.build_type.c_str());
    return 2;
  }
  const sim::ExperimentSpec spec = w->make(args.seed);
  const unsigned threads = host_threads(spec);
  if (threads > ctx.nproc) {
    std::fprintf(stderr,
                 "hostbench: %s uses %u threads but only %u are online\n",
                 args.workload.c_str(), threads, ctx.nproc);
    return 2;
  }

  Gate gate;
  RunInfo info;
  const std::vector<Metric> metrics =
      args.trace == 0 ? end_to_end(spec, args.seconds, &gate, &info)
                      : per_layer(spec, args.seconds, &gate, &info);
  finish_host_context(&ctx);
  std::printf("%s\n", host_context_json(ctx, w->name, threads, args.seed,
                                        info.reps, info.extra)
                          .c_str());
  print_result(gate, metrics);
  return 0;
}
