#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <type_traits>

#include "common/file_io.h"
#include "common/fnv1a.h"
#include "common/types.h"
#include "telemetry/attribution.h"
#include "telemetry/stats_json.h"
#include "sim/runner.h"
#include "sim/snapshot.h"
#include "workload/spec_profiles.h"

namespace rop::sim {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Spec parsing helpers.

/// Benchmark axis value -> per-core benchmark list. "wlN" expands to the
/// 4-program mix of Table II; any other name runs single-core (validate()
/// rejects names that are not Table I profiles).
std::vector<std::string> parse_benchmark(const std::string& s) {
  const std::uint32_t wl = workload::workload_mix_number(s);
  return wl > 0 ? workload::workload_mix(wl) : std::vector<std::string>{s};
}

/// Axis `key` of `axes` into `out`, or `fallback` when the spec omits it.
/// `get` converts one entry (nullopt: not a `what`).
template <class T, class Get>
bool axis(const json::Value& axes, const std::string& key,
          std::vector<T> fallback, const char* what, Get get,
          std::vector<T>* out, std::string* error) {
  const json::Value* v = axes.find(key);
  if (v == nullptr) {
    *out = std::move(fallback);
    return true;
  }
  if (!v->is_array() || v->as_array().empty()) {
    *error = "axis '" + key + "' must be a non-empty array";
    return false;
  }
  out->clear();
  for (const json::Value& e : v->as_array()) {
    const std::optional<T> x = get(e);
    if (!x) {
      *error = "axis '" + key + "' entries must be " + what;
      return false;
    }
    out->push_back(*x);
  }
  return true;
}

std::optional<std::string> string_entry(const json::Value& e) {
  return e.is_string() ? std::optional(e.as_string()) : std::nullopt;
}

std::optional<std::uint64_t> positive_entry(const json::Value& e) {
  return e.has_u64() && e.as_u64() > 0 ? std::optional(e.as_u64())
                                       : std::nullopt;
}

std::optional<bool> bool_entry(const json::Value& e) {
  return e.is_bool() ? std::optional(e.as_bool()) : std::nullopt;
}

/// Known key `key` of `obj` into `*out`; an absent key keeps the default.
/// A present value must be of `T`'s JSON type: a string, true or false, a
/// non-negative number (double), or a non-negative integer that fits `T`.
/// Anything else fails with `*error` naming the key (after `prefix`, the
/// path of a nested object).
template <class T>
bool known_key(const json::Value& obj, const std::string& prefix,
               const std::string& key, T* out, std::string* error) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;
  std::string want;
  if constexpr (std::is_same_v<T, std::string>) {
    if (v->is_string()) {
      *out = v->as_string();
      return true;
    }
    want = "a string";
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v->is_bool()) {
      *out = v->as_bool();
      return true;
    }
    want = "true or false";
  } else if constexpr (std::is_floating_point_v<T>) {
    if (v->is_number() && v->as_double() >= 0.0) {
      *out = v->as_double();
      return true;
    }
    want = "a non-negative number";
  } else {
    if (v->has_u64() && v->as_u64() <= std::numeric_limits<T>::max()) {
      *out = static_cast<T>(v->as_u64());
      return true;
    }
    want = "an integer in [0, " +
           std::to_string(std::numeric_limits<T>::max()) + "]";
  }
  *error = "'" + prefix + key + "' must be " + want;
  return false;
}

// ---------------------------------------------------------------------------
// Manifest + file IO.

/// FNV-1a over the raw spec text: a resumed campaign must be driven by the
/// byte-identical spec, otherwise cell indices could mean different runs.
std::string fingerprint(std::string_view text) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

std::string cell_filename(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell_%06zu.json", index);
  return buf;
}

/// Intra-cell checkpoint, written periodically while the cell runs (spec
/// scalar "snapshot_every") and deleted once the cell's JSON lands.
std::string cell_snapname(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell_%06zu.snap", index);
  return buf;
}

std::string manifest_text(const std::string& fp, std::size_t total,
                          const std::vector<bool>& done,
                          const std::map<std::size_t, std::string>& failed) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("fingerprint");
  w.value(std::string_view(fp));
  w.key("total");
  w.value(static_cast<std::uint64_t>(total));
  w.key("completed");
  w.begin_array();
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (done[i]) w.value(static_cast<std::uint64_t>(i));
  }
  w.end_array();
  // Only a campaign with failed cells carries the key; a resume reruns them.
  if (!failed.empty()) {
    w.key("failed");
    w.begin_array();
    for (const auto& [index, reason] : failed) {
      w.begin_object();
      w.key("index");
      w.value(static_cast<std::uint64_t>(index));
      w.key("reason");
      w.value(std::string_view(reason));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  os << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// Merge.

/// Re-serialize a parsed Value. Objects are std::map, so keys come out
/// sorted — deterministic regardless of the source document's key order.
void write_value(telemetry::JsonWriter& w, const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kNull:
      w.null();
      break;
    case json::Value::Kind::kBool:
      w.value(v.as_bool());
      break;
    case json::Value::Kind::kNumber:
      if (v.has_u64()) {
        w.value(v.as_u64());
      } else if (v.has_i64()) {
        w.value(v.as_i64());
      } else {
        w.value(v.as_double());
      }
      break;
    case json::Value::Kind::kString:
      w.value(std::string_view(v.as_string()));
      break;
    case json::Value::Kind::kArray:
      w.begin_array();
      for (const json::Value& e : v.as_array()) write_value(w, e);
      w.end_array();
      break;
    case json::Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, val] : v.as_object()) {
        w.key(key);
        write_value(w, val);
      }
      w.end_object();
      break;
  }
}

double number_at(const json::Value& doc, const std::string& a,
                 const std::string& b) {
  const json::Value* v = doc.find(a);
  if (v != nullptr) v = v->find(b);
  return (v != nullptr && v->is_number()) ? v->as_double() : 0.0;
}

std::uint64_t u64_at(const json::Value& doc, const std::string& a,
                     const std::string& b) {
  const json::Value* v = doc.find(a);
  if (v != nullptr) v = v->find(b);
  return (v != nullptr && v->has_u64()) ? v->as_u64() : 0;
}

std::string merged_text(const std::string& name,
                        const std::vector<CampaignCell>& cells,
                        const std::vector<json::Value>& docs,
                        const StatRegistry& aggregate) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::uint64_t{1});
  w.key("campaign");
  w.value(std::string_view(name));
  w.key("cells");
  w.value(static_cast<std::uint64_t>(cells.size()));

  // Wall-clock fields (run.wall_seconds, sim_cycles_per_second) are
  // deliberately excluded everywhere below: they differ run to run, and the
  // merged document must be byte-identical across resume boundaries.
  w.key("per_cell");
  w.begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value& doc = docs[i];
    w.begin_object();
    w.key("label");
    w.value(std::string_view(cells[i].label));
    w.key("cpu_cycles");
    w.value(u64_at(doc, "run", "cpu_cycles"));
    w.key("mem_cycles");
    w.value(u64_at(doc, "run", "mem_cycles"));
    double ipc_total = 0.0;
    if (const json::Value* run = doc.find("run"); run != nullptr) {
      if (const json::Value* cores = run->find("cores");
          cores != nullptr && cores->is_array()) {
        for (const json::Value& core : cores->as_array()) {
          if (const json::Value* ipc = core.find("ipc");
              ipc != nullptr && ipc->is_number()) {
            ipc_total += ipc->as_double();
          }
        }
      }
    }
    w.key("ipc_total");
    w.value(ipc_total);
    w.key("energy_total_mj");
    w.value(number_at(doc, "energy_mj", "total"));
    w.key("refreshes");
    w.value(u64_at(doc, "rop", "refreshes"));
    w.key("checker_violations");
    w.value(u64_at(doc, "checker", "violations"));
    w.end_object();
  }
  w.end_array();

  w.key("aggregate");
  w.begin_object();
  telemetry::write_registry_sections(w, aggregate);
  w.end_object();  // aggregate

  // Epoch series concatenate rather than fold: each cell's time axis is its
  // own run, so the merged document keeps them side by side under labels.
  w.key("epochs");
  w.begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value* epochs = docs[i].find("epochs");
    if (epochs == nullptr || epochs->is_null()) continue;
    w.begin_object();
    w.key("label");
    w.value(std::string_view(cells[i].label));
    w.key("epochs");
    write_value(w, *epochs);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  os << '\n';
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Expansion.

std::optional<std::vector<CampaignCell>> expand_campaign(
    const json::Value& spec, std::string* error) {
  std::string err;
  if (!spec.is_object()) {
    if (error != nullptr) *error = "campaign spec must be a JSON object";
    return std::nullopt;
  }

  // Known top-level keys (unknown keys are ignored). `name` is only
  // type-checked here; run_campaign reads it.
  std::string name;
  std::uint64_t instructions = 200'000;
  std::uint64_t epoch_cycles = 0;
  std::uint32_t shard_channels = 0;
  std::uint64_t snapshot_every = 0;
  bool check = false;
  if (!known_key(spec, "", "name", &name, &err) ||
      !known_key(spec, "", "instructions_per_core", &instructions, &err) ||
      !known_key(spec, "", "epoch_cycles", &epoch_cycles, &err) ||
      !known_key(spec, "", "shard_channels", &shard_channels, &err) ||
      !known_key(spec, "", "snapshot_every", &snapshot_every, &err) ||
      !known_key(spec, "", "check", &check, &err)) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }

  // Top-level "sampling" object: its presence switches every cell to
  // sampled execution (sim/sampling.h knobs; without
  // "functional_instructions" the stride follows the horizon, as in
  // ropsim). Conflicts with checkpoints and telemetry are validate()'s,
  // checked per cell below.
  SamplingSpec sampling;
  if (const json::Value* sv = spec.find("sampling"); sv != nullptr) {
    if (!sv->is_object()) {
      if (error != nullptr) *error = "'sampling' must be a JSON object";
      return std::nullopt;
    }
    sampling.enabled = true;
    const std::string in = "sampling.";
    SamplingSpec& s = sampling;
    if (!known_key(*sv, in, "warmup_cycles", &s.warmup_cycles, &err) ||
        !known_key(*sv, in, "detail_cycles", &s.detail_cycles, &err) ||
        !known_key(*sv, in, "functional_instructions",
                   &s.functional_instructions, &err) ||
        !known_key(*sv, in, "min_windows", &s.min_windows, &err) ||
        !known_key(*sv, in, "max_windows", &s.max_windows, &err) ||
        !known_key(*sv, in, "jobs", &s.jobs, &err) ||
        !known_key(*sv, in, "strata", &s.strata, &err) ||
        !known_key(*sv, in, "target_ci", &s.target_ci_frac, &err)) {
      if (error != nullptr) *error = err;
      return std::nullopt;
    }
  }

  static const json::Value kEmptyAxes{json::Object{}};
  const json::Value* axes_p = spec.find("axes");
  const json::Value& axes = axes_p != nullptr ? *axes_p : kEmptyAxes;
  if (!axes.is_object()) {
    if (error != nullptr) *error = "'axes' must be a JSON object";
    return std::nullopt;
  }

  std::vector<std::string> benchmarks, modes, refreshes;
  std::vector<std::uint64_t> ranks, channels, llc_mb;
  std::vector<bool> partitions;
  const char* kStrings = "strings";
  const char* kPositive = "positive integers";
  if (!axis(axes, "benchmark", {"lbm"}, kStrings, string_entry, &benchmarks,
            &err) ||
      !axis(axes, "mode", {memory_mode_name(MemoryMode::kBaseline)},
            kStrings, string_entry, &modes, &err) ||
      !axis(axes, "ranks", {1}, kPositive, positive_entry, &ranks, &err) ||
      !axis(axes, "refresh", {"1x"}, kStrings, string_entry, &refreshes,
            &err) ||
      !axis(axes, "rank_partition", {false}, "booleans", bool_entry,
            &partitions, &err) ||
      !axis(axes, "channels", {1}, kPositive, positive_entry, &channels,
            &err) ||
      !axis(axes, "llc_mb", {2}, kPositive, positive_entry, &llc_mb, &err)) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }

  std::vector<CampaignCell> cells;
  cells.reserve(benchmarks.size() * modes.size() * ranks.size() *
                refreshes.size() * partitions.size() * channels.size() *
                llc_mb.size());
  // Fixed nesting order (last axis fastest) keeps indices stable across
  // invocations — the contract the resume manifest depends on.
  for (const std::string& bench : benchmarks) {
    const std::vector<std::string> cores = parse_benchmark(bench);
    for (const std::string& mode_s : modes) {
      // Scheme and refresh-mode names go through the preset layer's
      // parsers (sim/presets.h), which the ropsim CLI uses too.
      const std::optional<MemoryMode> mode = parse_memory_mode(mode_s);
      if (!mode) {
        if (error != nullptr) *error = "unknown mode '" + mode_s + "'";
        return std::nullopt;
      }
      for (const std::uint64_t r : ranks) {
        for (const std::string& ref_s : refreshes) {
          const std::optional<dram::RefreshMode> refresh =
              parse_refresh_mode(ref_s);
          if (!refresh) {
            if (error != nullptr) {
              *error = "unknown refresh mode '" + ref_s + "'";
            }
            return std::nullopt;
          }
          for (const bool part : partitions) {
            for (const std::uint64_t ch : channels) {
              for (const std::uint64_t mb : llc_mb) {
                CampaignCell cell;
                cell.index = cells.size();
                std::ostringstream label;
                label << bench << '/' << mode_s << "/r" << r << '/' << ref_s
                      << "/part" << (part ? 1 : 0) << "/ch" << ch << "/llc"
                      << mb;
                cell.label = label.str();
                ExperimentSpec& e = cell.spec;
                e.benchmarks = cores;
                e.mode = *mode;
                e.rank_partition = part;
                e.ranks = static_cast<std::uint32_t>(r);
                e.channels = static_cast<std::uint32_t>(ch);
                e.shard_channels = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(shard_channels, ch));
                e.llc_bytes = mb << 20;
                e.refresh_mode = *refresh;
                e.instructions_per_core = instructions;
                e.max_cpu_cycles = instructions * kCpuCyclesPerInstructionCap;
                e.check = check;
                e.sampling = sampling;
                e.telemetry.sampler.epoch_cycles = epoch_cycles;
                // The checkpoint path is relative to the output directory
                // (run_campaign resolves it); the period rides in the spec
                // so every expansion site agrees on it.
                e.snapshot.every = snapshot_every;
                if (snapshot_every > 0) {
                  e.snapshot.out = cell_snapname(cell.index);
                }
                // Every cell is checked before any runs: one bad axis value
                // fails the campaign up front, naming its cell.
                if (const auto bad = validate(e)) {
                  if (error != nullptr) {
                    *error = "cell " + std::to_string(cell.index) + " (" +
                             cell.label + "): " + *bad;
                  }
                  return std::nullopt;
                }
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Execution.

std::optional<CampaignSummary> run_campaign(const CampaignOptions& opts,
                                            std::string* error,
                                            bool* bad_spec) {
  const auto fail = [error](std::string msg) -> std::optional<CampaignSummary> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  const auto spec_fail = [&](std::string msg) {
    if (bad_spec != nullptr) *bad_spec = true;
    return fail(std::move(msg));
  };

  std::string spec_text;
  if (!read_file(opts.spec_path, &spec_text)) {
    return spec_fail("cannot read campaign spec: " + opts.spec_path);
  }
  std::string parse_err;
  const std::optional<json::Value> spec = json::parse(spec_text, &parse_err);
  if (!spec) return spec_fail("spec parse error: " + parse_err);

  std::string expand_err;
  std::optional<std::vector<CampaignCell>> cells_opt =
      expand_campaign(*spec, &expand_err);
  if (!cells_opt) return spec_fail(expand_err);
  std::vector<CampaignCell>& cells = *cells_opt;
  if (cells.empty()) return spec_fail("campaign expands to zero cells");

  const json::Value* name_v = spec->find("name");
  const std::string name =
      (name_v != nullptr && name_v->is_string()) ? name_v->as_string()
                                                 : "campaign";
  const std::string fp = fingerprint(spec_text);

  const fs::path out_dir(opts.out_dir);
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) return fail("cannot create output directory: " + opts.out_dir);

  // Restore completed cells from an existing manifest (same spec only).
  std::vector<bool> done(cells.size(), false);
  std::size_t restored = 0;
  const fs::path manifest_path = out_dir / "manifest.json";
  if (opts.resume) {
    std::string manifest_raw;
    if (read_file(manifest_path, &manifest_raw)) {
      const std::optional<json::Value> manifest = json::parse(manifest_raw);
      const json::Value* mfp =
          manifest ? manifest->find("fingerprint") : nullptr;
      const json::Value* mdone =
          manifest ? manifest->find("completed") : nullptr;
      if (mfp != nullptr && mfp->is_string() && mfp->as_string() == fp &&
          mdone != nullptr && mdone->is_array()) {
        for (const json::Value& idx : mdone->as_array()) {
          if (!idx.has_u64() || idx.as_u64() >= cells.size()) continue;
          const std::size_t i = idx.as_u64();
          // Trust a manifest entry only when the cell document survived too.
          if (fs::exists(out_dir / cell_filename(i))) {
            done[i] = true;
            ++restored;
            // A kill between the cell JSON landing and its checkpoint being
            // deleted can leave the .snap behind; it is dead weight now.
            std::error_code rm_ec;
            fs::remove(out_dir / cell_snapname(i), rm_ec);
          }
        }
      }
    }
  }

  // Pending cells, with their checkpoints resolved against the output
  // directory.
  std::vector<std::size_t> pending;
  std::vector<ExperimentSpec> specs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (done[i]) continue;
    pending.push_back(i);
    ExperimentSpec& e = specs.emplace_back(cells[i].spec);
    if (e.snapshot.out.empty()) continue;
    e.snapshot.out = (out_dir / e.snapshot.out).string();
    // Resume mid-cell from the last periodic checkpoint — but only one
    // written under this exact spec; a stale file from an earlier sweep is
    // discarded, not trusted.
    if (snapshot_compatible(e.snapshot.out,
                            config_fingerprint(spec_canonical(e)))) {
      e.snapshot.in = e.snapshot.out;
    } else {
      std::error_code rm_ec;
      fs::remove(e.snapshot.out, rm_ec);
    }
  }

  // Guards done[], failed, io_error, the manifest file and progress output.
  std::mutex mu;
  std::map<std::size_t, std::string> failed;  // cell index -> reason
  std::string io_error;
  std::atomic<std::size_t> fresh{0};
  std::atomic<std::size_t> running{0};

  // Live-ops heartbeat (JSONL; one line per cell transition). Holds the
  // manifest mutex while writing, so lines never interleave.
  std::unique_ptr<telemetry::ProgressWriter> beat;
  if (!opts.progress_file.empty()) {
    beat = std::make_unique<telemetry::ProgressWriter>(opts.progress_file);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto count_done = [&done] {
    return static_cast<std::size_t>(std::count(done.begin(), done.end(), true));
  };
  const auto emit_beat = [&](const std::string& label) {  // requires mu held
    if (beat == nullptr) return;
    telemetry::ProgressWriter::CampaignHeartbeat hb;
    const std::size_t total_done = count_done();
    hb.done = total_done;
    hb.failed = failed.size();
    hb.running = running.load(std::memory_order_relaxed);
    hb.total = cells.size();
    hb.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    const std::size_t n_fresh = fresh.load(std::memory_order_relaxed);
    if (total_done >= cells.size()) {
      hb.eta_s = 0.0;
    } else if (n_fresh > 0 && hb.wall_s > 0.0) {
      // Aggregate throughput over fresh completions this invocation —
      // parallel workers are already folded in.
      hb.eta_s = hb.wall_s / static_cast<double>(n_fresh) *
                 static_cast<double>(cells.size() - total_done);
    }
    hb.last_cell = label;
    beat->write_campaign(hb);
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    emit_beat("");  // opening line: totals and restored count
  }

  // One cell: run it, write its document, checkpoint the manifest. A cell
  // that fails records its reason and lets the others finish; only a
  // manifest write error (returning false) stops the pool.
  const auto run_cell = [&](std::size_t slot) {
    if (opts.stop_after > 0 &&
        fresh.load(std::memory_order_relaxed) >= opts.stop_after) {
      return false;
    }
    const std::size_t idx = pending[slot];
    const std::string& label = cells[idx].label;
    running.fetch_add(1, std::memory_order_relaxed);
    if (beat != nullptr) {
      std::lock_guard<std::mutex> lock(mu);
      emit_beat(label);
    }
    ExperimentSpec e = specs[slot];
    ExperimentResult result = run_experiment(e);
    if (!result.error.empty() && !e.snapshot.in.empty()) {
      // A checkpoint with the right header that still does not restore
      // (truncated, corrupt): discard it and rerun from cycle 0.
      std::error_code rm_ec;
      fs::remove(e.snapshot.in, rm_ec);
      e.snapshot.in.clear();
      result = run_experiment(e);
    }
    if (result.error.empty() &&
        !write_file_atomic(out_dir / cell_filename(idx), result.to_json())) {
      result.error = "cannot write " + cell_filename(idx);
    }
    if (result.error.empty() && !e.snapshot.out.empty()) {
      // The cell JSON landed; the intra-cell checkpoint is obsolete (and
      // must not leak into the next campaign in this directory).
      std::error_code rm_ec;
      fs::remove(e.snapshot.out, rm_ec);
    }
    running.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (result.error.empty()) {
      done[idx] = true;
      fresh.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed[idx] = result.error;
    }
    // Checkpoint after every cell: a kill between two checkpoints loses
    // at most in-flight cells, never completed ones.
    if (!write_file_atomic(manifest_path,
                           manifest_text(fp, cells.size(), done, failed))) {
      io_error = "cannot write manifest.json";
      emit_beat(label);
      return false;
    }
    if (opts.progress) {
      if (result.error.empty()) {
        std::fprintf(stderr, "[campaign %s] %zu/%zu done: %s\n",
                     name.c_str(), count_done(), cells.size(), label.c_str());
      } else {
        std::fprintf(stderr, "[campaign %s] failed: %s: %s\n", name.c_str(),
                     label.c_str(), result.error.c_str());
      }
    }
    emit_beat(label);
    return true;
  };
  run_claimed(specs, opts.jobs, run_cell);
  if (!io_error.empty()) return fail(io_error);

  CampaignSummary summary;
  summary.total_cells = cells.size();
  summary.skipped_cells = restored;
  summary.ran_cells = fresh.load();
  summary.completed_cells = count_done();
  summary.complete = summary.completed_cells == cells.size();
  for (const auto& [idx, reason] : failed) {
    summary.failed_cells.push_back("cell " + std::to_string(idx) + " (" +
                                   cells[idx].label + "): " + reason);
  }
  if (!summary.complete) return summary;

  // Merge: read every per-cell document back into a registry and fold it
  // into one. Deterministic (sorted keys, exact integer/scalar folds, no
  // wall-clock fields), so a resumed campaign reproduces the uninterrupted
  // merged.json byte for byte.
  std::vector<json::Value> docs;
  docs.reserve(cells.size());
  StatRegistry aggregate;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string text;
    if (!read_file(out_dir / cell_filename(i), &text)) {
      return fail("cannot read " + cell_filename(i));
    }
    std::string cell_err;
    std::optional<json::Value> doc = json::parse(text, &cell_err);
    StatRegistry cell;
    if (!doc || !telemetry::read_registry_sections(*doc, &cell, &cell_err) ||
        !aggregate.merge_from(cell, &cell_err)) {
      return fail(cell_filename(i) + ": " + cell_err);
    }
    docs.push_back(std::move(*doc));
  }
  const fs::path merged_path = out_dir / "merged.json";
  if (!write_file_atomic(merged_path,
                         merged_text(name, cells, docs, aggregate))) {
    return fail("cannot write merged.json");
  }
  summary.merged_path = merged_path.string();
  return summary;
}

}  // namespace rop::sim
