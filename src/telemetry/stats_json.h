// Structured JSON export for the statistics registry and epoch series.
//
// JsonWriter is a minimal streaming writer (no DOM, no dependencies) with
// automatic comma management; the write_* helpers render the registry
// sections that ExperimentResult::to_json and ropsim --stats-json share,
// and read_registry_sections parses them back (the campaign merge).
//
// Schema (docs/OBSERVABILITY.md documents the full document layout):
//   "counters":   { name: value, ... }
//   "scalars":    { name: {count, sum, mean, min, max}, ... }
//                 min/max are null when count == 0 — "no samples" must be
//                 distinguishable from "observed zero".
//   "histograms": { name: {count, sum, mean, bucket_width, buckets: [...],
//                          p50, p95, p99}, ... }
//   "epochs":     {epoch_cycles, first_epoch_index, end_cycles: [...],
//                  series: {name: [deltas...], ...}}
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/types.h"

namespace rop::telemetry {

class EpochSampler;

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(bool v);
  void null();

  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  void open(char c);
  void close(char c);
  void separate();

  std::ostream& os_;
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

/// Emit the "counters", "scalars", and "histograms" keys into the current
/// object.
void write_registry_sections(JsonWriter& w, const StatRegistry& stats);

/// Inverse of write_registry_sections: set the stats that the "counters",
/// "scalars" and "histograms" objects of `doc` name in `stats` from their
/// exported parts (derived fields — mean, percentiles — are not read).
/// Writing the result back reproduces those sections byte for byte.
/// Returns false and names the entry in `error` when a section is missing
/// or an entry is malformed; `stats` may then hold a partial read.
[[nodiscard]] bool read_registry_sections(const json::Value& doc,
                                          StatRegistry* stats,
                                          std::string* error);

/// Emit the "epochs" key into the current object (null sampler or a
/// disabled one writes `"epochs": null`).
void write_epoch_section(JsonWriter& w, const EpochSampler* sampler);

}  // namespace rop::telemetry
