#include "telemetry/stats_json.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "telemetry/epoch_sampler.h"

namespace rop::telemetry {

void JsonWriter::open(char c) {
  separate();
  os_ << c;
  need_comma_.push_back(false);
}

void JsonWriter::close(char c) {
  ROP_ASSERT(!need_comma_.empty());
  ROP_ASSERT(!pending_key_);
  need_comma_.pop_back();
  os_ << c;
  if (!need_comma_.empty()) need_comma_.back() = true;
}

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the comma and the ':' follows it
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) os_ << ',';
    need_comma_.back() = true;
  }
}

void JsonWriter::key(std::string_view k) {
  ROP_ASSERT(!pending_key_);
  if (!need_comma_.empty() && need_comma_.back()) os_ << ',';
  if (!need_comma_.empty()) need_comma_.back() = true;
  os_ << '"' << escape(k) << "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  separate();
  os_ << '"' << escape(s) << '"';
}

void JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  os_ << buf;
}

void JsonWriter::value(std::int64_t v) {
  separate();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  os_ << buf;
}

void JsonWriter::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  separate();
  os_ << "null";
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_registry_sections(JsonWriter& w, const StatRegistry& stats) {
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : stats.counters()) {
    w.key(name);
    w.value(c.value());
  }
  w.end_object();

  w.key("scalars");
  w.begin_object();
  for (const auto& [name, s] : stats.scalars()) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(s.count());
    w.key("sum");
    w.value(s.sum());
    w.key("mean");
    w.value(s.mean());
    // Empty scalars export null bounds: Scalar::min()/max() return 0.0 on
    // no samples, which downstream tooling would mistake for an observed 0.
    w.key("min");
    if (s.count() > 0) {
      w.value(s.min());
    } else {
      w.null();
    }
    w.key("max");
    if (s.count() > 0) {
      w.value(s.max());
    } else {
      w.null();
    }
    w.end_object();
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : stats.histograms()) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(h.count());
    // Exact integer sample sum: lets downstream tools (campaign merge)
    // reconstruct and Histogram::merge without mean-roundtrip error.
    w.key("sum");
    w.value(h.sum());
    w.key("mean");
    w.value(h.mean());
    w.key("bucket_width");
    w.value(h.bucket_width());
    w.key("buckets");
    w.begin_array();
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      w.value(h.bucket(i));
    }
    w.end_array();
    w.key("p50");
    w.value(h.percentile(50.0));
    w.key("p95");
    w.value(h.percentile(95.0));
    w.key("p99");
    w.value(h.percentile(99.0));
    w.end_object();
  }
  w.end_object();
}

namespace {

/// Member `key` of `v` as an exact unsigned integer / as a number.
bool member(const json::Value& v, const char* key, std::uint64_t* out) {
  const json::Value* m = v.find(key);
  if (m == nullptr || !m->has_u64()) return false;
  *out = m->as_u64();
  return true;
}

bool member(const json::Value& v, const char* key, double* out) {
  const json::Value* m = v.find(key);
  if (m == nullptr || !m->is_number()) return false;
  *out = m->as_double();
  return true;
}

}  // namespace

bool read_registry_sections(const json::Value& doc, StatRegistry* stats,
                            std::string* error) {
  const auto malformed = [error](const std::string& what) {
    if (error != nullptr) *error = what + " is malformed";
    return false;
  };
  const json::Value* counters = doc.find("counters");
  const json::Value* scalars = doc.find("scalars");
  const json::Value* histograms = doc.find("histograms");
  if (counters == nullptr || !counters->is_object() || scalars == nullptr ||
      !scalars->is_object() || histograms == nullptr ||
      !histograms->is_object()) {
    return malformed("the counters/scalars/histograms layout");
  }
  for (const auto& [name, v] : counters->as_object()) {
    if (!v.has_u64()) return malformed("counter '" + name + "'");
    Counter& c = stats->counter(name);
    c.reset();
    c.inc(v.as_u64());
  }
  for (const auto& [name, v] : scalars->as_object()) {
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    // An empty scalar's bounds are null (write_registry_sections).
    if (!member(v, "count", &count) || !member(v, "sum", &sum) ||
        (count > 0 && (!member(v, "min", &min) || !member(v, "max", &max)))) {
      return malformed("scalar '" + name + "'");
    }
    stats->scalar(name) = Scalar(count, sum, min, max);
  }
  for (const auto& [name, v] : histograms->as_object()) {
    const std::string what = "histogram '" + name + "'";
    std::uint64_t count = 0, sum = 0, width = 0;
    const json::Value* buckets = v.find("buckets");
    if (!member(v, "count", &count) || !member(v, "sum", &sum) ||
        !member(v, "bucket_width", &width) || width == 0 ||
        buckets == nullptr || !buckets->is_array() ||
        buckets->as_array().size() < 2) {
      return malformed(what);
    }
    std::vector<std::uint64_t> counts;
    for (const json::Value& b : buckets->as_array()) {
      if (!b.has_u64()) return malformed(what);
      counts.push_back(b.as_u64());
    }
    // The count is the buckets' total; a document where they disagree
    // was edited.
    if (std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}) !=
        count) {
      return malformed(what);
    }
    const std::size_t n = counts.size() - 1;  // plus the overflow bucket
    stats->histogram(name, width, n) =
        Histogram(width, std::move(counts), sum);
  }
  return true;
}

void write_epoch_section(JsonWriter& w, const EpochSampler* sampler) {
  w.key("epochs");
  if (sampler == nullptr || !sampler->enabled()) {
    w.null();
    return;
  }
  w.begin_object();
  w.key("epoch_cycles");
  w.value(static_cast<std::uint64_t>(sampler->epoch_cycles()));
  w.key("first_epoch_index");
  w.value(sampler->first_epoch_index());
  // Oldest epochs evicted by the ring (== first_epoch_index; spelled out so
  // consumers don't have to know the ring semantics).
  w.key("dropped_epochs");
  w.value(sampler->first_epoch_index());
  w.key("end_cycles");
  w.begin_array();
  for (std::size_t i = 0; i < sampler->num_epochs(); ++i) {
    w.value(static_cast<std::uint64_t>(sampler->epoch_end(i)));
  }
  w.end_array();
  w.key("series");
  w.begin_object();
  const auto& names = sampler->counter_names();
  for (std::size_t c = 0; c < names.size(); ++c) {
    w.key(names[c]);
    w.begin_array();
    for (std::size_t i = 0; i < sampler->num_epochs(); ++i) {
      w.value(sampler->delta(i, c));
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

}  // namespace rop::telemetry
