// Telemetry layer: epoch sampling exactness (including bit-identity across
// the frozen-cycle fast-forward), trace-event recording and JSON export,
// structured stats export, and the SimChecker trace-context diagnostics.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "check/sim_checker.h"
#include "common/stats.h"
#include "sim/experiment.h"
#include "telemetry/epoch_sampler.h"
#include "telemetry/stats_json.h"
#include "telemetry/trace_sink.h"

namespace rop {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator: tracks strings/escapes, checks brace and
// bracket nesting, rejects trailing commas and commas before closers. Not a
// full parser, but strict enough to catch every emitter bug we have seen
// (unbalanced sections, missing commas handled by python -m json.tool in CI).
bool json_well_formed(const std::string& text) {
  std::vector<char> nesting;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': nesting.push_back('}'); prev_significant = c; break;
      case '[': nesting.push_back(']'); prev_significant = c; break;
      case '}':
      case ']':
        if (nesting.empty() || nesting.back() != c) return false;
        if (prev_significant == ',') return false;  // trailing comma
        nesting.pop_back();
        prev_significant = c;
        break;
      case ',':
        if (prev_significant == ',' || prev_significant == '{' ||
            prev_significant == '[') {
          return false;
        }
        prev_significant = c;
        break;
      default:
        if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
          prev_significant = c;
        }
    }
  }
  return !in_string && nesting.empty();
}

// ---------------------------------------------------------------------------
// Histogram percentiles (satellite: p50/p95/p99 from buckets).

TEST(HistogramPercentile, EmptyAndMonotone) {
  Histogram h(10, 10);
  EXPECT_EQ(h.percentile(50.0), 0.0);

  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  const double p50 = h.percentile(50.0);
  const double p95 = h.percentile(95.0);
  const double p99 = h.percentile(99.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // 100 uniform samples over [0, 100): the interpolated median sits at the
  // middle of the range, p99 near the top.
  EXPECT_NEAR(p50, 50.0, 10.0);
  EXPECT_NEAR(p99, 99.0, 10.0);
  EXPECT_LE(h.percentile(100.0), 110.0);
}

TEST(HistogramPercentile, OverflowBucketIsLowerBound) {
  Histogram h(10, 4);  // covers [0, 40) + overflow
  for (int i = 0; i < 10; ++i) h.record(1000);
  // Everything in the overflow bucket: percentile interpolates within one
  // bucket width past the covered range — a lower bound, never garbage.
  EXPECT_GE(h.percentile(50.0), 40.0);
  EXPECT_LE(h.percentile(50.0), 50.0);
}

// ---------------------------------------------------------------------------
// Stats JSON export.

TEST(StatsJson, EmptyScalarExportsNullMinMax) {
  StatRegistry reg;
  reg.scalar("touched").record(3.5);
  reg.scalar("untouched");  // registered, never recorded

  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  telemetry::write_registry_sections(w, reg);
  w.end_object();
  const std::string json = os.str();

  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"untouched\":{\"count\":0,\"sum\":0,"
                      "\"mean\":0,\"min\":null,\"max\":null}"),
            std::string::npos)
      << json;
  // The in-code API is unchanged: min()/max() still return 0.0.
  EXPECT_EQ(reg.find_scalar("untouched")->min(), 0.0);
  EXPECT_NE(json.find("\"min\":3.5"), std::string::npos) << json;
}

TEST(StatsJson, WriterEscapesAndNestsCorrectly) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("quote\"back\\slash\nnewline");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(-2.5);
  w.value(false);
  w.null();
  w.end_array();
  w.end_object();
  const std::string json = os.str();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_EQ(json,
            "{\"quote\\\"back\\\\slash\\nnewline\":[1,-2.5,false,null]}");
}

TEST(StatsJson, ExperimentToJsonRoundTrips) {
  sim::ExperimentSpec spec = sim::single_core_spec("lbm", sim::MemoryMode::kRop);
  spec.instructions_per_core = 100'000;
  spec.telemetry.sampler.epoch_cycles = 6240;
  const sim::ExperimentResult result = sim::run_experiment(spec);
  const std::string json = result.to_json();

  EXPECT_TRUE(json_well_formed(json));
  // Every registered counter appears with its exact value.
  for (const auto& [name, counter] : result.stats.counters()) {
    const std::string expect =
        "\"" + name + "\":" + std::to_string(counter.value());
    EXPECT_NE(json.find(expect), std::string::npos)
        << "missing " << expect;
  }
  // Epoch series present, one delta list per counter.
  ASSERT_TRUE(result.epochs != nullptr);
  EXPECT_GE(result.epochs->num_epochs(), 1u);
  EXPECT_NE(json.find("\"epoch_cycles\":6240"), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  // Histogram buckets exported.
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EpochSampler unit behaviour.

TEST(EpochSampler, DeltasLandInTheRightEpoch) {
  StatRegistry reg;
  Counter* c = reg.counter_handle("events");
  telemetry::SamplerConfig cfg;
  cfg.epoch_cycles = 10;
  telemetry::EpochSampler s(cfg, &reg);

  c->inc(3);           // cycles [0, 10)
  s.advance_to(10);    // boundary 10: sees the 3
  c->inc(5);           // cycles [10, 20)
  s.advance_to(25);    // boundaries 20 emitted; 25 is mid-epoch
  c->inc(1);
  s.close(25);         // trailing partial (20, 25]

  ASSERT_EQ(s.num_epochs(), 3u);
  EXPECT_EQ(s.epoch_end(0), 10u);
  EXPECT_EQ(s.epoch_end(1), 20u);
  EXPECT_EQ(s.epoch_end(2), 25u);
  EXPECT_EQ(s.delta(0, 0), 3u);
  EXPECT_EQ(s.delta(1, 0), 5u);
  EXPECT_EQ(s.delta(2, 0), 1u);
}

TEST(EpochSampler, LazyCatchUpEmitsSkippedBoundaries) {
  StatRegistry reg;
  Counter* c = reg.counter_handle("events");
  telemetry::SamplerConfig cfg;
  cfg.epoch_cycles = 10;
  telemetry::EpochSampler s(cfg, &reg);

  c->inc(7);
  // Jump straight across three boundaries, as a frozen-cycle skip would.
  // The skipped ticks were provable no-ops, so the counter did not move
  // after the jump started: epoch 1 gets everything, epochs 2-3 get zero.
  s.advance_to(30);
  s.close(30);
  ASSERT_EQ(s.num_epochs(), 3u);
  EXPECT_EQ(s.delta(0, 0), 7u);
  EXPECT_EQ(s.delta(1, 0), 0u);
  EXPECT_EQ(s.delta(2, 0), 0u);
}

TEST(EpochSampler, RingDropsOldestEpochs) {
  StatRegistry reg;
  Counter* c = reg.counter_handle("events");
  telemetry::SamplerConfig cfg;
  cfg.epoch_cycles = 10;
  cfg.max_epochs = 4;
  telemetry::EpochSampler s(cfg, &reg);

  for (Cycle t = 10; t <= 100; t += 10) {
    c->inc(t);  // distinct delta per epoch
    s.advance_to(t);
  }
  s.close(100);
  EXPECT_EQ(s.num_epochs(), 4u);
  EXPECT_EQ(s.first_epoch_index(), 6u);  // epochs 0..5 dropped
  EXPECT_EQ(s.epoch_end(0), 70u);
  EXPECT_EQ(s.epoch_end(3), 100u);
  EXPECT_EQ(s.delta(3, 0), 100u);
}

TEST(EpochSampler, DisabledSamplerIsInert) {
  StatRegistry reg;
  telemetry::SamplerConfig cfg;  // epoch_cycles = 0
  telemetry::EpochSampler s(cfg, &reg);
  EXPECT_FALSE(s.enabled());
  s.advance_to(1'000'000);
  s.close(2'000'000);
  EXPECT_EQ(s.num_epochs(), 0u);
}

// The pinned contract: the epoch series is bit-identical no matter which
// simulation loop ran — naive or the unified core/memory event loop. Sampling points are exact, not approximately
// placed, even when a bulk advance jumps several epoch boundaries at once.
TEST(EpochSampler, BitIdenticalAcrossFastForward) {
  for (const sim::MemoryMode mode :
       {sim::MemoryMode::kBaseline, sim::MemoryMode::kRop,
        sim::MemoryMode::kPausing}) {
    SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode));
    sim::ExperimentSpec naive = sim::single_core_spec("gobmk", mode);
    naive.instructions_per_core = 150'000;
    naive.telemetry.sampler.epoch_cycles = 1000;  // off-tREFI on purpose
    naive.loop = cpu::LoopMode::kNaive;

    const sim::ExperimentResult a = sim::run_experiment(naive);
    ASSERT_TRUE(a.epochs != nullptr);
    EXPECT_GE(a.epochs->num_epochs(), 2u);
    sim::ExperimentSpec fast = naive;
    fast.loop = cpu::LoopMode::kEventDriven;
    const sim::ExperimentResult b = sim::run_experiment(fast);
    ASSERT_TRUE(b.epochs != nullptr);
    ASSERT_EQ(a.epochs->num_epochs(), b.epochs->num_epochs());
    ASSERT_EQ(a.epochs->counter_names(), b.epochs->counter_names());
    for (std::size_t i = 0; i < a.epochs->num_epochs(); ++i) {
      ASSERT_EQ(a.epochs->epoch_end(i), b.epochs->epoch_end(i))
          << "epoch " << i;
      for (std::size_t c = 0; c < a.epochs->counter_names().size(); ++c) {
        ASSERT_EQ(a.epochs->delta(i, c), b.epochs->delta(i, c))
            << "epoch " << i << " counter " << a.epochs->counter_names()[c];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TraceSink.

TEST(TraceSink, CategoryParsing) {
  EXPECT_EQ(telemetry::parse_trace_categories("all"),
            std::optional<std::uint32_t>(telemetry::kCatAll));
  EXPECT_EQ(telemetry::parse_trace_categories("cmds,refresh"),
            std::optional<std::uint32_t>(telemetry::kCatCmds |
                                         telemetry::kCatRefresh));
  EXPECT_EQ(telemetry::parse_trace_categories("rop"),
            std::optional<std::uint32_t>(telemetry::kCatRop));
  EXPECT_FALSE(telemetry::parse_trace_categories("bogus").has_value());
  EXPECT_FALSE(telemetry::parse_trace_categories("cmds,bogus").has_value());
}

telemetry::TraceEvent make_event(Cycle ts, telemetry::EventKind kind,
                                 std::uint8_t category) {
  telemetry::TraceEvent e;
  e.ts = ts;
  e.kind = kind;
  e.category = category;
  return e;
}

TEST(TraceSink, RingKeepsNewestAndCountsDrops) {
  telemetry::TraceConfig cfg;
  cfg.categories = telemetry::kCatAll;
  cfg.capacity = 4;
  telemetry::TraceSink sink(cfg);
  for (Cycle t = 0; t < 7; ++t) {
    sink.record(make_event(t, telemetry::EventKind::kCmdRead,
                           static_cast<std::uint8_t>(telemetry::kCatCmds)));
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 3u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, 3 + i) << "snapshot must be oldest-first";
  }
  const auto recent = sink.format_recent(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_NE(recent[1].find("RD"), std::string::npos);
}

TEST(TraceSink, WantsFiltersByCategory) {
  telemetry::TraceConfig cfg;
  cfg.categories = telemetry::kCatRefresh;
  telemetry::TraceSink sink(cfg);
  EXPECT_TRUE(sink.wants(telemetry::kCatRefresh));
  EXPECT_FALSE(sink.wants(telemetry::kCatCmds));
  EXPECT_FALSE(sink.wants(telemetry::kCatRop));
}

TEST(TraceSink, ChromeTraceJsonFromRealRun) {
  sim::ExperimentSpec spec = sim::single_core_spec("lbm", sim::MemoryMode::kRop);
  spec.instructions_per_core = 100'000;
  spec.telemetry.trace.categories = telemetry::kCatAll;
  const sim::ExperimentResult result = sim::run_experiment(spec);
  ASSERT_TRUE(result.trace != nullptr);
  EXPECT_GT(result.trace->size(), 0u);

  std::ostringstream os;
  result.trace->write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Commands and refresh windows from a real run; every event carries the
  // Chrome-required fields.
  EXPECT_NE(json.find("\"name\":\"RD\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"refresh_window\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
}

TEST(TraceSink, BinaryFormatHeaderAndSize) {
  telemetry::TraceConfig cfg;
  cfg.categories = telemetry::kCatAll;
  telemetry::TraceSink sink(cfg);
  for (Cycle t = 0; t < 5; ++t) {
    sink.record(make_event(t, telemetry::EventKind::kCmdActivate,
                           static_cast<std::uint8_t>(telemetry::kCatCmds)));
  }
  std::ostringstream os(std::ios::binary);
  sink.write_binary(os);
  const std::string blob = os.str();
  ASSERT_GE(blob.size(), 8u);
  EXPECT_EQ(blob.substr(0, 8), "ROPTRC01");
  // Header (8 magic + 4 version + 4 tck + 8 count + 8 dropped) + 5 records
  // of 36 bytes each (ts 8 + dur 8 + arg 8 + kind 1 + cat 1 + ch 2 +
  // rank 2 + bank 2 + core 4).
  EXPECT_EQ(blob.size(), 32u + 5u * 36u);
}

TEST(TraceSink, RequestSpansCarryServiceSource) {
  sim::ExperimentSpec spec = sim::single_core_spec("lbm",
                                                   sim::MemoryMode::kBaseline);
  spec.instructions_per_core = 50'000;
  spec.telemetry.trace.categories = telemetry::kCatReqs;
  const sim::ExperimentResult result = sim::run_experiment(spec);
  ASSERT_TRUE(result.trace != nullptr);
  const auto events = result.trace->snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_read = false;
  bool saw_xfer = false;
  for (const auto& e : events) {
    switch (e.kind) {
      case telemetry::EventKind::kReadSpan:
        saw_read = true;
        EXPECT_GT(e.dur, 0u);  // latency = completion - arrival >= 1
        break;
      // Nested lifecycle slices ride in the same category.
      case telemetry::EventKind::kReadXferSpan:
        saw_xfer = true;
        EXPECT_GT(e.dur, 0u);  // CAS + burst is never instantaneous
        break;
      case telemetry::EventKind::kReadQueueSpan:
      case telemetry::EventKind::kReadActSpan:
        EXPECT_GT(e.dur, 0u);
        break;
      default:
        ADD_FAILURE() << "unexpected kind in reqs category: "
                      << telemetry::event_kind_name(e.kind);
    }
  }
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_xfer);
  std::ostringstream os;
  result.trace->write_json(os);
  EXPECT_NE(os.str().find("\"serviced_by\":\"dram\""), std::string::npos);
  EXPECT_NE(os.str().find("\"dropped_events\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SimChecker trace context (satellite: failures carry the last M events).

TEST(SimChecker, ViolationReportIncludesTraceTail) {
  telemetry::TraceConfig cfg;
  cfg.categories = telemetry::kCatAll;
  telemetry::TraceSink sink(cfg);
  for (Cycle t = 100; t < 140; ++t) {
    sink.record(make_event(t, telemetry::EventKind::kCmdActivate,
                           static_cast<std::uint8_t>(telemetry::kCatCmds)));
  }

  check::SimChecker checker;
  checker.set_trace(&sink, /*context_events=*/8);
  // Force a violation through the auditor interface: a request retired
  // before it arrived is unconditionally invalid.
  mem::Request bad;
  bad.id = 42;
  bad.arrival = 500;
  bad.completion = 400;
  checker.on_retired(bad);

  EXPECT_FALSE(checker.ok());
  const std::string summary = checker.summary();
  EXPECT_NE(summary.find("trace context (last 8 events"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("ACT"), std::string::npos) << summary;
  // The tail holds the *newest* events before the violation.
  EXPECT_NE(summary.find("[139]"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("[100]"), std::string::npos) << summary;
}

TEST(SimChecker, NoTraceAttachedMeansNoContextSection) {
  check::SimChecker checker;
  mem::Request bad;
  bad.id = 1;
  bad.arrival = 10;
  bad.completion = 5;
  checker.on_retired(bad);
  EXPECT_EQ(checker.summary().find("trace context"), std::string::npos);
}

}  // namespace
}  // namespace rop
