// Telemetry-layer unit tests (DESIGN.md §11): the lock-free metrics
// registry's fold fidelity, the time-series log's capacity contract, the
// sampler's lifecycle (exactly one final tick across every start/stop
// interleaving), the span tracer's 1-in-N gate and ring wraparound, and the
// Chrome trace-event JSON schema — checked by a real (minimal) JSON parser,
// not by substring eyeballing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "obs/timeseries_log.h"
#include "stats/histogram.h"
#include "stats/latency_split.h"

namespace asl::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, CounterFoldSumsEverySlot) {
  MetricsRegistry reg(3);
  const MetricId c = reg.counter("reqs");
  reg.freeze();
  reg.add(c, 0, 5);
  reg.add(c, 1, 7);
  reg.add(c, 2, 11);
  reg.add(c, 0, 1);
  EXPECT_EQ(reg.fold(c), 24u);
}

TEST(MetricsRegistry, GaugeSetOverwritesPerSlot) {
  MetricsRegistry reg(2);
  const MetricId g = reg.gauge("depth");
  reg.freeze();
  reg.set(g, 0, 100);
  reg.set(g, 0, 3);  // overwrite, not accumulate
  reg.set(g, 1, 4);
  EXPECT_EQ(reg.fold(g), 7u);
}

TEST(MetricsRegistry, MetricsOfTheSameKindDoNotAlias) {
  MetricsRegistry reg(2);
  const MetricId a = reg.counter("a");
  const MetricId b = reg.counter("b");
  const MetricId h1 = reg.histogram("h1");
  const MetricId h2 = reg.histogram("h2");
  reg.freeze();
  reg.add(a, 0, 1);
  reg.add(b, 1, 10);
  reg.observe(h1, 0, 50);
  EXPECT_EQ(reg.fold(a), 1u);
  EXPECT_EQ(reg.fold(b), 10u);
  std::vector<std::uint64_t> buckets(Histogram::kNumBuckets);
  EXPECT_EQ(reg.fold_buckets(h1, buckets.data()), 1u);
  EXPECT_EQ(reg.fold_buckets(h2, buckets.data()), 0u);
}

// Every observable of `folded` equals `oracle`'s: the count, sum-derived
// mean, min, max, the quantiles, and the CDF (which walks every non-empty
// bucket).
void expect_same_histogram(const Histogram& folded, const Histogram& oracle,
                           const char* what) {
  EXPECT_EQ(folded.count(), oracle.count()) << what;
  EXPECT_EQ(folded.mean(), oracle.mean()) << what;
  EXPECT_EQ(folded.min(), oracle.min()) << what;
  EXPECT_EQ(folded.max(), oracle.max()) << what;
  EXPECT_EQ(folded.p50(), oracle.p50()) << what;
  EXPECT_EQ(folded.p99(), oracle.p99()) << what;
  EXPECT_EQ(folded.p999(), oracle.p999()) << what;
  const std::vector<Histogram::CdfPoint> a = folded.cdf();
  const std::vector<Histogram::CdfPoint> b = oracle.cdf();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << what << " cdf point " << i;
    EXPECT_EQ(a[i].cumulative, b[i].cumulative) << what << " cdf point " << i;
  }
}

TEST(MetricsRegistry, HistogramFoldMatchesSingleHistogramOracle) {
  MetricsRegistry reg(4);
  const MetricId h = reg.histogram("lat");
  reg.freeze();
  // The same observations recorded into one plain Histogram must land in
  // the same buckets the registry's per-slot cells fold into — and the
  // folded Histogram (buckets plus per-slot sum/min/max) must equal that
  // oracle in every observable. Slots {0,1} play the big-core writers and
  // {2,3} the little ones, so slot-subset folds must equal a LatencySplit
  // that recorded the same stream by core type. The twin goldens'
  // byte-identity rests on this property.
  Histogram oracle;
  LatencySplit split_oracle;
  std::vector<std::uint64_t> expected(Histogram::kNumBuckets, 0);
  std::uint64_t max_seen = 0;
  std::uint64_t v = 1;
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    for (int i = 0; i < 200; ++i) {
      reg.observe(h, slot, v);
      oracle.record(v);
      split_oracle.record(slot < 2 ? CoreType::kBig : CoreType::kLittle, v);
      expected[Histogram::bucket_index(v)] += 1;
      max_seen = std::max(max_seen, v);
      v = v * 3 + slot + 1;
      if (v > 50'000'000) v = slot + 1;
    }
  }
  std::vector<std::uint64_t> folded(Histogram::kNumBuckets);
  const std::uint64_t total = reg.fold_buckets(h, folded.data());
  EXPECT_EQ(total, 800u);
  EXPECT_EQ(folded, expected);
  // value_at_quantile is the shared kernel clamped to the observed max
  // (stats/histogram.h) — folding slots and quantiling the sums must agree
  // with recording everything into one histogram.
  for (double q : {0.5, 0.99}) {
    EXPECT_EQ(std::min(Histogram::quantile_from_bucket_counts(folded.data(),
                                                              total, q),
                       max_seen),
              oracle.value_at_quantile(q));
  }

  expect_same_histogram(reg.fold_histogram(h), oracle, "all slots");
  const LatencySplit split(reg.fold_histogram(h, 0, 2),
                           reg.fold_histogram(h, 2, 4));
  expect_same_histogram(split.big(), split_oracle.big(), "slots {0,1}");
  expect_same_histogram(split.little(), split_oracle.little(), "slots {2,3}");
  expect_same_histogram(split.overall(), split_oracle.overall(), "overall");
  // An empty range folds to the empty histogram.
  expect_same_histogram(reg.fold_histogram(h, 4, 4), Histogram(), "empty");
}

TEST(MetricsRegistry, ConcurrentWritersFoldExactly) {
  MetricsRegistry reg(4);
  const MetricId c = reg.counter("ops");
  reg.freeze();
  std::vector<std::thread> writers;
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    writers.emplace_back([&reg, c, slot] {
      for (int i = 0; i < 10'000; ++i) reg.add(c, slot, 1);
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(reg.fold(c), 40'000u);
}

// --------------------------------------------------------- timeseries log

TEST(TimeSeriesLog, AppendsAndRendersLongForm) {
  TimeSeriesLog log;
  const auto a = log.add_series("x.rate", 8);
  const auto b = log.add_series("y.depth", 8);
  EXPECT_TRUE(log.empty());
  log.append(a, 10, 1);
  log.append(a, 20, 2);
  log.append(b, 10, 5);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.num_series(), 2u);
  ASSERT_NE(log.find("x.rate"), nullptr);
  EXPECT_EQ(log.find("x.rate")->size(), 2u);
  EXPECT_EQ(log.find("nope"), nullptr);

  std::ostringstream csv;
  log.table().print_csv(csv);
  EXPECT_NE(csv.str().find("series,t_ns,value"), std::string::npos);
  // Series-major, time-ascending: one row per point.
  EXPECT_EQ(log.table().rows(), 3u);
}

TEST(TimeSeriesLog, FullSeriesDropsAndCounts) {
  TimeSeriesLog log;
  const auto id = log.add_series("s", 3);
  for (std::uint64_t t = 0; t < 10; ++t) log.append(id, t, t);
  EXPECT_EQ(log.series(id).size(), 3u);  // capacity holds the first 3
  EXPECT_EQ(log.dropped(), 7u);
  // The surviving points are the oldest (append drops new, never rewrites
  // history — a truncated series is a prefix, not a sample).
  EXPECT_EQ(log.series(id).points().back().t, 2u);
}

// ----------------------------------------------------------------- sampler

TEST(Sampler, StopRunsExactlyOneFinalTick) {
  std::atomic<std::uint64_t> calls{0};
  Sampler s(1 * kNanosPerMilli, [&](std::uint64_t, Nanos) { calls += 1; });
  s.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  s.stop();
  const std::uint64_t after_stop = calls.load();
  EXPECT_GE(after_stop, 1u);
  EXPECT_EQ(s.ticks(), after_stop);
  s.stop();   // idempotent: no second final tick
  s.start();  // a no-op after stop()
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(calls.load(), after_stop);
}

TEST(Sampler, StopWithoutStartStillSamplesOnce) {
  std::atomic<std::uint64_t> calls{0};
  Sampler s(1 * kNanosPerMilli, [&](std::uint64_t, Nanos) { calls += 1; });
  s.stop();
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(s.ticks(), 1u);
}

TEST(Sampler, DestructorStops) {
  std::atomic<std::uint64_t> calls{0};
  {
    Sampler s(1 * kNanosPerMilli, [&](std::uint64_t, Nanos) { calls += 1; });
    s.start();
  }
  EXPECT_GE(calls.load(), 1u);
}

TEST(Sampler, PeriodicTicksAdvance) {
  std::atomic<std::uint64_t> calls{0};
  Sampler s(1 * kNanosPerMilli, [&](std::uint64_t, Nanos) { calls += 1; });
  s.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  s.stop();
  // Generous bound: shared runners may stall the thread, but 50 ms at a
  // 1 ms period must yield well more than the lone final tick.
  EXPECT_GE(calls.load(), 3u);
}

TEST(Sampler, ConcurrentStartsAndStopsCompose) {
  std::atomic<std::uint64_t> calls{0};
  Sampler s(1 * kNanosPerMilli, [&](std::uint64_t, Nanos) { calls += 1; });
  std::vector<std::thread> racers;
  for (int i = 0; i < 4; ++i) {
    racers.emplace_back([&s, i] {
      if (i % 2 == 0) {
        s.start();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        s.stop();
      }
    });
  }
  for (std::thread& t : racers) t.join();
  s.stop();
  // Whatever the interleaving, the final tick fired exactly once and the
  // tick count is coherent with the callback count.
  EXPECT_GE(calls.load(), 1u);
  EXPECT_EQ(s.ticks(), calls.load());
}

// ------------------------------------------------------------- span tracer

TEST(SpanTracer, OneInNGatePerThread) {
  SpanTracer tracer(2, 16, /*sample_every=*/4);
  int sampled = 0;
  for (int i = 0; i < 8; ++i) sampled += tracer.sample(0) ? 1 : 0;
  EXPECT_EQ(sampled, 2);  // candidates 0 and 4
  // Thread 1's gate counts independently.
  EXPECT_TRUE(tracer.sample(1));
}

TEST(SpanTracer, DisabledTracerNeverSamples) {
  SpanTracer tracer(1, 16, /*sample_every=*/0);
  EXPECT_FALSE(tracer.enabled());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(tracer.sample(0));
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SpanTracer, RingWraparoundDropsOldestAndCounts) {
  SpanTracer tracer(1, /*ring_capacity=*/4, /*sample_every=*/1);
  for (Nanos t = 0; t < 6; ++t) {
    tracer.record(0, SpanPhase::kQueueWait, 100 + t, 10);
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<Span> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first among the survivors: the two oldest were overwritten.
  EXPECT_EQ(spans.front().start, 102);
  EXPECT_EQ(spans.back().start, 105);
}

// --------------------------------------------- Chrome trace JSON schema

// Minimal JSON value + recursive-descent parser — just enough to verify the
// trace-event schema structurally (and to fail on malformed JSON, which a
// substring check would wave through).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  // Parses one JSON document; ok() reports whether the whole input was
  // consumed without a syntax error.
  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    ok_ = ok_ && pos_ == text_.size();
    return v;
  }
  bool ok() const { return ok_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      pos_ += 1;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_ += 1;
      return true;
    }
    return false;
  }
  JsonValue value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail();
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }
  JsonValue fail() {
    ok_ = false;
    return JsonValue{};
  }
  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (!eat('{')) return fail();
    if (eat('}')) return v;
    do {
      JsonValue key = string_value();
      if (!ok_ || !eat(':')) return fail();
      v.object[key.string] = value();
      if (!ok_) return fail();
    } while (eat(','));
    if (!eat('}')) return fail();
    return v;
  }
  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (!eat('[')) return fail();
    if (eat(']')) return v;
    do {
      v.array.push_back(value());
      if (!ok_) return fail();
    } while (eat(','));
    if (!eat(']')) return fail();
    return v;
  }
  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    if (!eat('"')) return fail();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) pos_ += 1;
      v.string += text_[pos_];
      pos_ += 1;
    }
    if (pos_ >= text_.size()) return fail();
    pos_ += 1;  // closing quote
    return v;
  }
  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
      return v;
    }
    return fail();
  }
  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) return fail();
    pos_ += 4;
    return JsonValue{};
  }
  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      pos_ += 1;
    }
    if (pos_ == start) return fail();
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

TEST(SpanTracer, ChromeTraceExportMatchesSchema) {
  SpanTracer tracer(2, 16, /*sample_every=*/1);
  const Nanos epoch = 1'000'000;
  tracer.record(0, SpanPhase::kQueueWait, epoch + 1'500, 2'500);
  tracer.record(0, SpanPhase::kCriticalSection, epoch + 4'000, 1'000);
  tracer.record(1, SpanPhase::kLockWait, epoch + 2'000, 500);
  tracer.record(1, SpanPhase::kPostSection, epoch + 9'000, 123);

  std::ostringstream os;
  tracer.write_chrome_trace(os, epoch);
  JsonParser parser(os.str());
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(parser.ok()) << os.str();

  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(doc.has("displayTimeUnit"));
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ns");
  ASSERT_TRUE(doc.has("traceEvents"));
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events.array.size(), 4u);
  bool saw_tid1 = false;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_TRUE(e.has(key)) << "missing key " << key;
    }
    EXPECT_EQ(e.at("ph").string, "X");  // complete events only
    EXPECT_EQ(e.at("cat").string, "kv");
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GE(e.at("ts").number, 0.0);  // rebased to the epoch
    EXPECT_GT(e.at("dur").number, 0.0);
    saw_tid1 = saw_tid1 || e.at("tid").number == 1.0;
  }
  EXPECT_TRUE(saw_tid1);

  // Spot-check the rebasing + ns precision: 1500 ns past the epoch is
  // 1.5 us, exported with 3-decimal microsecond precision.
  bool saw_queue_wait = false;
  for (const JsonValue& e : events.array) {
    if (e.at("name").string == span_phase_name(SpanPhase::kQueueWait)) {
      saw_queue_wait = true;
      EXPECT_DOUBLE_EQ(e.at("ts").number, 1.5);
      EXPECT_DOUBLE_EQ(e.at("dur").number, 2.5);
    }
  }
  EXPECT_TRUE(saw_queue_wait);
}

}  // namespace
}  // namespace asl::obs
