// Tests for the telemetry subsystem: registry thread-safety, histogram
// percentile accuracy against the exact common/stats implementation,
// exporter round-trips, span nesting under injected transport faults,
// and the end-to-end acceptance check — a chaos run whose exported
// counters match the transport's own books exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "experiments/chaos_experiment.hpp"
#include "netsim/network.hpp"
#include "netsim/transport.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cia::telemetry {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CountersGaugesHistogramsBasics) {
  MetricsRegistry registry;
  registry.counter("rounds").inc();
  registry.counter("rounds").inc(4);
  EXPECT_EQ(registry.counter_value("rounds"), 5u);

  registry.gauge("depth").set(3.0);
  registry.gauge("depth").add(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("depth"), 5.5);

  Histogram& h = registry.histogram("lat", {}, {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 55.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 50.0);
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
}

TEST(MetricsRegistryTest, LabelsAreCanonicalizedBySortOrder) {
  MetricsRegistry registry;
  registry.counter("c", {{"b", "2"}, {"a", "1"}}).inc();
  registry.counter("c", {{"a", "1"}, {"b", "2"}}).inc();
  // Both label orders name the same series.
  EXPECT_EQ(registry.counter_value("c", {{"a", "1"}, {"b", "2"}}), 2u);
  EXPECT_EQ(registry.snapshot().points.size(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Half the threads hammer one shared series, the others intern new
      // labeled series while observing a shared histogram — exercising
      // the intern lock and the lock-free cells together.
      for (int i = 0; i < kIncs; ++i) {
        registry.counter("shared_total").inc();
        registry.counter("per_thread_total", {{"t", std::to_string(t)}}).inc();
        registry.gauge("last_thread").set(static_cast<double>(t));
        registry.histogram("obs", {}, count_buckets())
            .observe(static_cast<double>(i % 10));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter_value("shared_total"),
            static_cast<std::uint64_t>(kThreads) * kIncs);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter_value("per_thread_total",
                                     {{"t", std::to_string(t)}}),
              static_cast<std::uint64_t>(kIncs));
  }
  const MetricsSnapshot snap = registry.snapshot();
  const MetricPoint* obs = snap.find("obs");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->histogram.count,
            static_cast<std::uint64_t>(kThreads) * kIncs);
}

// ------------------------------------------------- histogram percentiles

TEST(HistogramTest, PercentilesTrackExactWithinBucketWidth) {
  // Random latencies against the exact common/stats percentile: the
  // bucketed estimate must land within the width of the owning bucket.
  Rng rng(0x415757ull);
  const std::vector<double>& bounds = latency_seconds_buckets();
  Histogram h(bounds);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    // Mix of scales so every bucket region gets traffic.
    const double v = std::pow(10.0, -3.0 + 6.0 * rng.uniform01());
    h.observe(v);
    xs.push_back(v);
  }
  for (const double p : {50.0, 95.0, 99.0}) {
    const double exact = percentile(xs, p);
    const double estimate = h.percentile(p);
    // Owning bucket of the exact value -> allowed error is that width.
    double lower = 0.0, width = 0.0;
    for (std::size_t b = 0; b <= bounds.size(); ++b) {
      const double upper = b < bounds.size()
                               ? bounds[b]
                               : std::numeric_limits<double>::infinity();
      if (exact <= upper) {
        width = std::isinf(upper) ? exact : upper - lower;
        break;
      }
      lower = upper;
    }
    EXPECT_NEAR(estimate, exact, width + 1e-9)
        << "p" << p << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(HistogramTest, PercentileEdgesClampToObservedRange) {
  Histogram h({10.0, 100.0});
  h.observe(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
  h.observe(60.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 60.0);
}

// ------------------------------------------------------------- exporters

TEST(ExportTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.counter("cia_rounds_total", {{"agent", "node-0"}}).inc(3);
  registry.gauge("cia_depth").set(2.5);
  registry.histogram("cia_lat", {}, {1.0, 5.0}).observe(0.5);
  registry.histogram("cia_lat", {}, {1.0, 5.0}).observe(3.0);
  const std::string expected =
      "# TYPE cia_depth gauge\n"
      "cia_depth 2.5\n"
      "# TYPE cia_lat histogram\n"
      "cia_lat_bucket{le=\"1\"} 1\n"
      "cia_lat_bucket{le=\"5\"} 2\n"
      "cia_lat_bucket{le=\"+Inf\"} 2\n"
      "cia_lat_sum 3.5\n"
      "cia_lat_count 2\n"
      "# TYPE cia_rounds_total counter\n"
      "cia_rounds_total{agent=\"node-0\"} 3\n";
  EXPECT_EQ(to_prometheus(registry.snapshot()), expected);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("c", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(ExportTest, JsonRoundTripsThroughSnapshotFromJson) {
  MetricsRegistry registry;
  registry.counter("cia_rounds_total", {{"agent", "node-0"}}).inc(7);
  registry.gauge("cia_staleness", {{"mirror", "m0"}}).set(1234.5);
  Histogram& h = registry.histogram("cia_lat", {{"link", "a:1"}},
                                    latency_seconds_buckets());
  for (int i = 1; i <= 100; ++i) h.observe(i * 0.37);

  const MetricsSnapshot before = registry.snapshot();
  const json::Value doc = to_json(before);
  auto parsed = snapshot_from_json(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  // Re-export equality is the round-trip invariant (p50/p95/p99 are
  // derived on export, so they must reproduce too).
  EXPECT_EQ(to_json(parsed.value()).dump(), doc.dump());
  EXPECT_EQ(to_prometheus(parsed.value()), to_prometheus(before));
}

TEST(ExportTest, DiffReportsAddedChangedRemoved) {
  MetricsRegistry a;
  a.counter("gone").inc();
  a.counter("changed").inc(2);
  MetricsRegistry b;
  b.counter("changed").inc(5);
  b.counter("added").inc();
  const std::string diff = diff_snapshots(a.snapshot(), b.snapshot());
  EXPECT_NE(diff.find("+ added 1"), std::string::npos);
  EXPECT_NE(diff.find("~ changed 2 -> 5 (+3)"), std::string::npos);
  EXPECT_NE(diff.find("- gone"), std::string::npos);
  EXPECT_TRUE(diff_snapshots(b.snapshot(), b.snapshot()).empty());
}

// Two runs of one seed differ only in the wall-clock `*_us` series, so
// `cia_metrics diff` prints those but exits 0 on them; any other series
// that differs, a counter here, makes it exit 1.
TEST(ExportTest, OnlyWallClockSeriesMayDiffer) {
  MetricsRegistry a;
  a.counter("cia_rounds_total").inc(3);
  a.histogram("cia_agent_quote_us", {{"agent", "a1"}}, {10.0}).observe(4);
  MetricsRegistry b;
  b.counter("cia_rounds_total").inc(3);
  b.histogram("cia_agent_quote_us", {{"agent", "a1"}}, {10.0}).observe(7);
  EXPECT_NE(diff_snapshots(a.snapshot(), b.snapshot()).find(
                "~ cia_agent_quote_us{agent=a1}"),
            std::string::npos);
  EXPECT_FALSE(differs_beyond_wall_clock(a.snapshot(), b.snapshot()));

  b.counter("cia_rounds_total").inc();
  EXPECT_TRUE(differs_beyond_wall_clock(a.snapshot(), b.snapshot()));
}

// ----------------------------------------------------------- log bridge

TEST(LogBridgeTest, WarnAndErrorCountRegardlessOfPrintThreshold) {
  MetricsRegistry registry;
  attach_log_counter(&registry);
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);  // nothing printed — still counted
  CIA_LOG_WARN("verifier", "something odd");
  CIA_LOG_ERROR("mirror", "sync failed");
  CIA_LOG_INFO("verifier", "routine");  // info is never counted
  set_log_level(saved);
  attach_log_counter(nullptr);
  EXPECT_EQ(registry.counter_value(
                "cia_log_events_total",
                {{"component", "verifier"}, {"level", "warn"}}),
            1u);
  EXPECT_EQ(registry.counter_value(
                "cia_log_events_total",
                {{"component", "mirror"}, {"level", "error"}}),
            1u);
  EXPECT_EQ(registry.snapshot().counter_total("cia_log_events_total"), 2.0);
}

TEST(LogBridgeTest, StructuredFieldsAreAppendedKeyEqualsValue) {
  // Printed form: fields render as key=value, quoted when they contain
  // spaces. Verified through the observer message (no stderr capture).
  std::string seen;
  set_log_observer(
      [&seen](LogLevel, const std::string&, const std::string& message) {
        seen = message;
      });
  log_line(LogLevel::kWarn, "verifier", "alert",
           {{"agent", "node-0"}, {"detail", "bad hash"}});
  set_log_observer(nullptr);
  EXPECT_NE(seen.find("agent=node-0"), std::string::npos);
  EXPECT_NE(seen.find("detail=\"bad hash\""), std::string::npos);
}

// ----------------------------------------------------------------- spans

TEST(TracerTest, NestingFollowsOpenSpanStack) {
  SimClock clock;
  Tracer tracer(&clock);
  const SpanId root = tracer.begin("round");
  clock.advance(5);
  const SpanId child = tracer.begin("rpc");
  tracer.annotate("attempt", "2");  // innermost open span = child
  clock.advance(3);
  tracer.end(child);
  clock.advance(2);
  tracer.end(root);

  ASSERT_EQ(tracer.finished().size(), 2u);
  const Span& rpc = tracer.finished()[0];
  const Span& round = tracer.finished()[1];
  EXPECT_EQ(rpc.parent, root);
  EXPECT_EQ(round.parent, 0u);
  EXPECT_EQ(rpc.start, 5);
  EXPECT_EQ(rpc.end, 8);
  EXPECT_EQ(round.start, 0);
  EXPECT_EQ(round.end, 10);
  ASSERT_EQ(rpc.annotations.size(), 1u);
  EXPECT_EQ(rpc.annotations[0].first, "attempt");
  EXPECT_EQ(rpc.annotations[0].second, "2");
}

TEST(TracerTest, EndingAParentClosesOrphanedChildren) {
  SimClock clock;
  Tracer tracer(&clock);
  const SpanId root = tracer.begin("round");
  (void)tracer.begin("leaked");
  tracer.end(root);  // crash path: the child must not stay open
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.finished().size(), 2u);
}

class FlakyEndpoint : public netsim::Endpoint {
 public:
  Result<Bytes> handle(const std::string&, const Bytes& payload) override {
    return payload;
  }
};

TEST(TracerTest, TransportRetriesNestAndAnnotate) {
  SimClock clock;
  netsim::SimNetwork network(&clock, 7);
  FlakyEndpoint endpoint;
  network.attach("svc:1", &endpoint);
  netsim::FaultProfile lossy;
  lossy.drop_rate = 0.5;
  network.set_faults(lossy);

  MetricsRegistry registry;
  Tracer tracer(&clock);
  netsim::RetryingTransport transport(&network, &clock, 11);
  transport.use_telemetry(&registry, &tracer);
  network.use_telemetry(&registry);

  std::uint64_t annotated_retries = 0;
  for (int i = 0; i < 200; ++i) {
    const SpanId caller = tracer.begin("attestation_round");
    (void)transport.call("svc:1", "quote", {1, 2, 3});
    tracer.end(caller);
  }
  std::size_t transport_spans = 0;
  for (const Span& span : tracer.finished()) {
    if (span.name != "transport_call") continue;
    ++transport_spans;
    EXPECT_NE(span.parent, 0u);  // always nested under the caller's span
    for (const auto& [key, value] : span.annotations) {
      if (key == "retries") annotated_retries += std::stoull(value);
    }
  }
  EXPECT_EQ(transport_spans, 200u);
  // The span annotations, the exported counter, and the transport's own
  // books must all agree on how many retries happened.
  const auto& stats = transport.stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(annotated_retries, stats.retries);
  EXPECT_EQ(registry.snapshot().counter_total("cia_transport_retries_total"),
            static_cast<double>(stats.retries));
  // And the network's drop counter matches its own stats.
  EXPECT_EQ(registry.snapshot().counter_total("cia_net_drops_total"),
            static_cast<double>(network.stats().dropped));
}

// --------------------------------------------- end-to-end chaos telemetry

TEST(ChaosTelemetryTest, WanLossExportMatchesTransportBooksExactly) {
  SimClock placeholder;
  MetricsRegistry registry;
  Tracer tracer(&placeholder);
  experiments::ChaosOptions options;
  options.scenario = "wan-loss";
  options.nodes = 4;
  options.days = 3;
  options.archive.base_package_count = 120;
  options.metrics = &registry;
  options.tracer = &tracer;
  const experiments::ChaosReport report = run_chaos_experiment(options);
  ASSERT_TRUE(report.valid);

  const MetricsSnapshot snap = registry.snapshot();

  // Acceptance: per-link retry counters sum to the transport's internal
  // count exactly — the exported numbers are the real numbers.
  EXPECT_EQ(snap.counter_total("cia_transport_retries_total"),
            static_cast<double>(report.retries));
  EXPECT_EQ(snap.counter_total("cia_transport_giveups_total"),
            static_cast<double>(report.giveups));
  EXPECT_EQ(snap.counter_total("cia_net_drops_total"),
            static_cast<double>(report.drops));
  EXPECT_EQ(snap.counter_total("cia_net_timeouts_total"),
            static_cast<double>(report.timeouts));
  EXPECT_EQ(snap.counter_total("cia_net_duplicates_total"),
            static_cast<double>(report.duplicates));

  // Round latency histogram exists and reports a usable p95.
  double rounds = 0.0;
  bool saw_histogram = false;
  for (const MetricPoint& p : snap.points) {
    if (p.name == "cia_verifier_rounds_total") rounds += p.value;
    if (p.name == "cia_verifier_round_seconds") {
      saw_histogram = true;
      EXPECT_GT(p.histogram.count, 0u);
      const double p95 = p.histogram.percentile(95);
      EXPECT_GE(p95, 0.0);
      EXPECT_TRUE(std::isfinite(p95));
    }
  }
  EXPECT_TRUE(saw_histogram);
  EXPECT_EQ(rounds, static_cast<double>(report.polls));

  // The injected violation surfaced in the alert counters.
  EXPECT_GE(snap.counter_total("cia_verifier_alerts_total"), 1.0);

  // The Chrome trace is valid JSON and every non-root span nests inside
  // its parent's window.
  auto trace_doc = json::parse(tracer.chrome_trace().dump());
  ASSERT_TRUE(trace_doc.ok());
  const json::Value* events = trace_doc.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->as_array().empty());

  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : tracer.finished()) by_id[span.id] = &span;
  std::size_t nested = 0;
  for (const Span& span : tracer.finished()) {
    if (span.parent == 0) continue;
    ++nested;
    auto parent = by_id.find(span.parent);
    ASSERT_NE(parent, by_id.end());
    EXPECT_GE(span.start, parent->second->start);
    EXPECT_LE(span.end, parent->second->end);
  }
  EXPECT_GT(nested, 0u);
}

}  // namespace
}  // namespace cia::telemetry
