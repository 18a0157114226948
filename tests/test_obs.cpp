// Tests for the observability substrate: event rings (seqlock discipline,
// wraparound drop accounting), the metrics registry (snapshot/diff/JSON,
// equality with the legacy per-subsystem counters structs), the diagnostics
// hub, the JSON linter, and the Perfetto exporter — including a byte-stable
// golden-file render under the virtual clock and an end-to-end schema check
// of a real traced session.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "faultsim/injector.hpp"
#include "mpisim/counters.hpp"
#include "mpisim/request.hpp"
#include "obs/diagnostics.hpp"
#include "obs/jsonlint.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/ring.hpp"

namespace {

/// Every obs test restores the global substrate to the disabled baseline so
/// test order (or a plain `./test_obs` run) cannot leak tracing state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::reset_rings();
    obs::clear_diagnostics();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::use_wall_clock();
    obs::reset_rings();
    obs::clear_diagnostics();
  }
};

using ObsRingTest = ObsTest;
using ObsMetricsTest = ObsTest;
using ObsDiagnosticsTest = ObsTest;
using ObsExportTest = ObsTest;
using ObsSessionTest = ObsTest;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// -- event ring --------------------------------------------------------------------

TEST_F(ObsRingTest, DisabledEmitIsInvisible) {
  obs::emit_instant(0, obs::EventKind::kSync, obs::kHostTrack, "ignored");
  { obs::Span span(0, obs::EventKind::kKernel, obs::stream_track(0), "ignored"); }
  EXPECT_TRUE(obs::active_ring_ranks().empty());
}

TEST_F(ObsRingTest, EmitRecordsRankTrackAndPayload) {
  obs::set_tracing_enabled(true);
  obs::emit_instant(3, obs::EventKind::kMemcpy, obs::stream_track(1), "memcpy", 4096);
  const auto ranks = obs::active_ring_ranks();
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0], 3);
  const auto events = obs::ring_for_rank(3).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[0].track, obs::stream_track(1));
  EXPECT_EQ(events[0].kind, obs::EventKind::kMemcpy);
  EXPECT_EQ(events[0].arg, 4096u);
  EXPECT_EQ(events[0].dur_ns, 0u);
  EXPECT_STREQ(events[0].name, "memcpy");
}

TEST_F(ObsRingTest, BoundRankAttributesEvents) {
  obs::set_tracing_enabled(true);
  obs::bind_rank(7);
  obs::emit_instant(obs::EventKind::kSync, obs::kHostTrack, "sync");
  obs::bind_rank(-1);
  const auto events = obs::ring_for_rank(7).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rank, 7);
}

TEST_F(ObsRingTest, SpanMeasuresNonZeroDuration) {
  obs::set_tracing_enabled(true);
  obs::use_virtual_clock(1000, 250);
  { obs::Span span(0, obs::EventKind::kKernel, obs::stream_track(2), "saxpy", 64); }
  const auto events = obs::ring_for_rank(0).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 250u);
  EXPECT_EQ(events[0].arg, 64u);
}

TEST_F(ObsRingTest, LongNamesTruncateSafely) {
  obs::set_tracing_enabled(true);
  const std::string lang(100, 'k');
  obs::emit_instant(0, obs::EventKind::kKernel, obs::kHostTrack, lang.c_str());
  const auto events = obs::ring_for_rank(0).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(), sizeof(events[0].name) - 1);
}

TEST_F(ObsRingTest, WrapAroundKeepsNewestAndCountsDrops) {
  obs::set_tracing_enabled(true);
  obs::EventRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::Event event;
    event.ts_ns = i;
    event.rank = 0;
    ring.emit(event);
  }
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Emission order, oldest surviving entry first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 12 + i);
  }
}

TEST_F(ObsRingTest, OutOfTableRanksShareTheUnattributedRing) {
  obs::set_tracing_enabled(true);
  obs::emit_instant(-1, obs::EventKind::kTrace, obs::kHostTrack, "unattributed");
  obs::emit_instant(1 << 20, obs::EventKind::kTrace, obs::kHostTrack, "clamped");
  EXPECT_EQ(obs::ring_for_rank(-1).snapshot().size(), 2u);
}

// -- metrics registry -----------------------------------------------------------------

TEST_F(ObsMetricsTest, CounterHandleIsStableAndAtomic) {
  obs::Counter& c = obs::metric("test_obs.counter_a");
  const std::uint64_t base = c.value();
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), base + 5);
  EXPECT_EQ(&obs::metric("test_obs.counter_a"), &c);
}

TEST_F(ObsMetricsTest, SnapshotDiffClampsAndDropsStaleKeys) {
  obs::MetricsSnapshot earlier{{"a", 10}, {"b", 5}, {"gone", 1}};
  obs::MetricsSnapshot later{{"a", 15}, {"b", 2}, {"new", 7}};
  const auto delta = obs::MetricsRegistry::diff(later, earlier);
  EXPECT_EQ(delta.at("a"), 5u);
  EXPECT_EQ(delta.at("b"), 0u);  // gauge moved down: clamped
  EXPECT_EQ(delta.at("new"), 7u);
  EXPECT_EQ(delta.count("gone"), 0u);
}

TEST_F(ObsMetricsTest, SnapshotIncludesMemstatsProvider) {
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  ASSERT_EQ(snapshot.count("process.rss_bytes"), 1u);
  ASSERT_EQ(snapshot.count("process.rss_peak_bytes"), 1u);
  EXPECT_GE(snapshot.at("process.rss_peak_bytes"), snapshot.at("process.rss_bytes"));
  EXPECT_GT(snapshot.at("process.rss_bytes"), 0u);
}

TEST_F(ObsMetricsTest, JsonExportIsValidAndFlat) {
  obs::metric("test_obs.json_counter").add(3);
  obs::MetricsRegistry::instance().set_gauge("test_obs.json_gauge", 42);
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  const std::string json = obs::MetricsRegistry::to_json(snapshot);
  std::string error;
  std::size_t count = 0;
  ASSERT_TRUE(obs::jsonlint::validate_metrics_json(json, &error, &count)) << error;
  EXPECT_EQ(count, snapshot.size());
  EXPECT_NE(json.find("\"test_obs.json_gauge\": 42"), std::string::npos);
}

TEST_F(ObsMetricsTest, ProvidersRunAtSnapshotTime) {
  obs::MetricsRegistry::instance().register_provider(
      "test_obs.provider", [](obs::MetricsSnapshot& snapshot) {
        snapshot["test_obs.provided"] = 123;
      });
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().at("test_obs.provided"), 123u);
  // Replacing a provider under the same name must not double-report.
  obs::MetricsRegistry::instance().register_provider(
      "test_obs.provider", [](obs::MetricsSnapshot& snapshot) {
        snapshot["test_obs.provided"] = 456;
      });
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().at("test_obs.provided"), 456u);
}

// -- diagnostics hub ----------------------------------------------------------------

class RecordingSink : public obs::DiagnosticSink {
 public:
  void on_diagnostic(const obs::Diagnostic& diagnostic) override { seen.push_back(diagnostic); }
  std::vector<obs::Diagnostic> seen;
};

TEST_F(ObsDiagnosticsTest, EmitFansOutToSinksStoreAndMetric) {
  RecordingSink sink;
  obs::add_diagnostic_sink(&sink);
  const std::uint64_t metric_before = obs::metric("diag.test_obs.synthetic").value();
  obs::emit_diagnostic({"test_obs.synthetic", obs::Severity::kError, 4, "boom", 0});
  obs::remove_diagnostic_sink(&sink);
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0].id, "test_obs.synthetic");
  EXPECT_EQ(sink.seen[0].rank, 4);
  EXPECT_EQ(sink.seen[0].severity, obs::Severity::kError);
  EXPECT_GT(sink.seen[0].ts_ns, 0u) << "ts_ns == 0 must be stamped at emit time";
  EXPECT_EQ(obs::metric("diag.test_obs.synthetic").value(), metric_before + 1);
  const auto retained = obs::diagnostics();
  ASSERT_FALSE(retained.empty());
  EXPECT_EQ(retained.back().message, "boom");
}

TEST_F(ObsDiagnosticsTest, TracedDiagnosticLandsInTheEventRing) {
  obs::set_tracing_enabled(true);
  obs::emit_diagnostic({"test_obs.traced", obs::Severity::kWarning, 2, "marker", 0});
  const auto events = obs::ring_for_rank(2).snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kDiagnostic);
  EXPECT_STREQ(events[0].name, "test_obs.traced");
}

// -- JSON linter -----------------------------------------------------------------

TEST_F(ObsExportTest, LinterRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::jsonlint::validate_metrics_json("{\"a\": }", &error));
  EXPECT_FALSE(obs::jsonlint::validate_metrics_json("{\"a\": 1} trailing", &error));
  EXPECT_FALSE(obs::jsonlint::validate_metrics_json("{\"a\": \"str\"}", &error));
  EXPECT_FALSE(obs::jsonlint::validate_chrome_trace("{\"traceEvents\": {}}", &error));
  EXPECT_FALSE(obs::jsonlint::validate_chrome_trace(
      R"({"traceEvents": [{"ph": "X", "pid": 1, "name": "n"}]})", &error))
      << "X without ts/dur/tid must fail";
  EXPECT_TRUE(obs::jsonlint::validate_chrome_trace(
      R"({"traceEvents": [{"ph": "i", "s": "t", "cat": "schedule", "ts": 1.5, "pid": 1, "tid": 0, "name": "n"}]})",
      &error))
      << error;
  EXPECT_FALSE(obs::jsonlint::validate_chrome_trace(
      R"({"traceEvents": [{"ph": "i", "s": "t", "ts": 1.5, "pid": 1, "tid": 0, "name": "n"}]})",
      &error))
      << "events must carry a known category";
  EXPECT_FALSE(obs::jsonlint::validate_chrome_trace(
      R"({"traceEvents": [{"ph": "i", "s": "t", "cat": "bogus", "ts": 1, "pid": 1, "tid": 0, "name": "n"}]})",
      &error))
      << "unknown categories must be flagged";
}

// -- Perfetto exporter ---------------------------------------------------------------

/// Deterministic synthetic timeline: two ranks, host/stream/request tracks,
/// spans + instants + a diagnostic, all under the virtual clock.
void build_golden_timeline() {
  obs::use_virtual_clock(1000, 100);
  obs::set_tracing_enabled(true);
  obs::emit_instant(0, obs::EventKind::kSync, obs::kHostTrack, "cudaDeviceSynchronize");
  {
    obs::Span kernel(0, obs::EventKind::kKernel, obs::stream_track(0), "saxpy", 4096);
    obs::emit_instant(0, obs::EventKind::kMemcpy, obs::stream_track(1), "memcpy H2D", 512);
  }
  {
    obs::Span wait(1, obs::EventKind::kMpi, obs::kHostTrack, "MPI_Wait");
    obs::Event request;
    request.ts_ns = 2000;
    request.dur_ns = 750;
    request.arg = 64;
    request.rank = 1;
    request.track = obs::request_track(0);
    request.kind = obs::EventKind::kRequest;
    std::snprintf(request.name, sizeof(request.name), "MPI_Irecv");
    obs::emit_event(request);
  }
  obs::emit_diagnostic({"rsan.race", obs::Severity::kError, 1, "write-read conflict", 3});
}

TEST_F(ObsExportTest, GoldenPerfettoTraceIsByteStable) {
  build_golden_timeline();
  const std::string rendered = obs::export_chrome_trace();

  std::string error;
  std::size_t events = 0;
  ASSERT_TRUE(obs::jsonlint::validate_chrome_trace(rendered, &error, &events)) << error;
  EXPECT_EQ(events, 6u);  // 3 spans/events + 2 instants + 1 diagnostic marker

  const std::string golden_path = std::string(CUSAN_GOLDEN_DIR) + "/perfetto_trace.json";
  if (std::getenv("CUSAN_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(golden_path, rendered, &error)) << error;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path
                               << " (regenerate with CUSAN_UPDATE_GOLDEN=1)";
  EXPECT_EQ(rendered, golden);
}

TEST_F(ObsExportTest, RingOverflowSurfacesAsDiagnosticEvent) {
  obs::set_tracing_enabled(true);
  obs::use_virtual_clock(100, 1);
  const std::size_t capacity = obs::ring_for_rank(0).capacity();
  for (std::size_t i = 0; i < capacity + 5; ++i) {
    obs::emit_instant(0, obs::EventKind::kTrace, obs::kHostTrack, "spam");
  }
  const std::string rendered = obs::export_chrome_trace();
  EXPECT_NE(rendered.find("obs.ring_dropped"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::jsonlint::validate_chrome_trace(rendered, &error)) << error;
}

TEST_F(ObsExportTest, EnvParsingAcceptsPerfettoAndRejectsGarbage) {
  // Process env is not touched: this parses the documented forms directly.
  std::string error;
  setenv("CUSAN_TRACE", "perfetto:/tmp/x.json", 1);
  setenv("CUSAN_METRICS", "/tmp/m.json", 1);
  auto config = obs::export_config_from_env(&error);
  EXPECT_TRUE(config.trace_enabled);
  EXPECT_EQ(config.trace_path, "/tmp/x.json");
  EXPECT_EQ(config.metrics_path, "/tmp/m.json");
  EXPECT_TRUE(error.empty());
  setenv("CUSAN_TRACE", "chrome-ftw", 1);
  config = obs::export_config_from_env(&error);
  EXPECT_FALSE(config.trace_enabled);
  EXPECT_FALSE(error.empty());
  setenv("CUSAN_TRACE", "off", 1);
  error.clear();
  config = obs::export_config_from_env(&error);
  EXPECT_FALSE(config.trace_enabled);
  EXPECT_TRUE(error.empty());
  unsetenv("CUSAN_TRACE");
  unsetenv("CUSAN_METRICS");
}

// -- end to end: traced session + registry equality ----------------------------------------

/// A small two-rank workload crossing every producer: device memcpys (cusim
/// stream worker), blocking + nonblocking MPI (mpisim spans, must request
/// fibers), and an intentional race (rsan diagnostic).
void session_body(capi::RankEnv& env) {
  std::array<double, 64> buf{};
  capi::cuda::register_host_buffer(buf.data(), buf.size());
  double* dev = nullptr;
  ASSERT_EQ(capi::cuda::malloc_device(&dev, 64), cusim::Error::kSuccess);
  ASSERT_EQ(capi::cuda::memcpy(dev, buf.data(), 64 * sizeof(double),
                               cusim::MemcpyDir::kHostToDevice),
            cusim::Error::kSuccess);
  const int peer = env.rank() ^ 1;
  if (peer < env.size()) {
    mpisim::Request* req = nullptr;
    if (env.rank() == 0) {
      ASSERT_EQ(
          capi::mpi::isend(env.comm, buf.data(), 64, mpisim::Datatype::float64(), peer, 0, &req),
          mpisim::MpiError::kSuccess);
      ASSERT_EQ(capi::mpi::wait(env.comm, &req), mpisim::MpiError::kSuccess);
    } else if (env.rank() == 1) {
      ASSERT_EQ(
          capi::mpi::irecv(env.comm, buf.data(), 64, mpisim::Datatype::float64(), peer, 0, &req),
          mpisim::MpiError::kSuccess);
      ASSERT_EQ(capi::mpi::wait(env.comm, &req), mpisim::MpiError::kSuccess);
    }
  }
  (void)capi::mpi::barrier(env.comm);
  ASSERT_EQ(capi::cuda::free(dev), cusim::Error::kSuccess);
  capi::cuda::unregister_host_buffer(buf.data());
}

TEST_F(ObsSessionTest, TracedSessionExportsSchemaValidChromeTrace) {
  obs::set_tracing_enabled(true);
  const auto results = capi::run_flavored(capi::Flavor::kMustCusan, 2, session_body);
  ASSERT_EQ(results.size(), 2u);
  const std::string rendered = obs::export_chrome_trace();
  std::string error;
  std::size_t events = 0;
  ASSERT_TRUE(obs::jsonlint::validate_chrome_trace(rendered, &error, &events)) << error;
  EXPECT_GT(events, 10u);
  // Both ranks appear as processes; the stream worker and the request fiber
  // produced their own tracks.
  EXPECT_NE(rendered.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(rendered.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(rendered.find("\"stream 0\""), std::string::npos);
  EXPECT_NE(rendered.find("\"mpi request fiber 0\""), std::string::npos);
  // Request spans are named at issue time: mpisim has freed both requests
  // by the time MUST closes their spans.
  EXPECT_NE(rendered.find("\"MPI_Isend\""), std::string::npos);
  EXPECT_NE(rendered.find("\"MPI_Irecv\""), std::string::npos);
}

TEST_F(ObsSessionTest, RegistryDeltaMatchesLegacyCounterStructs) {
  const auto before = obs::MetricsRegistry::instance().snapshot();
  const auto contention_before = mpisim::contention_snapshot();
  const auto results = capi::run_flavored(capi::Flavor::kMustCusan, 2, session_body);
  const auto delta =
      obs::MetricsRegistry::diff(obs::MetricsRegistry::instance().snapshot(), before);
  const auto contention =
      mpisim::contention_delta(contention_before, mpisim::contention_snapshot());

  // Sum the per-rank legacy structs through the same enumeration that feeds
  // the registry; the registry delta must agree exactly.
  std::map<std::string, std::uint64_t> expected;
  for (const auto& result : results) {
    cusan::for_each_counter(result.cusan_counters, [&](const char* name, std::uint64_t value) {
      expected[std::string("cusan.") + name] += value;
    });
    rsan::for_each_counter(result.tsan_counters, [&](const char* name, std::uint64_t value) {
      expected[std::string("rsan.") + name] += value;
    });
    must::for_each_counter(result.must_counters, [&](const char* name, std::uint64_t value) {
      expected[std::string("must.") + name] += value;
    });
  }
  ASSERT_GT(expected["cusan.memcpys"], 0u);
  ASSERT_GT(expected["must.calls_intercepted"], 0u);
  for (const auto& [name, value] : expected) {
    if (value == 0) {
      continue;
    }
    const auto it = delta.find(name);
    ASSERT_NE(it, delta.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }

  // The mpisim contention surface reads through the same registry counters.
  EXPECT_EQ(delta.at("mpisim.mailbox_locks"), contention.mailbox_locks);
  EXPECT_EQ(delta.at("mpisim.wakeups_delivered"), contention.wakeups_delivered);
  EXPECT_GT(contention.mailbox_locks, 0u);
}

TEST_F(ObsSessionTest, FaultLedgerProviderAppearsInSnapshots) {
  // Touching the injector singleton registers its ledger provider; the fired
  // fault accounting then shows up in every snapshot.
  (void)faultsim::Injector::instance();
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snapshot.count("faultsim.ledger_fired"), 1u);
  EXPECT_EQ(snapshot.count("faultsim.ledger_unsurfaced"), 1u);
}

}  // namespace
