// The observability subsystem (src/obs): histogram bucket geometry,
// snapshot algebra (diff), serialization, the trace ring buffer, the sink
// hub, the per-thread cells behind catalog ids, and — the part TSan is
// pointed at — one registry's catalog cells hammered from every thread-pool
// worker with exact conservation: counters sum exactly, histogram totals
// (count, sum, per-bucket) are conserved.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/json_report.hpp"
#include "util/prelude.hpp"
#include "util/thread_pool.hpp"

namespace remspan {
namespace {

using obs::Metric;

// --- histogram geometry --------------------------------------------------

TEST(ObsMetrics, HistogramBucketGeometry) {
  // bucket_index is bit_width: bucket 0 holds exactly 0, bucket i >= 1
  // holds [2^(i-1), 2^i).
  EXPECT_EQ(obs::bucket_index(0), 0u);
  EXPECT_EQ(obs::bucket_index(1), 1u);
  EXPECT_EQ(obs::bucket_index(2), 2u);
  EXPECT_EQ(obs::bucket_index(3), 2u);
  EXPECT_EQ(obs::bucket_index(4), 3u);
  EXPECT_EQ(obs::bucket_index(~std::uint64_t{0}), 64u);
  EXPECT_EQ(obs::bucket_index(~std::uint64_t{0}), obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::bucket_floor(0), 0u);
  EXPECT_EQ(obs::bucket_floor(1), 1u);
  EXPECT_EQ(obs::bucket_floor(3), 4u);

  obs::Registry reg;
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull}) {
    reg.record(Metric::kBfsBallNodes, v);
  }
  const obs::HistogramSnapshot h = reg.snapshot().histograms.at("bfs.ball_nodes");
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1006u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[obs::bucket_index(1000)], 1u);
}

// --- snapshot algebra ----------------------------------------------------

TEST(ObsMetrics, SnapshotDiffIsComponentwise) {
  obs::Registry reg;
  reg.add(Metric::kBfsRuns, 10);
  reg.set(Metric::kServeQueueDepth, 4);
  reg.record(Metric::kBfsBallNodes, 3);
  const obs::Snapshot before = reg.snapshot();
  reg.add(Metric::kBfsRuns, 5);
  reg.add(Metric::kBfsNodesExpanded, 1);  // key absent from `before` counts as zero
  reg.set(Metric::kServeQueueDepth, -2);
  reg.record(Metric::kBfsBallNodes, 3);
  reg.record(Metric::kBfsBallNodes, 100);
  const obs::Snapshot d = reg.snapshot().diff(before);
  EXPECT_EQ(d.counters.at("bfs.runs"), 5u);
  EXPECT_EQ(d.counters.at("bfs.nodes_expanded"), 1u);
  EXPECT_EQ(d.gauges.at("serve.queue_depth"), -6);
  const obs::HistogramSnapshot& h = d.histograms.at("bfs.ball_nodes");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 103u);
  EXPECT_EQ(h.buckets[obs::bucket_index(3)], 1u);
  EXPECT_EQ(h.buckets[obs::bucket_index(100)], 1u);
}

TEST(ObsMetrics, DiffRejectsNonMonotoneCounters) {
  obs::Snapshot earlier;
  earlier.counters["a"] = 10;
  obs::Snapshot later;
  later.counters["a"] = 3;  // went backwards: not the same run
  EXPECT_THROW((void)later.diff(earlier), CheckError);
}

TEST(ObsMetrics, ToJsonIsDeterministicAndLabelsBucketsByFloor) {
  obs::Registry reg;
  // union.builds precedes shard.batches in the catalog; the JSON sorts by
  // name, not by catalog row or write order.
  reg.add(Metric::kUnionBuilds, 1);
  reg.add(Metric::kShardBatches, 2);
  reg.record(Metric::kBfsBallNodes, 5);  // bucket 3, floor 4
  const std::string json = reg.snapshot().to_json();
  // Sorted keys: byte-identical JSON for bit-identical runs.
  EXPECT_LT(json.find("\"shard.batches\""), json.find("\"union.builds\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"4\": 1"), std::string::npos) << json;
  EXPECT_EQ(json, reg.snapshot().to_json());
}

TEST(ObsMetrics, AppendToFlattensIntoBenchReport) {
  obs::Registry reg;
  reg.add(Metric::kBfsRuns, 9);
  reg.set(Metric::kServeQueueDepth, -1);
  reg.record(Metric::kBfsBallNodes, 4);
  reg.record(Metric::kBfsBallNodes, 4);
  BenchReport report("obs");
  reg.snapshot().append_to(report, "obs.");
  const auto& values = report.values();
  auto find = [&](const std::string& key) -> const JsonScalar* {
    for (const auto& [k, v] : values) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("obs.bfs.runs"), nullptr);
  EXPECT_EQ(std::get<std::int64_t>(*find("obs.bfs.runs")), 9);
  ASSERT_NE(find("obs.serve.queue_depth"), nullptr);
  EXPECT_EQ(std::get<std::int64_t>(*find("obs.serve.queue_depth")), -1);
  ASSERT_NE(find("obs.bfs.ball_nodes_count"), nullptr);
  EXPECT_EQ(std::get<std::int64_t>(*find("obs.bfs.ball_nodes_count")), 2);
  ASSERT_NE(find("obs.bfs.ball_nodes_sum"), nullptr);
  EXPECT_EQ(std::get<std::int64_t>(*find("obs.bfs.ball_nodes_sum")), 8);
}

// --- trace ring buffer ---------------------------------------------------

obs::TraceEvent instant_event(std::string name) {
  obs::TraceEvent e;
  e.name = std::move(name);
  e.cat = "test";
  e.ph = obs::kPhaseInstant;
  return e;
}

TEST(ObsTrace, RingKeepsPrefixDropsNewestAndCounts) {
  obs::TraceBuffer buf(3);
  for (int i = 0; i < 5; ++i) buf.emit(instant_event("e" + std::to_string(i)));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dropped(), 2u);
  const std::vector<obs::TraceEvent> events = buf.events();
  ASSERT_EQ(events.size(), 3u);
  // Drop-newest: the deterministic prefix e0..e2 survives, not the tail.
  EXPECT_EQ(events[0].name, "e0");
  EXPECT_EQ(events[2].name, "e2");
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(ObsTrace, ToJsonIsChromeTraceShapedAndEscaped) {
  obs::TraceBuffer buf;
  obs::TraceEvent e = instant_event("weird \"name\"\n");
  e.args = {{"k", JsonScalar(std::int64_t{7})}, {"s", JsonScalar(std::string("v\\"))}};
  buf.emit(std::move(e));
  const std::string json = buf.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("weird \\\"name\\\"\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"k\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"remspan_dropped_events\": 0"), std::string::npos) << json;
}

// --- sink hub and spans --------------------------------------------------

TEST(ObsSinks, DisabledByDefaultAndSpansStillTime) {
  ASSERT_EQ(obs::metrics(), nullptr);
  ASSERT_EQ(obs::trace(), nullptr);
  obs::PhaseSpan span("obs.test.disabled", "test");
  EXPECT_GE(span.seconds(), 0.0);  // plain stopwatch without sinks
}

TEST(ObsSinks, ScopedInstallExposesAndRestores) {
  obs::Registry reg;
  obs::TraceBuffer buf;
  {
    const obs::ScopedSinks sinks(&reg, &buf);
    ASSERT_EQ(obs::metrics(), &reg);
    ASSERT_EQ(obs::trace(), &buf);
    obs::add(Metric::kBfsRuns);
  }
  EXPECT_EQ(obs::metrics(), nullptr);
  EXPECT_EQ(obs::trace(), nullptr);
  obs::add(Metric::kBfsRuns);  // no sink installed: dropped
  EXPECT_EQ(reg.snapshot().counters.at("bfs.runs"), 1u);
}

TEST(ObsSinks, PhaseSpansEmitBalancedBeginEnd) {
  obs::Registry reg;
  obs::TraceBuffer buf;
  {
    const obs::ScopedSinks sinks(&reg, &buf);
    obs::PhaseSpan outer("obs.test.outer", "test");
    { obs::PhaseSpan inner("obs.test.inner", "test"); }
    obs::instant("obs.test.marker", "test");
  }
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t instants = 0;
  for (const obs::TraceEvent& e : buf.events()) {
    if (e.ph == obs::kPhaseBegin) ++begins;
    if (e.ph == obs::kPhaseEnd) ++ends;
    if (e.ph == obs::kPhaseInstant) ++instants;
    EXPECT_EQ(e.pid, obs::kEnginePid);
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(instants, 1u);
}

// --- per-thread cells behind catalog ids (TSan) --------------------------

/// Bucket, count and sum of `values` recorded into one histogram.
obs::HistogramSnapshot expected_histogram(const std::vector<std::uint64_t>& values) {
  obs::HistogramSnapshot h;
  for (const std::uint64_t v : values) {
    ++h.count;
    h.sum += v;
    ++h.buckets[obs::bucket_index(v)];
  }
  return h;
}

TEST(ObsCells, CatalogIsDenseAndSlotted) {
  EXPECT_EQ(obs::kNumCounters + obs::kNumGauges + obs::kNumHistograms, obs::kNumMetrics);
  EXPECT_EQ(obs::def(Metric::kBfsRuns).name, "bfs.runs");
  EXPECT_EQ(obs::def(Metric::kServeBatchEvents).kind, obs::Kind::kHistogram);
  EXPECT_EQ(obs::kSlot[obs::index(Metric::kBfsRuns)], 0u);
  EXPECT_EQ(obs::kSlot[obs::index(Metric::kBfsBallNodes)], 0u);  // first histogram
}

TEST(ObsCells, WrittenMetricAppearsEvenAtZero) {
  obs::Registry reg;
  EXPECT_TRUE(reg.snapshot().counters.empty());
  reg.add(Metric::kIncNoopBatches, 0);
  reg.set(Metric::kServeQueueDepth, 0);
  const obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters.at("inc.noop_batches"), 0u);
  EXPECT_EQ(s.gauges.at("serve.queue_depth"), 0);
  EXPECT_TRUE(s.histograms.empty());
}

TEST(ObsCells, KindMismatchAndCatalogNamesRejected) {
  obs::Registry reg;
  EXPECT_THROW(reg.add(Metric::kBfsBallNodes, 1), CheckError);
  EXPECT_THROW(reg.record(Metric::kBfsRuns, 1), CheckError);
  EXPECT_THROW(reg.set(Metric::kBfsRuns, 1), CheckError);
}

TEST(ObsCells, GaugesAreSharedLastWriteCells) {
  obs::Registry reg;
  reg.add_gauge(Metric::kServeTenantsLive, 3);
  std::thread([&] { reg.add_gauge(Metric::kServeTenantsLive, -1); }).join();
  reg.set(Metric::kServeQueueDepth, 17);
  std::thread([&] { reg.set(Metric::kServeQueueDepth, 5); }).join();
  const obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.gauges.at("serve.tenants_live"), 2);
  EXPECT_EQ(s.gauges.at("serve.queue_depth"), 5);
}

TEST(ObsCells, JoinedThreadCountsSurviveInSnapshot) {
  obs::Registry reg;
  reg.add(Metric::kBfsRuns, 1);
  std::thread worker([&] {
    reg.add(Metric::kBfsRuns, 10);
    reg.record(Metric::kBfsBallNodes, 7);
  });
  worker.join();
  // The worker's slab outlives the worker: the registry owns it.
  const obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.at("bfs.runs"), 11u);
  EXPECT_EQ(s.histograms.at("bfs.ball_nodes"), expected_histogram({7}));
}

TEST(ObsCells, RecreatedRegistryStartsFromZero) {
  // std::optional re-creates the registry in the same storage, so the new
  // one usually sits at the freed one's address: a thread-local cache keyed
  // by address would hand this thread the dead registry's slab.
  std::optional<obs::Registry> reg;
  const obs::Registry* first = nullptr;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    reg.emplace();
    if (first == nullptr) first = &*reg;
    EXPECT_EQ(&*reg, first);
    EXPECT_TRUE(reg->snapshot().counters.empty());
    reg->add(Metric::kDomtreeBuilds, round);
    std::thread([&] { reg->add(Metric::kDomtreeBuilds, 100); }).join();
    EXPECT_EQ(reg->snapshot().counters.at("domtree.builds"), round + 100);
    reg.reset();
  }
}

TEST(ObsCells, OneThreadKeepsRegistriesApart) {
  // Six registries written in rotation: every switch re-attaches through
  // the mutex, and no registry's counts leak into another's.
  std::vector<std::optional<obs::Registry>> regs(6);
  for (auto& r : regs) r.emplace();
  for (std::uint64_t i = 0; i < 600; ++i) {
    const std::size_t r = i % regs.size();
    regs[r]->add(Metric::kUnionTrees, r + 1);
    regs[r]->record(Metric::kDomtreeTreeEdges, r);
  }
  for (std::size_t r = 0; r < regs.size(); ++r) {
    const obs::Snapshot s = regs[r]->snapshot();
    EXPECT_EQ(s.counters.at("union.trees"), 100 * (r + 1)) << r;
    EXPECT_EQ(s.histograms.at("domtree.tree_edges"),
              expected_histogram(std::vector<std::uint64_t>(100, r)))
        << r;
  }
}

TEST(ObsCells, CountersSumExactlyAcrossWorkers) {
  obs::Registry reg;
  const obs::ScopedSinks sinks(&reg, nullptr);
  constexpr std::size_t kItems = 200000;
  ThreadPool::global().parallel_for_workers(0, kItems, [&](std::size_t i, std::size_t) {
    obs::add(Metric::kBfsRuns);
    obs::add(Metric::kBfsNodesExpanded, i % 7);
  });
  const obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.at("bfs.runs"), kItems);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kItems; ++i) expected += i % 7;
  EXPECT_EQ(s.counters.at("bfs.nodes_expanded"), expected);
}

TEST(ObsCells, HistogramTotalsConservedAcrossWorkers) {
  obs::Registry reg;
  const obs::ScopedSinks sinks(&reg, nullptr);
  constexpr std::size_t kItems = 100000;
  // Snapshots taken while the workers write must stay readable (TSan) and
  // monotone; only the final one is exact.
  std::thread reader([&] {
    obs::Snapshot last = reg.snapshot();
    for (int i = 0; i < 50; ++i) {
      const obs::Snapshot now = reg.snapshot();
      (void)now.diff(last);  // throws if any cell went backwards
      last = now;
    }
  });
  ThreadPool::global().parallel_for_workers(0, kItems, [&](std::size_t i, std::size_t) {
    obs::record(Metric::kBfsShellNodes, i % 1000);
  });
  reader.join();
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < kItems; ++i) values.push_back(i % 1000);
  EXPECT_EQ(reg.snapshot().histograms.at("bfs.shell_nodes"), expected_histogram(values));
}

}  // namespace
}  // namespace remspan
