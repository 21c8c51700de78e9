// E12 — microbenchmarks (google-benchmark): throughput of the primitives
// behind every experiment, for performance-regression tracking. A custom
// main mirrors every measurement into BENCH_micro.json (seconds per
// iteration, keyed by benchmark name) so the regression trajectory is
// machine-readable like the table benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <numbers>
#include <vector>

#include "obs/obs.hpp"
#include "util/json_report.hpp"

#include "baseline/mpr.hpp"
#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "dynamic/churn_trace.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/graph.hpp"
#include "sim/reconvergence.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace remspan {
namespace {

const Graph& shared_udg() {
  static const Graph g = [] {
    Rng rng(77);
    const auto gg = random_unit_disk_graph(7.0, 500, rng);
    return largest_component(gg.graph);
  }();
  return g;
}

/// A shuffled random-UDG edge list of about `edges` edges (mean degree
/// ~10): the order an ingest path sees edges arrive in.
struct IngestInput {
  NodeId n = 0;
  std::vector<Edge> shuffled;
};

const IngestInput& ingest_input(std::size_t edges) {
  static std::map<std::size_t, IngestInput> inputs;
  auto [it, fresh] = inputs.try_emplace(edges);
  if (fresh) {
    const double mean_nodes = static_cast<double>(edges) / 5.0;
    Rng rng(91);
    const Graph g =
        random_unit_disk_graph(std::sqrt(mean_nodes * std::numbers::pi / 10.0), mean_nodes, rng)
            .graph;
    it->second.n = g.num_nodes();
    it->second.shuffled.assign(g.edges().begin(), g.edges().end());
    rng.shuffle(it->second.shuffled);
  }
  return it->second;
}

void BM_GraphIngest(benchmark::State& state) {
  const IngestInput& in = ingest_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    GraphBuilder builder(in.n);
    builder.reserve(in.shuffled.size());
    for (const Edge& e : in.shuffled) builder.add_edge(e.u, e.v);
    benchmark::DoNotOptimize(builder.build().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.shuffled.size()));
}
// One edge count below the parallel-CSR threshold (one block on the
// caller) and one above it (blocks on the pool).
static_assert(std::size_t{1} << 15 < detail::kParallelCsrEdges &&
              std::size_t{1} << 20 > detail::kParallelCsrEdges);
BENCHMARK(BM_GraphIngest)->Arg(1 << 15)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

void BM_BfsFull(benchmark::State& state) {
  const Graph& g = shared_udg();
  BoundedBfs bfs(g.num_nodes());
  NodeId src = 0;
  for (auto _ : state) {
    bfs.run(GraphView(g), src);
    src = (src + 1) % g.num_nodes();
    benchmark::DoNotOptimize(bfs.order().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BfsFull);

void BM_BfsTwoHop(benchmark::State& state) {
  const Graph& g = shared_udg();
  BoundedBfs bfs(g.num_nodes());
  NodeId src = 0;
  for (auto _ : state) {
    bfs.run(GraphView(g), src, 2);
    src = (src + 1) % g.num_nodes();
    benchmark::DoNotOptimize(bfs.order().size());
  }
}
BENCHMARK(BM_BfsTwoHop);

void BM_DomTreeGreedy(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto r = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.greedy(root, r, 1).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeGreedy)->Arg(2)->Arg(3)->Arg(5);

void BM_DomTreeGreedyK(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto k = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.greedy_k(root, k).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeGreedyK)->Arg(1)->Arg(2)->Arg(4);

void BM_DomTreeMis(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto r = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.mis(root, r).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeMis)->Arg(2)->Arg(3)->Arg(5);

void BM_DomTreeMisK(benchmark::State& state) {
  const Graph& g = shared_udg();
  DomTreeBuilder builder(g);
  const auto k = static_cast<Dist>(state.range(0));
  NodeId root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.mis_k(root, k).num_edges());
    root = (root + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_DomTreeMisK)->Arg(1)->Arg(2)->Arg(4);

void BM_SpannerBuildTh2(benchmark::State& state) {
  const Graph& g = shared_udg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_k_connecting_spanner(g, 1).size());
  }
}
BENCHMARK(BM_SpannerBuildTh2)->Unit(benchmark::kMillisecond);

void BM_SpannerBuildTh1(benchmark::State& state) {
  const Graph& g = shared_udg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_low_stretch_remote_spanner(g, 0.5).size());
  }
}
BENCHMARK(BM_SpannerBuildTh1)->Unit(benchmark::kMillisecond);

void BM_SpannerUnion(benchmark::State& state) {
  // Isolates the union step of the spanner builds: all per-root tree edge
  // lists are precomputed once, the loop measures only merging them into
  // one shared atomic bitset from every pool worker (word-batched relaxed
  // fetch_or) plus the final snapshot into a DynamicBitset.
  const Graph& g = shared_udg();
  static const std::vector<std::vector<EdgeId>> tree_edges = [] {
    const Graph& gg = shared_udg();
    DomTreeBuilder builder(gg);
    std::vector<std::vector<EdgeId>> all(gg.num_nodes());
    for (NodeId u = 0; u < gg.num_nodes(); ++u) {
      const RootedTree tree = builder.greedy(u, 3, 1);
      for (const NodeId v : tree.nodes()) {
        if (v != tree.root()) all[u].push_back(tree.parent_edge(v));
      }
    }
    return all;
  }();

  auto& pool = ThreadPool::global();
  std::vector<std::vector<EdgeId>> batches(pool.concurrency());
  for (auto _ : state) {
    AtomicBitset shared(g.num_edges());
    pool.parallel_for_workers(
        0, tree_edges.size(), [&](std::size_t root, std::size_t worker) {
          auto& ids = batches[worker];
          ids.assign(tree_edges[root].begin(), tree_edges[root].end());
          shared.or_batch(ids);
        });
    benchmark::DoNotOptimize(shared.snapshot().count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree_edges.size()));
}
BENCHMARK(BM_SpannerUnion);

void BM_OlsrMprNode(benchmark::State& state) {
  const Graph& g = shared_udg();
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(olsr_mpr_set(g, u).size());
    u = (u + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_OlsrMprNode);

void BM_DisjointPathsOracle(benchmark::State& state) {
  const Graph& g = shared_udg();
  NodeId s = 0;
  for (auto _ : state) {
    const NodeId t = (s + g.num_nodes() / 2) % g.num_nodes();
    benchmark::DoNotOptimize(min_disjoint_paths(GraphView(g), s, t, 2).connectivity());
    s = (s + 1) % g.num_nodes();
  }
  state.SetLabel("d^2 via min-cost flow, n=" + std::to_string(g.num_nodes()));
}
BENCHMARK(BM_DisjointPathsOracle)->Unit(benchmark::kMillisecond);

/// A converged th2?k=1 ReconvergenceSim (incremental strategy, 5% iid loss)
/// on a 2-D unit ball graph of ~2k nodes (mean degree ~8), plus a mobility
/// cycle for it: 5 movers per batch, the batches forward and then undone in
/// reverse, so the cycle repeats forever on the same topologies.
struct LossyReconvergence {
  std::unique_ptr<ReconvergenceSim> sim;
  std::vector<std::vector<GraphEvent>> cycle;
  std::size_t next = 0;
};

LossyReconvergence& lossy_reconvergence() {
  static LossyReconvergence state = [] {
    Rng rng(29);
    const GeometricGraph gg = largest_component(uniform_unit_ball_graph(2000, 28.4, 2, rng));
    const ChurnTrace trace = mobility_churn_trace(gg, 32, 5, 31);
    LossyReconvergence s;
    s.cycle = trace.batches;
    // Mobility batches only flip edges, so a batch's inverse is its events
    // flipped, in reverse order.
    for (auto batch = trace.batches.rbegin(); batch != trace.batches.rend(); ++batch) {
      std::vector<GraphEvent>& undo = s.cycle.emplace_back();
      for (auto ev = batch->rbegin(); ev != batch->rend(); ++ev) {
        REMSPAN_CHECK(ev->kind == GraphEventKind::kEdgeUp || ev->kind == GraphEventKind::kEdgeDown);
        undo.push_back(ev->kind == GraphEventKind::kEdgeUp ? GraphEvent::edge_down(ev->u, ev->v)
                                                          : GraphEvent::edge_up(ev->u, ev->v));
      }
    }
    FaultConfig faults;
    faults.link.drop = 0.05;
    faults.link.seed = 1;
    s.sim = std::make_unique<ReconvergenceSim>(trace.initial_graph(),
                                               RemSpanConfig{TreeRecipe::k_connecting(1)},
                                               ReconvergeStrategy::kIncremental, faults);
    return s;
  }();
  return state;
}

void BM_ReconvergeLossyEpoch(benchmark::State& state) {
  // One reconvergence epoch of the protocol under loss: the dirty nodes
  // re-advertise, every node's receive path takes the HELLOs, lists and
  // trees (plus retransmitted copies) until the confirmed quiet point.
  LossyReconvergence& r = lossy_reconvergence();
  std::int64_t transmissions = 0;
  for (auto _ : state) {
    const auto& batch = r.cycle[r.next++ % r.cycle.size()];
    transmissions += static_cast<std::int64_t>(r.sim->apply_batch(batch).transmissions);
  }
  state.SetItemsProcessed(transmissions);
  state.SetLabel("n=" + std::to_string(r.sim->graph().num_nodes()) + ", items = transmissions");
}
BENCHMARK(BM_ReconvergeLossyEpoch)->Unit(benchmark::kMillisecond);

void BM_ObsCounterHot(benchmark::State& state) {
  // Price of one id-indexed counter write with a registry installed — the
  // sink load, the thread-local slab lookup and one relaxed load/store —
  // which every per-tree hook pays several times when a sink is live.
  obs::Registry registry;
  const obs::ScopedSinks sinks(&registry, nullptr);
  for (auto _ : state) {
    obs::add(obs::Metric::kBfsRuns);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterHot);

// BM_SpannerBuildTh2 with the metrics registry installed: read against
// that benchmark, it prices leaving metrics on for a whole build (every BFS
// run and tree build publishes its tallies).
void BM_ObsBuildSinksOn(benchmark::State& state) {
  const Graph& g = shared_udg();
  obs::Registry registry;
  const obs::ScopedSinks sinks(&registry, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_k_connecting_spanner(g, 1).size());
  }
}
BENCHMARK(BM_ObsBuildSinksOn)->Unit(benchmark::kMillisecond);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // The disabled path the determinism contract pins: with no sinks
  // installed a PhaseSpan must cost the stopwatch read plus one predicted
  // branch per endpoint, nothing more. Gated by the committed baseline like
  // every other micro value.
  for (auto _ : state) {
    const obs::PhaseSpan span("bench.disabled", "bench");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanDisabled);

/// Console output as usual, plus seconds-per-iteration collected for the
/// JSON report. Benchmark names like "BM_DomTreeMis/3" become keys with the
/// '/' flattened to '_' and a "_seconds" suffix — the suffix is what makes
/// bench_diff apply its one-sided timing rule to every micro value, so the
/// committed BENCH_micro.json baseline gates the key SET hard (a benchmark
/// silently disappearing is a regression) while time drift only fails past
/// the generous --time-threshold CI passes.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.iterations == 0) continue;
      std::string key = run.benchmark_name();
      std::replace(key.begin(), key.end(), '/', '_');
      seconds_per_iteration.emplace_back(
          key + "_seconds", run.real_accumulated_time / static_cast<double>(run.iterations));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> seconds_per_iteration;
};

}  // namespace
}  // namespace remspan

int main(int argc, char** argv) {
  remspan::obs::PhaseSpan timer("bench.run", "bench");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  remspan::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  remspan::BenchReport report("micro");
  report.param("workload", std::string("shared UDG side=7 mean_n=500 seed=77"));
  for (const auto& [key, seconds] : reporter.seconds_per_iteration) {
    report.value(key, seconds);
  }
  report.set_wall_seconds(timer.seconds());
  report.write_file(report.default_filename());
  std::cout << "\nreport: " << report.default_filename() << "\n";
  return 0;
}
