// Incremental maintenance must be indistinguishable from rebuilding: after
// every batch the maintained spanner is required to be BIT-EXACT equal to a
// from-scratch build on the same snapshot, across graph families, seeds,
// constructions (r/k/beta), and batch sizes. Also pinned: the dirty-root
// set is a superset of the roots whose trees actually change, and the
// per-edge refcounts always equal the number of owning trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/registry.hpp"
#include "core/dominating_tree.hpp"
#include "dynamic/churn_trace.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "obs/obs.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

/// The shared churn corpus and construction sweep (tests/support/corpus.hpp);
/// aliased so the sweep bodies below read the same as before the extraction.
Graph make_family(int family, std::uint64_t seed) {
  return testsupport::churn_family(family, seed);
}

std::vector<TreeRecipe> sweep_configs() { return testsupport::incremental_sweep_configs(); }

/// One random batch of events: edge toggles over node pairs biased toward
/// existing edges, with a sprinkle of node up/down churn.
std::vector<GraphEvent> random_batch(const DynamicGraph& dg, const Graph& current,
                                     std::size_t size, Rng& rng) {
  std::vector<GraphEvent> batch;
  const NodeId n = dg.num_nodes();
  for (std::size_t i = 0; i < size; ++i) {
    const double roll = rng.uniform_real();
    if (roll < 0.1) {
      const auto v = static_cast<NodeId>(rng.uniform(n));
      batch.push_back(dg.node_up(v) ? GraphEvent::node_down(v) : GraphEvent::node_up(v));
    } else if (roll < 0.55 && current.num_edges() > 0) {
      const Edge e = current.edge(static_cast<EdgeId>(rng.uniform(current.num_edges())));
      batch.push_back(GraphEvent::edge_down(e.u, e.v));
    } else {
      const auto a = static_cast<NodeId>(rng.uniform(n));
      auto b = static_cast<NodeId>(rng.uniform(n));
      if (a == b) b = (b + 1) % n;
      batch.push_back(rng.bernoulli(0.5) ? GraphEvent::edge_up(a, b)
                                         : GraphEvent::edge_down(a, b));
    }
  }
  return batch;
}

/// From-scratch trees of every root (the oracle for dirty-set and refcount
/// assertions).
std::vector<std::vector<Edge>> all_trees(const Graph& g, const TreeRecipe& cfg) {
  DomTreeBuilder builder(g);
  std::vector<std::vector<Edge>> trees(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const RootedTree tree = cfg.build_tree(builder, u);
    for (const NodeId v : tree.nodes()) {
      if (v != tree.root()) trees[u].push_back(make_edge(v, tree.parent(v)));
    }
    std::sort(trees[u].begin(), trees[u].end(),
              [](const Edge& x, const Edge& y) { return x.u != y.u ? x.u < y.u : x.v < y.v; });
  }
  return trees;
}

TEST(IncrementalSpanner, MatchesFromScratchAcrossFamiliesConfigsAndBatches) {
  // >= 100 update batches in total, every one checked bit-exactly.
  std::size_t total_batches = 0;
  for (int family = 0; family < 3; ++family) {
    for (const TreeRecipe& cfg : sweep_configs()) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        Rng rng(1000 * seed + family);
        DynamicGraph dg(make_family(family, seed));
        IncrementalSpanner inc(dg, cfg);
        EXPECT_EQ(inc.spanner(), cfg.build_spanner(inc.graph()));
        // Varying batch sizes, including empty and single-event batches.
        const std::size_t batch_sizes[] = {1, 0, 4, 13, 2};
        for (const std::size_t size : batch_sizes) {
          const auto batch = random_batch(dg, inc.graph(), size, rng);
          const ChurnBatchStats stats = inc.apply_batch(batch);
          ASSERT_EQ(inc.spanner(), cfg.build_spanner(inc.graph()))
              << "family " << family << " cfg " << cfg.name() << " seed " << seed
              << " batch size " << size;
          EXPECT_EQ(stats.spanner_edges, inc.spanner().size());
          EXPECT_EQ(stats.version, dg.version());
          ++total_batches;
        }
      }
    }
  }
  EXPECT_GE(total_batches, 100u);
}

TEST(IncrementalSpanner, DirtySetIsSupersetOfChangedTrees) {
  for (int family = 0; family < 3; ++family) {
    const TreeRecipe cfg =
        family == 1 ? TreeRecipe::two_connecting(2) : TreeRecipe::k_connecting(2);
    Rng rng(77 + family);
    DynamicGraph dg(make_family(family, 5));
    IncrementalSpanner inc(dg, cfg);
    for (int step = 0; step < 8; ++step) {
      const auto old_graph = dg.snapshot();
      const auto old_trees = all_trees(*old_graph, cfg);
      const auto batch = random_batch(dg, inc.graph(), 6, rng);
      inc.apply_batch(batch);
      const auto new_trees = all_trees(inc.graph(), cfg);
      const auto& dirty = inc.last_dirty_roots();
      for (NodeId u = 0; u < dg.num_nodes(); ++u) {
        if (old_trees[u] != new_trees[u]) {
          EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), u))
              << "root " << u << " changed but was not marked dirty (family " << family
              << ", step " << step << ")";
        }
      }
      // And the engine's stored trees match the from-scratch oracle.
      for (NodeId u = 0; u < dg.num_nodes(); ++u) {
        auto stored = inc.tree_edges(u);
        std::sort(stored.begin(), stored.end(), [](const Edge& x, const Edge& y) {
          return x.u != y.u ? x.u < y.u : x.v < y.v;
        });
        EXPECT_EQ(stored, new_trees[u]) << "root " << u;
      }
    }
  }
}

TEST(IncrementalSpanner, RefcountsEqualOwningTreeCounts) {
  const TreeRecipe cfg = TreeRecipe::k_connecting(1);
  Rng rng(99);
  DynamicGraph dg(make_family(0, 9));
  IncrementalSpanner inc(dg, cfg);
  for (int step = 0; step < 6; ++step) {
    const auto batch = random_batch(dg, inc.graph(), 8, rng);
    inc.apply_batch(batch);
    const Graph& g = inc.graph();
    const auto trees = all_trees(g, cfg);
    std::vector<std::uint32_t> expected(g.num_edges(), 0);
    for (const auto& tree : trees) {
      for (const Edge& e : tree) {
        const EdgeId id = g.find_edge(e.u, e.v);
        ASSERT_NE(id, kInvalidEdge);
        ++expected[id];
      }
    }
    for (EdgeId id = 0; id < g.num_edges(); ++id) {
      ASSERT_EQ(inc.edge_refcount(id), expected[id]) << "edge " << id << " step " << step;
      EXPECT_EQ(inc.spanner().contains(id), expected[id] > 0);
    }
  }
}

TEST(IncrementalSpanner, NoOpAndEmptyBatchesLeaveSpannerUntouched) {
  DynamicGraph dg(make_family(0, 3));
  IncrementalSpanner inc(dg, TreeRecipe::k_connecting(1));
  const EdgeSet before = inc.spanner();
  ChurnBatchStats stats = inc.apply_batch({});
  EXPECT_EQ(stats.dirty_roots, 0u);
  EXPECT_EQ(inc.spanner(), before);
  // Re-adding an existing edge is a stored-state no-op.
  const Edge e = inc.graph().edge(0);
  const std::vector<GraphEvent> noop = {GraphEvent::edge_up(e.u, e.v)};
  stats = inc.apply_batch(noop);
  EXPECT_EQ(stats.applied_events, 0u);
  EXPECT_EQ(stats.dirty_roots, 0u);
  EXPECT_EQ(inc.spanner(), before);
}

TEST(IncrementalSpanner, RejectedBatchLeavesSessionConsistent) {
  // A batch with one out-of-range event throws before the session's graph
  // changes, so the engine and its DynamicGraph stay in step and the next
  // valid batch is maintained bit-exactly.
  const Graph g = make_family(0, 5);
  const api::SpannerSpec spec = api::parse_spanner_spec("th2?k=1");
  const auto session = api::open_incremental_session(g, spec);
  const NodeId n = g.num_nodes();
  NodeId x = 1;
  while (g.has_edge(0, x)) ++x;
  const std::uint64_t v0 = session->dynamic_graph().version();
  const std::vector<GraphEvent> bad = {GraphEvent::edge_up(0, x), GraphEvent::edge_up(0, n + 5)};
  EXPECT_THROW((void)session->apply_batch(bad), CheckError);
  EXPECT_FALSE(session->dynamic_graph().has_edge(0, x));
  EXPECT_EQ(session->dynamic_graph().version(), v0);
  EXPECT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);

  const Edge e = g.edge(0);
  const std::vector<GraphEvent> good = {GraphEvent::edge_up(0, x),
                                        GraphEvent::edge_down(e.u, e.v)};
  const ChurnBatchStats stats = session->apply_batch(good);
  EXPECT_EQ(stats.applied_events, 2u);
  EXPECT_TRUE(session->graph().has_edge(0, x));
  EXPECT_EQ(session->graph().num_edges(), g.num_edges());
  EXPECT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);
}

TEST(IncrementalSpanner, MaskedEdgeChurnBehindDownNodeIsInvisible) {
  // Storing/removing edges of a DOWN node never touches the live snapshot;
  // the spanner must not change until the node comes back.
  DynamicGraph dg(make_family(2, 4));
  IncrementalSpanner inc(dg, TreeRecipe::k_connecting(1));
  const NodeId v = 0;
  std::vector<GraphEvent> batch = {GraphEvent::node_down(v)};
  inc.apply_batch(batch);
  EXPECT_EQ(inc.spanner(), inc.recipe().build_spanner(inc.graph()));
  const EdgeSet masked = inc.spanner();
  // Edge churn incident to the down node: stored-state changes, live no-ops.
  batch = {GraphEvent::edge_up(v, 5), GraphEvent::edge_up(v, 9), GraphEvent::edge_down(v, 5)};
  const ChurnBatchStats stats = inc.apply_batch(batch);
  EXPECT_GT(stats.applied_events, 0u);
  EXPECT_EQ(stats.dirty_roots, 0u);
  EXPECT_EQ(inc.spanner(), masked);
  // Node back up: the stored edge {v,9} joins the live topology.
  batch = {GraphEvent::node_up(v)};
  inc.apply_batch(batch);
  EXPECT_TRUE(inc.graph().has_edge(v, 9));
  EXPECT_EQ(inc.spanner(), inc.recipe().build_spanner(inc.graph()));
}

TEST(IncrementalSpanner, ChurnTraceReplayStaysEquivalent) {
  // End-to-end over the three scenario generators on a geometric graph.
  Rng rng(2024);
  const auto gg = largest_component(uniform_unit_ball_graph(120, 6.0, 2, rng));
  const ChurnTrace traces[] = {
      random_edge_churn_trace(gg.graph, 6, 8, 0.1, 1),
      mobility_churn_trace(gg, 6, 2, 2),
      region_outage_trace(gg, 3, 1.5, 3),
  };
  for (const ChurnTrace& trace : traces) {
    DynamicGraph dg(trace.initial_graph());
    IncrementalSpanner inc(dg, TreeRecipe::k_connecting(1));
    for (const auto& batch : trace.batches) {
      inc.apply_batch(batch);
      ASSERT_EQ(inc.spanner(), inc.recipe().build_spanner(inc.graph()));
    }
  }
}

TEST(IncrementalSpanner, RemovalOnlyBatchExpandsOldSnapshotBallOnly) {
  // Decremental fast path: a batch with no insertions seeds the dirty
  // expansion only in the OLD snapshot (one bounded BFS), and that ball is
  // exactly what the engine marks dirty — still a superset of every
  // changed tree (bit-exactness is asserted on top).
  for (const TreeRecipe& cfg :
       {TreeRecipe::k_connecting(1), TreeRecipe::low_stretch(0.5)}) {
    Rng rng(17);
    DynamicGraph dg(make_family(0, 6));
    IncrementalSpanner inc(dg, cfg);
    const auto old_graph = dg.snapshot();
    std::vector<GraphEvent> batch;
    for (EdgeId id = 0; id < old_graph->num_edges(); id += 7) {
      const Edge e = old_graph->edge(id);
      batch.push_back(GraphEvent::edge_down(e.u, e.v));
    }
    inc.apply_batch(batch);
    ASSERT_EQ(inc.spanner(), cfg.build_spanner(inc.graph()));

    // Expected dirty set: ball of the removed endpoints at OLD distances.
    std::vector<NodeId> touched;
    for (const auto& e : batch) {
      touched.push_back(e.u);
      touched.push_back(e.v);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    BoundedBfs bfs(old_graph->num_nodes());
    std::vector<std::uint8_t> flag(old_graph->num_nodes(), 0);
    for (const NodeId v : bfs.run_multi(GraphView(*old_graph), touched, cfg.dirty_radius())) {
      flag[v] = 1;
    }
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < flag.size(); ++v) {
      if (flag[v] != 0) expected.push_back(v);
    }
    EXPECT_EQ(inc.last_dirty_roots(), expected) << cfg.name();
  }
}

TEST(IncrementalSpanner, InsertionOnlyBatchExpandsNewSnapshotBallOnly) {
  const TreeRecipe cfg = TreeRecipe::low_stretch(0.5);
  DynamicGraph dg(make_family(1, 7));
  IncrementalSpanner inc(dg, cfg);
  const NodeId n = dg.num_nodes();
  std::vector<GraphEvent> batch;
  for (NodeId v = 0; v + 7 < n; v += 13) {
    if (!inc.graph().has_edge(v, v + 7)) batch.push_back(GraphEvent::edge_up(v, v + 7));
  }
  ASSERT_FALSE(batch.empty());
  inc.apply_batch(batch);
  const auto new_graph = dg.snapshot();
  ASSERT_EQ(inc.spanner(), cfg.build_spanner(*new_graph));

  std::vector<NodeId> touched;
  for (const auto& e : batch) {
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  BoundedBfs bfs(n);
  std::vector<std::uint8_t> flag(n, 0);
  for (const NodeId v : bfs.run_multi(GraphView(*new_graph), touched, cfg.dirty_radius())) {
    flag[v] = 1;
  }
  std::vector<NodeId> expected;
  for (NodeId v = 0; v < flag.size(); ++v) {
    if (flag[v] != 0) expected.push_back(v);
  }
  EXPECT_EQ(inc.last_dirty_roots(), expected);
}

TEST(IncrementalSpanner, AlternatingPureBatchesStayBitExactAndSuperset) {
  // Pure-removal and pure-insertion batches in alternation (each one takes
  // the single-BFS fast path) keep both core invariants: bit-exactness and
  // dirty-superset-of-changed-trees.
  const TreeRecipe cfg = TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kGreedy);
  Rng rng(23);
  DynamicGraph dg(make_family(2, 11));
  IncrementalSpanner inc(dg, cfg);
  std::vector<Edge> parked;  // removed edges waiting to be re-inserted
  for (int step = 0; step < 6; ++step) {
    const auto old_graph = dg.snapshot();
    const auto old_trees = all_trees(*old_graph, cfg);
    std::vector<GraphEvent> batch;
    if (step % 2 == 0) {
      for (int i = 0; i < 5 && old_graph->num_edges() > 0; ++i) {
        const Edge e =
            old_graph->edge(static_cast<EdgeId>(rng.uniform(old_graph->num_edges())));
        batch.push_back(GraphEvent::edge_down(e.u, e.v));
        parked.push_back(e);
      }
    } else {
      for (const Edge& e : parked) batch.push_back(GraphEvent::edge_up(e.u, e.v));
      parked.clear();
    }
    inc.apply_batch(batch);
    ASSERT_EQ(inc.spanner(), cfg.build_spanner(inc.graph())) << "step " << step;
    const auto new_trees = all_trees(inc.graph(), cfg);
    const auto& dirty = inc.last_dirty_roots();
    for (NodeId u = 0; u < dg.num_nodes(); ++u) {
      if (old_trees[u] != new_trees[u]) {
        EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), u))
            << "root " << u << " changed but was not marked dirty (step " << step << ")";
      }
    }
  }
}

TEST(IncrementalSpanner, RefcountZeroRemovalSkipWouldBeUnsound) {
  // The ROADMAP conjectured that removing an edge OUTSIDE every stored tree
  // (union refcount 0) needs no rebuild. That is false: the greedy cover
  // scans read non-tree edges, and removing one can flip a pick. This test
  // pins a counterexample so the conjecture is not "re-implemented" later:
  // it finds a refcount-0 edge whose removal changes some root's tree.
  const TreeRecipe cfg = TreeRecipe::k_connecting(1);
  bool counterexample_found = false;
  for (std::uint64_t seed = 1; seed <= 8 && !counterexample_found; ++seed) {
    Rng rng(seed);
    const Graph g = gnp(20, 0.25, rng);
    const auto trees = all_trees(g, cfg);
    std::vector<std::uint32_t> ref(g.num_edges(), 0);
    for (const auto& tree : trees) {
      for (const Edge& e : tree) ++ref[g.find_edge(e.u, e.v)];
    }
    for (EdgeId id = 0; id < g.num_edges() && !counterexample_found; ++id) {
      if (ref[id] != 0) continue;
      std::vector<Edge> edges(g.edges().begin(), g.edges().end());
      edges.erase(edges.begin() + id);
      const Graph without = Graph::from_canonical_edges(g.num_nodes(), std::move(edges));
      counterexample_found = all_trees(without, cfg) != trees;
    }
  }
  EXPECT_TRUE(counterexample_found)
      << "no refcount-0 removal changed any tree across the sampled graphs — if the "
         "builders changed to make the skip sound, IncrementalSpanner can adopt it";
}

TEST(IncrementalSpanner, NodeChurnAndSlotReuseStayExact) {
  // Mixed streams — node down/up with incident edges, duplicates, no-ops,
  // edges flapped inside one batch, slots freed and reused by the next
  // batch — through all three constructions. After every batch the engine
  // must equal a from-scratch build, its dirty set and per-side expansion
  // sizes must equal the snapshot-based expansion on explicit before/after
  // snapshots, and every refcount must equal the number of stored trees
  // that contain the edge.
  //
  // The expansion sizes are what pin the pre-batch view as exact: walking
  // a superset (live rows plus removed edges, inserted ones kept) reaches
  // no extra dirty root — past the last changed edge on any path the rest
  // is common to both graphs, so its endpoint's own ball already covers
  // it — but it does inflate inc.expand_old_nodes.
  const TreeRecipe configs[] = {
      TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kGreedy),
      TreeRecipe::low_stretch(0.5, TreeAlgorithm::kMis),
      TreeRecipe::k_connecting(2),
      TreeRecipe::two_connecting(2),
  };
  for (const TreeRecipe& cfg : configs) {
    for (int family = 0; family < 3; ++family) {
      Rng rng(500 + family);
      DynamicGraph dg(make_family(family, 12));
      IncrementalSpanner inc(dg, cfg);
      BoundedBfs bfs(dg.num_nodes());
      std::vector<std::uint8_t> flag;
      for (int step = 0; step < 12; ++step) {
        const std::shared_ptr<const Graph> before = dg.snapshot();
        const auto batch = testsupport::mixed_churn_batch(dg, rng);
        obs::Registry reg;
        ChurnBatchStats stats;
        {
          const obs::ScopedSinks sinks(&reg, nullptr);
          stats = inc.apply_batch(batch);
        }
        const obs::Snapshot counts = reg.snapshot();
        const auto count = [&](const char* name) -> std::size_t {
          const auto it = counts.counters.find(name);
          return it == counts.counters.end() ? 0 : it->second;
        };
        const Graph& g = inc.graph();
        ASSERT_EQ(inc.spanner(), cfg.build_spanner(g))
            << cfg.name() << " family " << family << " step " << step;
        EXPECT_EQ(stats.spanner_edges, inc.spanner().size());

        const GraphDelta diff = diff_graphs(*before, g);
        EXPECT_EQ(stats.removed_edges, diff.removed.size());
        EXPECT_EQ(stats.inserted_edges, diff.inserted.size());
        EXPECT_EQ(stats.touched_nodes, touched_endpoints(diff).size());
        const std::vector<NodeId> expected_dirty =
            diff.empty() ? std::vector<NodeId>{}
                         : collect_dirty_roots_split(*before, g, removed_endpoints(diff),
                                                     inserted_endpoints(diff),
                                                     cfg.dirty_radius(), bfs, flag);
        EXPECT_EQ(inc.last_dirty_roots(), expected_dirty)
            << cfg.name() << " family " << family << " step " << step;
        const auto ball_size = [&](const Graph& graph, const std::vector<NodeId>& seeds) {
          return seeds.empty()
                     ? 0
                     : bfs.run_multi(GraphView(graph), seeds, cfg.dirty_radius()).size();
        };
        if (!diff.empty()) {
          EXPECT_EQ(count("inc.expand_old_nodes"), ball_size(*before, removed_endpoints(diff)))
              << cfg.name() << " family " << family << " step " << step;
          EXPECT_EQ(count("inc.expand_new_nodes"), ball_size(g, inserted_endpoints(diff)))
              << cfg.name() << " family " << family << " step " << step;
        }

        std::vector<std::uint32_t> owners(g.num_edges(), 0);
        for (NodeId root = 0; root < g.num_nodes(); ++root) {
          for (const Edge& e : inc.tree_edges(root)) {
            const EdgeId id = g.find_edge(e.u, e.v);
            ASSERT_NE(id, kInvalidEdge) << "stored tree edge not in the graph";
            ++owners[id];
          }
        }
        for (EdgeId id = 0; id < g.num_edges(); ++id) {
          ASSERT_EQ(inc.edge_refcount(id), owners[id]) << cfg.name() << " edge " << id;
        }
      }
    }
  }
}

TEST(IncrementalSpanner, StaleEngineResyncsWithAFullBuild) {
  // A change made through the session's DynamicGraph never reaches the
  // engine as a delta. The engine notices the version gap, refuses stale
  // reads, and resyncs on its next batch.
  const Graph g = make_family(1, 4);
  const api::SpannerSpec spec = api::parse_spanner_spec("th2?k=2");
  const auto session = api::open_incremental_session(g, spec);
  const Edge e = g.edge(g.num_edges() / 2);
  session->dynamic_graph().apply(GraphEvent::edge_down(e.u, e.v));
  session->dynamic_graph().apply(GraphEvent::node_down(e.u));
  EXPECT_THROW((void)session->spanner(), CheckError);

  Rng rng(8);
  const auto next = testsupport::mixed_churn_batch(session->dynamic_graph(), rng);
  const ChurnBatchStats stats = session->apply_batch(next);
  EXPECT_EQ(stats.dirty_roots, g.num_nodes());
  EXPECT_FALSE(session->graph().has_edge(e.u, e.v));
  EXPECT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);
  EXPECT_EQ(stats.spanner_edges, session->spanner().size());

  (void)session->apply_batch({});
  EXPECT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);
  // And incremental maintenance carries on from the resynced state.
  for (int step = 0; step < 4; ++step) {
    const auto batch = testsupport::mixed_churn_batch(session->dynamic_graph(), rng);
    (void)session->apply_batch(batch);
    ASSERT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);
  }
}

TEST(IncrementalSpanner, LargeSingleBatchEqualsRebuild) {
  // A batch that churns a large fraction of the graph still lands bit-exact
  // (most roots go dirty; exercises the remap path under heavy turnover).
  Rng rng(31);
  DynamicGraph dg(make_family(1, 8));
  IncrementalSpanner inc(dg, TreeRecipe::k_connecting(1));
  std::vector<GraphEvent> batch;
  const Graph& g = inc.graph();
  for (EdgeId id = 0; id < g.num_edges(); id += 2) {
    const Edge e = g.edge(id);
    batch.push_back(GraphEvent::edge_down(e.u, e.v));
  }
  inc.apply_batch(batch);
  EXPECT_EQ(inc.spanner(), inc.recipe().build_spanner(inc.graph()));
}

}  // namespace
}  // namespace remspan
