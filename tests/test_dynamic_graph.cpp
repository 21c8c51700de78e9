// DynamicGraph update semantics, snapshot determinism, stable slots and the
// batch delta, diff_graphs, multi-source bounded BFS, and churn-trace
// generation/round-trip.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "dynamic/churn_trace.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/bfs.hpp"
#include "graph/views.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

std::set<Edge> edge_set_of(const Graph& g) {
  return {g.edges().begin(), g.edges().end()};
}

bool edge_less(const Edge& x, const Edge& y) {
  return x.u != y.u ? x.u < y.u : x.v < y.v;
}

TEST(DynamicGraph, ApplyIsIdempotentPerState) {
  DynamicGraph dg(4);
  EXPECT_TRUE(dg.apply(GraphEvent::edge_up(0, 1)));
  EXPECT_FALSE(dg.apply(GraphEvent::edge_up(1, 0)));  // canonical duplicate
  EXPECT_TRUE(dg.apply(GraphEvent::edge_down(0, 1)));
  EXPECT_FALSE(dg.apply(GraphEvent::edge_down(0, 1)));
  EXPECT_FALSE(dg.apply(GraphEvent::node_up(2)));  // already up
  EXPECT_TRUE(dg.apply(GraphEvent::node_down(2)));
  EXPECT_FALSE(dg.apply(GraphEvent::node_down(2)));
  EXPECT_TRUE(dg.apply(GraphEvent::node_up(2)));
}

TEST(DynamicGraph, VersionBumpsOnlyOnChange) {
  DynamicGraph dg(3);
  const std::uint64_t v0 = dg.version();
  dg.apply(GraphEvent::edge_up(0, 1));
  EXPECT_EQ(dg.version(), v0 + 1);
  dg.apply(GraphEvent::edge_up(0, 1));
  EXPECT_EQ(dg.version(), v0 + 1);
}

TEST(DynamicGraph, OutOfRangeTripsCheck) {
  DynamicGraph dg(3);
  EXPECT_THROW(dg.apply(GraphEvent::edge_up(0, 3)), CheckError);
  EXPECT_THROW(dg.apply(GraphEvent::node_down(3)), CheckError);
  EXPECT_THROW((void)dg.apply(GraphEvent{GraphEventKind::kEdgeUp, 1, 1}), CheckError);
}

TEST(DynamicGraph, ApplyAllIsAllOrNothing) {
  // A bad event anywhere in the batch throws before the first cell changes:
  // the valid edge_up ahead of it must not be stored.
  const Graph g = cycle_graph(6);
  DynamicGraph dg(g);
  const NodeId n = dg.num_nodes();
  const NodeId x = 3;
  ASSERT_FALSE(dg.has_edge(0, x));
  const std::uint64_t v0 = dg.version();
  const auto before = dg.snapshot();
  const std::vector<GraphEvent> bad = {GraphEvent::edge_up(0, x), GraphEvent::edge_up(0, n + 5)};
  EXPECT_THROW((void)dg.apply_all(bad), CheckError);
  EXPECT_FALSE(dg.has_edge(0, x));
  EXPECT_EQ(dg.version(), v0);
  const std::vector<GraphEvent> bad_node = {GraphEvent::node_down(1),
                                            GraphEvent{GraphEventKind::kEdgeDown, 2, 2}};
  EXPECT_THROW((void)dg.apply_all(bad_node), CheckError);
  EXPECT_TRUE(dg.node_up(1));
  EXPECT_EQ(dg.version(), v0);
  EXPECT_EQ(dg.snapshot(), before);  // same cached snapshot: nothing changed
  // The same graph accepts the valid prefix afterwards.
  EXPECT_EQ(dg.apply_all(std::span(bad).first(1)), 1u);
  EXPECT_TRUE(dg.has_edge(0, x));
  EXPECT_EQ(dg.version(), v0 + 1);
}

TEST(DynamicGraph, NodeDownMasksEdgesAndUpRestores) {
  const Graph g = cycle_graph(5);
  DynamicGraph dg(g);
  EXPECT_EQ(dg.snapshot()->num_edges(), 5u);
  dg.apply(GraphEvent::node_down(0));
  const auto masked = dg.snapshot();
  EXPECT_EQ(masked->num_edges(), 3u);  // {0,1} and {0,4} masked
  EXPECT_EQ(masked->degree(0), 0u);
  dg.apply(GraphEvent::node_up(0));
  EXPECT_EQ(edge_set_of(*dg.snapshot()), edge_set_of(g));
}

TEST(DynamicGraph, SnapshotCachedPerVersion) {
  DynamicGraph dg(4);
  dg.apply(GraphEvent::edge_up(1, 2));
  const auto a = dg.snapshot();
  const auto b = dg.snapshot();
  EXPECT_EQ(a.get(), b.get());
  dg.apply(GraphEvent::edge_up(2, 3));
  EXPECT_NE(dg.snapshot().get(), a.get());
}

TEST(DynamicGraph, SnapshotMatchesReplayedEventsOnRandomSequences) {
  Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    const NodeId n = 20;
    DynamicGraph dg(n);
    std::set<Edge> expected;
    std::vector<bool> up(n, true);
    for (int step = 0; step < 200; ++step) {
      const auto a = static_cast<NodeId>(rng.uniform(n));
      auto b = static_cast<NodeId>(rng.uniform(n));
      if (a == b) b = (b + 1) % n;
      const double roll = rng.uniform_real();
      if (roll < 0.45) {
        dg.apply(GraphEvent::edge_up(a, b));
        expected.insert(make_edge(a, b));
      } else if (roll < 0.8) {
        dg.apply(GraphEvent::edge_down(a, b));
        expected.erase(make_edge(a, b));
      } else if (roll < 0.9) {
        dg.apply(GraphEvent::node_down(a));
        up[a] = false;
      } else {
        dg.apply(GraphEvent::node_up(a));
        up[a] = true;
      }
    }
    std::set<Edge> live;
    for (const Edge& e : expected) {
      if (up[e.u] && up[e.v]) live.insert(e);
    }
    EXPECT_EQ(edge_set_of(*dg.snapshot()), live);
  }
}

TEST(DiffGraphs, MapsSurvivorsAndListsChanges) {
  Rng rng(11);
  for (int rep = 0; rep < 20; ++rep) {
    const Graph old_g = gnp(30, 0.15, rng);
    DynamicGraph dg(old_g);
    // Random churn: remove some existing edges, add some new pairs.
    for (int step = 0; step < 25; ++step) {
      const auto a = static_cast<NodeId>(rng.uniform(30));
      auto b = static_cast<NodeId>(rng.uniform(30));
      if (a == b) b = (b + 1) % 30;
      if (rng.bernoulli(0.5)) {
        dg.apply(GraphEvent::edge_down(a, b));
      } else {
        dg.apply(GraphEvent::edge_up(a, b));
      }
    }
    const auto new_g = dg.snapshot();
    const GraphDelta delta = diff_graphs(old_g, *new_g);

    const std::set<Edge> old_set = edge_set_of(old_g);
    const std::set<Edge> new_set = edge_set_of(*new_g);
    // removed = old \ new, inserted = new \ old, both canonically sorted.
    std::set<Edge> removed(delta.removed.begin(), delta.removed.end());
    std::set<Edge> inserted(delta.inserted.begin(), delta.inserted.end());
    for (const Edge& e : old_set) {
      EXPECT_EQ(removed.contains(e), !new_set.contains(e));
    }
    for (const Edge& e : new_set) {
      EXPECT_EQ(inserted.contains(e), !old_set.contains(e));
    }
    EXPECT_TRUE(std::is_sorted(delta.removed.begin(), delta.removed.end(), edge_less));
    EXPECT_TRUE(std::is_sorted(delta.inserted.begin(), delta.inserted.end(), edge_less));

    // touched_endpoints: sorted unique endpoints of the symmetric difference.
    std::set<NodeId> expected_touched;
    for (const Edge& e : removed) {
      expected_touched.insert(e.u);
      expected_touched.insert(e.v);
    }
    for (const Edge& e : inserted) {
      expected_touched.insert(e.u);
      expected_touched.insert(e.v);
    }
    const auto touched = touched_endpoints(delta);
    EXPECT_EQ(std::set<NodeId>(touched.begin(), touched.end()), expected_touched);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
  }
}

/// Every stored edge's slot, read from the rows (u < w side); fails the
/// test on a slot used by two edges.
std::map<EdgeId, Edge> stored_slots(const DynamicGraph& dg) {
  std::map<EdgeId, Edge> slots;
  for (NodeId u = 0; u < dg.num_nodes(); ++u) {
    for (const AdjEntry& e : dg.row(u)) {
      if (e.node < u) continue;
      EXPECT_LT(e.slot, dg.slot_capacity());
      EXPECT_TRUE(slots.emplace(e.slot, Edge{u, e.node}).second)
          << "slot " << e.slot << " used twice";
    }
  }
  return slots;
}

TEST(DynamicGraph, BatchDeltaEqualsDiffOfSnapshots) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    DynamicGraph dg(gnp(24, 0.15, rng));
    std::shared_ptr<const Graph> before = dg.snapshot();
    std::map<EdgeId, Edge> slots_before = stored_slots(dg);
    BatchDelta delta;
    for (int batch_no = 0; batch_no < 60; ++batch_no) {
      const auto batch = testsupport::mixed_churn_batch(dg, rng);
      dg.apply_all(batch, delta);
      const std::shared_ptr<const Graph> after = dg.snapshot();
      const GraphDelta diff = diff_graphs(*before, *after);

      // The reported delta is the diff of the two snapshots, in order.
      std::vector<Edge> removed;
      std::vector<Edge> inserted;
      for (const SlotEdge& e : delta.removed) removed.push_back(e.edge);
      for (const SlotEdge& e : delta.inserted) inserted.push_back(e.edge);
      ASSERT_EQ(removed, diff.removed) << "seed " << seed << " batch " << batch_no;
      ASSERT_EQ(inserted, diff.inserted) << "seed " << seed << " batch " << batch_no;

      // Removed edges carry their slot from before, inserted ones their
      // slot now; every stored slot resolves to its edge and is unique.
      const std::map<EdgeId, Edge> slots = stored_slots(dg);
      for (const SlotEdge& e : delta.removed) {
        ASSERT_TRUE(slots_before.contains(e.slot));
        EXPECT_EQ(slots_before.at(e.slot), e.edge);
        EXPECT_EQ(dg.slot_edge(e.slot), e.edge);  // still resolvable after the batch
      }
      for (const SlotEdge& e : delta.inserted) EXPECT_EQ(dg.slot_of(e.edge.u, e.edge.v), e.slot);
      for (const auto& [slot, e] : slots) {
        EXPECT_TRUE(dg.has_edge(e.u, e.v));
        EXPECT_EQ(dg.slot_edge(slot), e);
        EXPECT_EQ(dg.slot_of(e.u, e.v), slot);
      }
      // The merge-patched snapshot's id -> slot table agrees with the rows.
      const std::span<const EdgeId> by_id = dg.snapshot_slots();
      ASSERT_EQ(by_id.size(), after->num_edges());
      for (EdgeId id = 0; id < by_id.size(); ++id) {
        EXPECT_EQ(by_id[id], dg.slot_of(after->edge(id).u, after->edge(id).v));
      }
      // An edge stored before and after keeps its slot, whatever the batch
      // did to it in between.
      for (const auto& [slot, e] : slots_before) {
        if (dg.has_edge(e.u, e.v)) EXPECT_EQ(dg.slot_of(e.u, e.v), slot);
      }
      before = after;
      slots_before = slots;
    }
  }
}

TEST(DynamicGraph, FreedSlotIsReusedOnlyByTheNextBatch) {
  Rng rng(3);
  DynamicGraph dg(gnp(16, 0.3, rng));
  // An adopted graph's edge ids are its slots.
  const std::span<const EdgeId> adopted = dg.snapshot_slots();
  for (EdgeId id = 0; id < adopted.size(); ++id) ASSERT_EQ(adopted[id], id);
  const Edge gone = dg.snapshot()->edge(0);
  const EdgeId freed = dg.slot_of(gone.u, gone.v);
  NodeId x = 0;
  NodeId y = 1;
  while (dg.has_edge(x, y)) ++y;
  NodeId z = y + 1;
  while (dg.has_edge(x, z)) ++z;

  // Batch t frees a slot and stores a new edge: the new edge must not get
  // the slot the same batch freed.
  BatchDelta delta;
  const std::vector<GraphEvent> t = {GraphEvent::edge_down(gone.u, gone.v),
                                     GraphEvent::edge_up(x, y)};
  dg.apply_all(t, delta);
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0].slot, freed);
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_NE(delta.inserted[0].slot, freed);
  EXPECT_EQ(dg.slot_edge(freed), gone);

  // Batch t+1 may hand it out again.
  const std::vector<GraphEvent> next = {GraphEvent::edge_up(x, z)};
  dg.apply_all(next, delta);
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_EQ(delta.inserted[0].slot, freed);
  EXPECT_EQ(dg.slot_edge(freed), make_edge(x, z));
}

TEST(DynamicGraph, MaskedEdgesKeepTheirSlotsAcrossNodeChurn) {
  Rng rng(5);
  DynamicGraph dg(gnp(12, 0.4, rng));
  const NodeId v = 0;
  std::vector<std::pair<Edge, EdgeId>> incident;
  for (const AdjEntry& e : dg.row(v)) incident.emplace_back(make_edge(v, e.node), e.slot);
  ASSERT_FALSE(incident.empty());

  BatchDelta delta;
  const std::vector<GraphEvent> down = {GraphEvent::node_down(v)};
  dg.apply_all(down, delta);
  EXPECT_TRUE(delta.inserted.empty());
  ASSERT_EQ(delta.removed.size(), incident.size());
  for (std::size_t i = 0; i < incident.size(); ++i) {
    EXPECT_EQ(delta.removed[i].edge, incident[i].first);
    EXPECT_EQ(delta.removed[i].slot, incident[i].second);
  }
  // Down then up in one batch nets out; up alone restores every slot.
  const std::vector<GraphEvent> flap = {GraphEvent::node_up(v), GraphEvent::node_down(v)};
  EXPECT_EQ(dg.apply_all(flap, delta), 2u);
  EXPECT_TRUE(delta.empty());
  const std::vector<GraphEvent> up = {GraphEvent::node_up(v)};
  dg.apply_all(up, delta);
  ASSERT_EQ(delta.inserted.size(), incident.size());
  for (std::size_t i = 0; i < incident.size(); ++i) {
    EXPECT_EQ(delta.inserted[i].slot, incident[i].second);
  }
}

TEST(MultiSourceBfs, DistanceIsMinOverSources) {
  Rng rng(13);
  for (int rep = 0; rep < 10; ++rep) {
    const Graph g = gnp(40, 0.08, rng);
    const std::vector<NodeId> sources = {3, 17, 17, 29};  // duplicate on purpose
    BoundedBfs multi(g.num_nodes());
    multi.run_multi(GraphView(g), sources, 3);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      Dist best = kUnreachable;
      for (const NodeId s : sources) {
        BoundedBfs single(g.num_nodes());
        single.run(GraphView(g), s, 3);
        best = std::min(best, single.dist(v));
      }
      EXPECT_EQ(multi.dist(v), best) << "node " << v;
    }
  }
}

TEST(MultiSourceBfs, ShellZeroHoldsUniqueSources) {
  const Graph g = path_graph(6);
  BoundedBfs bfs(g.num_nodes());
  const std::vector<NodeId> sources = {2, 4, 2};
  bfs.run_multi(GraphView(g), sources, 1);
  const auto shell0 = bfs.shell(0);
  EXPECT_EQ(std::set<NodeId>(shell0.begin(), shell0.end()), (std::set<NodeId>{2, 4}));
  EXPECT_EQ(bfs.parent(2), kInvalidNode);
  EXPECT_EQ(bfs.parent(4), kInvalidNode);
}

TEST(ChurnTrace, RoundTripsThroughText) {
  Rng rng(5);
  const auto gg = largest_component(uniform_unit_ball_graph(60, 4.0, 2, rng));
  const ChurnTrace traces[] = {
      random_edge_churn_trace(gg.graph, 4, 6, 0.2, 42),
      mobility_churn_trace(gg, 3, 2, 43),
      region_outage_trace(gg, 2, 1.5, 44),
  };
  for (const ChurnTrace& trace : traces) {
    std::stringstream io;
    write_churn_trace(io, trace);
    EXPECT_EQ(read_churn_trace(io), trace);
  }
}

TEST(ChurnTrace, GeneratorsAreDeterministic) {
  Rng rng(6);
  const auto gg = largest_component(uniform_unit_ball_graph(50, 4.0, 2, rng));
  EXPECT_EQ(random_edge_churn_trace(gg.graph, 5, 8, 0.1, 9),
            random_edge_churn_trace(gg.graph, 5, 8, 0.1, 9));
  EXPECT_EQ(mobility_churn_trace(gg, 5, 3, 9), mobility_churn_trace(gg, 5, 3, 9));
  EXPECT_EQ(region_outage_trace(gg, 3, 1.0, 9), region_outage_trace(gg, 3, 1.0, 9));
}

TEST(ChurnTrace, EventsReplayConsistently) {
  // Every generated event must change state when replayed in order: the
  // generators track the evolving topology, so no event is a no-op.
  Rng rng(8);
  const auto gg = largest_component(uniform_unit_ball_graph(70, 4.5, 2, rng));
  const ChurnTrace traces[] = {
      random_edge_churn_trace(gg.graph, 6, 10, 0.15, 21),
      mobility_churn_trace(gg, 6, 3, 22),
      region_outage_trace(gg, 3, 1.2, 23),
  };
  for (const ChurnTrace& trace : traces) {
    DynamicGraph dg(trace.initial_graph());
    for (const auto& batch : trace.batches) {
      EXPECT_EQ(dg.apply_all(batch), batch.size());
    }
  }
}

TEST(ChurnTrace, SingleMoverBatchesShareTheMover) {
  // With one mover per batch, every churned edge must be incident to that
  // mover: the batch's events all share a common endpoint.
  Rng rng(10);
  const auto gg = largest_component(uniform_unit_ball_graph(50, 4.0, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(gg, 8, 1, 31);
  for (const auto& batch : trace.batches) {
    if (batch.empty()) continue;
    for (const GraphEvent& ev : batch) {
      ASSERT_TRUE(ev.kind == GraphEventKind::kEdgeUp || ev.kind == GraphEventKind::kEdgeDown);
    }
    std::set<NodeId> common = {batch.front().u, batch.front().v};
    for (const GraphEvent& ev : batch) {
      std::set<NodeId> next;
      if (common.contains(ev.u)) next.insert(ev.u);
      if (common.contains(ev.v)) next.insert(ev.v);
      common = std::move(next);
    }
    EXPECT_FALSE(common.empty());
  }
}

TEST(RegionOutage, RecoveryRestoresInitialTopology) {
  Rng rng(12);
  const auto gg = largest_component(uniform_unit_ball_graph(60, 4.0, 2, rng));
  const ChurnTrace trace = region_outage_trace(gg, 4, 1.5, 51);
  DynamicGraph dg(trace.initial_graph());
  const std::set<Edge> initial = edge_set_of(*dg.snapshot());
  for (std::size_t b = 0; b < trace.batches.size(); ++b) {
    dg.apply_all(trace.batches[b]);
    if (b % 2 == 1) {
      // After every recovery batch the topology is back to the initial one.
      EXPECT_EQ(edge_set_of(*dg.snapshot()), initial);
    }
  }
}

}  // namespace
}  // namespace remspan
