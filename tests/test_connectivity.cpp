// Components, induced subgraphs and pairwise vertex connectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/edge_set.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

TEST(Connectivity, SingleNodeIsConnected) {
  GraphBuilder b(1);
  EXPECT_TRUE(is_connected(b.build()));
}

TEST(Connectivity, EmptyGraphIsConnected) {
  GraphBuilder b(0);
  EXPECT_TRUE(is_connected(b.build()));
}

TEST(Connectivity, TwoIsolatedNodesAreNot) {
  GraphBuilder b(2);
  EXPECT_FALSE(is_connected(b.build()));
}

TEST(Connectivity, EdgeSetComponents) {
  const Graph g = cycle_graph(6);
  EdgeSet h(g);
  h.insert(0, 1);
  h.insert(3, 4);
  const Components comps = connected_components(h);
  // {0,1}, {3,4}, {2}, {5} -> 4 components.
  EXPECT_EQ(comps.count, 4u);
}

TEST(Connectivity, CompleteGraphConnectivity) {
  const Graph g = complete_graph(7);
  // Menger: between adjacent nodes of K_n, n-1 disjoint paths (1 direct +
  // n-2 through the others).
  EXPECT_EQ(vertex_connectivity(g, 0, 6), 6u);
}

TEST(Connectivity, CycleIsTwoConnected) {
  const Graph g = cycle_graph(9);
  EXPECT_EQ(vertex_connectivity(g, 0, 4), 2u);
  EXPECT_EQ(vertex_connectivity(g, 0, 1), 2u);
}

TEST(Connectivity, TreeIsOneConnected) {
  Rng rng(41);
  const Graph g = random_tree(30, rng);
  EXPECT_EQ(vertex_connectivity(g, 0, 29 % 30), 1u);
}

TEST(Connectivity, GridInteriorConnectivity) {
  const Graph g = grid_graph(5, 5);
  // Opposite corners of a grid: 2 disjoint paths (along the two sides).
  EXPECT_EQ(vertex_connectivity(g, 0, 24), 2u);
}

TEST(Connectivity, MatchesDisjointPathOracleOnRandomGraphs) {
  Rng rng(43);
  for (int rep = 0; rep < 4; ++rep) {
    const Graph g = connected_gnp(25, 0.2, rng);
    for (NodeId s = 0; s < 5; ++s) {
      for (NodeId t = 10; t < 13; ++t) {
        const Dist conn = vertex_connectivity(g, s, t);
        const auto result = min_disjoint_paths(GraphView(g), s, t, conn + 2);
        EXPECT_EQ(result.connectivity(), conn);
      }
    }
  }
}

TEST(Connectivity, LargestComponentExtraction) {
  Rng rng(45);
  // Sparse G(n,p) below the connectivity threshold usually splits.
  const Graph g = gnp(100, 0.015, rng);
  const Components comps = connected_components(g);
  const auto keep = comps.largest();
  const auto sub = induced_subgraph(g, keep);
  EXPECT_TRUE(is_connected(sub.graph));
  EXPECT_EQ(sub.graph.num_nodes(), keep.size());
}


/// The GraphBuilder route induced_subgraph took before its dense remap:
/// relabel every kept edge and let the builder sort and deduplicate.
Graph induced_by_builder(const Graph& g, const std::vector<NodeId>& keep) {
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < keep.size(); ++i) remap[keep[i]] = i;
  GraphBuilder builder(static_cast<NodeId>(keep.size()));
  for (const Edge& e : g.edges()) {
    if (remap[e.u] != kInvalidNode && remap[e.v] != kInvalidNode) {
      builder.add_edge(remap[e.u], remap[e.v]);
    }
  }
  return builder.build();
}

TEST(Connectivity, InducedSubgraphMatchesBuilderRouteOnCorpus) {
  for (int family = 0; family < testsupport::kNumEquivalenceFamilies; ++family) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "family " << family << " seed " << seed);
      const Graph g = testsupport::equivalence_family(family, seed);
      Rng rng(seed * 31 + static_cast<std::uint64_t>(family));
      std::vector<std::vector<NodeId>> keeps(3);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        keeps[0].push_back(v);
        if (rng.bernoulli(0.6)) keeps[1].push_back(v);
        if (v % 3 != 1) keeps[2].push_back(v);
      }
      for (const auto& keep : keeps) {
        const InducedSubgraph sub = induced_subgraph(g, keep);
        const Graph ref = induced_by_builder(g, keep);
        EXPECT_EQ(sub.original_id, keep);
        ASSERT_EQ(sub.graph.num_nodes(), ref.num_nodes());
        EXPECT_TRUE(std::ranges::equal(sub.graph.edges(), ref.edges()));
        EXPECT_EQ(sub.graph.max_degree(), ref.max_degree());
        for (NodeId u = 0; u < ref.num_nodes(); ++u) {
          EXPECT_TRUE(std::ranges::equal(sub.graph.neighbors(u), ref.neighbors(u)));
          EXPECT_TRUE(std::ranges::equal(sub.graph.incident_edges(u), ref.incident_edges(u)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace remspan
