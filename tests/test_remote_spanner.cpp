// Remote-spanner builders (Theorems 1-3 front-ends) validated end-to-end
// with the exact oracles.
#include <gtest/gtest.h>

#include "analysis/kconn_oracle.hpp"
#include "analysis/stretch_oracle.hpp"
#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph connected_ubg(std::size_t n, double side, Rng& rng) {
  const auto gg = uniform_unit_ball_graph(n, side, 2, rng);
  const auto comps = connected_components(gg.graph);
  return induced_subgraph(gg.graph, comps.largest()).graph;
}

TEST(RemoteSpanner, Theorem1StretchHoldsOnRandomGraphs) {
  Rng rng(301);
  for (const double eps : {1.0, 0.5, 1.0 / 3.0}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Graph g = connected_gnp(45, 0.12, rng);
      for (const auto algo : {TreeAlgorithm::kGreedy, TreeAlgorithm::kMis}) {
        const EdgeSet h = build_low_stretch_remote_spanner(g, eps, algo);
        const auto report =
            check_remote_stretch(g, h, Stretch{1.0 + eps, 1.0 - 2.0 * eps});
        EXPECT_TRUE(report.satisfied)
            << "eps=" << eps << " rep=" << rep
            << " algo=" << (algo == TreeAlgorithm::kGreedy ? "greedy" : "mis")
            << " worst=(" << report.worst_u << "," << report.worst_v
            << ") dg=" << report.worst_dg << " dhu=" << report.worst_dhu;
      }
    }
  }
}

TEST(RemoteSpanner, Theorem1StretchHoldsOnUbg) {
  Rng rng(303);
  const Graph g = connected_ubg(120, 5.0, rng);
  for (const double eps : {1.0, 0.5}) {
    const EdgeSet h = build_low_stretch_remote_spanner(g, eps);
    const auto report = check_remote_stretch(g, h, Stretch{1.0 + eps, 1.0 - 2.0 * eps});
    EXPECT_TRUE(report.satisfied) << "eps=" << eps;
  }
}

TEST(RemoteSpanner, Theorem1EpsOneIsTwoMinusOneSpanner) {
  // eps = 1: the (2,-1)-remote-spanner of Proposition 1's r = 2 case.
  Rng rng(305);
  const Graph g = connected_gnp(40, 0.15, rng);
  const EdgeSet h = build_low_stretch_remote_spanner(g, 1.0);
  const auto report = check_remote_stretch(g, h, Stretch{2.0, -1.0});
  EXPECT_TRUE(report.satisfied);
}

TEST(RemoteSpanner, Theorem2ExactDistancesForK1) {
  // k = 1: a (1,0)-remote-spanner preserves every remote distance exactly.
  Rng rng(307);
  for (int rep = 0; rep < 4; ++rep) {
    const Graph g = connected_gnp(40, 0.15, rng);
    const EdgeSet h = build_k_connecting_spanner(g, 1);
    const auto report = check_remote_stretch(g, h, Stretch{1.0, 0.0});
    EXPECT_TRUE(report.satisfied)
        << "rep=" << rep << " worst=(" << report.worst_u << "," << report.worst_v
        << ") dg=" << report.worst_dg << " dhu=" << report.worst_dhu;
    EXPECT_DOUBLE_EQ(report.max_ratio, 1.0);
  }
}

TEST(RemoteSpanner, Theorem2KConnectingStretch) {
  Rng rng(309);
  for (const Dist k : {1u, 2u, 3u}) {
    const Graph g = connected_gnp(24, 0.25, rng);
    const EdgeSet h = build_k_connecting_spanner(g, k);
    const auto report =
        check_k_connecting_stretch(g, h, k, Stretch{1.0, 0.0}, /*max_pairs=*/120);
    EXPECT_TRUE(report.satisfied)
        << "k=" << k << " losses=" << report.connectivity_losses
        << " worst=(" << report.worst_s << "," << report.worst_t << ") k'="
        << report.worst_kprime;
  }
}

TEST(RemoteSpanner, Theorem2OnThetaGraphsKeepsAllPaths) {
  for (const Dist k : {2u, 3u, 4u}) {
    const Graph g = theta_graph(k, 2);
    const EdgeSet h = build_k_connecting_spanner(g, k);
    const auto report = check_k_connecting_stretch(g, h, k, Stretch{1.0, 0.0});
    EXPECT_TRUE(report.satisfied) << "k=" << k;
    // Every edge of the theta graph is needed: the spanner must be G itself.
    EXPECT_EQ(h.size(), g.num_edges());
  }
}

TEST(RemoteSpanner, Theorem3TwoConnectingStretch) {
  Rng rng(311);
  for (int rep = 0; rep < 3; ++rep) {
    const Graph g = connected_gnp(22, 0.3, rng);
    const EdgeSet h = build_2connecting_spanner(g, 2);
    const auto report =
        check_k_connecting_stretch(g, h, 2, Stretch{2.0, -1.0}, /*max_pairs=*/150);
    EXPECT_TRUE(report.satisfied)
        << "rep=" << rep << " losses=" << report.connectivity_losses << " worst=("
        << report.worst_s << "," << report.worst_t << ")";
  }
}

TEST(RemoteSpanner, Theorem3OnUbg) {
  Rng rng(313);
  const Graph g = connected_ubg(90, 4.0, rng);
  const EdgeSet h = build_2connecting_spanner(g, 2);
  const auto report = check_k_connecting_stretch(g, h, 2, Stretch{2.0, -1.0},
                                                 /*max_pairs=*/200);
  EXPECT_TRUE(report.satisfied);
}

TEST(RemoteSpanner, SparserThanInputOnDenseGraphs) {
  Rng rng(315);
  const Graph g = connected_ubg(250, 4.0, rng);
  const EdgeSet h1 = build_k_connecting_spanner(g, 1);
  EXPECT_LT(h1.size(), g.num_edges() / 2);
  const EdgeSet h_eps = build_low_stretch_remote_spanner(g, 0.5);
  EXPECT_LT(h_eps.size(), g.num_edges() / 2);
}

TEST(RemoteSpanner, MonotoneInK) {
  Rng rng(317);
  const Graph g = connected_gnp(40, 0.2, rng);
  std::size_t prev = 0;
  for (const Dist k : {1u, 2u, 3u, 4u}) {
    const EdgeSet h = build_k_connecting_spanner(g, k);
    EXPECT_GE(h.size(), prev) << "k=" << k;
    prev = h.size();
  }
}

TEST(RemoteSpanner, DenserForSmallerEps) {
  Rng rng(319);
  const Graph g = connected_ubg(200, 5.0, rng);
  const std::size_t loose = build_low_stretch_remote_spanner(g, 1.0).size();
  const std::size_t tight = build_low_stretch_remote_spanner(g, 0.25).size();
  EXPECT_GE(tight, loose);
}

TEST(RemoteSpanner, BuildInfoPopulated) {
  Rng rng(321);
  const Graph g = connected_gnp(30, 0.2, rng);
  SpannerBuildInfo info;
  const EdgeSet h = build_k_connecting_spanner(g, 2, &info);
  EXPECT_GT(info.sum_tree_edges, 0u);
  EXPECT_GT(info.max_tree_edges, 0u);
  EXPECT_GE(info.sum_tree_edges, info.max_tree_edges);
  EXPECT_GE(info.sum_tree_edges, h.size());  // union dedupes shared edges
}

TEST(RemoteSpanner, CompleteGraphNeedsOnlyStars) {
  // In K_n every pair is adjacent: no distance-2 shells, so every
  // dominating tree is trivial and the spanner is empty — and that is
  // correct, H_u = star(u) already preserves all distances.
  const Graph g = complete_graph(8);
  const EdgeSet h = build_k_connecting_spanner(g, 2);
  EXPECT_EQ(h.size(), 0u);
  const auto report = check_remote_stretch(g, h, Stretch{1.0, 0.0});
  EXPECT_TRUE(report.satisfied);
}

TEST(RemoteSpanner, RecordedParentEdgeIdsMatchAdjacencySearch) {
  // The union engine consumes the parent edge ids the builders record at
  // attach time instead of calling Graph::find_edge per tree edge; the two
  // must agree on every tree any of the four algorithms produces.
  Rng rng(323);
  const Graph g = connected_ubg(80, 4.0, rng);
  DomTreeBuilder builder(g);
  const auto check_tree = [&](const RootedTree& tree, const char* algo) {
    for (const NodeId v : tree.nodes()) {
      if (v == tree.root()) {
        EXPECT_EQ(tree.parent_edge(v), kInvalidEdge) << algo;
        continue;
      }
      EXPECT_EQ(tree.parent_edge(v), g.find_edge(tree.parent(v), v))
          << algo << " root=" << tree.root() << " v=" << v;
    }
  };
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    check_tree(builder.greedy(u, 3, 1), "greedy");
    check_tree(builder.mis(u, 3), "mis");
    check_tree(builder.greedy_k(u, 2), "greedy_k");
    check_tree(builder.mis_k(u, 2), "mis_k");
  }
}

TEST(RemoteSpanner, ConcurrentUnionIsDeterministic) {
  // The shared atomic-bitset union must give one well-defined edge set no
  // matter how roots are scheduled across workers: repeated parallel builds
  // agree bit-for-bit. Run on a graph large enough that every pool worker
  // actually participates (this is also the TSan workout for the relaxed
  // fetch_or publication path).
  Rng rng(325);
  const Graph g = connected_ubg(400, 6.0, rng);
  const EdgeSet first = build_low_stretch_remote_spanner(g, 0.5);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_TRUE(build_low_stretch_remote_spanner(g, 0.5) == first) << "rep=" << rep;
  }
  const EdgeSet first_k = build_k_connecting_spanner(g, 2);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_TRUE(build_k_connecting_spanner(g, 2) == first_k) << "rep=" << rep;
  }
}

TEST(RemoteSpanner, MisRequiresBetaOne) {
  const Graph g = cycle_graph(5);
  EXPECT_THROW(build_remote_spanner(g, 3, 0, TreeAlgorithm::kMis), CheckError);
}

TEST(RemoteSpanner, WorksOnDisconnectedInput) {
  GraphBuilder b(8);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  const Graph g = b.build();
  const EdgeSet h = build_low_stretch_remote_spanner(g, 1.0);
  const auto report = check_remote_stretch(g, h, Stretch{2.0, -1.0});
  EXPECT_TRUE(report.satisfied);
}

}  // namespace
}  // namespace remspan
