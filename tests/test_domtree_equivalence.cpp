// Bit-exactness of the optimized hot path: the word-parallel shell-bitmask
// greedy covers (one or several 64-bit words per candidate), the
// shell-bucketed MIS, and the shared atomic spanner union must reproduce
// the pre-optimization behavior EXACTLY — same picks in the same order,
// same trees, same edge sets. The reference implementations below are
// verbatim ports of the original quadratic scans (recompute-every-candidate-
// per-pick, whole-ball rescans per shell, per-worker partial unions); any
// divergence in pick order, tie-breaking or attachment shows up as a
// node/edge mismatch here. The wide-shell cases run graphs whose cover
// targets span several mask words, which the shared corpus never reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "support/corpus.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

/// The pre-optimization dominating-tree builders, kept as the behavioral
/// oracle: every pick rescans all candidates (O(|X|^2 · deg) greedy), mis
/// sorts the whole ball, mis_k does an adjacency search per attach-point
/// candidate. Deliberately naive — do not optimize.
class ReferenceBuilder {
 public:
  explicit ReferenceBuilder(const Graph& g)
      : g_(&g),
        bfs_(g.num_nodes()),
        in_s_(g.num_nodes(), 0),
        in_x_(g.num_nodes(), 0),
        cov_(g.num_nodes(), 0),
        rem_(g.num_nodes(), 0),
        branches_(g.num_nodes()) {}

  RootedTree greedy(NodeId u, Dist r, Dist beta) {
    RootedTree tree(u);
    const Dist depth_needed = std::max(r, r - 1 + beta);
    bfs_.run(GraphView(*g_), u, depth_needed);

    std::vector<NodeId> candidates;
    for (Dist shell = 2; shell <= r; ++shell) {
      std::size_t s_count = 0;
      candidates.clear();
      for (const NodeId v : bfs_.order()) {
        const Dist d = bfs_.dist(v);
        if (d == shell) {
          in_s_[v] = 1;
          ++s_count;
        }
        if (d >= shell - 1 && d <= shell - 1 + beta) {
          in_x_[v] = 1;
          candidates.push_back(v);
        }
      }
      while (s_count > 0) {
        NodeId best = kInvalidNode;
        std::size_t best_cover = 0;
        for (const NodeId x : candidates) {
          if (in_x_[x] != 1) continue;
          std::size_t cover = in_s_[x];
          for (const NodeId y : g_->neighbors(x)) cover += in_s_[y];
          if (cover > best_cover || (cover == best_cover && cover > 0 && x < best)) {
            best_cover = cover;
            best = x;
          }
        }
        REMSPAN_CHECK(best != kInvalidNode && best_cover > 0);
        in_x_[best] = 2;
        add_parent_chain(tree, best);
        if (in_s_[best] != 0) {
          in_s_[best] = 0;
          --s_count;
        }
        for (const NodeId y : g_->neighbors(best)) {
          if (in_s_[y] != 0) {
            in_s_[y] = 0;
            --s_count;
          }
        }
      }
      for (const NodeId x : candidates) in_x_[x] = 0;
    }
    reset_flags();
    return tree;
  }

  RootedTree mis(NodeId u, Dist r) {
    RootedTree tree(u);
    bfs_.run(GraphView(*g_), u, r);

    std::vector<NodeId> shell_nodes;
    for (const NodeId v : bfs_.order()) {
      if (bfs_.dist(v) >= 2) {
        in_s_[v] = 1;
        shell_nodes.push_back(v);
      }
    }
    std::sort(shell_nodes.begin(), shell_nodes.end(), [&](NodeId a, NodeId b) {
      return bfs_.dist(a) != bfs_.dist(b) ? bfs_.dist(a) < bfs_.dist(b) : a < b;
    });

    for (const NodeId x : shell_nodes) {
      if (in_s_[x] == 0) continue;
      add_parent_chain(tree, x);
      in_s_[x] = 0;
      for (const NodeId y : g_->neighbors(x)) in_s_[y] = 0;
    }
    reset_flags();
    return tree;
  }

  RootedTree greedy_k(NodeId u, Dist k) {
    RootedTree tree(u);
    bfs_.run(GraphView(*g_), u, 2);

    std::size_t s_count = 0;
    for (const NodeId v : bfs_.order()) {
      if (bfs_.dist(v) == 2) {
        in_s_[v] = 1;
        ++s_count;
      }
    }
    for (const NodeId x : g_->neighbors(u)) {
      for (const NodeId y : g_->neighbors(x)) {
        if (in_s_[y] != 0) ++rem_[y];
      }
    }

    while (s_count > 0) {
      NodeId best = kInvalidNode;
      std::size_t best_cover = 0;
      for (const NodeId x : g_->neighbors(u)) {
        if (in_x_[x] != 0) continue;
        std::size_t cover = 0;
        for (const NodeId y : g_->neighbors(x)) cover += in_s_[y];
        if (cover > best_cover || (cover == best_cover && cover > 0 && x < best)) {
          best_cover = cover;
          best = x;
        }
      }
      REMSPAN_CHECK(best != kInvalidNode && best_cover > 0);
      in_x_[best] = 1;
      tree.add_child(u, best, bfs_.parent_edge(best));
      for (const NodeId y : g_->neighbors(best)) {
        if (in_s_[y] == 0) continue;
        ++cov_[y];
        --rem_[y];
        if (cov_[y] >= k || rem_[y] == 0) {
          in_s_[y] = 0;
          --s_count;
        }
      }
    }
    reset_flags();
    return tree;
  }

  RootedTree mis_k(NodeId u, Dist k) {
    RootedTree tree(u);
    bfs_.run(GraphView(*g_), u, 2);

    std::vector<NodeId> shell;
    std::size_t s_count = 0;
    for (const NodeId v : bfs_.order()) {
      if (bfs_.dist(v) == 2) {
        in_s_[v] = 1;
        shell.push_back(v);
        ++s_count;
      }
    }
    std::sort(shell.begin(), shell.end());
    for (const NodeId x : g_->neighbors(u)) {
      for (const NodeId y : g_->neighbors(x)) {
        if (in_s_[y] != 0) ++rem_[y];
      }
    }

    auto attach = [&](NodeId parent, NodeId node) {
      const EdgeId pe = bfs_.parent(node) == parent ? bfs_.parent_edge(node)
                                                    : g_->find_edge(parent, node);
      tree.add_child(parent, node, pe);
      const NodeId branch = tree.branch(node);
      const bool depth_one = tree.depth(node) == 1;
      for (const NodeId w : g_->neighbors(node)) {
        if (in_s_[w] == 0) continue;
        if (depth_one) --rem_[w];
        auto& br = branches_[w];
        if (std::find(br.begin(), br.end(), branch) == br.end()) br.push_back(branch);
        if (rem_[w] == 0 || br.size() >= k) {
          in_s_[w] = 0;
          --s_count;
        }
      }
    };

    std::vector<NodeId> ys;
    for (Dist round = 1; round <= k && s_count > 0; ++round) {
      for (const NodeId v : shell) in_x_[v] = in_s_[v];
      for (const NodeId x : shell) {
        if (s_count == 0) break;
        if (in_x_[x] == 0 || in_s_[x] == 0) continue;
        ys.clear();
        for (const NodeId y : g_->neighbors(x)) {
          if (g_->has_edge(u, y) && !tree.contains(y)) ys.push_back(y);
        }
        REMSPAN_CHECK(!ys.empty());
        const std::size_t count = std::min<std::size_t>(k, ys.size());
        attach(u, ys[0]);
        attach(ys[0], x);
        for (std::size_t i = 1; i < count; ++i) attach(u, ys[i]);
        in_x_[x] = 0;
        for (const NodeId y : g_->neighbors(x)) in_x_[y] = 0;
      }
    }
    REMSPAN_CHECK(s_count == 0);
    reset_flags();
    return tree;
  }

 private:
  void add_parent_chain(RootedTree& tree, NodeId x) {
    NodeId chain[64];
    std::size_t len = 0;
    while (!tree.contains(x)) {
      REMSPAN_CHECK(len < 64);
      chain[len++] = x;
      x = bfs_.parent(x);
      REMSPAN_CHECK(x != kInvalidNode);
    }
    while (len > 0) {
      const NodeId child = chain[--len];
      tree.add_child(x, child, bfs_.parent_edge(child));
      x = child;
    }
  }

  void reset_flags() {
    for (const NodeId v : bfs_.order()) {
      in_s_[v] = 0;
      in_x_[v] = 0;
      cov_[v] = 0;
      rem_[v] = 0;
      branches_[v].clear();
    }
  }

  const Graph* g_;
  BoundedBfs bfs_;
  std::vector<std::uint8_t> in_s_;
  std::vector<std::uint8_t> in_x_;
  std::vector<Dist> cov_;
  std::vector<Dist> rem_;
  std::vector<std::vector<NodeId>> branches_;
};

/// Trees must be identical as ordered objects: same members in the same
/// insertion order (i.e. the same picks happened in the same sequence),
/// same parents, depths and recorded parent edge ids.
void expect_identical_trees(const RootedTree& got, const RootedTree& want,
                            const std::string& label) {
  ASSERT_EQ(got.root(), want.root()) << label;
  ASSERT_EQ(got.nodes(), want.nodes()) << label;
  for (const NodeId v : want.nodes()) {
    EXPECT_EQ(got.parent(v), want.parent(v)) << label << " v=" << v;
    EXPECT_EQ(got.depth(v), want.depth(v)) << label << " v=" << v;
    EXPECT_EQ(got.parent_edge(v), want.parent_edge(v)) << label << " v=" << v;
  }
}

/// The shared equivalence corpus (tests/support/corpus.hpp); aliased so
/// the sweep bodies below read the same as before the extraction.
Graph family_graph(int which, std::uint64_t seed) {
  return testsupport::equivalence_family(which, seed);
}

TEST(DomTreeEquivalence, GreedyMatchesReferenceAcrossFamiliesAndParams) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = family_graph(which, 1000 * seed + which);
      DomTreeBuilder fast(g);
      ReferenceBuilder ref(g);
      for (const Dist r : testsupport::kGreedyRadii) {
        for (const Dist beta : testsupport::kGreedyBetas) {
          for (NodeId u = 0; u < g.num_nodes(); u += 3) {
            expect_identical_trees(
                fast.greedy(u, r, beta), ref.greedy(u, r, beta),
                "greedy graph=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                    " r=" + std::to_string(r) + " beta=" + std::to_string(beta) +
                    " u=" + std::to_string(u));
          }
        }
      }
    }
  }
}

TEST(DomTreeEquivalence, MisMatchesReferenceAcrossFamiliesAndRadii) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = family_graph(which, 2000 * seed + which);
      DomTreeBuilder fast(g);
      ReferenceBuilder ref(g);
      for (const Dist r : testsupport::kMisRadii) {
        for (NodeId u = 0; u < g.num_nodes(); u += 3) {
          expect_identical_trees(fast.mis(u, r), ref.mis(u, r),
                                 "mis graph=" + std::to_string(which) +
                                     " seed=" + std::to_string(seed) + " r=" + std::to_string(r) +
                                     " u=" + std::to_string(u));
        }
      }
    }
  }
}

TEST(DomTreeEquivalence, GreedyKMatchesReferenceAcrossFamiliesAndK) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = family_graph(which, 3000 * seed + which);
      DomTreeBuilder fast(g);
      ReferenceBuilder ref(g);
      for (const Dist k : testsupport::kGreedyKs) {
        for (NodeId u = 0; u < g.num_nodes(); u += 3) {
          expect_identical_trees(fast.greedy_k(u, k), ref.greedy_k(u, k),
                                 "greedy_k graph=" + std::to_string(which) +
                                     " seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
                                     " u=" + std::to_string(u));
        }
      }
    }
  }
}

TEST(DomTreeEquivalence, MisKMatchesReferenceAcrossFamiliesAndK) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = family_graph(which, 4000 * seed + which);
      DomTreeBuilder fast(g);
      ReferenceBuilder ref(g);
      for (const Dist k : testsupport::kMisKs) {
        for (NodeId u = 0; u < g.num_nodes(); u += 3) {
          expect_identical_trees(fast.mis_k(u, k), ref.mis_k(u, k),
                                 "mis_k graph=" + std::to_string(which) +
                                     " seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
                                     " u=" + std::to_string(u));
        }
      }
    }
  }
}

/// Graphs whose cover targets overflow one mask word. The shared corpus
/// stops at 48 nodes, so none of its shells exceeds 64 slots; these do.
/// Dense Gnp(220, 0.2) has distance-2 shells of ~170 nodes (three words);
/// in K_{3,150} every root on the large side sees the other 149 large-side
/// nodes at distance 2 through only 3 relays, so k > 3 ends by the
/// "no unpicked candidate reaches it" rule; sparse Gnp(400, 0.03) adds
/// wide distance-3 shells for greedy at r = 3.
std::vector<std::pair<std::string, Graph>> wide_shell_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  Rng dense(16);
  graphs.emplace_back("gnp220", connected_gnp(220, 0.2, dense));
  graphs.emplace_back("k3_150", complete_bipartite(3, 150));
  Rng sparse(17);
  graphs.emplace_back("gnp400", connected_gnp(400, 0.03, sparse));
  return graphs;
}

/// Widest distance-`d` shell over every root of g.
std::size_t widest_shell(const Graph& g, Dist d) {
  BoundedBfs bfs(g.num_nodes());
  std::size_t widest = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    bfs.run(GraphView(g), u, d);
    widest = std::max(widest, bfs.shell(d).size());
  }
  return widest;
}

TEST(DomTreeEquivalence, WideShellGraphsNeedSeveralMaskWords) {
  const auto graphs = wide_shell_graphs();
  EXPECT_GT(widest_shell(graphs[0].second, 2), 128u);
  EXPECT_GT(widest_shell(graphs[1].second, 2), 128u);
  EXPECT_GT(widest_shell(graphs[2].second, 3), 128u);
}

TEST(DomTreeEquivalence, GreedyKMatchesReferenceOnWideShells) {
  for (const auto& [name, g] : wide_shell_graphs()) {
    DomTreeBuilder fast(g);
    ReferenceBuilder ref(g);
    for (const Dist k : {1u, 2u, 3u, 5u}) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        expect_identical_trees(fast.greedy_k(u, k), ref.greedy_k(u, k),
                               "greedy_k graph=" + name + " k=" + std::to_string(k) +
                                   " u=" + std::to_string(u));
      }
    }
  }
}

TEST(DomTreeEquivalence, GreedyMatchesReferenceOnWideShells) {
  for (const auto& [name, g] : wide_shell_graphs()) {
    DomTreeBuilder fast(g);
    ReferenceBuilder ref(g);
    for (const Dist r : {2u, 3u}) {
      for (const Dist beta : {0u, 1u, 2u}) {
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          expect_identical_trees(fast.greedy(u, r, beta), ref.greedy(u, r, beta),
                                 "greedy graph=" + name + " r=" + std::to_string(r) +
                                     " beta=" + std::to_string(beta) +
                                     " u=" + std::to_string(u));
        }
      }
    }
  }
}

/// The concurrent shared-bitset union must produce exactly the edge set of
/// a sequential one-builder union of the same (reference) trees.
TEST(DomTreeEquivalence, SpannerUnionMatchesSequentialReferenceUnion) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    const Graph g = family_graph(which, 500 + which);
    ReferenceBuilder ref(g);

    const auto sequential_union = [&](auto make_tree) {
      EdgeSet acc(g);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const RootedTree tree = make_tree(u);
        for (const NodeId v : tree.nodes()) {
          if (v == tree.root()) continue;
          acc.insert(tree.parent_edge(v));
        }
      }
      return acc;
    };

    for (const Dist r : {2u, 3u}) {
      const EdgeSet want =
          sequential_union([&](NodeId u) { return ref.greedy(u, r, 1); });
      const EdgeSet got = build_remote_spanner(g, r, 1, TreeAlgorithm::kGreedy);
      EXPECT_TRUE(got == want) << "greedy union graph=" << which << " r=" << r;

      const EdgeSet want_mis = sequential_union([&](NodeId u) { return ref.mis(u, r); });
      const EdgeSet got_mis = build_remote_spanner(g, r, 1, TreeAlgorithm::kMis);
      EXPECT_TRUE(got_mis == want_mis) << "mis union graph=" << which << " r=" << r;
    }
    for (const Dist k : {1u, 2u}) {
      const EdgeSet want = sequential_union([&](NodeId u) { return ref.greedy_k(u, k); });
      const EdgeSet got = build_k_connecting_spanner(g, k);
      EXPECT_TRUE(got == want) << "greedy_k union graph=" << which << " k=" << k;

      const EdgeSet want2 = sequential_union([&](NodeId u) { return ref.mis_k(u, k); });
      const EdgeSet got2 = build_2connecting_spanner(g, k);
      EXPECT_TRUE(got2 == want2) << "mis_k union graph=" << which << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace remspan
