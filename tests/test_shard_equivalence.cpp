// Execution invariance of the one build engine (src/shard): every
// union-of-trees build must equal a sequential whole-graph reference — one
// DomTreeBuilder(g) over every root, unioned — bit-for-bit, with the same
// aggregate stats, for every cluster size and worker cap, across the shared
// equivalence corpus and all four tree algorithms. This is the contract
// that makes ShardConfig a pure execution knob. Also covered: the locality
// order, the BallScout / BallGather compact-subgraph machinery the engine
// builds on, the per-tree visitor, the failure path (a throwing visitor
// rethrows on the caller and leaves the pool and a reused ClusterEngine
// usable) and, under TSan (see the CI regex), pool workers or_batch-ing
// into the one shared bitset.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "graph/connectivity.hpp"
#include "graph/views.hpp"
#include "shard/ball_gather.hpp"
#include "shard/shard_engine.hpp"
#include "shard/shard_plan.hpp"
#include "support/corpus.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

constexpr std::size_t kWorkerCaps[] = {1, 2, 3, 0};

ShardConfig engine_config(std::size_t cap, std::size_t batch) {
  ShardConfig config;
  config.num_shards = cap;
  config.batch_roots = batch;
  return config;
}

/// One root's tree, called straight on a DomTreeBuilder: the reference
/// stays independent of TreeRecipe, which the engine side runs.
using ReferenceTree = std::function<RootedTree(DomTreeBuilder&, NodeId)>;

/// The test oracle: every root's tree built sequentially against the whole
/// graph and unioned, with no clusters, gathers or threads.
EdgeSet reference_union(const Graph& g, const ReferenceTree& make_tree, SpannerBuildInfo* info) {
  DomTreeBuilder builder(g);
  EdgeSet spanner(g);
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    const RootedTree tree = make_tree(builder, root);
    std::size_t edges = 0;
    for (const NodeId v : tree.nodes()) {
      if (v == tree.root()) continue;
      spanner.insert(tree.parent_edge(v));
      ++edges;
    }
    info->sum_tree_edges += edges;
    info->max_tree_edges = std::max(info->max_tree_edges, edges);
  }
  return spanner;
}

/// Builds through `build` at every cluster size x worker cap, requiring the
/// reference's exact edge set and aggregate stats each time.
void expect_matches_reference(
    const Graph& g, const std::string& label, const ReferenceTree& make_tree,
    const std::function<EdgeSet(const ShardConfig&, SpannerBuildInfo*)>& build) {
  SpannerBuildInfo ref_info;
  const EdgeSet ref = reference_union(g, make_tree, &ref_info);
  // Cluster size 1 gathers one ball per root, 4 forces many gathers per
  // worker, 128 is the default and n puts every root into one cluster.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{128},
                                  std::size_t{g.num_nodes()}}) {
    for (const std::size_t cap : kWorkerCaps) {
      SpannerBuildInfo info;
      const EdgeSet got = build(engine_config(cap, batch), &info);
      const std::string at =
          label + " cap=" + std::to_string(cap) + " batch=" + std::to_string(batch);
      EXPECT_TRUE(got == ref) << at << ": spanner differs";
      EXPECT_EQ(info.sum_tree_edges, ref_info.sum_tree_edges) << at;
      EXPECT_EQ(info.max_tree_edges, ref_info.max_tree_edges) << at;
    }
  }
}

// --- plan -----------------------------------------------------------------

TEST(ShardPlan, LocalityOrderIsAPermutationInBfsOrder) {
  const Graph g = testsupport::equivalence_family(3, 7);
  const auto order = locality_root_order(g);
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<std::uint8_t> seen(g.num_nodes(), 0);
  for (const NodeId v : order) {
    ASSERT_LT(v, g.num_nodes());
    EXPECT_EQ(seen[v], 0) << "duplicate root " << v;
    seen[v] = 1;
  }
  // BFS property on a connected graph: every node after the first is
  // adjacent to some earlier node of the order.
  for (std::size_t i = 1; i < order.size(); ++i) {
    bool near = false;
    for (const NodeId w : g.neighbors(order[i])) {
      for (std::size_t j = 0; j < i && !near; ++j) near = order[j] == w;
      if (near) break;
    }
    EXPECT_TRUE(near) << "order[" << i << "]=" << order[i] << " not adjacent to a predecessor";
  }
}

TEST(ShardPlan, ClusteredOrderIsAPermutationOfCompactBlobs) {
  // With a cluster bound, every position is either BFS-reachable from an
  // earlier position or a fresh cluster seed — and the seed rule is
  // "smallest unvisited id", i.e. the minimum of the remaining suffix.
  for (const std::size_t cluster : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const Graph g = testsupport::equivalence_family(3, 7);
    const auto order = locality_root_order(g, cluster);
    ASSERT_EQ(order.size(), g.num_nodes());
    std::vector<std::uint8_t> seen(g.num_nodes(), 0);
    for (const NodeId v : order) {
      ASSERT_LT(v, g.num_nodes());
      EXPECT_EQ(seen[v], 0) << "duplicate root " << v;
      seen[v] = 1;
    }
    for (std::size_t i = 1; i < order.size(); ++i) {
      bool near = false;
      for (const NodeId w : g.neighbors(order[i])) {
        for (std::size_t j = 0; j < i && !near; ++j) near = order[j] == w;
        if (near) break;
      }
      if (near) continue;
      const NodeId min_remaining = *std::min_element(order.begin() + i, order.end());
      EXPECT_EQ(order[i], min_remaining)
          << "order[" << i << "] is neither adjacent to a predecessor nor the seed rule's pick";
    }
  }
}

TEST(ShardPlan, RejectsOutOfRangeShardCounts) {
  const Graph g = testsupport::equivalence_family(1, 1);
  EXPECT_THROW((void)build_k_connecting_spanner(g, 1, nullptr, engine_config(kMaxShards + 1, 128)),
               CheckError);
  // A cap beyond the pool is clamped to it, not rejected.
  EXPECT_TRUE(build_k_connecting_spanner(g, 1, nullptr, engine_config(kMaxShards, 128)) ==
              build_k_connecting_spanner(g, 1));
}

TEST(ShardPlan, OverflowGuardsRejectSentinelSizedUniverses) {
  // Pure-math checks: no graph this size is ever allocated.
  EXPECT_THROW(detail::check_shard_limits(std::size_t{kInvalidNode}, 10, 2), CheckError);
  EXPECT_THROW(detail::check_shard_limits(10, std::size_t{kInvalidEdge}, 2), CheckError);
  EXPECT_THROW(detail::check_shard_limits(10, 10, 0), CheckError);
  EXPECT_NO_THROW(detail::check_shard_limits(kInvalidNode - 1, kInvalidEdge - 1, 1));
}

// --- scout + gather -------------------------------------------------------

TEST(ShardGather, InducedSubgraphMatchesGlobalBallExactly) {
  const Graph g = testsupport::equivalence_family(2, 5);
  BallScout scout(g.num_nodes());
  BallGather gather(g.num_nodes());
  const NodeId sources[] = {0, 7, 13};
  scout.run(g, sources, 2);
  gather.gather(g, scout.touched());

  const Graph& local = gather.local();
  ASSERT_EQ(local.num_nodes(), gather.members().size());
  // Members are sorted by global id, so local ids are order-isomorphic.
  EXPECT_TRUE(std::is_sorted(gather.members().begin(), gather.members().end()));
  for (NodeId lu = 0; lu < local.num_nodes(); ++lu) {
    EXPECT_EQ(gather.local_id(gather.global_id(lu)), lu);
  }
  // Every induced edge exists globally with the mapped id, and every global
  // edge between members exists locally.
  std::size_t expected_edges = 0;
  for (const Edge& e : g.edges()) {
    if (scout.in_ball(e.u) && scout.in_ball(e.v)) ++expected_edges;
  }
  EXPECT_EQ(local.num_edges(), expected_edges);
  for (EdgeId le = 0; le < local.num_edges(); ++le) {
    const Edge local_edge = local.edge(le);
    const EdgeId ge = gather.global_edge(le);
    const Edge global_edge = g.edge(ge);
    EXPECT_EQ(gather.global_id(local_edge.u), global_edge.u);
    EXPECT_EQ(gather.global_id(local_edge.v), global_edge.v);
  }
}

TEST(ShardGather, RepeatedGathersResetCleanly) {
  const Graph g = testsupport::equivalence_family(0, 9);
  BallScout scout(g.num_nodes());
  BallGather gather(g.num_nodes());
  const NodeId first[] = {0};
  scout.run(g, first, 2);
  gather.gather(g, scout.touched());
  const std::vector<NodeId> first_members(gather.members().begin(), gather.members().end());

  const NodeId second[] = {5};
  scout.run(g, second, 1);
  gather.gather(g, scout.touched());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool member =
        std::find(gather.members().begin(), gather.members().end(), v) != gather.members().end();
    EXPECT_EQ(gather.local_id(v) != kInvalidNode, member) << "stale local id for " << v;
    EXPECT_EQ(scout.in_ball(v), member);
  }
  // And going back reproduces the first gather exactly.
  scout.run(g, first, 2);
  gather.gather(g, scout.touched());
  EXPECT_TRUE(std::equal(gather.members().begin(), gather.members().end(),
                         first_members.begin(), first_members.end()));
}

/// The heart of the bit-exactness argument (ball_gather.hpp): a tree built
/// for a root inside the gathered union ball equals the whole-graph tree
/// node-for-node, parent-for-parent, edge-for-edge.
TEST(ShardGather, LocalTreesMatchGlobalTreesAcrossCorpus) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    const Graph g = testsupport::equivalence_family(which, 100 + which);
    DomTreeBuilder global_builder(g);
    BallScout scout(g.num_nodes());
    BallGather gather(g.num_nodes());
    // A small batch of nearby roots, like one engine cluster.
    std::vector<NodeId> batch;
    for (NodeId u = 0; u < g.num_nodes() && batch.size() < 6; u += 2) batch.push_back(u);

    const Dist r = 3;
    const Dist beta = 1;
    const Dist ball_depth = std::max<Dist>(r, r - 1 + beta);
    scout.run(g, batch, ball_depth);
    gather.gather(g, scout.touched());
    DomTreeBuilder local_builder(gather.local());

    for (const NodeId u : batch) {
      const RootedTree global_tree = global_builder.greedy(u, r, beta);
      const RootedTree local_tree = local_builder.greedy(gather.local_id(u), r, beta);
      const std::string at = "family=" + std::to_string(which) + " u=" + std::to_string(u);
      ASSERT_EQ(local_tree.num_nodes(), global_tree.num_nodes()) << at;
      const auto& local_nodes = local_tree.nodes();
      const auto& global_nodes = global_tree.nodes();
      for (std::size_t i = 0; i < local_nodes.size(); ++i) {
        const NodeId gv = gather.global_id(local_nodes[i]);
        EXPECT_EQ(gv, global_nodes[i]) << at << " pick order diverged at " << i;
        if (gv == u) continue;
        EXPECT_EQ(gather.global_id(local_tree.parent(local_nodes[i])), global_tree.parent(gv))
            << at << " v=" << gv;
        EXPECT_EQ(gather.global_edge(local_tree.parent_edge(local_nodes[i])),
                  global_tree.parent_edge(gv))
            << at << " v=" << gv;
      }
    }
  }
}

// --- engine invariance ----------------------------------------------------

TEST(ShardEquivalence, GreedySpannersBitExactAcrossShardCounts) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 6000 * seed + which);
      for (const Dist r : testsupport::kGreedyRadii) {
        for (const Dist beta : testsupport::kGreedyBetas) {
          expect_matches_reference(
              g,
              "greedy family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                  " r=" + std::to_string(r) + " beta=" + std::to_string(beta),
              [&](DomTreeBuilder& b, NodeId u) { return b.greedy(u, r, beta); },
              [&](const ShardConfig& shards, SpannerBuildInfo* info) {
                return build_remote_spanner(g, r, beta, TreeAlgorithm::kGreedy, info, shards);
              });
        }
      }
    }
  }
}

TEST(ShardEquivalence, MisSpannersBitExactAcrossShardCounts) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 7000 * seed + which);
      for (const Dist r : testsupport::kMisRadii) {
        expect_matches_reference(
            g,
            "mis family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                " r=" + std::to_string(r),
            [&](DomTreeBuilder& b, NodeId u) { return b.mis(u, r); },
            [&](const ShardConfig& shards, SpannerBuildInfo* info) {
              return build_remote_spanner(g, r, 1, TreeAlgorithm::kMis, info, shards);
            });
      }
    }
  }
}

TEST(ShardEquivalence, GreedyKSpannersBitExactAcrossShardCounts) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 8000 * seed + which);
      for (const Dist k : testsupport::kGreedyKs) {
        expect_matches_reference(
            g,
            "greedy_k family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                " k=" + std::to_string(k),
            [&](DomTreeBuilder& b, NodeId u) { return b.greedy_k(u, k); },
            [&](const ShardConfig& shards, SpannerBuildInfo* info) {
              return build_k_connecting_spanner(g, k, info, shards);
            });
      }
    }
  }
}

TEST(ShardEquivalence, MisKSpannersBitExactAcrossShardCounts) {
  for (int which = 0; which < testsupport::kNumEquivalenceFamilies; ++which) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Graph g = testsupport::equivalence_family(which, 9000 * seed + which);
      for (const Dist k : testsupport::kMisKs) {
        expect_matches_reference(
            g,
            "mis_k family=" + std::to_string(which) + " seed=" + std::to_string(seed) +
                " k=" + std::to_string(k),
            [&](DomTreeBuilder& b, NodeId u) { return b.mis_k(u, k); },
            [&](const ShardConfig& shards, SpannerBuildInfo* info) {
              return build_2connecting_spanner(g, k, info, shards);
            });
      }
    }
  }
}

/// A larger unit-disk graph (the paper's topology) through the facade's
/// low-stretch front-end: the dispatch path a production caller takes.
TEST(ShardEquivalence, LowStretchUdgBitExactThroughFrontEnd) {
  const Graph g = testsupport::observability_graph(42);
  const Dist r = domination_radius_for_eps(0.5);
  expect_matches_reference(
      g, "th1 udg", [r](DomTreeBuilder& b, NodeId u) { return b.mis(u, r); },
      [&](const ShardConfig& shards, SpannerBuildInfo* info) {
        return build_low_stretch_remote_spanner(g, 0.5, TreeAlgorithm::kMis, info, shards);
      });
}

/// The visitor sees every root exactly once, and the edge ids it is handed
/// are the whole-graph tree's parent edges, in attach order.
TEST(ShardEquivalence, VisitorSeesEveryWholeGraphTreeOnce) {
  const Graph g = testsupport::equivalence_family(3, 33);
  DomTreeBuilder global_builder(g);
  std::vector<std::vector<Edge>> seen(g.num_nodes());
  std::vector<std::atomic<int>> visits(g.num_nodes());
  (void)cluster_union_of_trees(g, TreeRecipe::k_connecting(2), engine_config(0, 4), nullptr,
                               [&](NodeId root, std::span<const EdgeId> ids) {
                                 visits[root].fetch_add(1);
                                 for (const EdgeId id : ids) seen[root].push_back(g.edge(id));
                               });
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    ASSERT_EQ(visits[root].load(), 1) << "root " << root;
    std::vector<Edge> want;
    const RootedTree tree = global_builder.greedy_k(root, 2);
    for (const NodeId v : tree.nodes()) {
      if (v != tree.root()) want.push_back(make_edge(v, tree.parent(v)));
    }
    EXPECT_EQ(seen[root], want) << "root " << root;
  }
}

/// The failure path: a visitor that throws mid-build surfaces on the
/// calling thread (never terminates a pool worker), and the same pool runs
/// the next build to the correct result.
TEST(ShardEquivalence, ThrowingTreeRethrowsOnCallerAndPoolRecovers) {
  const Graph g = testsupport::observability_graph(7);
  SpannerBuildInfo ref_info;
  const EdgeSet ref = reference_union(
      g, [](DomTreeBuilder& b, NodeId u) { return b.greedy_k(u, 1); }, &ref_info);
  for (const std::size_t k : {std::size_t{0}, std::size_t{g.num_nodes() / 2},
                              std::size_t{g.num_nodes() - 1}}) {
    std::atomic<std::size_t> calls{0};
    const auto failing = [&](NodeId /*root*/, std::span<const EdgeId> /*ids*/) {
      if (calls.fetch_add(1) == k) throw std::runtime_error("tree visitor failed");
    };
    EXPECT_THROW((void)cluster_union_of_trees(g, TreeRecipe::k_connecting(1),
                                              engine_config(0, 4), nullptr, failing),
                 std::runtime_error)
        << "k=" << k;
    SpannerBuildInfo info;
    EXPECT_TRUE(build_k_connecting_spanner(g, 1, &info, engine_config(0, 4)) == ref)
        << "k=" << k;
    EXPECT_EQ(info.sum_tree_edges, ref_info.sum_tree_edges);
  }
}

/// One ClusterEngine held across builds, as IncrementalSpanner holds its
/// engine across batches: after a build whose visitor threw, the next build
/// on the same engine ORs exactly the reference union with its tallies.
TEST(ShardEquivalence, EngineIsReusableAfterAThrowingBuild) {
  const Graph g = testsupport::observability_graph(11);
  SpannerBuildInfo ref_info;
  const EdgeSet ref = reference_union(
      g, [](DomTreeBuilder& b, NodeId u) { return b.greedy_k(u, 1); }, &ref_info);
  const TreeRecipe recipe = TreeRecipe::k_connecting(1);
  const ShardConfig config = engine_config(0, 4);
  const std::vector<NodeId> order = locality_root_order(g, config.batch_roots);
  ClusterEngine engine;
  for (const std::size_t k : {std::size_t{0}, std::size_t{g.num_nodes() / 2},
                              std::size_t{g.num_nodes() - 1}}) {
    AtomicBitset dropped(g.num_edges());
    EXPECT_THROW((void)engine.build(GraphView(g), order, recipe, config, &dropped,
                                    [k](std::size_t i, NodeId /*root*/,
                                        std::span<const EdgeId> /*ids*/) {
                                      if (i == k) throw std::runtime_error("tree visitor failed");
                                    }),
                 std::runtime_error)
        << "k=" << k;
    AtomicBitset shared(g.num_edges());
    std::vector<std::atomic<int>> visits(g.num_nodes());
    const ClusterTallies tally = engine.build(
        GraphView(g), order, recipe, config, &shared,
        [&](std::size_t /*i*/, NodeId root, std::span<const EdgeId> /*ids*/) {
          visits[root].fetch_add(1);
        });
    EXPECT_TRUE(EdgeSet(g, shared.snapshot()) == ref) << "k=" << k;
    EXPECT_EQ(tally.sum_tree_edges, ref_info.sum_tree_edges) << "k=" << k;
    EXPECT_EQ(tally.max_tree_edges, ref_info.max_tree_edges) << "k=" << k;
    for (NodeId root = 0; root < g.num_nodes(); ++root) {
      ASSERT_EQ(visits[root].load(), 1) << "k=" << k << " root " << root;
    }
  }
}

}  // namespace
}  // namespace remspan
