// Remote-spanner construction: the union over every node u of a dominating
// tree rooted at u (the paper's Section 2.3 / 3.3 recipe, i.e. the local
// computation each node performs in Algorithm RemSpan). The per-root tree
// computations are independent and each reads only its root's bounded ball,
// so they run on the thread pool in spatially compact root clusters.
//
// Front-ends for the three theorems:
//   Theorem 1: (1+eps, 1-2eps)-remote-spanner   = union of (r,1)-dominating
//              trees with r = ceil(1/eps)+1 (greedy or MIS trees).
//   Theorem 2: k-connecting (1,0)-remote-spanner = union of k-connecting
//              (2,0)-dominating trees (greedy k-cover).
//   Theorem 3: 2-connecting (2,-1)-remote-spanner = union of 2-connecting
//              (2,1)-dominating trees (k rounds of MIS).
#pragma once

#include <cstddef>

#include "core/dominating_tree.hpp"
#include "core/params.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"
#include "shard/shard_plan.hpp"

namespace remspan {

/// Which per-root tree algorithm backs the construction.
enum class TreeAlgorithm {
  kGreedy,  // set-cover greedy: log Delta-approximate tree size (Prop. 2/6)
  kMis,     // local MIS: constant-size trees on doubling UBGs (Prop. 3/7)
};

/// Aggregate facts about a build, reported by the benches.
struct SpannerBuildInfo {
  std::size_t sum_tree_edges = 0;  // sum over roots (counts shared edges repeatedly)
  std::size_t max_tree_edges = 0;  // largest single dominating tree
  double build_seconds = 0.0;      // wall time of the whole build
};

/// Union of (r, beta)-dominating trees for every root. beta must be 1 when
/// algo == kMis (Algorithm 2 is specific to beta = 1).
///
/// Every front-end in this header runs the cluster-batched engine of
/// src/shard/shard_engine.hpp; `shards` only tunes its execution (worker
/// cap, roots per cluster) and never changes an output bit
/// (test_shard_equivalence.cpp).
[[nodiscard]] EdgeSet build_remote_spanner(const Graph& g, Dist r, Dist beta,
                                           TreeAlgorithm algo,
                                           SpannerBuildInfo* info = nullptr,
                                           const ShardConfig& shards = {});

/// Theorem 1 front-end: a (1+eps, 1-2eps)-remote-spanner, 0 < eps <= 1.
[[nodiscard]] EdgeSet build_low_stretch_remote_spanner(const Graph& g, double eps,
                                                       TreeAlgorithm algo = TreeAlgorithm::kMis,
                                                       SpannerBuildInfo* info = nullptr,
                                                       const ShardConfig& shards = {});

/// Theorem 2 front-end: a k-connecting (1,0)-remote-spanner. For k = 1 this
/// is a (1,0)-remote-spanner, i.e. exact remote distances (the multipoint
/// relay sub-graph of OLSR).
[[nodiscard]] EdgeSet build_k_connecting_spanner(const Graph& g, Dist k,
                                                 SpannerBuildInfo* info = nullptr,
                                                 const ShardConfig& shards = {});

/// Theorem 3 front-end: union of k-connecting (2,1)-dominating trees. For
/// k = 2 this is a 2-connecting (2,-1)-remote-spanner with O(n) edges on
/// doubling unit ball graphs.
[[nodiscard]] EdgeSet build_2connecting_spanner(const Graph& g, Dist k = 2,
                                                SpannerBuildInfo* info = nullptr,
                                                const ShardConfig& shards = {});

}  // namespace remspan
