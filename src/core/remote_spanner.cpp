#include "core/remote_spanner.hpp"

#include <algorithm>

#include "shard/shard_engine.hpp"

namespace remspan {

EdgeSet build_remote_spanner(const Graph& g, Dist r, Dist beta, TreeAlgorithm algo,
                             SpannerBuildInfo* info, const ShardConfig& shards) {
  REMSPAN_CHECK(r >= 2);
  // The gather ball: the tree BFS explores to max(r, r-1+beta), the deepest
  // shell the candidate ranges reach (dominating_tree.cpp uses the same
  // bound) — r itself for the MIS trees, whose beta is 1.
  const Dist ball_depth = std::max<Dist>(r, r - 1 + beta);
  if (algo == TreeAlgorithm::kMis) {
    REMSPAN_CHECK(beta == 1);  // Algorithm 2 computes (r,1)-dominating trees
    return cluster_union_of_trees(
        g, ball_depth, [r](DomTreeBuilder& b, NodeId u) { return b.mis(u, r); }, shards, info);
  }
  return cluster_union_of_trees(
      g, ball_depth, [r, beta](DomTreeBuilder& b, NodeId u) { return b.greedy(u, r, beta); },
      shards, info);
}

EdgeSet build_low_stretch_remote_spanner(const Graph& g, double eps, TreeAlgorithm algo,
                                         SpannerBuildInfo* info, const ShardConfig& shards) {
  const Dist r = domination_radius_for_eps(eps);
  return build_remote_spanner(g, r, 1, algo, info, shards);
}

EdgeSet build_k_connecting_spanner(const Graph& g, Dist k, SpannerBuildInfo* info,
                                   const ShardConfig& shards) {
  REMSPAN_CHECK(k >= 1);
  return cluster_union_of_trees(
      g, 2, [k](DomTreeBuilder& b, NodeId u) { return b.greedy_k(u, k); }, shards, info);
}

EdgeSet build_2connecting_spanner(const Graph& g, Dist k, SpannerBuildInfo* info,
                                  const ShardConfig& shards) {
  REMSPAN_CHECK(k >= 1);
  return cluster_union_of_trees(
      g, 2, [k](DomTreeBuilder& b, NodeId u) { return b.mis_k(u, k); }, shards, info);
}

}  // namespace remspan
