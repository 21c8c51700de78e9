#include "core/remote_spanner.hpp"

#include <algorithm>

#include "shard/shard_engine.hpp"

namespace remspan {

TreeRecipe TreeRecipe::r_beta_tree(Dist r, Dist beta, TreeAlgorithm algo) {
  REMSPAN_CHECK(r >= 2);
  if (algo == TreeAlgorithm::kMis) {
    REMSPAN_CHECK(beta == 1);  // Algorithm 2 computes (r,1)-dominating trees
  }
  return TreeRecipe(algo == TreeAlgorithm::kMis ? Algorithm::kMis : Algorithm::kGreedy, r, beta,
                    1);
}

TreeRecipe TreeRecipe::low_stretch(double eps, TreeAlgorithm algo) {
  return r_beta_tree(domination_radius_for_eps(eps), 1, algo);
}

TreeRecipe TreeRecipe::k_connecting(Dist k) {
  REMSPAN_CHECK(k >= 1);
  return TreeRecipe(Algorithm::kGreedyK, 2, 0, k);
}

TreeRecipe TreeRecipe::two_connecting(Dist k) {
  REMSPAN_CHECK(k >= 1);
  return TreeRecipe(Algorithm::kMisK, 2, 1, k);
}

Dist TreeRecipe::ball_depth() const noexcept { return std::max<Dist>(r_, r_ - 1 + beta_); }

Dist TreeRecipe::dirty_radius() const noexcept { return r_ - 1 + beta_; }  // >= 1 as r >= 2

RootedTree TreeRecipe::build_tree(DomTreeBuilder& builder, NodeId root) const {
  switch (algorithm_) {
    case Algorithm::kGreedy:
      return builder.greedy(root, r_, beta_);
    case Algorithm::kMis:
      return builder.mis(root, r_);
    case Algorithm::kGreedyK:
      return builder.greedy_k(root, k_);
    case Algorithm::kMisK:
      return builder.mis_k(root, k_);
  }
  detail::check_failed("unknown TreeRecipe::Algorithm", std::source_location::current());
}

EdgeSet TreeRecipe::build_spanner(const Graph& g, SpannerBuildInfo* info,
                                  const ShardConfig& shards) const {
  return cluster_union_of_trees(g, *this, shards, info);
}

const char* TreeRecipe::name() const noexcept {
  switch (algorithm_) {
    case Algorithm::kGreedy:
      return "r-beta (greedy)";
    case Algorithm::kMis:
      return "r-beta (mis)";
    case Algorithm::kGreedyK:
      return "k-connecting (1,0)";
    case Algorithm::kMisK:
      return "k-connecting (2,1)";
  }
  return "?";
}

EdgeSet build_remote_spanner(const Graph& g, Dist r, Dist beta, TreeAlgorithm algo,
                             SpannerBuildInfo* info, const ShardConfig& shards) {
  return TreeRecipe::r_beta_tree(r, beta, algo).build_spanner(g, info, shards);
}

EdgeSet build_low_stretch_remote_spanner(const Graph& g, double eps, TreeAlgorithm algo,
                                         SpannerBuildInfo* info, const ShardConfig& shards) {
  return TreeRecipe::low_stretch(eps, algo).build_spanner(g, info, shards);
}

EdgeSet build_k_connecting_spanner(const Graph& g, Dist k, SpannerBuildInfo* info,
                                   const ShardConfig& shards) {
  return TreeRecipe::k_connecting(k).build_spanner(g, info, shards);
}

EdgeSet build_2connecting_spanner(const Graph& g, Dist k, SpannerBuildInfo* info,
                                  const ShardConfig& shards) {
  return TreeRecipe::two_connecting(k).build_spanner(g, info, shards);
}

}  // namespace remspan
