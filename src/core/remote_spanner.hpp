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
#include <cstdint>

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

/// One construction's per-root tree: which dominating-tree algorithm every
/// root u runs over its own ball, with its (r, beta, k). The spanner is the
/// union of these trees over all roots (build_spanner); the incremental
/// engine (src/dynamic) rebuilds them for the dirty roots and the protocol
/// (src/sim) computes one per node, so each layer takes the tree, the
/// gather depth and the dependency radius from here. Only the validating
/// factories set the parameters, so a recipe always holds values its
/// algorithm accepts; the default is k_connecting(1).
class TreeRecipe {
 public:
  enum class Algorithm : std::uint8_t {
    kGreedy,   ///< Algorithm 1: (r, beta)-dominating trees, set-cover greedy
    kMis,      ///< Algorithm 2: (r, 1)-dominating trees, local MIS
    kGreedyK,  ///< Algorithm 4: k-connecting (2,0)-dominating trees (greedy k-cover)
    kMisK,     ///< Algorithm 5: k-connecting (2,1)-dominating trees (k MIS rounds)
  };

  TreeRecipe() = default;

  /// (r, beta)-dominating trees; r >= 2, and beta == 1 for the MIS trees
  /// (Algorithm 2 computes (r,1)-dominating trees only).
  [[nodiscard]] static TreeRecipe r_beta_tree(Dist r, Dist beta, TreeAlgorithm algo);
  /// Theorem 1: (r, 1)-dominating trees with r = ceil(1/eps) + 1.
  [[nodiscard]] static TreeRecipe low_stretch(double eps,
                                              TreeAlgorithm algo = TreeAlgorithm::kMis);
  /// Theorem 2: k-connecting (2,0)-dominating trees, k >= 1.
  [[nodiscard]] static TreeRecipe k_connecting(Dist k);
  /// Theorem 3: k-connecting (2,1)-dominating trees, k >= 1.
  [[nodiscard]] static TreeRecipe two_connecting(Dist k = 2);

  [[nodiscard]] Algorithm algorithm() const noexcept { return algorithm_; }
  [[nodiscard]] Dist r() const noexcept { return r_; }
  [[nodiscard]] Dist beta() const noexcept { return beta_; }
  [[nodiscard]] Dist k() const noexcept { return k_; }

  /// Deepest BFS shell the tree build explores: max(r, r-1+beta). A
  /// cluster build gathers each root cluster's ball to this depth.
  [[nodiscard]] Dist ball_depth() const noexcept;

  /// How far a changed edge reaches: only roots within r + beta - 1 hops
  /// of one of its endpoints can get a different tree. The shells to
  /// depth max(r, r-1+beta) depend on edges with an endpoint at depth
  /// <= max(r, r-1+beta) - 1, and every cover/attachment scan reads edges
  /// with an endpoint at depth <= r-1+beta (a candidate or tree node); for
  /// the greedy k-cover (r=2, beta=0) this is 1, as its relay picks never
  /// read an edge between two shell-2 nodes. It is also the protocol's
  /// flooding scope: the ball whose neighbor lists a node needs.
  [[nodiscard]] Dist dirty_radius() const noexcept;

  /// Runs the recipe's tree algorithm at `root`.
  [[nodiscard]] RootedTree build_tree(DomTreeBuilder& builder, NodeId root) const;

  /// Union of the trees of every root of g, built by the cluster-batched
  /// engine of src/shard/shard_engine.hpp. `shards` only tunes its
  /// execution (worker cap, roots per cluster) and never changes an output
  /// bit (test_shard_equivalence.cpp).
  [[nodiscard]] EdgeSet build_spanner(const Graph& g, SpannerBuildInfo* info = nullptr,
                                      const ShardConfig& shards = {}) const;

  [[nodiscard]] const char* name() const noexcept;

 private:
  TreeRecipe(Algorithm algorithm, Dist r, Dist beta, Dist k)
      : algorithm_(algorithm), r_(r), beta_(beta), k_(k) {}

  Algorithm algorithm_ = Algorithm::kGreedyK;
  Dist r_ = 2;
  Dist beta_ = 0;
  Dist k_ = 1;
};

// The front-ends below are build_spanner of the matching factory's recipe.

/// Union of (r, beta)-dominating trees for every root. beta must be 1 when
/// algo == kMis (Algorithm 2 is specific to beta = 1).
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
