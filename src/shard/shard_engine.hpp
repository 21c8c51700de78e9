// The spanner build engine behind every union-of-trees construction: the
// four front-ends of core/remote_spanner.hpp, IncrementalSpanner's full
// build and its dirty-root rebuilds all run through ClusterEngine::build.
// Each build takes one TreeRecipe (core/remote_spanner.hpp): the per-root
// tree algorithm together with the ball depth it reads.
//
// Roots are taken in a locality order (shard_plan.hpp) and cut into
// clusters of batch_roots consecutive roots. ThreadPool::global() workers
// claim whole clusters dynamically, one at a time; for each cluster a
// worker
//   1. scouts the union ball of the cluster's roots to the recipe's
//      ball_depth() (BallScout),
//   2. gathers its induced subgraph into a compact local CSR (BallGather),
//   3. builds every root's tree with recipe.build_tree on a DomTreeBuilder
//      bound to that cache-resident local graph, and
//   4. translates each tree's parent edges to the view's edge ids and hands
//      only those ids to the caller — for a static build, also ORed into
//      one shared AtomicBitset (word-batched relaxed fetch_or).
// The graph is read through any EdgeNeighborView: the CSR Graph for static
// and full builds, DynamicGraph's LiveView (slots as ids) for the
// incremental rebuilds of a root subset. Scout and gather scratch is O(n)
// per worker, allocated the first time a worker claims a cluster and kept
// by the engine across builds; the builder is sized by the cluster's ball.
//
// The output is bit-exact equal to building every tree against the whole
// graph (ball_gather.hpp has the argument; test_shard_equivalence.cpp pins
// it against a sequential whole-graph reference for every cluster size and
// worker cap).
//
// Memory model: relaxed fetch_or is sufficient because a set bit carries no
// payload another thread reads through it; the final snapshot happens after
// the fork/join barrier of parallel_for_workers, which orders every write
// before the read.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/remote_spanner.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"
#include "shard/ball_gather.hpp"
#include "shard/shard_plan.hpp"
#include "util/bitset.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

/// Observes one built tree of cluster_union_of_trees: `root` is its global
/// id and `ids` are its parent edges as the graph's edge ids, in the order
/// the tree attached their child nodes. Called once per root, concurrently
/// from pool workers, so it must be safe for distinct roots in parallel.
using TreeVisitor = std::function<void(NodeId root, std::span<const EdgeId> ids)>;

/// Per-build tallies, bumped single-threaded by one worker and reduced
/// after the join barrier.
struct ClusterTallies {
  std::size_t sum_tree_edges = 0;
  std::size_t max_tree_edges = 0;
  std::uint64_t batches = 0;
  std::uint64_t gather_nodes = 0;
  std::uint64_t gather_edges = 0;
  std::uint64_t words_ord = 0;

  void add(const ClusterTallies& o) {
    sum_tree_edges += o.sum_tree_edges;
    max_tree_edges = std::max(max_tree_edges, o.max_tree_edges);
    batches += o.batches;
    gather_nodes += o.gather_nodes;
    gather_edges += o.gather_edges;
    words_ord += o.words_ord;
  }
};

/// The cluster loop plus its per-worker scratch. Holding one engine across
/// builds (as IncrementalSpanner does for its per-batch rebuilds) keeps the
/// O(n) scout and gather arrays allocated.
class ClusterEngine {
 public:
  /// Builds recipe's tree of every root in `order`, cut into clusters of
  /// config.batch_roots consecutive roots each gathered to
  /// recipe.ball_depth(). For each tree, on_tree(i, root, ids) receives
  /// the root's position i in `order` and the tree's edges as the view's
  /// edge ids; it runs concurrently for distinct roots. A non-null `shared`
  /// also gets every tree's ids ORed in. If a tree build or on_tree throws,
  /// the remaining clusters are abandoned and the first exception is
  /// rethrown on the caller; the engine stays usable for the next build.
  template <EdgeNeighborView View, typename OnTree>
  ClusterTallies build(const View& view, std::span<const NodeId> order, const TreeRecipe& recipe,
                       const ShardConfig& config, AtomicBitset* shared, OnTree&& on_tree);

 private:
  /// One pool worker's O(n) scratch plus its tallies.
  struct WorkerState {
    explicit WorkerState(std::size_t n) : scout(n), gather(n) {}

    BallScout scout;
    BallGather gather;
    std::vector<EdgeId> ids;
    ClusterTallies tally;
  };

  std::size_t n_ = 0;
  std::vector<std::unique_ptr<WorkerState>> states_;
};

template <EdgeNeighborView View, typename OnTree>
ClusterTallies ClusterEngine::build(const View& view, std::span<const NodeId> order,
                                    const TreeRecipe& recipe, const ShardConfig& config,
                                    AtomicBitset* shared, OnTree&& on_tree) {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t cap = config.num_shards == 0 ? pool.concurrency() : config.num_shards;
  if (n_ != view.num_nodes() || states_.size() != pool.concurrency()) {
    n_ = view.num_nodes();
    states_.clear();
    states_.resize(pool.concurrency());
  }
  for (const auto& ws : states_) {
    if (ws != nullptr) ws->tally = {};
  }

  const std::size_t batch = std::max<std::size_t>(1, config.batch_roots);
  const std::size_t clusters = (order.size() + batch - 1) / batch;
  // Scouts, gathers and builds one cluster.
  const auto build_cluster = [&](std::size_t first, WorkerState& ws) {
    const std::span<const NodeId> cluster =
        order.subspan(first, std::min(batch, order.size() - first));
    ws.scout.run(view, cluster, recipe.ball_depth());
    ws.gather.gather(view, ws.scout.touched());
    // The builder's scratch is sized by the LOCAL node count, so building
    // it per cluster costs O(|union ball|) rather than O(n).
    DomTreeBuilder builder(ws.gather.local());
    ClusterTallies& t = ws.tally;
    ++t.batches;
    t.gather_nodes += ws.gather.members().size();
    t.gather_edges += ws.gather.local().num_edges();
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const NodeId root = cluster[i];
      const RootedTree tree = recipe.build_tree(builder, ws.gather.local_id(root));
      ws.ids.clear();
      for (const NodeId v : tree.nodes()) {
        if (v == tree.root()) continue;
        // The builders record each node's parent edge id at attach time, so
        // the translation needs no adjacency search per tree edge.
        const EdgeId local_edge = tree.parent_edge(v);
        REMSPAN_CHECK(local_edge != kInvalidEdge);
        ws.ids.push_back(ws.gather.global_edge(local_edge));
      }
      t.sum_tree_edges += ws.ids.size();
      t.max_tree_edges = std::max(t.max_tree_edges, ws.ids.size());
      on_tree(first + i, root, std::span<const EdgeId>(ws.ids));
      // One tree's bits merge into plain masks first: one atomic RMW per
      // touched word keeps contention off the hot loop.
      if (shared != nullptr) t.words_ord += shared->or_batch(ws.ids);
    }
  };

  // One lane per permitted worker; a lane keeps claiming the next unbuilt
  // cluster until none is left, so the load balances at cluster grain
  // whatever the clusters' ball sizes.
  std::atomic<std::size_t> next{0};
  const std::size_t lanes = std::min({cap, pool.concurrency(), clusters});
  pool.parallel_for_workers(
      0, lanes,
      [&](std::size_t /*lane*/, std::size_t worker) {
        try {
          for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < clusters;
               c = next.fetch_add(1, std::memory_order_relaxed)) {
            std::unique_ptr<WorkerState>& ws = states_[worker];
            if (ws == nullptr) ws = std::make_unique<WorkerState>(n_);
            build_cluster(c * batch, *ws);
          }
        } catch (...) {
          next.store(clusters, std::memory_order_relaxed);  // other lanes stop claiming
          throw;
        }
      },
      1);

  // Only the O(n) arrays are worth keeping between builds: an engine held
  // across batches (one per incremental session) would otherwise pin a
  // cluster-ball CSR per worker.
  ClusterTallies total;
  for (const auto& ws : states_) {
    if (ws == nullptr) continue;
    total.add(ws->tally);
    ws->gather.release_local();
  }
  return total;
}

/// Union of recipe's trees over every root of `g`; `visit`, when set, sees
/// each tree's edge ids. If a tree build or visit throws, the remaining
/// clusters are abandoned and the first exception is rethrown on the
/// caller.
[[nodiscard]] EdgeSet cluster_union_of_trees(const Graph& g, const TreeRecipe& recipe,
                                             const ShardConfig& config = {},
                                             SpannerBuildInfo* info = nullptr,
                                             const TreeVisitor& visit = nullptr);

}  // namespace remspan
