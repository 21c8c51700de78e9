// The spanner build engine behind every union-of-trees construction: the
// four front-ends of core/remote_spanner.hpp and IncrementalSpanner's full
// build all run through cluster_union_of_trees.
//
// Roots are taken in locality_root_order(g, batch_roots) and cut into
// clusters of batch_roots consecutive roots. ThreadPool::global() workers
// claim whole clusters dynamically, one at a time; for each cluster a
// worker
//   1. scouts the union ball of the cluster's roots to `ball_depth`
//      (BallScout),
//   2. gathers its induced subgraph into a compact local CSR (BallGather),
//   3. builds every root's tree with a DomTreeBuilder bound to that
//      cache-resident local graph, and
//   4. translates each tree's parent edges to global EdgeIds and ORs them
//      into one shared AtomicBitset (word-batched relaxed fetch_or).
// Scout and gather scratch is O(n) per worker and allocated the first time
// a worker claims a cluster; the builder is sized by the cluster's ball.
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

#include <functional>

#include "core/remote_spanner.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"
#include "shard/ball_gather.hpp"
#include "shard/shard_plan.hpp"

namespace remspan {

/// Builds the tree of a root given as a LOCAL id of the builder's graph.
/// The per-algorithm lambdas work unchanged on a gathered subgraph because
/// the gather preserves every id tie-break (order isomorphism).
using MakeTree = std::function<RootedTree(DomTreeBuilder&, NodeId)>;

/// Observes one built tree: `root` is its global id, `tree` is expressed in
/// the local ids of gather.local() (translate with gather.global_id and
/// gather.global_edge). Called once per root, concurrently from pool
/// workers, so it must be safe for distinct roots in parallel.
using TreeVisitor =
    std::function<void(NodeId root, const RootedTree& tree, const BallGather& gather)>;

/// Union of make_tree's trees over every root of `g`. `ball_depth` must
/// cover the deepest node the tree algorithm can touch (max(r, r-1+beta)
/// for the (r, beta) trees, 2 for the k-connecting ones). If make_tree or
/// visit throws, the remaining clusters are abandoned and the first
/// exception is rethrown on the caller.
[[nodiscard]] EdgeSet cluster_union_of_trees(const Graph& g, Dist ball_depth,
                                             const MakeTree& make_tree,
                                             const ShardConfig& config = {},
                                             SpannerBuildInfo* info = nullptr,
                                             const TreeVisitor& visit = nullptr);

}  // namespace remspan
