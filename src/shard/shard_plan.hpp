// Scheduling math for the spanner build engine (shard_engine.hpp): the
// execution knobs, their overflow guards, and the locality order whose
// bounded BFS clusters the engine's pool workers claim one at a time.
//
// Root ordering is a pure scheduling choice: every root's dominating tree
// is a function of (graph, root) alone and the spanner union is a
// commutative bitset OR, so ANY root order, cluster size and worker count
// produce the same spanner bit-for-bit (tests/test_shard_equivalence.cpp
// pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/views.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// Execution knobs of the build engine. Neither changes a single output
/// bit; they trade memory traffic against parallelism.
struct ShardConfig {
  /// Cap on the ThreadPool::global() workers that claim clusters. 0 (the
  /// default) lets the whole pool (its threads plus the calling thread)
  /// work; larger caps than the pool provides are clamped to it.
  std::size_t num_shards = 0;
  /// Roots per cluster: each cluster does one multi-root scout sweep + one
  /// compact-subgraph gather (ball_gather.hpp) and then builds every tree
  /// of the cluster against the gathered subgraph.
  std::size_t batch_roots = 128;
};

/// Hard ceiling on the worker cap: far beyond any sensible thread count,
/// but low enough that a corrupted config is rejected loudly.
inline constexpr std::size_t kMaxShards = 4096;

namespace detail {
/// Overflow guards for a build: node and edge counts must fit the 32-bit
/// NodeId/EdgeId index types (kInvalid* are sentinels, hence the strict
/// bound) and the worker cap must be in [1, kMaxShards]. Checked before
/// any allocation so a 10^7-node (or larger) build fails loudly instead of
/// silently wrapping an index.
void check_shard_limits(std::size_t nodes, std::size_t edges, std::size_t shards);
}  // namespace detail

/// A deterministic locality order over a root set: a sequence of bounded
/// BFS clusters. Each cluster seeds at the smallest unvisited root and
/// grows breadth-first through roots only, to at most `cluster_size` roots
/// (0 = unbounded, i.e. plain per-component BFS), so every cluster is a
/// compact blob rather than a stretch of a whole-graph BFS frontier ring.
/// Batching one cluster's roots therefore yields heavily overlapping balls
/// — this is what makes the engine's gathers a ball-reuse win instead of a
/// plain parallel split. Pure function of (view, roots, cluster_size).
///
/// `roots` must ascend. `mark` is per-node scratch that must be all zero
/// (sized to the view) and is left all zero; `order` receives the roots.
template <NeighborView View>
void locality_order(const View& view, std::span<const NodeId> roots, std::size_t cluster_size,
                    std::vector<std::uint8_t>& mark, std::vector<NodeId>& order) {
  constexpr std::uint8_t kPending = 1;
  constexpr std::uint8_t kPlaced = 2;
  const std::size_t cap = cluster_size == 0 ? roots.size() + 1 : cluster_size;
  order.clear();
  order.reserve(roots.size());
  for (const NodeId r : roots) mark[r] = kPending;
  for (const NodeId seed : roots) {
    if (mark[seed] != kPending) continue;
    // One cluster: BFS from the seed, stopping at `cap` roots. order
    // doubles as the BFS queue — a cluster is the contiguous segment it
    // appended. Capping the queue (rather than draining a full frontier)
    // keeps every cluster a compact blob: a frontier ring of a whole-graph
    // BFS spreads consecutive entries around its whole circumference,
    // which is exactly what batched ball-gathering must avoid.
    const std::size_t cluster_end = order.size() + cap;
    std::size_t head = order.size();
    mark[seed] = kPlaced;
    order.push_back(seed);
    for (; head < order.size() && order.size() < cluster_end; ++head) {
      view.for_each_neighbor(order[head], [&](NodeId v) {
        if (mark[v] != kPending || order.size() >= cluster_end) return;
        mark[v] = kPlaced;
        order.push_back(v);
      });
    }
  }
  for (const NodeId r : roots) mark[r] = 0;
}

/// locality_order over every node of g.
[[nodiscard]] std::vector<NodeId> locality_root_order(const Graph& g,
                                                      std::size_t cluster_size = 0);

}  // namespace remspan
