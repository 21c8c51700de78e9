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
#include <vector>

#include "graph/graph.hpp"
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

/// A deterministic locality order over all nodes: a sequence of bounded
/// BFS clusters. Each cluster seeds at the smallest unvisited id and grows
/// breadth-first to at most `cluster_size` nodes (0 = unbounded, i.e.
/// plain per-component BFS), so every cluster is a compact blob rather
/// than a stretch of a whole-graph BFS frontier ring. Batching one
/// cluster's roots therefore yields heavily overlapping balls — this is
/// what makes the engine's gathers a ball-reuse win instead of a plain
/// parallel split. Pure function of (graph, cluster_size).
[[nodiscard]] std::vector<NodeId> locality_root_order(const Graph& g,
                                                      std::size_t cluster_size = 0);

}  // namespace remspan
