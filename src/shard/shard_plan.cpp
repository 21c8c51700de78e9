#include "shard/shard_plan.hpp"

namespace remspan {

namespace detail {

void check_shard_limits(std::size_t nodes, std::size_t edges, std::size_t shards) {
  // kInvalidNode/kInvalidEdge are sentinels, so the largest representable
  // count is one below them.
  REMSPAN_CHECK(nodes < kInvalidNode);
  REMSPAN_CHECK(edges < kInvalidEdge);
  REMSPAN_CHECK(shards >= 1);
  REMSPAN_CHECK(shards <= kMaxShards);
}

}  // namespace detail

std::vector<NodeId> locality_root_order(const Graph& g, std::size_t cluster_size) {
  const NodeId n = g.num_nodes();
  const std::size_t cap = cluster_size == 0 ? std::size_t{n} + 1 : cluster_size;
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<std::uint8_t> visited(n, 0);
  NodeId scan = 0;  // ids below scan are all visited, so seeds scan forward
  while (order.size() < n) {
    while (scan < n && visited[scan] != 0) ++scan;
    // One cluster: BFS from the seed, stopping at `cap` nodes. order doubles
    // as the BFS queue — a cluster is the contiguous segment it appended.
    // Capping the queue (rather than draining a full frontier) keeps every
    // cluster a compact blob: a frontier ring of a whole-graph BFS spreads
    // consecutive entries around its whole circumference, which is exactly
    // what batched ball-gathering must avoid.
    const std::size_t cluster_end = order.size() + cap;
    std::size_t head = order.size();
    visited[scan] = 1;
    order.push_back(scan);
    for (; head < order.size() && order.size() < cluster_end; ++head) {
      for (const NodeId v : g.neighbors(order[head])) {
        if (visited[v] == 0) {
          visited[v] = 1;
          order.push_back(v);
          if (order.size() >= cluster_end) break;
        }
      }
    }
  }
  return order;
}

}  // namespace remspan
