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
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  std::vector<std::uint8_t> mark(g.num_nodes(), 0);
  std::vector<NodeId> order;
  locality_order(GraphView(g), all, cluster_size, mark, order);
  return order;
}

}  // namespace remspan
