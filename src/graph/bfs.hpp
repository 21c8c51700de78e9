// Breadth-first search over any NeighborView, with optional depth bound.
//
// BoundedBfs keeps its arrays between runs and resets only the nodes it
// touched, so per-root ball explorations (the inner loop of every
// dominating-tree algorithm) cost O(|ball|), not O(n).
//
// The visit order is a reusable flat workspace for the ball B(src, depth):
// nodes are appended in non-decreasing distance, and run() records the
// offset at which each distance shell starts, so shell(d) hands back the
// nodes at exactly distance d as a contiguous span in O(1). The
// dominating-tree builders iterate one shell at a time in O(|shell|)
// instead of rescanning the whole ball per shell.
#pragma once

#include <span>
#include <vector>

#include "graph/views.hpp"
#include "obs/obs.hpp"
#include "util/prelude.hpp"

namespace remspan {

class BoundedBfs {
 public:
  explicit BoundedBfs(std::size_t n)
      : dist_(n, kUnreachable), parent_(n, kInvalidNode), parent_edge_(n, kInvalidEdge) {}

  /// Runs BFS from src, exploring nodes at distance <= max_depth. Returns the
  /// visit order (src first, non-decreasing distance). Results stay valid
  /// until the next run() call.
  template <NeighborView View>
  const std::vector<NodeId>& run(const View& view, NodeId src, Dist max_depth = kUnreachable) {
    REMSPAN_CHECK(src < view.num_nodes());
    return run_multi(view, {&src, 1}, max_depth);
  }

  /// Multi-source variant: every source starts at distance 0 (shell 0 holds
  /// the sources, duplicates collapse). dist(v) is the distance to the
  /// nearest source — this is how the incremental spanner engine expands
  /// the union of balls around the endpoints touched by a batch of graph
  /// updates in one pass.
  template <NeighborView View>
  const std::vector<NodeId>& run_multi(const View& view, std::span<const NodeId> sources,
                                       Dist max_depth = kUnreachable) {
    reset();
    for (const NodeId src : sources) {
      REMSPAN_CHECK(src < view.num_nodes());
      if (dist_[src] != kUnreachable) continue;  // duplicate source
      dist_[src] = 0;
      parent_[src] = kInvalidNode;
      order_.push_back(src);
    }
    shell_offsets_.push_back(0);  // shell 0 starts at order_[0]
    // order_ doubles as the queue: nodes are appended in BFS order.
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const NodeId u = order_[head];
      const Dist du = dist_[u];
      if (du >= max_depth) continue;
      const Dist dv = du + 1;
      auto visit = [&](NodeId v, EdgeId id) {
        if (dist_[v] == kUnreachable) {
          dist_[v] = dv;
          parent_[v] = u;
          parent_edge_[v] = id;
          // First node of a new shell: record where it starts. Shells appear
          // in order because order_ is sorted by distance.
          if (dv == shell_offsets_.size()) shell_offsets_.push_back(order_.size());
          order_.push_back(v);
        }
      };
      if constexpr (EdgeNeighborView<View>) {
        view.for_each_neighbor_edge(u, visit);
      } else {
        view.for_each_neighbor(u, [&](NodeId v) { visit(v, kInvalidEdge); });
      }
    }
    if (obs::Registry* m = obs::metrics()) publish_stats(*m);
    return order_;
  }

  [[nodiscard]] Dist dist(NodeId v) const noexcept { return dist_[v]; }
  [[nodiscard]] bool reached(NodeId v) const noexcept { return dist_[v] != kUnreachable; }

  /// BFS-tree parent of v (kInvalidNode for the source and unreached nodes).
  /// Following parents from x to the source traces a shortest path, which is
  /// exactly how the dominating-tree algorithms add "a shortest path from u
  /// to x in G" while keeping the union a tree (DESIGN.md §4).
  [[nodiscard]] NodeId parent(NodeId v) const noexcept { return parent_[v]; }

  /// Id of the edge {parent(v), v} in the underlying Graph, recorded when the
  /// last run() used an EdgeNeighborView (kInvalidEdge for the source,
  /// unreached nodes, and runs over edge-less views).
  [[nodiscard]] EdgeId parent_edge(NodeId v) const noexcept { return parent_edge_[v]; }

  [[nodiscard]] const std::vector<NodeId>& order() const noexcept { return order_; }

  /// Number of non-empty distance shells of the last run (max distance + 1);
  /// 0 before the first run.
  [[nodiscard]] Dist num_shells() const noexcept {
    return static_cast<Dist>(shell_offsets_.size());
  }

  /// The nodes at exactly distance d from the source, as a contiguous slice
  /// of order() (empty span for d >= num_shells()). Within a shell, nodes
  /// appear in discovery order, not id order.
  [[nodiscard]] std::span<const NodeId> shell(Dist d) const noexcept {
    if (d >= shell_offsets_.size()) return {};
    const std::size_t begin = shell_offsets_[d];
    const std::size_t end =
        d + 1 < shell_offsets_.size() ? shell_offsets_[d + 1] : order_.size();
    return {order_.data() + begin, order_.data() + end};
  }

 private:
  /// Whole-run totals for the installed metrics sink: the ball that was
  /// just expanded, its shell-size distribution and the widest shell
  /// (frontier occupancy). One call per run keeps the disabled path to the
  /// single branch in run_multi.
  void publish_stats(obs::Registry& m) const {
    obs::ThreadCells& cells = m.local();
    cells.add(obs::Metric::kBfsRuns, 1);
    cells.add(obs::Metric::kBfsNodesExpanded, order_.size());
    cells.record(obs::Metric::kBfsBallNodes, order_.size());
    std::size_t widest = 0;
    for (std::size_t d = 0; d < shell_offsets_.size(); ++d) {
      const std::size_t end =
          d + 1 < shell_offsets_.size() ? shell_offsets_[d + 1] : order_.size();
      const std::size_t width = end - shell_offsets_[d];
      if (width > widest) widest = width;
      cells.record(obs::Metric::kBfsShellNodes, width);
    }
    cells.record(obs::Metric::kBfsFrontierMax, widest);
  }

  void reset() {
    for (const NodeId v : order_) {
      dist_[v] = kUnreachable;
      parent_[v] = kInvalidNode;
      parent_edge_[v] = kInvalidEdge;
    }
    order_.clear();
    shell_offsets_.clear();
  }

  std::vector<Dist> dist_;
  std::vector<NodeId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NodeId> order_;
  std::vector<std::size_t> shell_offsets_;  // shell d starts at order_[shell_offsets_[d]]
};

/// One-shot BFS: distance vector from src over the view (kUnreachable for
/// unreached nodes).
template <NeighborView View>
[[nodiscard]] std::vector<Dist> bfs_distances(const View& view, NodeId src,
                                              Dist max_depth = kUnreachable) {
  BoundedBfs bfs(view.num_nodes());
  bfs.run(view, src, max_depth);
  std::vector<Dist> out(view.num_nodes(), kUnreachable);
  for (const NodeId v : bfs.order()) out[v] = bfs.dist(v);
  return out;
}

/// Distance between two nodes over the view.
template <NeighborView View>
[[nodiscard]] Dist bfs_distance(const View& view, NodeId src, NodeId dst) {
  BoundedBfs bfs(view.num_nodes());
  bfs.run(view, src);
  return bfs.dist(dst);
}

}  // namespace remspan
