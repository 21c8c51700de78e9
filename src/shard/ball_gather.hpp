// Cluster-batched ball extraction: one multi-source bounded BFS per cluster
// of roots (BallScout), then one compact induced subgraph of the union ball
// (BallGather). The build engine (shard_engine.hpp) builds every dominating
// tree of the cluster against that small local CSR instead of chasing
// pointers through the full graph once per root — the ball-reuse win that
// pays beyond plain parallelism.
//
// Bit-exactness argument (pinned by tests/test_shard_equivalence.cpp):
// a tree built for root u against the gathered subgraph equals the tree
// built against the whole graph, node-for-node and edge-for-edge, because
//   1. the union ball contains B(u, depth) for every cluster root u, and a
//      depth-bounded BFS only ever discovers nodes inside B(u, depth) —
//      every neighbor scanned from a node at distance < depth lies in the
//      ball, so the local BFS visits the same nodes, in the same order,
//      with the same parents (local ids are assigned in ascending global-id
//      order, an order isomorphism, so every id tie-break is preserved);
//   2. the tree algorithms consult nodes outside the current BFS ball only
//      through per-node flags (in_s_, in_x_, nbr_u_, rem_, cov_, branches_)
//      that are zero for out-of-ball nodes in the whole-graph build too, so
//      dropping out-of-ball neighbors never changes a cover count, an MIS
//      membership test, or a pick;
//   3. every has_edge/find_edge query is between two ball nodes, and the
//      induced subgraph keeps all edges between members, with local edge
//      ids mapping back to global EdgeIds through the gather map.
//
// Both read the graph through any EdgeNeighborView (graph/views.hpp): a
// CSR Graph for the static builds, DynamicGraph's LiveView (slots as edge
// ids) for the incremental rebuilds. The gather needs each row in
// ascending neighbor order, which both views provide.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/views.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// Lean multi-source bounded BFS that only tracks membership: a distance
/// array and a touched list, no parents (4 bytes per global node, kept and
/// reset-touched between batches like BoundedBfs).
class BallScout {
 public:
  explicit BallScout(std::size_t n) : dist_(n, kUnreachable) {}

  /// Expands the union ball of `sources` to depth `max_depth`; afterwards
  /// touched() holds every member in discovery order.
  template <NeighborView View>
  void run(const View& view, std::span<const NodeId> sources, Dist max_depth) {
    for (const NodeId v : order_) dist_[v] = kUnreachable;
    order_.clear();
    for (const NodeId src : sources) {
      REMSPAN_CHECK(src < view.num_nodes());
      if (dist_[src] != kUnreachable) continue;  // duplicate source
      dist_[src] = 0;
      order_.push_back(src);
    }
    // order_ doubles as the queue, appended in non-decreasing distance.
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const NodeId u = order_[head];
      const Dist du = dist_[u];
      if (du >= max_depth) continue;
      view.for_each_neighbor(u, [&](NodeId v) {
        if (dist_[v] == kUnreachable) {
          dist_[v] = du + 1;
          order_.push_back(v);
        }
      });
    }
  }

  void run(const Graph& g, std::span<const NodeId> sources, Dist max_depth) {
    run(GraphView(g), sources, max_depth);
  }

  [[nodiscard]] bool in_ball(NodeId v) const noexcept { return dist_[v] != kUnreachable; }

  /// The union-ball members of the last run (discovery order).
  [[nodiscard]] std::span<const NodeId> touched() const noexcept { return order_; }

 private:
  std::vector<Dist> dist_;
  std::vector<NodeId> order_;
};

/// Builds the induced compact subgraph of a member set: members sorted by
/// global id become local ids 0..B-1, edges between members survive with
/// their adjacency order intact, and parallel maps translate local node and
/// edge ids back to global ones. The n-sized local-id map is reset through
/// the member list, so repeated gathers cost O(|ball| + |ball edges|).
class BallGather {
 public:
  explicit BallGather(std::size_t n) : local_of_(n, kInvalidNode) {}

  /// Gathers the induced subgraph of `members` (any order, no duplicates).
  /// Local edge ids translate back to the view's edge ids.
  template <EdgeNeighborView View>
  void gather(const View& view, std::span<const NodeId> members) {
    for (const NodeId v : members_) local_of_[v] = kInvalidNode;
    members_.assign(members.begin(), members.end());
    std::sort(members_.begin(), members_.end());
    for (NodeId local = 0; local < members_.size(); ++local) {
      local_of_[members_[local]] = local;
    }

    // Induced edges in canonical order: outer loop ascends local u, and the
    // view's rows ascend, so the (lu, lv) pairs come out lex-sorted and
    // deduplicated — exactly what from_canonical_edges needs. The local
    // edge id is the emission index, so pushing the view's id at emission
    // time builds the edge translation for free.
    std::vector<Edge> edges;
    // The vector is moved into the local Graph, so its capacity never
    // carries over between gathers; last batch's edge count is a tight
    // estimate that skips the realloc ladder.
    edges.reserve(std::max<std::size_t>(64, global_edges_.size()));
    global_edges_.clear();
    for (NodeId lu = 0; lu < members_.size(); ++lu) {
      const NodeId gu = members_[lu];
      view.for_each_neighbor_edge(gu, [&](NodeId gv, EdgeId id) {
        if (gv <= gu) return;  // canonical direction only
        const NodeId lv = local_of_[gv];
        if (lv == kInvalidNode) return;
        edges.push_back(Edge{lu, lv});
        global_edges_.push_back(id);
      });
    }
    local_ = Graph::from_canonical_edges(static_cast<NodeId>(members_.size()), std::move(edges));
  }

  void gather(const Graph& g, std::span<const NodeId> members) { gather(GraphView(g), members); }

  /// Frees the last gather's local graph; the O(n) id map stays allocated
  /// for the next gather.
  void release_local() { local_ = Graph{}; }

  /// The compact induced subgraph of the last gather.
  [[nodiscard]] const Graph& local() const noexcept { return local_; }

  /// Members of the last gather in ascending global-id order; index == local id.
  [[nodiscard]] std::span<const NodeId> members() const noexcept { return members_; }

  /// Local id of a gathered global node (kInvalidNode for non-members).
  [[nodiscard]] NodeId local_id(NodeId global) const noexcept { return local_of_[global]; }

  [[nodiscard]] NodeId global_id(NodeId local) const { return members_[local]; }

  /// The view's edge id (a Graph EdgeId, or a slot) of a local edge id of
  /// local().
  [[nodiscard]] EdgeId global_edge(EdgeId local) const { return global_edges_[local]; }

 private:
  std::vector<NodeId> local_of_;
  std::vector<NodeId> members_;
  std::vector<EdgeId> global_edges_;
  Graph local_;
};

}  // namespace remspan
