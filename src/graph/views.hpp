// Adjacency views: light adapters that present "the graph G", "the spanner
// H ⊆ G" and "the augmented graph H_u = H + star(u)" behind one neighbor
// enumeration concept so BFS and the oracles are written once.
//
// H_u is the central object of the paper: remote-spanner stretch is defined
// through distances in H augmented with ALL edges between u and its
// G-neighbors (Section 1).
#pragma once

#include <concepts>

#include "graph/edge_set.hpp"
#include "graph/graph.hpp"

namespace remspan {

/// A NeighborView enumerates neighbors: view.for_each_neighbor(u, fn).
template <typename V>
concept NeighborView = requires(const V& view, NodeId u) {
  { view.num_nodes() } -> std::convertible_to<NodeId>;
  view.for_each_neighbor(u, [](NodeId) {});
};

/// A NeighborView whose edges carry ids: view.for_each_neighbor_edge(u,
/// fn(v, edge_id)). BFS records the parent edge id of every reached node
/// over such views, which is what lets the dominating-tree builders hand
/// whole tree edges (not just endpoints) to the spanner union without any
/// adjacency search. The ids are the underlying edge store's: a Graph's
/// EdgeIds here, DynamicGraph slots for its LiveView (dynamic_graph.hpp).
template <typename V>
concept EdgeNeighborView = NeighborView<V> && requires(const V& view, NodeId u) {
  view.for_each_neighbor_edge(u, [](NodeId, EdgeId) {});
};

/// The full input graph G.
class GraphView {
 public:
  explicit GraphView(const Graph& g) noexcept : g_(&g) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return g_->num_nodes(); }

  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const {
    for (const NodeId v : g_->neighbors(u)) fn(v);
  }

  template <typename Fn>
  void for_each_neighbor_edge(NodeId u, Fn&& fn) const {
    const auto nbrs = g_->neighbors(u);
    const auto ids = g_->incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) fn(nbrs[i], ids[i]);
  }

 private:
  const Graph* g_;
};

/// The sub-graph H given by an EdgeSet.
class SubgraphView {
 public:
  explicit SubgraphView(const EdgeSet& h) noexcept : h_(&h) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return h_->graph().num_nodes(); }

  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const {
    h_->for_each_neighbor(u, fn);
  }

  template <typename Fn>
  void for_each_neighbor_edge(NodeId u, Fn&& fn) const {
    const Graph& g = h_->graph();
    const auto nbrs = g.neighbors(u);
    const auto ids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (h_->contains(ids[i])) fn(nbrs[i], ids[i]);
    }
  }

 private:
  const EdgeSet* h_;
};

/// H_center: the sub-graph H plus every G-edge incident to `center`.
/// Enumeration stays symmetric: neighbors(center) returns all G-neighbors,
/// and for v in N_G(center), neighbors(v) additionally yields center.
class AugmentedView {
 public:
  AugmentedView(const EdgeSet& h, NodeId center) noexcept
      : h_(&h), g_(&h.graph()), center_(center) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return g_->num_nodes(); }
  [[nodiscard]] NodeId center() const noexcept { return center_; }

  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const {
    if (u == center_) {
      // All of center's G-edges are available, including those not in H.
      for (const NodeId v : g_->neighbors(u)) fn(v);
      return;
    }
    bool center_seen = false;
    h_->for_each_neighbor(u, [&](NodeId v) {
      if (v == center_) center_seen = true;
      fn(v);
    });
    if (!center_seen && g_->has_edge(u, center_)) fn(center_);
  }

 private:
  const EdgeSet* h_;
  const Graph* g_;
  NodeId center_;
};

}  // namespace remspan
