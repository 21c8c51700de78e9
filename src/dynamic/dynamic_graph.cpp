#include "dynamic/dynamic_graph.hpp"

#include <algorithm>

namespace remspan {

namespace {

/// Sorted-row insertion; returns false when already present.
bool row_insert(std::vector<NodeId>& row, NodeId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it != row.end() && *it == v) return false;
  row.insert(it, v);
  return true;
}

/// Sorted-row erasure; returns false when absent.
bool row_erase(std::vector<NodeId>& row, NodeId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return false;
  row.erase(it);
  return true;
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : n_(num_nodes), adj_(num_nodes), up_(num_nodes, 1) {}

DynamicGraph::DynamicGraph(const Graph& initial)
    : n_(initial.num_nodes()),
      adj_(initial.num_nodes()),
      up_(initial.num_nodes(), 1),
      stored_edges_(initial.num_edges()) {
  for (NodeId u = 0; u < n_; ++u) {
    const auto nbrs = initial.neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());  // Graph rows are sorted
  }
}

bool DynamicGraph::has_edge(NodeId a, NodeId b) const {
  REMSPAN_CHECK(a < n_ && b < n_ && a != b);
  return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
}

bool DynamicGraph::edge_live(const Edge& e) const {
  return up_[e.u] != 0 && up_[e.v] != 0 &&
         std::binary_search(adj_[e.u].begin(), adj_[e.u].end(), e.v);
}

void DynamicGraph::check_event(const GraphEvent& event) const {
  switch (event.kind) {
    case GraphEventKind::kEdgeUp:
    case GraphEventKind::kEdgeDown:
      REMSPAN_CHECK(event.u < n_ && event.v < n_ && event.u != event.v);
      break;
    case GraphEventKind::kNodeUp:
    case GraphEventKind::kNodeDown:
      REMSPAN_CHECK(event.u < n_);
      break;
  }
}

bool DynamicGraph::apply(const GraphEvent& event) {
  check_event(event);
  bool changed = false;
  switch (event.kind) {
    case GraphEventKind::kEdgeUp:
      changed = row_insert(adj_[event.u], event.v);
      if (changed) {
        row_insert(adj_[event.v], event.u);
        ++stored_edges_;
        pending_edges_.push_back(make_edge(event.u, event.v));
      }
      break;
    case GraphEventKind::kEdgeDown:
      changed = row_erase(adj_[event.u], event.v);
      if (changed) {
        row_erase(adj_[event.v], event.u);
        --stored_edges_;
        pending_edges_.push_back(make_edge(event.u, event.v));
      }
      break;
    case GraphEventKind::kNodeUp:
      changed = up_[event.u] == 0;
      up_[event.u] = 1;
      if (changed) pending_nodes_.push_back(event.u);
      break;
    case GraphEventKind::kNodeDown:
      changed = up_[event.u] != 0;
      up_[event.u] = 0;
      if (changed) pending_nodes_.push_back(event.u);
      break;
  }
  if (changed) ++version_;
  return changed;
}

std::size_t DynamicGraph::apply_all(std::span<const GraphEvent> events) {
  // Validate the whole batch first: a bad event anywhere must throw before
  // the first cell changes, or callers layered on this graph (the
  // incremental engine, the service, the C ABI session) would see stored
  // state their own snapshots never diffed in.
  for (const GraphEvent& e : events) check_event(e);
  std::size_t changed = 0;
  for (const GraphEvent& e : events) changed += apply(e) ? 1 : 0;
  return changed;
}

std::shared_ptr<const Graph> DynamicGraph::snapshot() const {
  if (snapshot_ && snapshot_version_ == version_) return snapshot_;
  std::vector<Edge> live;
  if (snapshot_ == nullptr) {
    // First materialization: walk the (sorted) adjacency rows once. Taking
    // each edge at its smaller endpoint yields canonical global order.
    live.reserve(stored_edges_);
    for (NodeId u = 0; u < n_; ++u) {
      if (up_[u] == 0) continue;
      for (const NodeId w : adj_[u]) {
        if (w > u && up_[w] != 0) live.push_back(Edge{u, w});
      }
    }
  } else {
    // Merge-patch: only edges named by an event since the last snapshot
    // (directly, or through a liveness toggle of an endpoint) can have
    // changed live state; everything else carries over in order.
    std::vector<Edge> candidates = std::move(pending_edges_);
    for (const NodeId v : pending_nodes_) {
      for (const NodeId w : adj_[v]) candidates.push_back(make_edge(v, w));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

    const auto old_edges = snapshot_->edges();
    live.reserve(old_edges.size() + candidates.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_edges.size() || j < candidates.size()) {
      if (j == candidates.size() ||
          (i < old_edges.size() && old_edges[i] < candidates[j])) {
        live.push_back(old_edges[i]);
        ++i;
      } else {
        const Edge e = candidates[j];
        if (i < old_edges.size() && old_edges[i] == e) ++i;
        if (edge_live(e)) live.push_back(e);
        ++j;
      }
    }
  }
  pending_edges_.clear();
  pending_nodes_.clear();
  snapshot_ = std::make_shared<const Graph>(Graph::from_canonical_edges(n_, std::move(live)));
  snapshot_version_ = version_;
  return snapshot_;
}

GraphDelta diff_graphs(const Graph& old_graph, const Graph& new_graph) {
  REMSPAN_CHECK(old_graph.num_nodes() == new_graph.num_nodes());
  GraphDelta delta;
  delta.old_to_new.assign(old_graph.num_edges(), kInvalidEdge);
  const auto old_edges = old_graph.edges();
  const auto new_edges = new_graph.edges();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_edges.size() || j < new_edges.size()) {
    if (j == new_edges.size() || (i < old_edges.size() && old_edges[i] < new_edges[j])) {
      delta.removed.push_back(old_edges[i]);
      delta.removed_old_ids.push_back(static_cast<EdgeId>(i));
      ++i;
    } else if (i == old_edges.size() || new_edges[j] < old_edges[i]) {
      delta.inserted.push_back(new_edges[j]);
      delta.inserted_new_ids.push_back(static_cast<EdgeId>(j));
      ++j;
    } else {
      delta.old_to_new[i] = static_cast<EdgeId>(j);
      ++i;
      ++j;
    }
  }
  return delta;
}

namespace {

std::vector<NodeId> endpoints_of(std::span<const Edge> edges) {
  std::vector<NodeId> out;
  out.reserve(2 * edges.size());
  for (const Edge& e : edges) {
    out.push_back(e.u);
    out.push_back(e.v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<NodeId> touched_endpoints(const GraphDelta& delta) {
  std::vector<NodeId> touched;
  touched.reserve(2 * (delta.removed.size() + delta.inserted.size()));
  for (const Edge& e : delta.removed) {
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  for (const Edge& e : delta.inserted) {
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

std::vector<NodeId> removed_endpoints(const GraphDelta& delta) {
  return endpoints_of(delta.removed);
}

std::vector<NodeId> inserted_endpoints(const GraphDelta& delta) {
  return endpoints_of(delta.inserted);
}

}  // namespace remspan
