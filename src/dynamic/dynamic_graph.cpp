#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <numeric>

namespace remspan {

namespace {

/// First entry of a sorted row whose node is >= v.
template <typename Row>
auto row_find(Row& row, NodeId v) {
  return std::lower_bound(row.begin(), row.end(), v,
                          [](const AdjEntry& e, NodeId x) { return e.node < x; });
}

/// The entry for v in a sorted row, or null when absent.
AdjEntry* row_entry(std::vector<AdjEntry>& row, NodeId v) {
  const auto it = row_find(row, v);
  return it != row.end() && it->node == v ? &*it : nullptr;
}

}  // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : n_(num_nodes), adj_(num_nodes), up_(num_nodes, 1) {}

DynamicGraph::DynamicGraph(const Graph& initial)
    : n_(initial.num_nodes()),
      adj_(initial.num_nodes()),
      up_(initial.num_nodes(), 1),
      stored_edges_(initial.num_edges()),
      slot_edge_(initial.edges().begin(), initial.edges().end()) {
  for (NodeId u = 0; u < n_; ++u) {
    const auto nbrs = initial.neighbors(u);  // Graph rows are sorted
    const auto ids = initial.incident_edges(u);
    adj_[u].resize(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) adj_[u][i] = AdjEntry{nbrs[i], ids[i]};
  }
  // With every node up the first snapshot is `initial` itself, and its edge
  // ids are the slots: a copy costs far less than a row walk plus a CSR
  // build.
  snapshot_ = std::make_shared<const Graph>(initial);
  snapshot_slots_.resize(initial.num_edges());
  std::iota(snapshot_slots_.begin(), snapshot_slots_.end(), EdgeId{0});
  snapshot_version_ = version_;
}

bool DynamicGraph::has_edge(NodeId a, NodeId b) const { return slot_of(a, b) != kInvalidEdge; }

EdgeId DynamicGraph::slot_of(NodeId a, NodeId b) const {
  REMSPAN_CHECK(a < n_ && b < n_ && a != b);
  const auto it = row_find(adj_[a], b);
  return it != adj_[a].end() && it->node == b ? it->slot : kInvalidEdge;
}

bool DynamicGraph::edge_live(const Edge& e) const {
  if (up_[e.u] == 0 || up_[e.v] == 0) return false;
  const auto it = row_find(adj_[e.u], e.v);
  return it != adj_[e.u].end() && it->node == e.v;
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

void DynamicGraph::note_pending_edge(const Edge& e) {
  if (snapshot_ != nullptr) pending_edges_.push_back(e);
}

void DynamicGraph::touch(NodeId a, NodeId b, EdgeId slot) {
  const Edge e = make_edge(a, b);
  touches_.push_back(Touch{e, static_cast<std::uint32_t>(touches_.size()), slot,
                           slot != kInvalidEdge && up_[e.u] != 0 && up_[e.v] != 0});
}

bool DynamicGraph::apply_event(const GraphEvent& event) {
  bool changed = false;
  switch (event.kind) {
    case GraphEventKind::kEdgeUp: {
      auto& row = adj_[event.u];
      const auto it = row_find(row, event.v);
      if (it != row.end() && it->node == event.v) break;
      touch(event.u, event.v, kInvalidEdge);
      // The slot is assigned by settle(), once the batch's net effect on
      // this cell is known.
      row.insert(it, AdjEntry{event.v, kInvalidEdge});
      auto& other = adj_[event.v];
      other.insert(row_find(other, event.u), AdjEntry{event.u, kInvalidEdge});
      ++stored_edges_;
      note_pending_edge(make_edge(event.u, event.v));
      changed = true;
      break;
    }
    case GraphEventKind::kEdgeDown: {
      auto& row = adj_[event.u];
      const auto it = row_find(row, event.v);
      if (it == row.end() || it->node != event.v) break;
      touch(event.u, event.v, it->slot);
      row.erase(it);
      auto& other = adj_[event.v];
      other.erase(row_find(other, event.u));
      --stored_edges_;
      note_pending_edge(make_edge(event.u, event.v));
      changed = true;
      break;
    }
    case GraphEventKind::kNodeUp:
    case GraphEventKind::kNodeDown: {
      const std::uint8_t up = event.kind == GraphEventKind::kNodeUp ? 1 : 0;
      if (up_[event.u] == up) break;
      // A liveness toggle touches every stored edge incident to the node.
      for (const AdjEntry& e : adj_[event.u]) touch(event.u, e.node, e.slot);
      up_[event.u] = up;
      if (snapshot_ != nullptr) pending_nodes_.push_back(event.u);
      changed = true;
      break;
    }
  }
  if (changed) ++version_;
  return changed;
}

void DynamicGraph::settle(BatchDelta* delta) {
  // The first touch of a cell holds its state before the batch; compare it
  // with the state now. Touches sort by (edge, seq), so the first of each
  // run is the earliest.
  std::sort(touches_.begin(), touches_.end(), [](const Touch& x, const Touch& y) {
    return x.edge != y.edge ? x.edge < y.edge : x.seq < y.seq;
  });
  for (std::size_t i = 0; i < touches_.size();) {
    const Touch& first = touches_[i];
    const Edge e = first.edge;
    while (i < touches_.size() && touches_[i].edge == e) ++i;

    AdjEntry* const fwd = row_entry(adj_[e.u], e.v);
    EdgeId slot = kInvalidEdge;
    if (fwd != nullptr) {
      // Still stored: keep the slot it had (an edge dropped and re-added in
      // one batch is the same cell), or hand out a fresh one.
      if (first.slot != kInvalidEdge) {
        slot = first.slot;
      } else if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else {
        REMSPAN_CHECK(slot_edge_.size() < kInvalidEdge);
        slot = static_cast<EdgeId>(slot_edge_.size());
        slot_edge_.emplace_back();
      }
      slot_edge_[slot] = e;
      fwd->slot = slot;
      row_entry(adj_[e.v], e.u)->slot = slot;
    } else if (first.slot != kInvalidEdge) {
      retiring_slots_.push_back(first.slot);
    }
    if (delta == nullptr) continue;
    const bool live = fwd != nullptr && up_[e.u] != 0 && up_[e.v] != 0;
    if (first.live && !live) delta->removed.push_back(SlotEdge{e, first.slot});
    if (!first.live && live) delta->inserted.push_back(SlotEdge{e, slot});
  }
  touches_.clear();
}

std::size_t DynamicGraph::apply_events(std::span<const GraphEvent> events, BatchDelta* delta) {
  // Validate the whole batch first: a bad event anywhere must throw before
  // the first cell changes, or callers layered on this graph (the
  // incremental engine, the service, the C ABI session) would see stored
  // state that no delta ever reported.
  for (const GraphEvent& e : events) check_event(e);
  if (delta != nullptr) {
    delta->removed.clear();
    delta->inserted.clear();
  }
  // Slots freed by the previous batch become reusable only now.
  free_slots_.insert(free_slots_.end(), retiring_slots_.begin(), retiring_slots_.end());
  retiring_slots_.clear();
  std::size_t changed = 0;
  for (const GraphEvent& e : events) changed += apply_event(e) ? 1 : 0;
  settle(delta);
  // Once the merge-patch candidates outnumber the stored edges, a fresh
  // row walk beats the patch: drop the snapshot instead of letting the
  // candidate lists grow across a long run of unread batches.
  if (pending_edges_.size() + pending_nodes_.size() > stored_edges_) {
    snapshot_.reset();
    pending_edges_.clear();
    pending_nodes_.clear();
  }
  return changed;
}

bool DynamicGraph::apply(const GraphEvent& event) {
  return apply_events({&event, 1}, nullptr) != 0;
}

std::size_t DynamicGraph::apply_all(std::span<const GraphEvent> events) {
  return apply_events(events, nullptr);
}

std::size_t DynamicGraph::apply_all(std::span<const GraphEvent> events, BatchDelta& delta) {
  return apply_events(events, &delta);
}

std::shared_ptr<const Graph> DynamicGraph::snapshot() const {
  if (snapshot_ && snapshot_version_ == version_) return snapshot_;
  std::vector<Edge> live;
  std::vector<EdgeId> slots;
  if (snapshot_ == nullptr) {
    // First materialization: walk the (sorted) adjacency rows once. Taking
    // each edge at its smaller endpoint yields canonical global order.
    live.reserve(stored_edges_);
    slots.reserve(stored_edges_);
    for (NodeId u = 0; u < n_; ++u) {
      if (up_[u] == 0) continue;
      for (const AdjEntry& w : adj_[u]) {
        if (w.node > u && up_[w.node] != 0) {
          live.push_back(Edge{u, w.node});
          slots.push_back(w.slot);
        }
      }
    }
  } else {
    // Merge-patch: only edges named by an event since the last snapshot
    // (directly, or through a liveness toggle of an endpoint) can have
    // changed live state or slot; everything else carries over in order.
    std::vector<Edge> candidates = std::move(pending_edges_);
    for (const NodeId v : pending_nodes_) {
      for (const AdjEntry& w : adj_[v]) candidates.push_back(make_edge(v, w.node));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

    const auto old_edges = snapshot_->edges();
    live.reserve(old_edges.size() + candidates.size());
    slots.reserve(old_edges.size() + candidates.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_edges.size() || j < candidates.size()) {
      if (j == candidates.size() ||
          (i < old_edges.size() && old_edges[i] < candidates[j])) {
        live.push_back(old_edges[i]);
        slots.push_back(snapshot_slots_[i]);
        ++i;
      } else {
        const Edge e = candidates[j];
        if (i < old_edges.size() && old_edges[i] == e) ++i;
        if (edge_live(e)) {
          live.push_back(e);
          slots.push_back(slot_of(e.u, e.v));
        }
        ++j;
      }
    }
  }
  pending_edges_.clear();
  pending_nodes_.clear();
  snapshot_ = std::make_shared<const Graph>(Graph::from_canonical_edges(n_, std::move(live)));
  snapshot_slots_ = std::move(slots);
  snapshot_version_ = version_;
  return snapshot_;
}

std::span<const EdgeId> DynamicGraph::snapshot_slots() const {
  (void)snapshot();
  return snapshot_slots_;
}

void delta_arcs(std::span<const SlotEdge> edges, std::vector<DeltaArc>& arcs) {
  arcs.clear();
  for (const SlotEdge& e : edges) {
    arcs.push_back(DeltaArc{e.edge.u, e.edge.v, e.slot});
    arcs.push_back(DeltaArc{e.edge.v, e.edge.u, e.slot});
  }
  std::sort(arcs.begin(), arcs.end(), [](const DeltaArc& x, const DeltaArc& y) {
    return x.from != y.from ? x.from < y.from : x.to < y.to;
  });
}

GraphDelta diff_graphs(const Graph& old_graph, const Graph& new_graph) {
  REMSPAN_CHECK(old_graph.num_nodes() == new_graph.num_nodes());
  GraphDelta delta;
  const auto old_edges = old_graph.edges();
  const auto new_edges = new_graph.edges();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_edges.size() || j < new_edges.size()) {
    if (j == new_edges.size() || (i < old_edges.size() && old_edges[i] < new_edges[j])) {
      delta.removed.push_back(old_edges[i++]);
    } else if (i == old_edges.size() || new_edges[j] < old_edges[i]) {
      delta.inserted.push_back(new_edges[j++]);
    } else {
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
