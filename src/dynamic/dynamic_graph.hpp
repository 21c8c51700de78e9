// DynamicGraph: the mutable update layer under the immutable CSR Graph.
//
// Remote-spanner workloads are never frozen: links fade, nodes move, radios
// die. DynamicGraph keeps the evolving topology as a set of stored edges
// over a fixed node universe plus a per-node liveness mask, and hands out
// versioned immutable snapshots (ordinary Graph objects in canonical CSR
// form) that the rest of the library — builders, oracles, benches — consumes
// unchanged.
//
// Slots. Every stored edge carries a slot id that stays the same from
// version to version for as long as the edge stays stored (masking it
// behind a down endpoint keeps the slot). Per-edge state keyed by slot —
// IncrementalSpanner's refcounts and stored trees — therefore survives a
// batch without any remapping. A graph adopted from a Graph starts with
// slot = that graph's EdgeId. A slot freed by a batch is not handed out
// again before the next batch, so a consumer can still resolve it
// (slot_edge) while it retires the trees that used it.
//
// The batch delta. apply_all(events, delta) reports the net change in live
// edges of the batch, with slots: the live state of every cell the batch
// touched (an edge event touches its edge, a node event every stored edge
// incident to the node) is compared before and after. It is exactly what
// diff_graphs() reports between the snapshots before and after the batch,
// so a consumer fed by it never needs the CSR at all. LiveView walks the
// current live rows; PreBatchView walks the topology as it was before the
// last batch (live rows minus its inserted edges plus its removed ones).
//
// diff_graphs() (the exact edge delta between two CSR snapshots) remains
// for callers that hold snapshots: the perfbench traced replay and the
// protocol-level ReconvergenceSim.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/views.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// One topology update. Edge events carry both endpoints; node events only
/// `u` (v stays kInvalidNode).
enum class GraphEventKind : std::uint8_t { kEdgeUp, kEdgeDown, kNodeUp, kNodeDown };

struct GraphEvent {
  GraphEventKind kind = GraphEventKind::kEdgeUp;
  NodeId u = kInvalidNode;  ///< canonical lower endpoint (or the node, for node events)
  NodeId v = kInvalidNode;  ///< canonical upper endpoint (kInvalidNode for node events)

  [[nodiscard]] static GraphEvent edge_up(NodeId a, NodeId b) {
    const Edge e = make_edge(a, b);
    return {GraphEventKind::kEdgeUp, e.u, e.v};
  }
  [[nodiscard]] static GraphEvent edge_down(NodeId a, NodeId b) {
    const Edge e = make_edge(a, b);
    return {GraphEventKind::kEdgeDown, e.u, e.v};
  }
  [[nodiscard]] static GraphEvent node_up(NodeId a) {
    return {GraphEventKind::kNodeUp, a, kInvalidNode};
  }
  [[nodiscard]] static GraphEvent node_down(NodeId a) {
    return {GraphEventKind::kNodeDown, a, kInvalidNode};
  }

  friend bool operator==(const GraphEvent&, const GraphEvent&) = default;
};

/// One stored adjacency entry: the neighbor and the slot of the edge.
struct AdjEntry {
  NodeId node = kInvalidNode;
  EdgeId slot = kInvalidEdge;
};

/// A live edge named by a batch delta, with its slot.
struct SlotEdge {
  Edge edge;
  EdgeId slot = kInvalidEdge;
};

/// The net change in live edges of one batch (see the header comment). Both
/// lists are in canonical edge order. A removed edge carries the slot it
/// had before the batch, an inserted one the slot it has after.
struct BatchDelta {
  std::vector<SlotEdge> removed;   ///< live before the batch, not after
  std::vector<SlotEdge> inserted;  ///< live after the batch, not before

  [[nodiscard]] bool empty() const noexcept { return removed.empty() && inserted.empty(); }
};

class DynamicGraph {
 public:
  /// Empty topology over a fixed node universe [0, num_nodes), all nodes up.
  explicit DynamicGraph(NodeId num_nodes);

  /// Adopts an existing graph as the initial topology (all nodes up). Edge
  /// id e of `initial` becomes slot e, so the first snapshot's edge ids and
  /// the slots coincide.
  explicit DynamicGraph(const Graph& initial);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }

  /// Whether v is currently up. Down nodes keep their stored edges; every
  /// incident link is simply masked out of snapshots until the node
  /// returns (the ad-hoc radio model: a rebooting node regains its old
  /// neighborhood if nobody moved).
  [[nodiscard]] bool node_up(NodeId v) const {
    REMSPAN_CHECK(v < n_);
    return up_[v] != 0;
  }

  /// Whether the edge {a,b} is stored (regardless of endpoint liveness).
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;


  /// Stored row of u, sorted by neighbor, liveness-agnostic.
  [[nodiscard]] std::span<const AdjEntry> row(NodeId u) const {
    REMSPAN_CHECK(u < n_);
    return adj_[u];
  }

  /// One past the largest slot ever handed out: per-slot state sized by it
  /// covers every stored edge.
  [[nodiscard]] std::size_t slot_capacity() const noexcept { return slot_edge_.size(); }

  /// Slot of the stored edge {a,b}; kInvalidEdge when it is not stored.
  [[nodiscard]] EdgeId slot_of(NodeId a, NodeId b) const;

  /// Endpoints of a slot: valid for every stored edge, and for a slot freed
  /// by the last batch until the next one.
  [[nodiscard]] Edge slot_edge(EdgeId slot) const {
    REMSPAN_CHECK(slot < slot_edge_.size());
    return slot_edge_[slot];
  }

  /// Bumped every time apply() changes stored state; snapshots are cached
  /// per version, so repeated snapshot() calls between updates are free.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Applies one event (a batch of one). Returns whether the stored state
  /// changed (re-adding a present edge, dropping an absent one, and
  /// re-toggling liveness are all idempotent no-ops). Endpoints must be in
  /// range; edge events must not be self-loops.
  bool apply(const GraphEvent& event);

  /// Applies a batch in order; returns how many events changed state.
  /// All-or-nothing: every event is validated (as apply() would) before
  /// the first one is applied, so a rejected batch throws CheckError with
  /// the graph — and its version() — untouched.
  std::size_t apply_all(std::span<const GraphEvent> events);

  /// apply_all that also reports the batch's net live-edge change into
  /// `delta` (cleared first; its capacity is reused across batches).
  std::size_t apply_all(std::span<const GraphEvent> events, BatchDelta& delta);

  /// Immutable CSR snapshot of the live topology: stored edges whose two
  /// endpoints are both up, in canonical order. The result is cached until
  /// the next state change; the shared_ptr keeps a snapshot valid for as
  /// long as any consumer (e.g. an EdgeSet over it) still holds it.
  ///
  /// Snapshots are maintained incrementally: the previous snapshot's
  /// canonical edge list is merge-patched with the (typically small) set of
  /// edges whose live state may have changed since, so taking a snapshot
  /// after a batch of b updates costs O(m + b log b) with a tiny constant —
  /// not a hash-iteration plus a full O(m log m) re-sort.
  [[nodiscard]] std::shared_ptr<const Graph> snapshot() const;

  /// The slot of every edge of snapshot(), indexed by its edge id
  /// (materializes the snapshot if needed). Maintained by the same
  /// merge-patch, so mapping CSR ids to slots costs one sequential pass.
  /// Valid until the next state change.
  [[nodiscard]] std::span<const EdgeId> snapshot_slots() const;

 private:
  friend class LiveView;

  /// The state of one cell the first time a batch touched it.
  struct Touch {
    Edge edge;
    std::uint32_t seq = 0;  ///< touch order within the batch
    EdgeId slot = kInvalidEdge;  ///< slot before the batch (kInvalidEdge: not stored)
    bool live = false;           ///< live before the batch
  };

  [[nodiscard]] bool edge_live(const Edge& e) const;

  /// Trips a check unless the event's endpoints are in range and an edge
  /// event is not a self-loop.
  void check_event(const GraphEvent& event) const;

  /// The batch driver behind apply/apply_all: validates, applies, then
  /// settles slots and (when non-null) fills `delta`.
  std::size_t apply_events(std::span<const GraphEvent> events, BatchDelta* delta);
  bool apply_event(const GraphEvent& event);
  void touch(NodeId a, NodeId b, EdgeId slot);
  void settle(BatchDelta* delta);
  /// Notes a candidate for the next merge-patched snapshot.
  void note_pending_edge(const Edge& e);

  NodeId n_ = 0;
  /// Stored adjacency (rows sorted by neighbor), liveness-agnostic. A row
  /// entry inserted by the running batch holds kInvalidEdge until settle().
  std::vector<std::vector<AdjEntry>> adj_;
  std::vector<std::uint8_t> up_;
  std::size_t stored_edges_ = 0;
  std::uint64_t version_ = 0;
  /// slot -> endpoints; free_slots_ are reusable, retiring_slots_ were
  /// freed by the last batch and join free_slots_ when the next one starts.
  std::vector<Edge> slot_edge_;
  std::vector<EdgeId> free_slots_;
  std::vector<EdgeId> retiring_slots_;
  /// Cells touched by the running batch (scratch, reused).
  std::vector<Touch> touches_;
  /// Edges / nodes whose events arrived since the last materialized
  /// snapshot — the merge-patch candidates (cleared by snapshot()).
  mutable std::vector<Edge> pending_edges_;
  mutable std::vector<NodeId> pending_nodes_;
  mutable std::uint64_t snapshot_version_ = ~std::uint64_t{0};
  mutable std::shared_ptr<const Graph> snapshot_;
  mutable std::vector<EdgeId> snapshot_slots_;  ///< parallel to snapshot_->edges()
};

/// The current live topology as an EdgeNeighborView with slots as edge
/// ids: a down node has no neighbors, and an up node's row skips down
/// neighbors. Rows come out in ascending neighbor order, as BallGather
/// needs.
class LiveView {
 public:
  explicit LiveView(const DynamicGraph& g) noexcept : g_(&g) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return g_->n_; }

  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const {
    for_each_neighbor_edge(u, [&](NodeId v, EdgeId) { fn(v); });
  }

  template <typename Fn>
  void for_each_neighbor_edge(NodeId u, Fn&& fn) const {
    if (g_->up_[u] == 0) return;
    for (const AdjEntry& e : g_->adj_[u]) {
      if (g_->up_[e.node] != 0) fn(e.node, e.slot);
    }
  }

 private:
  const DynamicGraph* g_;
};

/// One direction of a delta edge: `from`'s row gained or lost `to`.
struct DeltaArc {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  EdgeId slot = kInvalidEdge;
};

/// Both directions of every edge, sorted by (from, to) into `arcs`. The
/// distinct `from` values are the edges' sorted unique endpoints.
void delta_arcs(std::span<const SlotEdge> edges, std::vector<DeltaArc>& arcs);

/// The live topology as it was before the last batch: the current live
/// rows minus the batch's inserted edges plus its removed ones (both given
/// as delta_arcs). Exact, so a bounded BFS over it reaches exactly the old
/// snapshot's ball. Neighbor order is unspecified (fine for BFS membership,
/// not for BallGather).
class PreBatchView {
 public:
  PreBatchView(const DynamicGraph& g, std::span<const DeltaArc> removed,
               std::span<const DeltaArc> inserted) noexcept
      : live_(g), removed_(removed), inserted_(inserted) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return live_.num_nodes(); }

  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const {
    for_each_neighbor_edge(u, [&](NodeId v, EdgeId) { fn(v); });
  }

  template <typename Fn>
  void for_each_neighbor_edge(NodeId u, Fn&& fn) const {
    const std::span<const DeltaArc> added = arcs_from(inserted_, u);
    live_.for_each_neighbor_edge(u, [&](NodeId v, EdgeId slot) {
      if (!added.empty() && std::binary_search(added.begin(), added.end(), v, ToLess{})) return;
      fn(v, slot);
    });
    for (const DeltaArc& a : arcs_from(removed_, u)) fn(a.to, a.slot);
  }

 private:
  /// Heterogeneous (arc, node) order on `to`, for binary_search.
  struct ToLess {
    bool operator()(const DeltaArc& a, NodeId v) const noexcept { return a.to < v; }
    bool operator()(NodeId v, const DeltaArc& a) const noexcept { return v < a.to; }
  };

  [[nodiscard]] static std::span<const DeltaArc> arcs_from(std::span<const DeltaArc> arcs,
                                                           NodeId u) noexcept {
    const auto lo = std::lower_bound(arcs.begin(), arcs.end(), u,
                                     [](const DeltaArc& a, NodeId x) { return a.from < x; });
    auto hi = lo;
    while (hi != arcs.end() && hi->from == u) ++hi;
    return {lo, hi};
  }

  LiveView live_;
  std::span<const DeltaArc> removed_;
  std::span<const DeltaArc> inserted_;
};

/// Exact delta between two canonical snapshots of the same node universe.
struct GraphDelta {
  std::vector<Edge> removed;   ///< in old, not in new (canonical order)
  std::vector<Edge> inserted;  ///< in new, not in old (canonical order)

  [[nodiscard]] bool empty() const noexcept { return removed.empty() && inserted.empty(); }
};

/// Merge-walks the two canonical edge lists in O(m_old + m_new).
[[nodiscard]] GraphDelta diff_graphs(const Graph& old_graph, const Graph& new_graph);

/// Sorted unique endpoints of every changed edge in the delta — the seed
/// set for the dirty-root ball expansion.
[[nodiscard]] std::vector<NodeId> touched_endpoints(const GraphDelta& delta);

/// Per-side seed sets: removals dirty roots at OLD distances, insertions at
/// NEW ones (the decremental/incremental fast path of IncrementalSpanner
/// expands each side only in the snapshot where its edges exist).
[[nodiscard]] std::vector<NodeId> removed_endpoints(const GraphDelta& delta);
[[nodiscard]] std::vector<NodeId> inserted_endpoints(const GraphDelta& delta);

}  // namespace remspan
