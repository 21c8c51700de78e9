// DynamicGraph: the mutable update layer under the immutable CSR Graph.
//
// Remote-spanner workloads are never frozen: links fade, nodes move, radios
// die. DynamicGraph keeps the evolving topology as a set of stored edges
// over a fixed node universe plus a per-node liveness mask, and hands out
// versioned immutable snapshots (ordinary Graph objects in canonical CSR
// form) that the rest of the library — builders, oracles, benches — consumes
// unchanged. diff_graphs() computes the exact edge delta between two
// snapshots together with the old-id -> new-id mapping, which is what lets
// IncrementalSpanner carry per-edge state (refcounts, spanner bits) across
// snapshots whose edge ids shifted.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
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

class DynamicGraph {
 public:
  /// Empty topology over a fixed node universe [0, num_nodes), all nodes up.
  explicit DynamicGraph(NodeId num_nodes);

  /// Adopts an existing graph as the initial topology (all nodes up).
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

  /// Stored edges (live and masked).
  [[nodiscard]] std::size_t num_stored_edges() const noexcept { return stored_edges_; }

  /// Bumped every time apply() changes stored state; snapshots are cached
  /// per version, so repeated snapshot() calls between updates are free.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Applies one event. Returns whether the stored state changed (re-adding
  /// a present edge, dropping an absent one, and re-toggling liveness are
  /// all idempotent no-ops). Endpoints must be in range; edge events must
  /// not be self-loops.
  bool apply(const GraphEvent& event);

  /// Applies a batch in order; returns how many events changed state.
  /// All-or-nothing: every event is validated (as apply() would) before
  /// the first one is applied, so a rejected batch throws CheckError with
  /// the graph — and its version() — untouched.
  std::size_t apply_all(std::span<const GraphEvent> events);

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

 private:
  [[nodiscard]] bool edge_live(const Edge& e) const;

  /// Trips a check unless the event's endpoints are in range and an edge
  /// event is not a self-loop.
  void check_event(const GraphEvent& event) const;

  NodeId n_ = 0;
  /// Stored adjacency (sorted rows), liveness-agnostic.
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::uint8_t> up_;
  std::size_t stored_edges_ = 0;
  std::uint64_t version_ = 0;
  /// Edges / nodes whose events arrived since the last materialized
  /// snapshot — the merge-patch candidates (cleared by snapshot()).
  mutable std::vector<Edge> pending_edges_;
  mutable std::vector<NodeId> pending_nodes_;
  mutable std::uint64_t snapshot_version_ = ~std::uint64_t{0};
  mutable std::shared_ptr<const Graph> snapshot_;
};

/// Exact delta between two canonical snapshots of the same node universe.
struct GraphDelta {
  std::vector<Edge> removed;              ///< in old, not in new
  std::vector<EdgeId> removed_old_ids;    ///< parallel to removed
  std::vector<Edge> inserted;             ///< in new, not in old
  std::vector<EdgeId> inserted_new_ids;   ///< parallel to inserted
  /// old edge id -> new edge id for surviving edges (kInvalidEdge for
  /// removed ones). Carrying per-edge state across snapshots is one gather
  /// through this table.
  std::vector<EdgeId> old_to_new;

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
