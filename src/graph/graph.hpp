// Immutable undirected simple graph in CSR form.
//
// Remote-spanner algorithms operate on an input graph G and select a subset
// of its edges; the Graph therefore assigns every undirected edge a stable
// EdgeId and exposes, for each adjacency slot, the id of the edge it
// belongs to. EdgeSet (edge_set.hpp) represents spanners as bitsets over
// those ids, giving O(deg) iteration over "neighbors of u within H".
#pragma once

#include <span>
#include <vector>

#include "util/prelude.hpp"

namespace remspan {

/// Canonical undirected edge: u < v always holds. Ordering is
/// lexicographic on (u, v), i.e. the canonical edge-list order.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Normalizes an endpoint pair into canonical form.
[[nodiscard]] constexpr Edge make_edge(NodeId a, NodeId b) noexcept {
  return a < b ? Edge{a, b} : Edge{b, a};
}

class Graph;

namespace detail {
/// Overflow guards for graph construction: node and edge counts must fit
/// the 32-bit NodeId/EdgeId index types, whose max values are reserved as
/// the kInvalidNode/kInvalidEdge sentinels. At the 10^7-node scale the
/// build engine targets, a count that silently wrapped would corrupt
/// every downstream id; this throws CheckError up front instead
/// (test_graph.cpp pins the failure mode).
void check_graph_limits(std::size_t nodes, std::size_t edges);

/// Edge count from which GraphBuilder::build() and
/// Graph::from_canonical_edges run their passes as blocks on
/// ThreadPool::global(); below it the same passes run as one block on the
/// calling thread. Measured on a 4-core x86-64 VM (random UDGs of mean
/// degree 10, median of 7 runs, one block vs blocks on the pool):
/// from_canonical_edges took 0.43 vs 0.56 ms at 21k edges, 0.89 vs 0.97 ms
/// at 41k, 2.9 vs 2.0 ms at 84k and 10.4 vs 3.4 ms at 318k; a GraphBuilder
/// ingest (add_edge loop and build) took 0.95 vs 0.88, 1.8 vs 1.7, 4.8 vs
/// 2.8 and 29 vs 16 ms. The constructor, which every caller pays, breaks
/// even between 41k and 84k edges, hence 2^16.
inline constexpr std::size_t kParallelCsrEdges = std::size_t{1} << 16;

/// Edge blocks the CSR constructor cuts `edges` edges into: 1 below
/// kParallelCsrEdges, else a few per pool thread. Block b covers
/// [edges * b / blocks, edges * (b + 1) / blocks).
[[nodiscard]] std::size_t csr_block_count(std::size_t edges);
}  // namespace detail

/// Mutable accumulation of edges; build() produces the immutable CSR Graph.
/// Self-loops are rejected; duplicate edges are merged silently (generators
/// may naturally produce duplicates).
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes);

  void add_edge(NodeId a, NodeId b);
  void reserve(std::size_t edges);
  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Sorts the edges into canonical order, merges duplicates and builds
  /// the CSR. The edges are cut into blocks and bucketed by the top bits
  /// of u into the buffer that becomes the Graph's edge list (per-block
  /// bucket histograms, one prefix sum, a per-block scatter); each bucket
  /// then radix-sorts on the bits that vary inside it and drops its
  /// duplicates, and the buckets concatenate in canonical order. At or
  /// above detail::kParallelCsrEdges edges the blocks and buckets run on
  /// ThreadPool::global(); below it the same code runs as one block and
  /// one bucket on the caller. The result is the same either way.
  [[nodiscard]] Graph build() const;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

class Graph {
 public:
  Graph() = default;

  /// Builds from a canonical, deduplicated, sorted edge list (GraphBuilder
  /// takes care of that normalization); throws CheckError unless every
  /// edge has u < v < num_nodes and the list strictly ascends. Edge i
  /// keeps id i, and row x lists x's neighbours below x (edges (w, x),
  /// ascending w) and then above it (the list's run of edges (x, w)).
  /// Three passes: per edge block, validate and count edges per bucket of
  /// their upper end v (node buckets by top bits); per edge block, stage
  /// each edge as (v, id) in the tail of its bucket's row range; per
  /// bucket, lay out its rows and fill them in id order, so every row has
  /// one writer and comes out sorted. Blocks and buckets run on
  /// ThreadPool::global() from detail::kParallelCsrEdges edges up; below
  /// it the same code runs as one block and one bucket (which needs no
  /// staging) on the caller, and the arrays are the same either way.
  static Graph from_canonical_edges(NodeId num_nodes, std::vector<Edge> edges);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Sorted neighbor list of u.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return {adj_.data() + offsets_[u], adj_.data() + offsets_[u + 1]};
  }

  /// Edge ids parallel to neighbors(u): incident_edges(u)[i] is the id of
  /// the edge {u, neighbors(u)[i]}.
  [[nodiscard]] std::span<const EdgeId> incident_edges(NodeId u) const {
    return {adj_edge_ids_.data() + offsets_[u], adj_edge_ids_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] Dist degree(NodeId u) const noexcept {
    return static_cast<Dist>(offsets_[u + 1] - offsets_[u]);
  }

  /// Maximum degree Delta; the paper's approximation factors are stated in
  /// terms of (1 + log Delta).
  [[nodiscard]] Dist max_degree() const noexcept { return max_degree_; }

  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const noexcept {
    return find_edge(a, b) != kInvalidEdge;
  }

  /// Id of edge {a,b}, or kInvalidEdge. O(log deg) by binary search.
  [[nodiscard]] EdgeId find_edge(NodeId a, NodeId b) const noexcept;

  [[nodiscard]] const Edge& edge(EdgeId id) const noexcept { return edges_[id]; }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Sum of degrees / n; handy for workload reporting.
  [[nodiscard]] double average_degree() const noexcept {
    return num_nodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) / static_cast<double>(num_nodes());
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adj_;
  std::vector<EdgeId> adj_edge_ids_;
  std::vector<Edge> edges_;
  Dist max_degree_ = 0;
};

}  // namespace remspan
