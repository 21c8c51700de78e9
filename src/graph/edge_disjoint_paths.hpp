// Edge-disjoint variant of the k-connecting distance: the paper's
// concluding remark suggests extending remote-spanners to edge-connectivity
// ("we consider paths that are edge-disjoint rather than internal-node
// disjoint"). This oracle computes ed^k(s,t), the minimum total length of k
// pairwise EDGE-disjoint s-t paths.
//
// Model: no node splitting; each undirected edge becomes two opposing unit-
// capacity, unit-cost arcs. With strictly positive costs a min-cost flow
// never uses both directions of one edge (the two units could cancel and
// strictly reduce cost), so the two-arc encoding is exact for undirected
// edge-disjointness.
#pragma once

#include "graph/disjoint_paths.hpp"
#include "graph/flow.hpp"
#include "graph/views.hpp"

namespace remspan {

/// Computes ed^1..ed^k between s and t over the view (k >= 1). Reuses
/// DisjointPathsResult; the `paths` field is left empty (lengths only).
template <NeighborView View>
[[nodiscard]] DisjointPathsResult min_edge_disjoint_paths(const View& view, NodeId s,
                                                          NodeId t, Dist k) {
  REMSPAN_CHECK(s != t);
  REMSPAN_CHECK(k >= 1);
  const std::size_t n = view.num_nodes();
  MinCostFlow flow(n);
  for (NodeId u = 0; u < n; ++u) {
    view.for_each_neighbor(u, [&](NodeId v) {
      // Each undirected edge is enumerated once per endpoint, creating
      // exactly its two directed arcs.
      flow.add_arc(u, v, 1, 1);
    });
  }
  const auto unit_costs = flow.solve(s, t, static_cast<std::int64_t>(k));
  DisjointPathsResult result;
  std::uint64_t cumulative = 0;
  for (const std::int64_t c : unit_costs) {
    cumulative += static_cast<std::uint64_t>(c);
    result.total_length.push_back(cumulative);
  }
  return result;
}

}  // namespace remspan
