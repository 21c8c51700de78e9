#include "graph/connectivity.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "graph/disjoint_paths.hpp"

namespace remspan {

namespace {

template <NeighborView View>
Components components_of(const View& view) {
  const NodeId n = view.num_nodes();
  Components comps;
  comps.component.assign(n, kInvalidNode);
  BoundedBfs bfs(n);
  for (NodeId start = 0; start < n; ++start) {
    if (comps.component[start] != kInvalidNode) continue;
    bfs.run(view, start);
    for (const NodeId v : bfs.order()) comps.component[v] = comps.count;
    ++comps.count;
  }
  return comps;
}

}  // namespace

std::vector<NodeId> Components::largest() const {
  std::vector<std::size_t> sizes(count, 0);
  for (const NodeId c : component) ++sizes[c];
  const auto best =
      static_cast<NodeId>(std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> out;
  out.reserve(sizes[best]);
  for (NodeId v = 0; v < component.size(); ++v) {
    if (component[v] == best) out.push_back(v);
  }
  return out;
}

Components connected_components(const Graph& g) { return components_of(GraphView(g)); }

Components connected_components(const EdgeSet& h) { return components_of(SubgraphView(h)); }

bool is_connected(const Graph& g) {
  return g.num_nodes() <= 1 || connected_components(g).count == 1;
}

Graph largest_component(const Graph& g) {
  const auto comps = connected_components(g);
  if (comps.count <= 1) return g;
  return induced_subgraph(g, comps.largest()).graph;
}

InducedSubgraph induced_subgraph(const Graph& g, const std::vector<NodeId>& keep) {
  // keep is ascending, so the relabel is monotone: the kept edges, scanned
  // in g's canonical order, stay canonical under it.
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < keep.size(); ++i) {
    REMSPAN_CHECK(i == 0 || keep[i - 1] < keep[i]);  // sorted & unique
    // An id beyond g has no edges: it stays an isolated node.
    if (keep[i] < g.num_nodes()) remap[keep[i]] = i;
  }
  const auto kept = [&remap](const Edge& e) {
    return remap[e.u] != kInvalidNode && remap[e.v] != kInvalidNode;
  };
  // Sized exactly: the list becomes the subgraph's edge list as is.
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::ranges::count_if(g.edges(), kept)));
  for (const Edge& e : g.edges()) {
    if (kept(e)) edges.push_back(Edge{remap[e.u], remap[e.v]});
  }
  return InducedSubgraph{
      Graph::from_canonical_edges(static_cast<NodeId>(keep.size()), std::move(edges)), keep};
}

Dist vertex_connectivity(const Graph& g, NodeId s, NodeId t, Dist cap) {
  REMSPAN_CHECK(s != t);
  const Dist limit = cap == 0 ? g.num_nodes() : cap;
  const auto result = min_disjoint_paths(GraphView(g), s, t, limit);
  return result.connectivity();
}

}  // namespace remspan
