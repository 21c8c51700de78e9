// Graph/GraphBuilder: CSR construction, edge ids, lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/synthetic.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace remspan {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder builder(0);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, SingleEdge) {
  GraphBuilder builder(2);
  builder.add_edge(1, 0);  // reversed input is canonicalized
  const Graph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(0).v, 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(GraphBuilder, DuplicatesMerged) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilder, SelfLoopRejected) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(1, 1), CheckError);
}

TEST(GraphBuilder, OutOfRangeRejected) {
  GraphBuilder builder(3);
  EXPECT_THROW(builder.add_edge(0, 3), CheckError);
}

TEST(Graph, AdjacencySorted) {
  GraphBuilder builder(5);
  builder.add_edge(2, 4);
  builder.add_edge(2, 0);
  builder.add_edge(2, 3);
  builder.add_edge(2, 1);
  const Graph g = builder.build();
  const auto nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(g.degree(2), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(Graph, IncidentEdgeIdsMatchNeighbors) {
  Rng rng(7);
  const Graph g = gnp(40, 0.2, rng);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ids = g.incident_edges(u);
    ASSERT_EQ(nbrs.size(), ids.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Edge& e = g.edge(ids[i]);
      EXPECT_EQ(make_edge(u, nbrs[i]), e);
    }
  }
}

TEST(Graph, FindEdgeAgreesWithEdgeList) {
  Rng rng(11);
  const Graph g = gnp(30, 0.3, rng);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    EXPECT_EQ(g.find_edge(e.u, e.v), id);
    EXPECT_EQ(g.find_edge(e.v, e.u), id);
  }
  EXPECT_EQ(g.find_edge(0, 0), kInvalidEdge);
}

TEST(Graph, FindEdgeMissing) {
  const Graph g = path_graph(4);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
}

TEST(Graph, DegreeSumIsTwiceEdges) {
  Rng rng(3);
  const Graph g = gnp(60, 0.1, rng);
  std::size_t degree_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) degree_sum += g.degree(u);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
  EXPECT_DOUBLE_EQ(g.average_degree(),
                   static_cast<double>(degree_sum) / static_cast<double>(g.num_nodes()));
}

TEST(Graph, OverflowGuardsRejectSentinelSizedUniverses) {
  // NodeId/EdgeId are 32-bit with all-ones sentinels (kInvalidNode,
  // kInvalidEdge): a universe whose count reaches the sentinel would make
  // real ids collide with "no node"/"no edge". The guard is pure counting
  // math, so the death-test exercises it directly — materializing a 2^32
  // node graph to trip it through from_canonical_edges is neither possible
  // nor necessary.
  detail::check_graph_limits(0, 0);  // empty universe is fine
  detail::check_graph_limits(kInvalidNode - 1, kInvalidEdge - 1);  // largest legal
  EXPECT_THROW(detail::check_graph_limits(kInvalidNode, 0), CheckError);
  EXPECT_THROW(detail::check_graph_limits(std::size_t{kInvalidNode} + 1, 0), CheckError);
  EXPECT_THROW(detail::check_graph_limits(0, kInvalidEdge), CheckError);
  EXPECT_THROW(detail::check_graph_limits(0, std::size_t{kInvalidEdge} + 7), CheckError);
}

TEST(Graph, CompleteGraphEdgeCount) {
  const Graph g = complete_graph(10);
  EXPECT_EQ(g.num_edges(), 45u);
  EXPECT_EQ(g.max_degree(), 9u);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      EXPECT_EQ(g.has_edge(u, v), u != v);
    }
  }
}


// --- CsrEquivalence: the blocked CSR constructor against the serial one ---

/// The serial CSR construction the blocked one replaced, ported verbatim
/// (GraphBuilder::build() and Graph::from_canonical_edges): every case
/// below demands the library's arrays equal these element for element.
struct ReferenceCsr {
  std::vector<Edge> edges;
  std::vector<std::size_t> offsets;
  std::vector<NodeId> adj;
  std::vector<EdgeId> adj_edge_ids;
  Dist max_degree = 0;

  static ReferenceCsr build(NodeId num_nodes, std::vector<Edge> edges) {
    for (Edge& e : edges) e = make_edge(e.u, e.v);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return from_canonical_edges(num_nodes, std::move(edges));
  }

  static ReferenceCsr from_canonical_edges(NodeId num_nodes, std::vector<Edge> edges) {
    ReferenceCsr g;
    g.edges = std::move(edges);
    g.offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      const Edge& e = g.edges[i];
      ++g.offsets[e.u + 1];
      ++g.offsets[e.v + 1];
    }
    for (std::size_t i = 1; i < g.offsets.size(); ++i) g.offsets[i] += g.offsets[i - 1];
    g.adj.resize(2 * g.edges.size());
    g.adj_edge_ids.resize(2 * g.edges.size());
    std::vector<std::size_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (EdgeId id = 0; id < g.edges.size(); ++id) {
      const Edge& e = g.edges[id];
      g.adj[cursor[e.u]] = e.v;
      g.adj_edge_ids[cursor[e.u]++] = id;
      g.adj[cursor[e.v]] = e.u;
      g.adj_edge_ids[cursor[e.v]++] = id;
    }
    for (NodeId u = 0; u < num_nodes; ++u) {
      g.max_degree = std::max(g.max_degree, static_cast<Dist>(g.offsets[u + 1] - g.offsets[u]));
    }
    return g;
  }
};

/// Every CSR array of g equals the reference's: the edge list, offsets
/// (each row's start relative to row 0), the concatenated rows of
/// neighbours and edge ids, and the maximum degree.
void expect_same_csr(const Graph& g, const ReferenceCsr& ref) {
  ASSERT_EQ(g.num_nodes() + std::size_t{1}, ref.offsets.size());
  ASSERT_EQ(g.num_edges(), ref.edges.size());
  EXPECT_TRUE(std::equal(g.edges().begin(), g.edges().end(), ref.edges.begin()));
  EXPECT_EQ(g.max_degree(), ref.max_degree);
  if (g.num_nodes() == 0) return;
  const NodeId* const base = g.neighbors(0).data();
  std::vector<std::size_t> offsets;
  std::vector<NodeId> adj;
  std::vector<EdgeId> ids;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    offsets.push_back(static_cast<std::size_t>(g.neighbors(u).data() - base));
    adj.insert(adj.end(), g.neighbors(u).begin(), g.neighbors(u).end());
    ids.insert(ids.end(), g.incident_edges(u).begin(), g.incident_edges(u).end());
  }
  offsets.push_back(adj.size());
  EXPECT_EQ(offsets, ref.offsets);
  EXPECT_EQ(adj, ref.adj);
  EXPECT_EQ(ids, ref.adj_edge_ids);
}

/// `m` random pairs over `n` nodes in either orientation, about one in
/// eight repeated (a shuffled duplicate, sometimes reversed).
std::vector<Edge> random_pairs(NodeId n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> pairs;
  pairs.reserve(m);
  while (pairs.size() < m) {
    if (!pairs.empty() && rng.uniform(8) == 0) {
      const Edge e = pairs[rng.uniform(pairs.size())];
      pairs.push_back(rng.bernoulli(0.5) ? Edge{e.v, e.u} : e);
      continue;
    }
    const auto a = static_cast<NodeId>(rng.uniform(n));
    const auto b = static_cast<NodeId>(rng.uniform(n));
    if (a != b) pairs.push_back(Edge{a, b});
  }
  rng.shuffle(pairs);
  return pairs;
}

/// Builds `pairs` through GraphBuilder and, once canonical, through
/// Graph::from_canonical_edges, and checks both against the reference.
void expect_builds_match(NodeId n, const std::vector<Edge>& pairs) {
  GraphBuilder builder(n);
  for (const Edge& e : pairs) builder.add_edge(e.u, e.v);
  const ReferenceCsr ref = ReferenceCsr::build(n, pairs);
  expect_same_csr(builder.build(), ref);
  expect_same_csr(Graph::from_canonical_edges(n, ref.edges), ref);
}

constexpr std::size_t kThreshold = detail::kParallelCsrEdges;

TEST(CsrEquivalence, EmptyAndSingleNodeGraphs) {
  expect_builds_match(0, {});
  expect_builds_match(1, {});
  expect_builds_match(2, {Edge{1, 0}});
}

TEST(CsrEquivalence, RandomPairsStraddlingTheThreshold) {
  // Degree ~10 at every size; the canonical edge count lands on both
  // sides of the threshold (duplicates merge away about 1/8 of the pairs).
  for (const std::size_t pairs : {kThreshold / 16, kThreshold - 1, kThreshold + kThreshold / 2,
                                  3 * kThreshold}) {
    const auto n = static_cast<NodeId>(pairs / 5);
    SCOPED_TRACE(pairs);
    expect_builds_match(n, random_pairs(n, pairs, 11 + pairs));
  }
}

TEST(CsrEquivalence, CanonicalCountsAtTheThreshold) {
  // Exactly threshold - 1 and threshold canonical edges: the last serial
  // size and the first blocked one.
  const NodeId n = 40000;
  const std::vector<Edge> canonical =
      ReferenceCsr::build(n, random_pairs(n, 2 * kThreshold, 5)).edges;
  ASSERT_GT(canonical.size(), kThreshold);
  for (const std::size_t m : {kThreshold - 1, kThreshold}) {
    const std::vector<Edge> head(canonical.begin(),
                                 canonical.begin() + static_cast<std::ptrdiff_t>(m));
    const ReferenceCsr ref = ReferenceCsr::from_canonical_edges(n, head);
    expect_same_csr(Graph::from_canonical_edges(n, head), ref);
  }
}

TEST(CsrEquivalence, IsolatedNodesAboveTheThreshold) {
  // Edges only among the even nodes of the lower half: most rows are
  // empty, and whole node buckets hold no edge at all.
  const NodeId n = 400000;
  std::vector<Edge> pairs = random_pairs(n / 4, 2 * kThreshold, 17);
  for (Edge& e : pairs) e = Edge{2 * e.u, 2 * e.v};
  expect_builds_match(n, pairs);
}

TEST(CsrEquivalence, StarHubRowSpansEveryBlock) {
  // The hub's row is every edge: as the top node its lower part gathers
  // one edge from every block; as node 0 its upper part is the whole list.
  const auto n = static_cast<NodeId>(kThreshold + kThreshold / 2);
  for (const NodeId hub : {NodeId{0}, n - 1, n / 2}) {
    SCOPED_TRACE(hub);
    std::vector<Edge> pairs;
    for (NodeId x = 0; x < n; ++x) {
      if (x != hub) pairs.push_back(x % 3 == 0 ? Edge{x, hub} : Edge{hub, x});
    }
    Rng(hub).shuffle(pairs);
    expect_builds_match(n, pairs);
  }
}

TEST(CsrEquivalence, MalformedInputAboveTheThresholdThrowsOnTheCaller) {
  const NodeId n = 60000;
  const std::vector<Edge> canonical =
      ReferenceCsr::build(n, random_pairs(n, 2 * kThreshold, 23)).edges;
  ASSERT_GT(canonical.size(), kThreshold);
  const std::size_t mid = canonical.size() / 2;
  const auto with = [&](std::size_t at, Edge e) {
    std::vector<Edge> edges = canonical;
    edges[at] = e;
    return edges;
  };
  // Unsorted: two neighbours swapped mid-list.
  std::vector<Edge> unsorted = canonical;
  std::swap(unsorted[mid], unsorted[mid + 1]);
  EXPECT_THROW((void)Graph::from_canonical_edges(n, unsorted), CheckError);
  // Duplicate: an edge repeated, within a block and across the list's end.
  EXPECT_THROW((void)Graph::from_canonical_edges(n, with(mid + 1, canonical[mid])), CheckError);
  EXPECT_THROW((void)Graph::from_canonical_edges(n, with(canonical.size() - 1,
                                                           canonical[canonical.size() - 2])),
               CheckError);
  // u >= v, and v out of range.
  const Edge e = canonical[mid];
  EXPECT_THROW((void)Graph::from_canonical_edges(n, with(mid, Edge{e.v, e.u})), CheckError);
  EXPECT_THROW((void)Graph::from_canonical_edges(n, with(mid, Edge{e.u, e.u})), CheckError);
  EXPECT_THROW(
      (void)Graph::from_canonical_edges(n, with(canonical.size() - 1, Edge{n - 2, n})),
      CheckError);
  // A duplicate straddling each block border: the sortedness check of a
  // block's first edge reads the previous block's last.
  const std::size_t blocks = detail::csr_block_count(canonical.size());
  ASSERT_GT(blocks, 1u);
  for (std::size_t b = 1; b < blocks; ++b) {
    const std::size_t border = canonical.size() * b / blocks;
    EXPECT_THROW((void)Graph::from_canonical_edges(n, with(border, canonical[border - 1])),
                 CheckError)
        << "border " << border;
  }
  // The pool that ran the failing blocks still runs a clean build.
  expect_same_csr(Graph::from_canonical_edges(n, canonical),
                  ReferenceCsr::from_canonical_edges(n, canonical));
  std::size_t sum = 0;
  std::vector<std::size_t> hits(64, 0);
  ThreadPool::global().parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = i; });
  for (const std::size_t h : hits) sum += h;
  EXPECT_EQ(sum, 64u * 63u / 2);
}

}  // namespace
}  // namespace remspan
