#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "util/thread_pool.hpp"

namespace remspan {

namespace detail {

void check_graph_limits(std::size_t nodes, std::size_t edges) {
  REMSPAN_CHECK(nodes < kInvalidNode);
  REMSPAN_CHECK(edges < kInvalidEdge);
}

std::size_t csr_block_count(std::size_t edges) {
  // A few blocks per pool thread, so the pool's dynamic scheduling evens
  // out blocks of unequal cost.
  constexpr std::size_t kBlocksPerThread = 4;
  if (edges < kParallelCsrEdges) return 1;
  return ThreadPool::global().concurrency() * kBlocksPerThread;
}

}  // namespace detail

namespace {

/// At most 2^kBucketBits node buckets, each of at least about
/// 2^kBucketEdgeBits edges: a bucket's edges stay in L2 and the block
/// scatters write few enough streams, while per-bucket overhead (two
/// small allocations, a task claim) stays small against its work.
constexpr int kBucketBits = 10;
constexpr int kBucketEdgeBits = 12;

/// Runs body(b) for every block b < blocks; one block runs inline on the
/// caller (no pool dispatch).
template <class Body>
void run_blocks(std::size_t blocks, const Body& body) {
  if (blocks == 1) {
    body(std::size_t{0});
    return;
  }
  ThreadPool::global().parallel_for(0, blocks, [&body](std::size_t b) { body(b); }, 1);
}

/// Block b's slice of [0, total) when it is cut into `blocks` near-equal
/// contiguous slices.
std::pair<std::size_t, std::size_t> slice(std::size_t b, std::size_t blocks, std::size_t total) {
  return {total * b / blocks, total * (b + 1) / blocks};
}

/// The node ids cut by their top bits into `count` buckets of contiguous
/// ids; one block means one bucket holding every node.
struct NodeBuckets {
  NodeBuckets(NodeId nodes, std::size_t edges, std::size_t blocks)
      : n(nodes), node_bits(std::bit_width(nodes)) {
    const int edge_bits = std::bit_width(edges >> kBucketEdgeBits);
    const int bits = blocks == 1 ? 0 : std::min({node_bits, edge_bits, kBucketBits});
    shift = node_bits - bits;
    count = std::size_t{1} << bits;
  }

  [[nodiscard]] std::size_t of(NodeId x) const noexcept {
    return static_cast<std::size_t>(std::uint64_t{x} >> shift);
  }
  /// First node of bucket k (n for k == count).
  [[nodiscard]] NodeId first(std::size_t k) const noexcept {
    return static_cast<NodeId>(std::min<std::uint64_t>(n, std::uint64_t{k} << shift));
  }

  NodeId n;
  int node_bits;
  /// Bits of a node id below its bucket's: those that vary inside one.
  int shift;
  std::size_t count;
};

/// Per-(block, bucket) counts of the keys key(i), i in [0, total), laid out
/// cursor[b * buckets + k]. Blocks run in parallel; each owns its row. key
/// runs on every i (it may validate); a lone bucket's count is its block's
/// size, which spares the store-to-load chain of bumping one counter.
template <class Key>
std::vector<std::size_t> count_blocks(std::size_t blocks, std::size_t total, std::size_t buckets,
                                      const Key& key) {
  std::vector<std::size_t> cursor(blocks * buckets, 0);
  run_blocks(blocks, [&](std::size_t b) {
    const auto [lo, hi] = slice(b, blocks, total);
    std::size_t* count = cursor.data() + b * buckets;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t k = key(i);
      if (buckets > 1) ++count[k];
    }
    if (buckets == 1) count[0] = hi - lo;
  });
  return cursor;
}

/// Digit width of the bucket sort's radix passes: 2^11 counters fit L1.
constexpr int kDigitBits = 11;

/// Ranges shorter than this sort by comparison: a radix pass's counter
/// sweep would outweigh the elements.
constexpr std::size_t kRadixMinEdges = std::size_t{1} << kDigitBits;

/// Sorts edges[0, len) into canonical order. The range is one bucket, so
/// only u's low `u_bits` and v's low `v_bits` can differ: an LSD radix sort
/// runs over just those bits (v's digits first), skipping any digit every
/// edge shares.
void sort_bucket(Edge* edges, std::size_t len, int u_bits, int v_bits) {
  if (len < kRadixMinEdges) {
    std::sort(edges, edges + len);  // Edge orders lexicographically: canonical order
    return;
  }
  std::vector<Edge> scratch(len);
  Edge* from = edges;
  Edge* to = scratch.data();
  std::vector<std::size_t> count(std::size_t{1} << kDigitBits);
  const auto pass = [&](NodeId Edge::*end, int low_bit) {
    const auto digit = [&](const Edge& e) {
      return static_cast<std::size_t>((e.*end >> low_bit) & ((NodeId{1} << kDigitBits) - 1));
    };
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i = 0; i < len; ++i) ++count[digit(from[i])];
    if (count[digit(from[0])] == len) return;
    std::size_t at = 0;
    for (std::size_t& c : count) at += std::exchange(c, at);
    for (std::size_t i = 0; i < len; ++i) to[count[digit(from[i])]++] = from[i];
    std::swap(from, to);
  };
  for (int bit = 0; bit < v_bits; bit += kDigitBits) pass(&Edge::v, bit);
  for (int bit = 0; bit < u_bits; bit += kDigitBits) pass(&Edge::u, bit);
  if (from != edges) std::copy(from, from + len, edges);
}

}  // namespace

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::reserve(std::size_t edges) { edges_.reserve(edges); }

void GraphBuilder::add_edge(NodeId a, NodeId b) {
  REMSPAN_CHECK(a != b);
  REMSPAN_CHECK(a < num_nodes_ && b < num_nodes_);
  edges_.push_back(make_edge(a, b));
}

Graph GraphBuilder::build() const {
  const std::size_t m = edges_.size();
  const std::size_t blocks = detail::csr_block_count(m);
  // Bucketing by u concatenates the buckets in canonical order, so each
  // bucket sorts on its own. One block means one bucket: a copy and a sort.
  const NodeBuckets by_u(num_nodes_, m, blocks);
  // cursor[b * buckets + k]: block b's edge count in bucket k, then (after
  // the bucket-major prefix sum) its next write position there.
  std::vector<std::size_t> cursor =
      count_blocks(blocks, m, by_u.count, [&](std::size_t i) { return by_u.of(edges_[i].u); });
  std::vector<std::size_t> bucket_start(by_u.count + 1);
  std::size_t at = 0;
  for (std::size_t k = 0; k < by_u.count; ++k) {
    bucket_start[k] = at;
    for (std::size_t b = 0; b < blocks; ++b) at += std::exchange(cursor[b * by_u.count + k], at);
  }
  bucket_start[by_u.count] = at;

  // The buffer the edges are bucketed into becomes the Graph's edge list;
  // a lone bucket is a plain copy.
  std::vector<Edge> edges;
  if (by_u.count == 1) {
    edges = edges_;
  } else {
    edges.resize(m);
    run_blocks(blocks, [&](std::size_t b) {
      const auto [lo, hi] = slice(b, blocks, m);
      std::size_t* next = cursor.data() + b * by_u.count;
      for (std::size_t i = lo; i < hi; ++i) edges[next[by_u.of(edges_[i].u)]++] = edges_[i];
    });
  }

  // Sort and deduplicate each bucket; kept[k] is its distinct-edge count.
  std::vector<std::size_t> kept(by_u.count);
  run_blocks(by_u.count, [&](std::size_t k) {
    const auto first = edges.begin() + static_cast<std::ptrdiff_t>(bucket_start[k]);
    const auto last = edges.begin() + static_cast<std::ptrdiff_t>(bucket_start[k + 1]);
    sort_bucket(edges.data() + bucket_start[k], bucket_start[k + 1] - bucket_start[k],
                by_u.shift, by_u.node_bits);
    kept[k] = static_cast<std::size_t>(std::unique(first, last) - first);
  });
  // Close the gaps merged duplicates left; nothing moves without them.
  std::size_t size = 0;
  for (std::size_t k = 0; k < by_u.count; ++k) {
    if (size != bucket_start[k]) {
      const auto first = edges.begin() + static_cast<std::ptrdiff_t>(bucket_start[k]);
      std::move(first, first + static_cast<std::ptrdiff_t>(kept[k]),
                edges.begin() + static_cast<std::ptrdiff_t>(size));
    }
    size += kept[k];
  }
  edges.resize(size);
  return Graph::from_canonical_edges(num_nodes_, std::move(edges));
}

Graph Graph::from_canonical_edges(NodeId num_nodes, std::vector<Edge> edges) {
  detail::check_graph_limits(num_nodes, edges.size());
  Graph g;
  g.edges_ = std::move(edges);
  const std::size_t m = g.edges_.size();
  const Edge* const list = g.edges_.data();
  const std::size_t blocks = detail::csr_block_count(m);
  // Row x holds x's neighbours below x (from edges (w, x), ascending w)
  // and then those above (its own run of edges (x, w), ascending w). Rows
  // are built per bucket of nodes by v, so every row has one writer.
  const NodeBuckets by_v(num_nodes, m, blocks);

  // Pass 1, per edge block: validate and count each block's edges per
  // bucket of their upper end v.
  std::vector<std::size_t> cursor =
      count_blocks(blocks, m, by_v.count, [list, num_nodes, by_v](std::size_t i) {
        const Edge& e = list[i];
        REMSPAN_CHECK(e.u < e.v && e.v < num_nodes);
        // The contract requires the list sorted and deduplicated; adjacency
        // rows depend on it, so enforce rather than assume (list[i - 1] may
        // belong to the previous block: the check spans block borders).
        REMSPAN_CHECK(i == 0 || list[i - 1] < e);
        return by_v.of(e.v);
      });

  // Bucket k's rows fill one range of adj_ starting at row_start[k]: its
  // nodes' lower edges (counted above) and their upper edges, the list's
  // run of edges with u in bucket k from run_start[k]. Until pass 3 the
  // range's tail stages the lower edges as (v, id), block after block;
  // cursor becomes each block's next staging slot there.
  std::vector<std::size_t> row_start(by_v.count + 1, 0);
  std::vector<std::size_t> run_start(by_v.count + 1, m);
  for (std::size_t k = 0; k < by_v.count; ++k) {
    const NodeId first = by_v.first(k);
    run_start[k] = static_cast<std::size_t>(
        std::partition_point(list, list + m, [first](const Edge& e) { return e.u < first; }) -
        list);
  }
  for (std::size_t k = 0; k < by_v.count; ++k) {
    std::size_t at = row_start[k] + (run_start[k + 1] - run_start[k]);
    for (std::size_t b = 0; b < blocks; ++b) at += std::exchange(cursor[b * by_v.count + k], at);
    row_start[k + 1] = at;
  }

  // The zero-fill is serial on purpose: the caller thread first-touches
  // the arrays in order. Letting the parallel passes touch them first
  // scattered their pages, and every later traversal of this Graph (BFS,
  // gather, trees) ran about 20% slower on a 4-core VM.
  g.adj_.resize(2 * m);
  g.adj_edge_ids_.resize(2 * m);
  g.offsets_.resize(static_cast<std::size_t>(num_nodes) + 1);
  NodeId* const adj = g.adj_.data();
  EdgeId* const ids = g.adj_edge_ids_.data();
  std::size_t* const offsets = g.offsets_.data();
  // Pass 2, per edge block: stage every edge in its v's bucket. One
  // bucket stages nothing: the list itself is its edges in id order.
  if (by_v.count > 1) {
    run_blocks(blocks, [&](std::size_t b) {
      const auto [lo, hi] = slice(b, blocks, m);
      std::size_t* next = cursor.data() + b * by_v.count;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t slot = next[by_v.of(list[i].v)]++;
        adj[slot] = list[i].v;
        ids[slot] = static_cast<EdgeId>(i);
      }
    });
  }

  // Pass 3, per bucket: lift the staged edges out (ascending ids: blocks
  // staged in order), lay out the bucket's rows and fill each row's upper
  // part from its run, then its lower part from the staged edges in id
  // order. Both parts come out ascending; no row needs a sort.
  std::vector<Dist> bucket_max(by_v.count, 0);
  run_blocks(by_v.count, [&](std::size_t k) {
    const NodeId first = by_v.first(k);
    const NodeId last = by_v.first(k + 1);
    std::vector<std::pair<NodeId, EdgeId>> staged;
    if (by_v.count > 1) {
      const std::size_t from = row_start[k] + (run_start[k + 1] - run_start[k]);
      staged.resize(row_start[k + 1] - from);
      for (std::size_t j = 0; j < staged.size(); ++j) {
        staged[j] = {adj[from + j], ids[from + j]};
      }
    }
    const auto for_each_lower = [&](const auto& fn) {
      if (by_v.count == 1) {
        for (std::size_t i = 0; i < m; ++i) fn(list[i].v, static_cast<EdgeId>(i));
      } else {
        for (const auto& [v, id] : staged) fn(v, id);
      }
    };
    // next[x - first]: x's lower-edge count, then its next lower slot.
    std::vector<std::size_t> next(last - first, 0);
    for_each_lower([&](NodeId v, EdgeId /*id*/) { ++next[v - first]; });
    std::size_t at = row_start[k];
    std::size_t run = run_start[k];
    Dist max_degree = 0;
    for (NodeId x = first; x < last; ++x) {
      const std::size_t lower = std::exchange(next[x - first], at);
      for (at += lower; run < m && list[run].u == x; ++run, ++at) {
        adj[at] = list[run].v;
        ids[at] = static_cast<EdgeId>(run);
      }
      offsets[x + 1] = at;
      max_degree = std::max(max_degree, static_cast<Dist>(at - next[x - first]));
    }
    bucket_max[k] = max_degree;
    for_each_lower([&](NodeId v, EdgeId id) {
      const std::size_t slot = next[v - first]++;
      adj[slot] = list[id].u;
      ids[slot] = id;
    });
  });
  g.max_degree_ = *std::max_element(bucket_max.begin(), bucket_max.end());
  return g;
}

EdgeId Graph::find_edge(NodeId a, NodeId b) const noexcept {
  if (a >= num_nodes() || b >= num_nodes() || a == b) return kInvalidEdge;
  // Search the smaller adjacency row.
  if (degree(a) > degree(b)) std::swap(a, b);
  const auto nbrs = neighbors(a);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
  if (it == nbrs.end() || *it != b) return kInvalidEdge;
  const auto slot = static_cast<std::size_t>(it - nbrs.begin());
  return incident_edges(a)[slot];
}

}  // namespace remspan
