#include "shard/shard_engine.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "util/bitset.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

namespace {

/// Build tallies, bumped single-threaded by one worker and reduced after
/// the join barrier.
struct Tallies {
  std::size_t sum_tree_edges = 0;
  std::size_t max_tree_edges = 0;
  std::uint64_t batches = 0;
  std::uint64_t gather_nodes = 0;
  std::uint64_t gather_edges = 0;
  std::uint64_t words_ord = 0;

  void add(const Tallies& o) {
    sum_tree_edges += o.sum_tree_edges;
    max_tree_edges = std::max(max_tree_edges, o.max_tree_edges);
    batches += o.batches;
    gather_nodes += o.gather_nodes;
    gather_edges += o.gather_edges;
    words_ord += o.words_ord;
  }
};

/// One pool worker's O(n) scratch plus its tallies.
struct WorkerState {
  explicit WorkerState(std::size_t n) : scout(n), gather(n) {}

  BallScout scout;
  BallGather gather;
  std::vector<EdgeId> ids;
  Tallies tally;
};

/// Scouts, gathers and builds one cluster, ORing every tree into `shared`.
void build_cluster(const Graph& g, std::span<const NodeId> cluster, Dist ball_depth,
                   const MakeTree& make_tree, const TreeVisitor& visit, AtomicBitset& shared,
                   WorkerState& ws) {
  ws.scout.run(g, cluster, ball_depth);
  ws.gather.gather(g, ws.scout.touched());
  // The builder's scratch is sized by the LOCAL node count, so building it
  // per cluster costs O(|union ball|) rather than O(n).
  DomTreeBuilder builder(ws.gather.local());
  Tallies& t = ws.tally;
  ++t.batches;
  t.gather_nodes += ws.gather.members().size();
  t.gather_edges += ws.gather.local().num_edges();
  for (const NodeId root : cluster) {
    const RootedTree tree = make_tree(builder, ws.gather.local_id(root));
    ws.ids.clear();
    for (const NodeId v : tree.nodes()) {
      if (v == tree.root()) continue;
      // The builders record each node's parent edge id at attach time, so
      // the union needs no adjacency search per tree edge.
      const EdgeId local_edge = tree.parent_edge(v);
      REMSPAN_CHECK(local_edge != kInvalidEdge);
      ws.ids.push_back(ws.gather.global_edge(local_edge));
    }
    t.sum_tree_edges += ws.ids.size();
    t.max_tree_edges = std::max(t.max_tree_edges, ws.ids.size());
    // One tree's bits merge into plain masks first: one atomic RMW per
    // touched word keeps contention off the hot loop.
    t.words_ord += shared.or_batch(ws.ids);
    if (visit) visit(root, tree, ws.gather);
  }
}

}  // namespace

EdgeSet cluster_union_of_trees(const Graph& g, Dist ball_depth, const MakeTree& make_tree,
                               const ShardConfig& config, SpannerBuildInfo* info,
                               const TreeVisitor& visit) {
  obs::PhaseSpan span("core.union_of_trees");
  ThreadPool& pool = ThreadPool::global();
  const std::size_t cap = config.num_shards == 0 ? pool.concurrency() : config.num_shards;
  detail::check_shard_limits(g.num_nodes(), g.num_edges(), cap);

  const std::size_t batch = std::max<std::size_t>(1, config.batch_roots);
  const std::vector<NodeId> order = locality_root_order(g, batch);
  const std::size_t clusters = (order.size() + batch - 1) / batch;
  AtomicBitset shared(g.num_edges());
  std::vector<std::unique_ptr<WorkerState>> states(pool.concurrency());

  // One lane per permitted worker; a lane keeps claiming the next unbuilt
  // cluster until none is left, so the load balances at cluster grain
  // whatever the clusters' ball sizes.
  std::atomic<std::size_t> next{0};
  const std::size_t lanes = std::min({cap, pool.concurrency(), clusters});
  pool.parallel_for_workers(
      0, lanes,
      [&](std::size_t /*lane*/, std::size_t worker) {
        try {
          for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < clusters;
               c = next.fetch_add(1, std::memory_order_relaxed)) {
            std::unique_ptr<WorkerState>& ws = states[worker];
            if (ws == nullptr) ws = std::make_unique<WorkerState>(g.num_nodes());
            const std::size_t begin = c * batch;
            const std::span<const NodeId> cluster(order.data() + begin,
                                                  std::min(batch, order.size() - begin));
            build_cluster(g, cluster, ball_depth, make_tree, visit, shared, *ws);
          }
        } catch (...) {
          next.store(clusters, std::memory_order_relaxed);  // other lanes stop claiming
          throw;
        }
      },
      1);

  EdgeSet spanner(g, shared.snapshot());

  Tallies total;
  for (const auto& ws : states) {
    if (ws != nullptr) total.add(ws->tally);
  }
  if (info != nullptr) {
    info->sum_tree_edges = total.sum_tree_edges;
    info->max_tree_edges = total.max_tree_edges;
    info->build_seconds = span.seconds();
  }
  if (obs::Registry* m = obs::metrics()) {
    m->add(obs::Metric::kUnionBuilds, 1);
    m->add(obs::Metric::kUnionTrees, g.num_nodes());
    m->add(obs::Metric::kUnionWordsOrd, total.words_ord);
    m->add(obs::Metric::kUnionSpannerEdges, spanner.size());
    m->add(obs::Metric::kShardBatches, total.batches);
    m->add(obs::Metric::kShardGatherNodes, total.gather_nodes);
    m->add(obs::Metric::kShardGatherEdges, total.gather_edges);
  }
  return spanner;
}

}  // namespace remspan
