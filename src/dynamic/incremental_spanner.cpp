#include "dynamic/incremental_spanner.hpp"

#include <algorithm>
#include <atomic>

#include "graph/views.hpp"
#include "obs/obs.hpp"
#include "shard/shard_engine.hpp"
#include "util/thread_pool.hpp"

namespace remspan {

IncrementalConfig IncrementalConfig::r_beta_tree(Dist r, Dist beta, TreeAlgorithm algo) {
  REMSPAN_CHECK(r >= 2);
  if (algo == TreeAlgorithm::kMis) REMSPAN_CHECK(beta == 1);
  IncrementalConfig cfg;
  cfg.construction = Construction::kRBetaTree;
  cfg.algo = algo;
  cfg.r = r;
  cfg.beta = beta;
  return cfg;
}

IncrementalConfig IncrementalConfig::low_stretch(double eps, TreeAlgorithm algo) {
  return r_beta_tree(domination_radius_for_eps(eps), 1, algo);
}

IncrementalConfig IncrementalConfig::k_connecting(Dist k) {
  REMSPAN_CHECK(k >= 1);
  IncrementalConfig cfg;
  cfg.construction = Construction::kKConnecting;
  cfg.r = 2;
  cfg.beta = 0;
  cfg.k = k;
  return cfg;
}

IncrementalConfig IncrementalConfig::two_connecting(Dist k) {
  REMSPAN_CHECK(k >= 1);
  IncrementalConfig cfg;
  cfg.construction = Construction::k2Connecting;
  cfg.r = 2;
  cfg.beta = 1;
  cfg.k = k;
  return cfg;
}

Dist IncrementalConfig::ball_depth() const noexcept {
  // MIS trees have beta = 1 (depth r); the k-connecting shells have r = 2
  // and beta <= 1 (depth 2).
  return std::max<Dist>(r, r - 1 + beta);
}

Dist IncrementalConfig::dirty_radius() const noexcept {
  // Exact dependency radius of the per-root tree builds, max over what the
  // algorithms actually read (see the header comment): the BFS shells to
  // depth D = max(r, r-1+beta) depend on edges with an endpoint at depth
  // <= D-1, and every cover/attachment scan reads edges with an endpoint at
  // depth <= r-1+beta (a candidate or tree node). For the k-connecting
  // greedy (r=2, beta=0) this collapses to 1: only edges touching
  // {u} ∪ N(u) influence relay selection — shell-2-to-shell-2 edges are
  // never read.
  return std::max<Dist>(1, r + beta - 1);
}

RootedTree IncrementalConfig::build_tree(DomTreeBuilder& builder, NodeId root) const {
  switch (construction) {
    case Construction::kRBetaTree:
      return algo == TreeAlgorithm::kMis ? builder.mis(root, r) : builder.greedy(root, r, beta);
    case Construction::kKConnecting:
      return builder.greedy_k(root, k);
    case Construction::k2Connecting:
      return builder.mis_k(root, k);
  }
  detail::check_failed("unknown IncrementalConfig::Construction", std::source_location::current());
}

EdgeSet IncrementalConfig::build_full(const Graph& g, SpannerBuildInfo* info) const {
  switch (construction) {
    case Construction::kRBetaTree:
      return build_remote_spanner(g, r, beta, algo, info);
    case Construction::kKConnecting:
      return build_k_connecting_spanner(g, k, info);
    case Construction::k2Connecting:
      return build_2connecting_spanner(g, k, info);
  }
  detail::check_failed("unknown IncrementalConfig::Construction", std::source_location::current());
}

const char* IncrementalConfig::name() const noexcept {
  switch (construction) {
    case Construction::kRBetaTree:
      return algo == TreeAlgorithm::kMis ? "r-beta (mis)" : "r-beta (greedy)";
    case Construction::kKConnecting:
      return "k-connecting (1,0)";
    case Construction::k2Connecting:
      return "k-connecting (2,1)";
  }
  return "?";
}

std::vector<NodeId> collect_dirty_roots(const Graph& old_graph, const Graph& new_graph,
                                        std::span<const NodeId> touched, Dist radius,
                                        BoundedBfs& bfs, std::vector<std::uint8_t>& flag) {
  return collect_dirty_roots_split(old_graph, new_graph, touched, touched, radius, bfs, flag);
}

std::vector<NodeId> collect_dirty_roots_split(const Graph& old_graph, const Graph& new_graph,
                                              std::span<const NodeId> removed_touched,
                                              std::span<const NodeId> inserted_touched,
                                              Dist radius, BoundedBfs& bfs,
                                              std::vector<std::uint8_t>& flag) {
  REMSPAN_CHECK(old_graph.num_nodes() == new_graph.num_nodes());
  flag.assign(old_graph.num_nodes(), 0);
  // Per-side expansion cost: how many nodes each dependency-ball sweep
  // visits is the telemetry that tells removal-heavy from insertion-heavy
  // batches apart (docs/OBSERVABILITY.md).
  if (!removed_touched.empty()) {
    const std::vector<NodeId>& old_ball =
        bfs.run_multi(GraphView(old_graph), removed_touched, radius);
    obs::add(obs::Metric::kIncExpandOldNodes, old_ball.size());
    for (const NodeId v : old_ball) flag[v] = 1;
  }
  if (!inserted_touched.empty()) {
    const std::vector<NodeId>& new_ball =
        bfs.run_multi(GraphView(new_graph), inserted_touched, radius);
    obs::add(obs::Metric::kIncExpandNewNodes, new_ball.size());
    for (const NodeId v : new_ball) flag[v] = 1;
  }
  std::vector<NodeId> dirty;
  for (NodeId v = 0; v < flag.size(); ++v) {
    if (flag[v] != 0) dirty.push_back(v);
  }
  return dirty;
}

namespace {

/// Records one built tree: stores its edges as canonical global node pairs
/// into `out` and bumps the shared refcounts through its recorded
/// parent-edge ids. A tree built on a gathered subgraph is translated
/// through `gather`; a null gather means the tree already carries the ids
/// of the refcounted graph.
std::size_t record_tree(const RootedTree& tree, const BallGather* gather, std::vector<Edge>& out,
                        std::vector<std::uint32_t>& ref) {
  out.clear();
  for (const NodeId v : tree.nodes()) {
    if (v == tree.root()) continue;
    EdgeId id = tree.parent_edge(v);
    REMSPAN_CHECK(id != kInvalidEdge);
    if (gather == nullptr) {
      out.push_back(make_edge(v, tree.parent(v)));
    } else {
      out.push_back(make_edge(gather->global_id(v), gather->global_id(tree.parent(v))));
      id = gather->global_edge(id);
    }
    std::atomic_ref<std::uint32_t>(ref[id]).fetch_add(1, std::memory_order_relaxed);
  }
  return out.size();
}

}  // namespace

IncrementalSpanner::IncrementalSpanner(DynamicGraph& graph, IncrementalConfig config)
    : dynamic_(&graph),
      config_(config),
      graph_(graph.snapshot()),
      version_(graph.version()),
      spanner_(*graph_),
      dirty_flag_(graph.num_nodes(), 0),
      dirty_bfs_(graph.num_nodes()) {
  builders_.resize(ThreadPool::global().concurrency());
  full_build();
}

void IncrementalSpanner::full_build() {
  const Graph& g = *graph_;
  trees_.assign(g.num_nodes(), {});
  ref_.assign(g.num_edges(), 0);
  // The static engine builds every tree; the visitor keeps what the dirty
  // rebuilds need: each root's edges and the per-edge refcounts.
  spanner_ = cluster_union_of_trees(
      g, config_.ball_depth(),
      [this](DomTreeBuilder& builder, NodeId root) { return config_.build_tree(builder, root); },
      {}, nullptr, [this](NodeId root, const RootedTree& tree, const BallGather& gather) {
        record_tree(tree, &gather, trees_[root], ref_);
      });
}

void IncrementalSpanner::rebuild_spanner_bits() {
  DynamicBitset bits(graph_->num_edges());
  for (EdgeId id = 0; id < ref_.size(); ++id) {
    if (ref_[id] > 0) bits.set(id);
  }
  spanner_ = EdgeSet(*graph_, std::move(bits));
}

ChurnBatchStats IncrementalSpanner::apply_batch(std::span<const GraphEvent> events) {
  obs::PhaseSpan span("inc.apply_batch", "dynamic");
  ChurnBatchStats stats;
  stats.applied_events = dynamic_->apply_all(events);
  stats.version = dynamic_->version();
  dirty_.clear();

  const std::shared_ptr<const Graph> old_graph = graph_;
  const std::shared_ptr<const Graph> new_graph = dynamic_->snapshot();
  const GraphDelta delta = diff_graphs(*old_graph, *new_graph);
  if (delta.empty()) {
    // No live-topology change (all no-ops, or updates masked by down
    // nodes): the spanner — and the old snapshot's id space — stand as-is.
    stats.spanner_edges = spanner_.size();
    stats.seconds = span.seconds();
    version_ = stats.version;
    obs::add(obs::Metric::kIncNoopBatches);
    return stats;
  }
  stats.removed_edges = delta.removed.size();
  stats.inserted_edges = delta.inserted.size();

  // Dirty roots, one bounded BFS per side with a changed edge: removals
  // matter at OLD distances (the stored trees read them there), insertions
  // at NEW ones. A removal-only batch — the decremental fast path — costs
  // a single old-snapshot BFS and an insertion-only batch the mirror; see
  // collect_dirty_roots_split for why the per-side expansion stays exact.
  const std::vector<NodeId> touched = touched_endpoints(delta);
  stats.touched_nodes = touched.size();
  dirty_ = collect_dirty_roots_split(*old_graph, *new_graph, removed_endpoints(delta),
                                     inserted_endpoints(delta), config_.dirty_radius(),
                                     dirty_bfs_, dirty_flag_);
  stats.dirty_roots = dirty_.size();

  auto& pool = ThreadPool::global();

  // Phase 1 — retire: drop the dirty roots' old tree edges from the
  // refcount union (still in the old snapshot's id space; the stored node
  // pairs resolve through the old adjacency).
  std::atomic<std::size_t> retired{0};
  pool.parallel_for(0, dirty_.size(), [&](std::size_t i) {
    const NodeId root = dirty_[i];
    for (const Edge& e : trees_[root]) {
      const EdgeId id = old_graph->find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      std::atomic_ref<std::uint32_t>(ref_[id]).fetch_sub(1, std::memory_order_relaxed);
    }
    retired.fetch_add(trees_[root].size(), std::memory_order_relaxed);
  });
  stats.retired_tree_edges = retired.load();

  // Every tree is contained in its root's dirty ball, so a removed edge
  // can only have been owned by dirty roots — all retired by now. A
  // nonzero count here would mean the dirty set missed an owner.
  for (const EdgeId old_id : delta.removed_old_ids) {
    REMSPAN_CHECK(ref_[old_id] == 0);
  }

  // Phase 2 — remap the surviving refcounts into the new id space.
  std::vector<std::uint32_t> new_ref(new_graph->num_edges(), 0);
  for (EdgeId old_id = 0; old_id < ref_.size(); ++old_id) {
    const EdgeId new_id = delta.old_to_new[old_id];
    if (new_id != kInvalidEdge) new_ref[new_id] = ref_[old_id];
  }
  ref_ = std::move(new_ref);

  // Phase 3 — rebuild the dirty roots' trees against the new snapshot on
  // the pool, re-adding their edges to the refcount union.
  for (auto& b : builders_) {
    if (b == nullptr) {
      b = std::make_unique<DomTreeBuilder>(*new_graph);
    } else {
      b->rebind(*new_graph);
    }
  }
  std::atomic<std::size_t> rebuilt{0};
  pool.parallel_for_workers(0, dirty_.size(), [&](std::size_t i, std::size_t worker) {
    const NodeId root = dirty_[i];
    const RootedTree tree = config_.build_tree(*builders_[worker], root);
    rebuilt.fetch_add(record_tree(tree, nullptr, trees_[root], ref_), std::memory_order_relaxed);
  });
  stats.rebuilt_tree_edges = rebuilt.load();

  // Phase 4 — publish: the spanner is exactly the positively-refcounted
  // edge set over the new snapshot.
  graph_ = new_graph;
  version_ = stats.version;
  rebuild_spanner_bits();
  stats.spanner_edges = spanner_.size();
  stats.seconds = span.seconds();
  if (obs::Registry* m = obs::metrics()) {
    m->add(obs::Metric::kIncBatches, 1);
    m->add(obs::Metric::kIncDirtyRoots, stats.dirty_roots);
    m->add(obs::Metric::kIncRetiredTreeEdges, stats.retired_tree_edges);
    m->add(obs::Metric::kIncRebuiltTreeEdges, stats.rebuilt_tree_edges);
    // Refcount churn: every retire is one fetch_sub, every rebuilt tree
    // edge one fetch_add on the shared per-edge refcounts.
    m->add(obs::Metric::kIncRefcountChurn, stats.retired_tree_edges + stats.rebuilt_tree_edges);
    m->record(obs::Metric::kIncDirtyRootsPerBatch, stats.dirty_roots);
  }
  return stats;
}

}  // namespace remspan
