#include "dynamic/incremental_spanner.hpp"

#include <algorithm>
#include <atomic>

#include "graph/views.hpp"

namespace remspan {

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
  std::vector<NodeId> dirty;
  expand_dirty_roots(GraphView(old_graph), GraphView(new_graph), removed_touched,
                     inserted_touched, radius, bfs, flag, dirty);
  for (const NodeId v : dirty) flag[v] = 1;  // callers may read the mask too
  return dirty;
}

namespace {

/// Sorted unique `from` values of sorted delta arcs: the delta's endpoints.
void arc_endpoints(std::span<const DeltaArc> arcs, std::vector<NodeId>& out) {
  out.clear();
  for (const DeltaArc& a : arcs) {
    if (out.empty() || out.back() != a.from) out.push_back(a.from);
  }
}

/// |a ∪ b| of two sorted unique lists.
std::size_t union_size(std::span<const NodeId> a, std::span<const NodeId> b) {
  std::size_t common = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return a.size() + b.size() - common;
}

}  // namespace

IncrementalSpanner::IncrementalSpanner(DynamicGraph& graph, TreeRecipe recipe)
    : dynamic_(&graph),
      recipe_(recipe),
      version_(graph.version()),
      flag_(graph.num_nodes(), 0),
      dirty_bfs_(graph.num_nodes()) {
  full_build();
}

void IncrementalSpanner::full_build() {
  graph_ = dynamic_->snapshot();
  spanner_.reset();
  const Graph& g = *graph_;
  const std::span<const EdgeId> slot_of_id = dynamic_->snapshot_slots();
  trees_.assign(g.num_nodes(), {});
  ref_.assign(dynamic_->slot_capacity(), 0);
  // The static engine builds every tree; the visitor keeps what the dirty
  // rebuilds need: each root's tree slots and the per-slot refcounts.
  spanner_ = cluster_union_of_trees(
      g, recipe_, {}, nullptr, [&](NodeId root, std::span<const EdgeId> ids) {
        std::vector<EdgeId>& out = trees_[root];
        out.clear();
        for (const EdgeId id : ids) {
          const EdgeId slot = slot_of_id[id];
          out.push_back(slot);
          std::atomic_ref<std::uint32_t>(ref_[slot]).fetch_add(1, std::memory_order_relaxed);
        }
      });
  spanner_edges_ = spanner_->size();
}

void IncrementalSpanner::check_current() const {
  // Stale: the DynamicGraph changed without this engine seeing the delta
  // (a direct mutation, or a batch that threw after applying). The next
  // apply_batch resyncs.
  REMSPAN_CHECK(dynamic_->version() == version_);
}

const Graph& IncrementalSpanner::graph() const {
  check_current();
  if (graph_ == nullptr) graph_ = dynamic_->snapshot();
  return *graph_;
}

const EdgeSet& IncrementalSpanner::spanner() const {
  const Graph& g = graph();
  if (!spanner_) {
    // One sequential pass over the snapshot's edge ids; an empty-delta
    // batch may have kept an older graph object, but its live edges and
    // their slots are the current ones.
    const std::span<const EdgeId> slots = dynamic_->snapshot_slots();
    REMSPAN_CHECK(slots.size() == g.num_edges());
    std::vector<std::uint64_t> words((slots.size() + 63) / 64, 0);
    for (std::size_t id = 0; id < slots.size(); ++id) {
      words[id >> 6] |= std::uint64_t{ref_[slots[id]] > 0} << (id & 63);
    }
    spanner_.emplace(g, DynamicBitset::from_words(slots.size(), std::move(words)));
  }
  return *spanner_;
}

std::uint32_t IncrementalSpanner::edge_refcount(EdgeId id) const {
  const Graph& g = graph();
  REMSPAN_CHECK(id < g.num_edges());
  const Edge e = g.edge(id);
  return ref_[dynamic_->slot_of(e.u, e.v)];
}

std::vector<Edge> IncrementalSpanner::tree_edges(NodeId root) const {
  check_current();
  REMSPAN_CHECK(root < trees_.size());
  std::vector<Edge> out;
  out.reserve(trees_[root].size());
  for (const EdgeId slot : trees_[root]) out.push_back(dynamic_->slot_edge(slot));
  return out;
}

void IncrementalSpanner::stage_dirty_trees() {
  // Cluster the dirty roots by locality so each cluster's balls overlap,
  // then build them on the live rows exactly as a full build would.
  const LiveView live(*dynamic_);
  const ShardConfig shards;
  locality_order(live, dirty_, shards.batch_roots, flag_, order_);
  staged_.resize(order_.size());
  (void)engine_.build(live, order_, recipe_, shards, nullptr,
                      [this](std::size_t i, NodeId /*root*/, std::span<const EdgeId> slots) {
                        staged_[i].assign(slots.begin(), slots.end());
                      });
}

void IncrementalSpanner::commit(ChurnBatchStats& stats) noexcept {
  // Retire every dirty root's old tree before adding any new one, so a
  // slot moving between dirty roots never counts as leaving the spanner.
  for (const NodeId root : order_) {
    for (const EdgeId slot : trees_[root]) {
      if (--ref_[slot] == 0) --spanner_edges_;
    }
    stats.retired_tree_edges += trees_[root].size();
  }
  for (std::size_t i = 0; i < order_.size(); ++i) {
    std::vector<EdgeId>& tree = trees_[order_[i]];
    tree.swap(staged_[i]);
    for (const EdgeId slot : tree) {
      if (ref_[slot]++ == 0) ++spanner_edges_;
    }
    stats.rebuilt_tree_edges += tree.size();
  }
  staged_.clear();  // frees the old trees' buffers
}

ChurnBatchStats IncrementalSpanner::apply_batch(std::span<const GraphEvent> events) {
  obs::PhaseSpan span("inc.apply_batch", "dynamic");
  const bool stale = dynamic_->version() != version_;
  ChurnBatchStats stats;
  stats.applied_events = dynamic_->apply_all(events, delta_);
  stats.version = dynamic_->version();
  stats.removed_edges = delta_.removed.size();
  stats.inserted_edges = delta_.inserted.size();
  dirty_.clear();

  if (stale) {
    // The graph moved without us: rebuild everything from the current
    // topology rather than apply a delta that misses that change.
    std::size_t retired = 0;
    for (const auto& tree : trees_) retired += tree.size();
    full_build();
    dirty_.resize(dynamic_->num_nodes());
    for (NodeId v = 0; v < dirty_.size(); ++v) dirty_[v] = v;
    stats.dirty_roots = dirty_.size();
    stats.retired_tree_edges = retired;
    for (const auto& tree : trees_) stats.rebuilt_tree_edges += tree.size();
    stats.spanner_edges = spanner_edges_;
    version_ = stats.version;
    stats.seconds = span.seconds();
    return stats;
  }

  // Slots handed out by this batch start with refcount 0.
  if (ref_.size() < dynamic_->slot_capacity()) ref_.resize(dynamic_->slot_capacity(), 0);

  if (delta_.empty()) {
    // No live-topology change (all no-ops, or updates masked by down
    // nodes): the spanner — and any CSR view already built — stand as-is.
    version_ = stats.version;
    stats.spanner_edges = spanner_edges_;
    stats.seconds = span.seconds();
    obs::add(obs::Metric::kIncNoopBatches);
    return stats;
  }

  // Dirty roots, one bounded BFS per side with a changed edge: removals
  // matter at OLD distances (the stored trees read them there), insertions
  // at NEW ones. A removal-only batch — the decremental fast path — costs
  // a single old-topology BFS and an insertion-only batch the mirror; see
  // collect_dirty_roots_split for why the per-side expansion stays exact.
  delta_arcs(delta_.removed, removed_arcs_);
  delta_arcs(delta_.inserted, inserted_arcs_);
  arc_endpoints(removed_arcs_, removed_touched_);
  arc_endpoints(inserted_arcs_, inserted_touched_);
  stats.touched_nodes = union_size(removed_touched_, inserted_touched_);
  expand_dirty_roots(PreBatchView(*dynamic_, removed_arcs_, inserted_arcs_),
                     LiveView(*dynamic_), removed_touched_, inserted_touched_,
                     recipe_.dirty_radius(), dirty_bfs_, flag_, dirty_);
  stats.dirty_roots = dirty_.size();

  // Stage every rebuilt tree before touching committed state: if a build
  // throws, the engine is left whole at its old version (stale against
  // the graph, so the next batch resyncs).
  stage_dirty_trees();

  commit(stats);
  // Every tree lies inside its root's dirty ball, so a removed edge can
  // only have been owned by dirty roots — all retired by now. A nonzero
  // count here would mean the dirty set missed an owner.
  for (const SlotEdge& e : delta_.removed) REMSPAN_CHECK(ref_[e.slot] == 0);
  version_ = stats.version;
  graph_.reset();
  spanner_.reset();
  stats.spanner_edges = spanner_edges_;
  stats.seconds = span.seconds();
  if (obs::Registry* m = obs::metrics()) {
    m->add(obs::Metric::kIncBatches, 1);
    m->add(obs::Metric::kIncDirtyRoots, stats.dirty_roots);
    m->add(obs::Metric::kIncRetiredTreeEdges, stats.retired_tree_edges);
    m->add(obs::Metric::kIncRebuiltTreeEdges, stats.rebuilt_tree_edges);
    // Refcount churn: every retire is one decrement, every rebuilt tree
    // edge one increment of the per-slot refcounts.
    m->add(obs::Metric::kIncRefcountChurn, stats.retired_tree_edges + stats.rebuilt_tree_edges);
    m->record(obs::Metric::kIncDirtyRootsPerBatch, stats.dirty_roots);
  }
  return stats;
}

}  // namespace remspan
