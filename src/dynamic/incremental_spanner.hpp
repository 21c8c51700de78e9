// IncrementalSpanner: maintains a remote-spanner across a stream of graph
// updates without rebuilding from scratch.
//
// The locality that makes the per-root dominating trees embarrassingly
// parallel also makes them incrementally maintainable: the tree of root u
// is a deterministic function of the edges with an endpoint at BFS depth
// <= dirty_radius() from u (TreeRecipe::dirty_radius, core/remote_spanner.hpp,
// has the argument). An edge flip {a,b} can therefore only change trees
// whose root lies within dirty_radius() of a or b (at old distances for
// removals, new ones for insertions). Per batch of updates the engine
//
//   1. takes the delta from the batch: DynamicGraph::apply_all reports the
//      net removed and inserted live edges with their slots (stable edge
//      ids, dynamic_graph.hpp) — no snapshot, no diff;
//   2. expands the dirty-root set with one multi-source bounded BFS of
//      radius dirty_radius() per side: removals on the pre-batch view
//      (live rows minus inserted plus removed edges), insertions on the
//      live view;
//   3. rebuilds the dirty roots' trees into staging through the same
//      cluster engine as the full build (shard_engine.hpp), reading the
//      DynamicGraph rows directly;
//   4. commits: retires the dirty roots' old tree slots from the per-slot
//      refcount union (refcount = how many roots' trees contain the edge),
//      installs the staged trees and adds their slots back, tracking |H|
//      as refcounts cross zero — nothing in the commit can throw; and
//   5. leaves the CSR lazy: graph() and spanner() build the canonical
//      snapshot and its CSR-indexed bits on first use per version.
// Every step costs the delta, not the graph.
//
// Equivalence guarantee: after every batch the maintained spanner is
// bit-exact equal to a from-scratch build on the same snapshot
// (tests/test_incremental_spanner.cpp pins this across graph families,
// seeds, parameters and batch sizes). Clean roots' trees cannot have
// changed — every changed edge has both endpoints beyond dirty_radius()
// from their root in both snapshots, so everything their deterministic
// tree build reads is identical.
//
// A change made to the DynamicGraph behind the engine's back (or a batch
// that threw after the graph changed) leaves the engine stale: graph(),
// spanner() and the per-edge queries then trip a check, and the next
// apply_batch resyncs with one full build instead of applying a delta it
// never saw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"
#include "obs/obs.hpp"
#include "shard/shard_engine.hpp"

namespace remspan {

/// The construction the engine maintains is a TreeRecipe
/// (core/remote_spanner.hpp); this older name stays for callers that use it.
using IncrementalConfig = TreeRecipe;

/// The dirty-root expansion over any pair of views: the sorted set of
/// roots within `radius` hops of a removed-edge endpoint in `old_view` or
/// of an inserted-edge endpoint in `new_view`, one multi-source bounded
/// BFS per non-empty side (see collect_dirty_roots_split for why the
/// per-side expansion is exact). `flag` is per-node scratch sized to the
/// node universe that must be all zero and is left all zero, so the cost
/// is the two balls, not n.
template <NeighborView OldView, NeighborView NewView>
void expand_dirty_roots(const OldView& old_view, const NewView& new_view,
                        std::span<const NodeId> removed_touched,
                        std::span<const NodeId> inserted_touched, Dist radius, BoundedBfs& bfs,
                        std::vector<std::uint8_t>& flag, std::vector<NodeId>& dirty) {
  dirty.clear();
  const auto take = [&](const std::vector<NodeId>& ball) {
    for (const NodeId v : ball) {
      if (flag[v] != 0) continue;
      flag[v] = 1;
      dirty.push_back(v);
    }
  };
  // Per-side expansion cost: how many nodes each dependency-ball sweep
  // visits is the telemetry that tells removal-heavy from insertion-heavy
  // batches apart (docs/OBSERVABILITY.md).
  if (!removed_touched.empty()) {
    const std::vector<NodeId>& old_ball = bfs.run_multi(old_view, removed_touched, radius);
    obs::add(obs::Metric::kIncExpandOldNodes, old_ball.size());
    take(old_ball);
  }
  if (!inserted_touched.empty()) {
    const std::vector<NodeId>& new_ball = bfs.run_multi(new_view, inserted_touched, radius);
    obs::add(obs::Metric::kIncExpandNewNodes, new_ball.size());
    take(new_ball);
  }
  for (const NodeId v : dirty) flag[v] = 0;
  std::sort(dirty.begin(), dirty.end());
}

/// Computes the sorted set of roots within `radius` hops of a touched
/// endpoint in either snapshot (removals dirty roots at old distances,
/// insertions at new ones) with one multi-source bounded BFS per snapshot.
///
/// This is the locality primitive shared by the whole dynamic stack: the
/// IncrementalSpanner rebuilds exactly these roots' trees per batch (it
/// runs the same expansion, expand_dirty_roots, on DynamicGraph views
/// instead of snapshots), and the protocol-level ReconvergenceSim
/// (src/sim/reconvergence.hpp) scopes re-advertisement to the same set —
/// with radius = flood scope, these are precisely the nodes whose
/// B(u, scope) topology knowledge may have changed.
///
/// @param old_graph  Snapshot before the batch (same node universe as new).
/// @param new_graph  Snapshot after the batch.
/// @param touched    Endpoints of the changed edges (touched_endpoints()).
/// @param radius     Ball radius of the expansion, in hops.
/// @param bfs        Scratch BFS sized to the node universe (reused across
///                   batches to avoid reallocation).
/// @param flag       Per-node byte vector, resized and cleared inside; on
///                   return flag[v] != 0 exactly for the dirty roots.
/// @return           Dirty roots in increasing node-id order.
[[nodiscard]] std::vector<NodeId> collect_dirty_roots(const Graph& old_graph,
                                                      const Graph& new_graph,
                                                      std::span<const NodeId> touched, Dist radius,
                                                      BoundedBfs& bfs,
                                                      std::vector<std::uint8_t>& flag);

/// Per-side variant — the decremental/incremental fast path: expands
/// `removed_touched` only in the OLD snapshot and `inserted_touched` only
/// in the NEW one. Exact by the same dependency argument as above, one
/// direction each:
///   * a root w clean under this seeding reads no removed edge (it would
///     need an endpoint within `radius` at old distances) and no inserted
///     edge (within `radius` at new distances);
///   * therefore every <= radius path from w in either snapshot uses only
///     common edges — a new-snapshot shortcut into w's ball would put an
///     inserted endpoint inside it — so the two balls and everything the
///     deterministic tree build reads coincide, and w's tree is unchanged.
/// A removal-only batch thus costs ONE bounded BFS (the new-graph side has
/// no seeds), an insertion-only batch likewise, and mixed batches get a
/// strictly smaller dirty set than the symmetric expansion.
///
/// NOTE an edge removal outside every stored tree (union refcount 0) does
/// NOT permit skipping its ball: the greedy/MIS builds read non-tree edges
/// through their cover/independence scans, and removing one can flip a
/// pick (tests/test_incremental_spanner.cpp pins a counterexample). The
/// ROADMAP's stronger "refcount-0 removal needs no rebuild" conjecture is
/// refuted — this per-side expansion is the exact sound fast path.
[[nodiscard]] std::vector<NodeId> collect_dirty_roots_split(
    const Graph& old_graph, const Graph& new_graph, std::span<const NodeId> removed_touched,
    std::span<const NodeId> inserted_touched, Dist radius, BoundedBfs& bfs,
    std::vector<std::uint8_t>& flag);

/// Per-batch accounting, reported by bench_churn and the remspan_tool
/// churn-replay mode.
struct ChurnBatchStats {
  std::uint64_t version = 0;        ///< DynamicGraph version after the batch
  std::size_t applied_events = 0;   ///< events that actually changed state
  std::size_t inserted_edges = 0;   ///< live-edge insertions vs previous snapshot
  std::size_t removed_edges = 0;    ///< live-edge removals vs previous snapshot
  std::size_t touched_nodes = 0;    ///< endpoints seeding the dirty expansion
  std::size_t dirty_roots = 0;      ///< roots whose trees were rebuilt
  std::size_t retired_tree_edges = 0;  ///< tree edges dropped from the refcount union
  std::size_t rebuilt_tree_edges = 0;  ///< tree edges re-added by the rebuilds
  std::size_t spanner_edges = 0;    ///< |H| after the batch
  double seconds = 0.0;             ///< wall time of the whole batch
};

class IncrementalSpanner {
 public:
  /// Builds the full spanner on the dynamic graph's current topology,
  /// recording every root's tree slots and the per-slot refcounts. The
  /// DynamicGraph must outlive the engine.
  IncrementalSpanner(DynamicGraph& graph, TreeRecipe recipe);

  [[nodiscard]] const TreeRecipe& recipe() const noexcept { return recipe_; }

  /// The live topology the maintained spanner refers to, as a canonical
  /// CSR snapshot (DynamicGraph::snapshot(), built on the first call after
  /// a batch that changed it).
  [[nodiscard]] const Graph& graph() const;
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The maintained remote-spanner over graph(). Its CSR-indexed bits are
  /// built on the first call after a batch that changed it, in one
  /// sequential pass through DynamicGraph::snapshot_slots().
  [[nodiscard]] const EdgeSet& spanner() const;

  /// Applies a batch of updates to the dynamic graph and patches the
  /// spanner. Safe to call with an empty or all-no-op batch. A stale engine
  /// (see the header comment) applies the batch and then resyncs with one
  /// full build.
  ChurnBatchStats apply_batch(std::span<const GraphEvent> events);

  /// Roots rebuilt by the last apply_batch (sorted). A superset of the
  /// roots whose trees actually changed — tests assert both directions.
  [[nodiscard]] const std::vector<NodeId>& last_dirty_roots() const noexcept { return dirty_; }

  /// How many roots' trees currently contain edge `id` (graph()'s id
  /// space). The spanner contains exactly the edges with refcount > 0.
  [[nodiscard]] std::uint32_t edge_refcount(EdgeId id) const;

  /// Current dominating-tree edges of `root` as canonical node pairs.
  [[nodiscard]] std::vector<Edge> tree_edges(NodeId root) const;

 private:
  /// Builds every tree on the canonical snapshot (the static engine, so a
  /// full build costs and counts exactly what a from-scratch build does)
  /// and re-keys the results by slot.
  void full_build();
  /// Rebuilds the dirty roots through the cluster engine on the live view
  /// into staged_, parallel to order_. Touches no committed state.
  void stage_dirty_trees();
  /// Swaps the staged trees in and moves the refcounts; cannot throw.
  void commit(ChurnBatchStats& stats) noexcept;
  /// Trips a check unless the engine is at its DynamicGraph's version.
  void check_current() const;

  DynamicGraph* dynamic_;
  TreeRecipe recipe_;
  std::uint64_t version_ = 0;
  /// Per-root tree edges as slots: stable across batches, so clean roots
  /// carry zero per-batch cost.
  std::vector<std::vector<EdgeId>> trees_;
  /// Per-slot tree refcount; the spanner is {slot : ref_[slot] > 0}.
  std::vector<std::uint32_t> ref_;
  /// |H|: the slots with a positive refcount.
  std::size_t spanner_edges_ = 0;

  // Per-batch scratch, kept across batches so a batch allocates nothing
  // sized by the graph.
  BatchDelta delta_;
  std::vector<DeltaArc> removed_arcs_;
  std::vector<DeltaArc> inserted_arcs_;
  std::vector<NodeId> removed_touched_;
  std::vector<NodeId> inserted_touched_;
  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> flag_;  ///< all-zero per-node scratch
  BoundedBfs dirty_bfs_;
  ClusterEngine engine_;
  std::vector<NodeId> order_;                 ///< dirty roots in cluster order
  std::vector<std::vector<EdgeId>> staged_;   ///< rebuilt trees, parallel to order_

  // Lazy CSR views of the current topology, dropped by every batch that
  // changes it (a batch with an empty delta keeps them).
  mutable std::shared_ptr<const Graph> graph_;
  mutable std::optional<EdgeSet> spanner_;
};

}  // namespace remspan
