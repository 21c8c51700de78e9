// ReconvergenceSim: protocol-level reconvergence under churn — what a
// remote-spanner buys a *running* link-state protocol when the topology
// keeps changing.
//
// The driver replays a stream of GraphEvent batches (a ChurnTrace) into a
// persistent synchronous Network whose nodes run Algorithm RemSpan's node
// program (RemSpanProtocol, remspan_protocol.hpp, with driver-sensed links
// and one epoch per batch), and measures, per batch, the cost of
// re-converging the distributed state: rounds, messages, payload words and
// bytes on the wire. Epochs run through run_remspan_epoch, the epoch runner
// and completeness oracle run_remspan_distributed uses too. Two strategies
// are compared:
//
//   kFullReflood   — the strawman: every node discards its state and reruns
//                    the full protocol on the new topology (periodic
//                    re-advertisement in OLSR terms). Per-batch cost is the
//                    cost of a cold start, independent of the batch size.
//   kIncremental   — only the nodes whose local knowledge may have changed
//                    re-advertise. These are exactly the *dirty roots* of
//                    the incremental maintenance engine
//                    (collect_dirty_roots, src/dynamic): the nodes within
//                    flood_scope() hops of a touched endpoint in the old or
//                    new snapshot. The flood scope is the recipe's
//                    dependency radius (TreeRecipe::dirty_radius, or 1 for
//                    MPR), so this set is both sufficient and locally
//                    computable.
//
// Why scoping re-advertisement to the dirty ball reaches the same converged
// state as a full re-flood, bit for bit:
//
//   * A node u's protocol state is a function of the neighbor lists of the
//     origins in B(u, scope). If u is clean (outside every dirty ball),
//     that ball's content is unchanged, so u's stored lists, tree and
//     advertisements are already exactly what a cold start would produce.
//   * Every dirty node re-floods its current list and recomputed tree with
//     ttl = scope over the *new* topology. A node u that needs origin o's
//     data (o in B_new(u, scope)) either already holds it — o clean, in
//     which case o's list is unchanged and was delivered earlier — or o is
//     dirty and the new flood reaches u directly. In particular an origin
//     that *entered* u's ball without itself being touched (a remote
//     insertion shortened the path) lies within scope of the inserted
//     edge's endpoints, is therefore dirty, and re-floods.
//   * Stale entries for origins that *left* the ball are ignored locally:
//     a dirty node's compute reads only the stored lists that a walk of
//     depth scope from its sensed neighbors reaches. Entries inside the
//     reconstructed ball are fresh by the argument above, so the walk never
//     follows a phantom edge, and nothing beyond it is read.
//
// tests/test_reconvergence.cpp pins this equivalence after every batch
// (spanner, per-node trees, per-node pruned ball views) against both the
// full-re-flood strategy and the centralized constructions.
//
// Link-layer modeling: neighbor change detection (HELLO exchange /
// timeouts) is driver-side — each touched endpoint is handed its new
// sensed neighbor list (RemSpanProtocol::sense_neighbors), the way
// simulators model layer-2 link sensing.
// Advertising nodes still pay one HELLO broadcast per batch, so the
// round schedule and per-node cost match Algorithm RemSpan's
// 1 + 2*scope budget exactly; a batch whose delta is empty costs zero
// rounds and zero messages.
//
// ---------------------------------------------------------------------------
// Convergence under loss (the contract the fault layer is tested against)
// ---------------------------------------------------------------------------
//
// Claim. Fix a graph, a RemSpanConfig, a strategy and a churn trace, and run
// the driver over any LinkModelConfig whose per-copy delivery probability is
// bounded away from zero on every link at all times (iid drop p < 1,
// Gilbert–Elliott with p_bad_to_good > 0 and drop_bad < 1 or finite bursts,
// finite delay + jitter, partition/kill schedules active on finitely many
// rounds of each epoch, drop-every-Nth attrition — which delivers all but
// every Nth copy, and cannot lock onto the re-advertisement schedule
// because the emission jitter keeps that schedule aperiodic — so every
// constructor-accepted config qualifies) with the reliable protocol
// variant. Then every epoch quiesces with probability
// 1, and at quiescence the per-node converged state — each node's advertised
// tree, its scope-ball neighbor lists and its scope-ball tree views — is
// bit-for-bit the state the same driver reaches on the lossless channel.
// Loss and delay cost rounds and messages, never correctness. The same
// argument covers run_remspan_distributed, whose in-band sensing makes the
// neighbor list one more stream a new HELLO re-versions.
//
// Proof sketch, by induction over epochs.
//
//   (1) Content determinism. Within one epoch each advertiser's streams
//       have fixed final content: its HELLO names it, its neighbor list is
//       driver-sensed before the epoch starts, and its tree is a
//       deterministic function (compute_local_tree_edges) of its sensed
//       neighbors and its stored ball lists. Retransmissions carry a fresh
//       flood seq — so duplicate suppression never blocks them and each
//       re-flood re-walks the whole ttl = scope ball, healing any gap the
//       channel punched downstream — but unchanged content and version.
//   (2) Eventual delivery. Every advertiser re-floods its streams at least
//       once per kBackoffCap + kRetransmitJitter rounds until the epoch
//       ends, at emission times jittered by a per-(node, resend) hash so no
//       periodic loss process stays phase-locked to them. Each re-flood
//       reaches each ball member through some shortest path with probability
//       bounded below by a positive constant (finitely many links, each
//       delivering with probability > 0 once the scripted windows lapse), so
//       with probability 1 every node eventually holds every ball origin's
//       final list and final tree. Monotone version acceptance makes
//       reordered late copies (delay jitter) harmless: a node never replaces
//       newer content with older.
//   (3) Final recompute. A reliable node recomputes its tree whenever an
//       accepted message changed its inputs. After the last input change its
//       last recompute reads exactly its sensed neighbors plus the fresh
//       scope-ball lists — the same inputs as the lossless run (stale
//       out-of-ball leftovers are unreachable by the ball walk from fresh
//       lists) — and determinism gives the identical tree. If the content is
//       unchanged, no new version is flooded, so retransmissions alone never
//       register as progress.
//   (4) Termination is *confirmed*, not guessed. A window of W >=
//       quiescence_window_for(max_delay) = 3*(kBackoffCap +
//       kRetransmitJitter) + max_delay + 2 consecutive progress-free rounds is
//       only a candidate stop: it makes an undelivered stream unlikely
//       (every advertiser retransmitted at least twice inside the window),
//       but at high loss every one of those copies can die, and a scripted
//       schedule (drop-every-Nth attrition aligned with the periodic
//       backoff-capped traffic) can even arrange it deterministically. So
//       at each quiet point the driver consults a completeness oracle —
//       global termination detection, the standard device for synchronous
//       simulators — which checks that every node is settled and holds, for
//       every origin within scope on the current graph, that origin's
//       current list and tree, content-equal. If not, the epoch simply
//       keeps running (the idle window restarts) and (2) delivers the gap
//       with probability 1, so the epoch ends with probability 1 and *only*
//       in the state of (3), which by the dirty-ball argument above equals
//       the lossless converged state. A real deployment has no oracle; it
//       keeps the soft-state periodic refresh running instead and a node
//       that missed part of a stream converges in a later refresh period —
//       same fixpoint, later clock (graceful degradation). The simulator
//       does cap an epoch at kLossyMaxRounds rounds; an epoch that reaches
//       the cap unconfirmed (a loss rate so close to 1 that "probability 1"
//       needs more rounds than that) throws instead of returning a state
//       the oracle rejected.
//
// tests/test_reconvergence_loss.cpp pins the claim across loss rates, delay
// jitter, burst loss, partition/flood-kill schedules, graph families and
// both strategies, comparing against the lossless run and the centralized
// construction after every batch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"
#include "sim/link_model.hpp"
#include "sim/network.hpp"
#include "sim/remspan_protocol.hpp"

namespace remspan {

/// How the protocol reacts to a batch of topology updates.
enum class ReconvergeStrategy {
  kIncremental,  ///< only dirty-ball nodes re-advertise (scoped floods)
  kFullReflood,  ///< every node resets and reruns the full protocol
};

/// @return "incremental" or "full-reflood" (bench/tool labels).
[[nodiscard]] const char* strategy_name(ReconvergeStrategy strategy) noexcept;

/// Per-batch reconvergence cost, measured on the synchronous simulator.
struct ReconvergeBatchStats {
  std::size_t batch = 0;             ///< 1-based batch number (0 = initial build)
  std::size_t applied_events = 0;    ///< events that changed stored state
  std::size_t inserted_edges = 0;    ///< live-edge delta vs previous snapshot
  std::size_t removed_edges = 0;
  std::size_t touched_nodes = 0;     ///< endpoints of changed edges
  std::size_t advertising_nodes = 0; ///< nodes that re-advertised this batch
  std::uint32_t rounds = 0;          ///< rounds until quiescence
  std::uint64_t transmissions = 0;   ///< broadcasts (originations + forwards)
  std::uint64_t receptions = 0;      ///< per-neighbor deliveries
  std::uint64_t payload_words = 0;   ///< payload volume over all transmissions
  std::uint64_t wire_bytes = 0;      ///< headers + payload (NetworkStats::wire_bytes)
  std::uint64_t drops = 0;           ///< copies the link model destroyed
  std::uint64_t delayed = 0;         ///< copies the link model postponed
  std::size_t spanner_edges = 0;     ///< |union of advertised trees| after the batch
  double seconds = 0.0;              ///< wall time of the simulated batch
};

/// Churn-aware driver over the round simulator. Owns the evolving topology
/// (a DynamicGraph seeded from the initial graph), the Network and one
/// RemSpanProtocol per node; apply_batch() feeds one ChurnTrace batch
/// through the network and reports the reconvergence cost.
///
/// A lossy epoch that reaches kLossyMaxRounds unconverged throws
/// std::runtime_error from the constructor or from apply_batch(). The
/// topology and node state are then mid-epoch: discard a ReconvergenceSim
/// whose constructor or apply_batch() threw this error.
class ReconvergenceSim {
 public:
  /// Builds the network on `initial` and runs the initial convergence
  /// (every node advertises from a cold start; cost in initial_stats()).
  /// A faulty `faults.link` attaches a LinkModel to the channel and switches
  /// every node to the reliable protocol variant (retransmission + backoff +
  /// quiescence detection); the default FaultConfig keeps the paper's exact
  /// lossless schedule.
  ReconvergenceSim(const Graph& initial, const RemSpanConfig& config,
                   ReconvergeStrategy strategy, const FaultConfig& faults = {});

  ReconvergenceSim(const ReconvergenceSim&) = delete;
  ReconvergenceSim& operator=(const ReconvergenceSim&) = delete;

  [[nodiscard]] const RemSpanConfig& config() const noexcept { return config_; }
  [[nodiscard]] ReconvergeStrategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] const FaultConfig& faults() const noexcept { return faults_; }

  /// The snapshot the protocol state currently refers to.
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Number of batches applied so far.
  [[nodiscard]] std::uint32_t batches_applied() const noexcept { return epoch_; }

  /// Cost of the initial cold-start convergence (batch index 0).
  [[nodiscard]] const ReconvergeBatchStats& initial_stats() const noexcept { return initial_; }

  /// Applies one batch of updates to the topology and re-converges the
  /// protocol state under the configured strategy. An all-no-op batch
  /// returns with zero rounds and zero messages.
  ReconvergeBatchStats apply_batch(std::span<const GraphEvent> events);

  /// Union of every node's currently advertised tree over graph() — the
  /// network-wide view of the spanner the protocol maintains.
  [[nodiscard]] EdgeSet spanner() const;

  /// Node v's protocol state: its advertised tree (tree_edges), its
  /// scope-ball lists and tree views (ball_lists, ball_trees), which the
  /// oracle tests compare between strategies and channels.
  [[nodiscard]] const RemSpanProtocol& node(NodeId v) const { return nodes_[v]; }

 private:
  RemSpanConfig config_;
  ReconvergeStrategy strategy_;
  FaultConfig faults_;
  DynamicGraph dynamic_;
  std::shared_ptr<const Graph> graph_;
  Network net_;
  std::vector<RemSpanProtocol> nodes_;
  BoundedBfs dirty_bfs_;  // dirty-root collection and the oracle's ball walks
  std::vector<std::uint8_t> dirty_flag_;
  ReconvergeBatchStats initial_;
  std::uint32_t epoch_ = 0;
};

}  // namespace remspan
