// Algorithm RemSpan (paper Section 2.3) as a node program on the
// synchronous simulator:
//
//   round 1                  : HELLO broadcast (neighbor discovery)
//   rounds 2 .. 1+scope      : flood own neighbor list to B(u, scope)
//   round 2+scope            : compute the dominating tree T_u from the
//                              locally reconstructed topology
//   rounds 2+scope .. 1+2*scope : flood T_u to B(u, scope)
//
// with scope = r - 1 + beta, for a total of 2r - 1 + 2*beta rounds exactly
// as derived in the paper. Each node computes its tree from nothing but the
// neighbor lists it actually received — the tests assert the distributed
// union equals the centralized construction edge-for-edge.
//
// RemSpanProtocol is the one node program behind both drivers, a
// NodeProgram (network.hpp) that each driver holds in a
// std::vector<RemSpanProtocol> indexed by node id. The driver decides how a
// node senses its links:
//
//   * In-band (run_remspan_distributed): HELLOs build the neighbor set. A
//     reliable node also repeats its HELLO on every retransmission, and a
//     HELLO from a new neighbor after round 2 re-versions the list. The
//     compute reads every stored list (one run, so nothing is stale).
//   * Driver-sensed (ReconvergenceSim, reconvergence.hpp): the driver hands
//     the sorted neighbor list in through sense_neighbors() and replays the
//     schedule once per epoch through begin_epoch(). The node still pays
//     one HELLO per epoch, and its compute reads the lists reachable by a
//     walk of depth scope from its sensed neighbors, which skips stale
//     entries for origins that left the ball.
//
// A node is reliable exactly when its driver's FaultConfig is faulty. Then
// it runs the fixed retransmission schedule of link_model.hpp
// (kRetransmitBase, kBackoffCap, kRetransmitJitter); otherwise it runs the
// paper's exact one-shot schedule.
//
// Everything else is one path: version-prefixed payloads with monotone
// acceptance under reliability (a list re-versions only under in-band
// sensing, so driver-sensed lists keep version 0 and only the first copy
// per epoch counts), unprefixed payloads on a lossless channel, backoff
// with emission jitter, recompute on new input with a re-flood only when
// the tree changed, and one completeness oracle (remspan_converged) and
// epoch runner (run_remspan_epoch) for both drivers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/dominating_tree.hpp"
#include "core/remote_spanner.hpp"
#include "graph/bfs.hpp"
#include "graph/edge_set.hpp"
#include "sim/flooding.hpp"
#include "sim/link_model.hpp"
#include "sim/network.hpp"

namespace remspan {

/// Message types of the advertise/compute/flood pipeline.
inline constexpr std::uint32_t kMsgHello = 1;         ///< neighbor discovery, empty payload
inline constexpr std::uint32_t kMsgNeighborList = 2;  ///< origin's sorted neighbor list
inline constexpr std::uint32_t kMsgTree = 3;          ///< origin's tree edges as (u,v) pairs

/// Under a reliable (retransmitting) configuration the kMsgNeighborList and
/// kMsgTree payloads carry a leading content-version word so receivers can
/// discard stale copies regardless of arrival order (delay jitter reorders
/// floods); on a lossless channel RemSpanProtocol omits it — each stream is
/// flooded exactly once per epoch, so there is nothing to order.
inline constexpr std::size_t kVersionPrefixWords = 1;

/// Safety margin added to the exact 1 + 2*scope schedule when capping a
/// lossless protocol epoch. A lossless run terminates by quiescence at
/// exactly expected_rounds() (pinned by Reconvergence.LosslessRunsStopAt
/// ExactlyThePredictedRound); the slack only bounds the simulator loop if
/// a protocol bug ever kept messages in flight, so that the failure shows
/// up as a wrong round count instead of a hang.
inline constexpr std::uint32_t kLosslessRoundSlack = 4;

struct RemSpanConfig {
  /// The dominating tree each node computes over its reconstructed ball.
  TreeRecipe tree{};
  /// Run RFC 3626 multipoint-relay selection instead of `tree`: the OLSR
  /// baseline, the one protocol kind that is not a dominating tree.
  bool olsr_mpr = false;

  /// How far neighbor lists and trees travel: the recipe's dependency
  /// radius r - 1 + beta (TreeRecipe::dirty_radius), exactly the ball the
  /// local tree build reads, which is also what lets the reconvergence
  /// driver scope re-advertisement to the dirty ball without changing the
  /// converged result. 1 for MPR, which reads nothing beyond N(u)'s links.
  [[nodiscard]] Dist flood_scope() const noexcept { return olsr_mpr ? 1 : tree.dirty_radius(); }

  /// Total round budget 2r - 1 + 2 beta claimed by the paper.
  [[nodiscard]] std::uint32_t expected_rounds() const;

  /// Simulator cap for one lossless epoch: the exact schedule plus
  /// kLosslessRoundSlack so a protocol bug hangs the round counter, not the
  /// process. The single named home of the former "expected_rounds() + 4".
  [[nodiscard]] std::uint32_t round_budget() const {
    return expected_rounds() + kLosslessRoundSlack;
  }

  /// Human-readable kind name (bench/tool labels).
  [[nodiscard]] const char* kind_name() const noexcept;
};

/// One origin's received neighbor list, as the local computation reads it.
struct OriginList {
  NodeId origin = kInvalidNode;
  std::span<const NodeId> neighbors;  ///< sorted ascending
};

/// The node-local computation of the protocol: reconstructs the topology
/// within the flood scope from `self`'s own (sorted) neighbor list plus the
/// received per-origin neighbor lists, runs the configured per-root
/// algorithm on it, and returns the selected tree edges in global node ids.
///
/// Node ids are compacted monotonically before the tree build so every
/// id-based tie-break matches the centralized computation on the full graph
/// — this is the function that makes "distributed union == centralized
/// spanner" hold edge-for-edge.
///
/// @param config     Tree recipe, or the MPR baseline.
/// @param self       The computing node (global id).
/// @param neighbors  self's current neighbor list, sorted ascending.
/// @param lists      The sorted neighbor list of every origin within the
///                   flood scope of self, one entry per origin.
/// @return           The tree (or MPR star) edges rooted at self.
[[nodiscard]] std::vector<Edge> compute_local_tree_edges(const RemSpanConfig& config,
                                                         NodeId self,
                                                         std::span<const NodeId> neighbors,
                                                         std::span<const OriginList> lists);

/// A protocol node's receive state: for every origin it has heard from, the
/// latest neighbor list and tree, and the content version it accepted per
/// stream in the current epoch. Entries sit in one vector sorted by origin;
/// the lists and trees sit back to back in one word buffer, which compacts
/// when its dead words outnumber its live ones. Accepted versions carry the
/// epoch they were accepted in, so a new epoch lapses them all in O(1).
class KnowledgeTable {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// One stream (neighbor list or tree) of one origin.
  struct Stream {
    std::uint32_t offset = 0;        ///< first word in the buffer
    std::uint32_t length = kAbsent;  ///< words stored; kAbsent before the first store
    std::uint32_t rx_epoch = 0;      ///< epoch rx_version was accepted in
    std::uint32_t rx_version = 0;    ///< highest content version accepted in rx_epoch
  };

  struct Entry {
    NodeId origin = kInvalidNode;
    Stream list;  ///< the origin's sorted neighbor list
    Stream tree;  ///< the origin's tree as (u, v) word pairs with u < v
  };

  /// Monotone acceptance: records `version` on `stream` and returns true
  /// when the stream accepted nothing this epoch or `version` is higher.
  bool accept(Stream& stream, std::uint32_t version) noexcept;

  /// The entry of `origin`, inserted with nothing stored when absent.
  Entry& entry(NodeId origin);
  /// The entry of `origin`, or nullptr.
  [[nodiscard]] const Entry* find(NodeId origin) const noexcept;
  /// Every entry, ascending by origin.
  [[nodiscard]] std::span<const Entry> entries() const noexcept { return entries_; }

  /// The stored words of `stream`, nullopt before its first store.
  [[nodiscard]] std::optional<std::span<const std::uint32_t>> words(
      const Stream& stream) const noexcept {
    if (stream.length == kAbsent) return std::nullopt;
    return std::span<const std::uint32_t>(words_.data() + stream.offset, stream.length);
  }

  /// Replaces the content of `stream`, one of this table's entries, with
  /// `length` words for the caller to fill; the span is valid until the
  /// next store().
  [[nodiscard]] std::span<std::uint32_t> store(Stream& stream, std::size_t length);

  /// Starts a new epoch: every accepted version lapses.
  void next_epoch() noexcept;
  /// Forgets every entry (the full-re-flood strawman's cold start).
  void clear() noexcept;

 private:
  /// Copies the live streams into a fresh buffer, in entry order.
  void compact();

  std::vector<Entry> entries_;          // ascending by origin
  std::vector<std::uint32_t> words_;    // stream contents, back to back
  std::size_t dead_words_ = 0;          // words no stream points at
  std::uint32_t epoch_ = 1;             // rx_epoch 0 = never accepted
};

class RemSpanProtocol {
 public:
  /// An unreliable node (the default) runs the paper's exact one-shot
  /// schedule. A reliable node additionally re-advertises its streams with
  /// capped exponential backoff, version-prefixes the flood payloads, and
  /// recomputes its tree whenever late input arrives, so it converges over
  /// a lossy LinkModel channel.
  RemSpanProtocol(const RemSpanConfig& config, NodeId self, bool reliable = false)
      : config_(config), reliable_(reliable), self_(self) {}

  /// Driver-side link sensing: replaces the neighbor set with `sorted` and
  /// from then on ignores HELLO contents (see the header comment).
  void sense_neighbors(std::vector<NodeId> sorted) {
    neighbors_ = std::move(sorted);
    driver_sensed_ = true;
  }

  /// Starts a new epoch. `advertise` nodes rerun the protocol schedule while
  /// passive nodes only store and forward other nodes' floods;
  /// `reset_state` additionally discards all accumulated knowledge (the
  /// full-re-flood strawman's cold start).
  void begin_epoch(bool advertise, bool reset_state);

  void on_round(NodeContext& ctx);
  void on_message(NodeContext& ctx, const Message& msg);
  /// Reliable nodes never self-declare done: an ack-less sender cannot know
  /// its floods landed, so termination is the quiescence detector's call.
  [[nodiscard]] bool done() const noexcept { return !reliable_ && (computed_ || !advertise_); }
  [[nodiscard]] std::uint64_t state_version() const noexcept { return progress_; }

  /// This node's advertised tree (global edge endpoints).
  [[nodiscard]] const std::vector<Edge>& tree_edges() const noexcept { return tree_edges_; }

  /// The current neighbor set, sorted ascending: accumulated from HELLOs
  /// under in-band sensing, as handed in by sense_neighbors() otherwise.
  [[nodiscard]] const std::vector<NodeId>& sensed_neighbors() const noexcept {
    return neighbors_;
  }

  /// Every neighbor list this node stored (origin -> list), copied out of
  /// the knowledge table; for the locality tests.
  [[nodiscard]] std::map<NodeId, std::vector<NodeId>> topology_knowledge() const;
  /// Stored list of `origin`, or nullopt if none arrived.
  [[nodiscard]] std::optional<std::span<const NodeId>> stored_list(NodeId origin) const;
  /// True iff this node stores exactly `list` as `origin`'s neighbor list
  /// and exactly `tree` as its tree, in order: what remspan_converged asks
  /// of every ball member, in one table lookup.
  [[nodiscard]] bool holds(NodeId origin, std::span<const NodeId> list,
                           std::span<const Edge> tree) const;

  /// True once nothing is scheduled locally: passive, or the tree is
  /// computed and no re-advertisement or recompute is pending over the
  /// inputs accepted so far.
  [[nodiscard]] bool settled() const noexcept {
    return !advertise_ || (computed_ && !recompute_needed_ && !list_dirty_);
  }

  /// The stored lists of the scope-ball around this node (walked over its
  /// stored lists from its sensed neighbors; self excluded) — exactly what
  /// a driver-sensed node's next tree computation reads. Every origin the
  /// walk reaches must have a stored list (REMSPAN_CHECKed). Copied out of
  /// the knowledge table; for the tests.
  [[nodiscard]] std::map<NodeId, std::vector<NodeId>> ball_lists() const;
  /// The latest tree per ball origin, with this node's own under `self`.
  [[nodiscard]] std::map<NodeId, std::vector<Edge>> ball_trees() const;

 private:
  void send_hello(NodeContext& ctx);
  void advertise_list(NodeContext& ctx);
  void flood_tree(NodeContext& ctx);
  /// Sets the next retransmission round from the current interval plus the
  /// per-(node, resend) emission jitter.
  void schedule_retransmit();
  /// In-band sensing: records a HELLO sender, re-versioning the list when
  /// the neighbor is new after the round-2 advertisement.
  void hear_hello(NodeId from);
  /// A fresh flood payload: the origin's stream to store it into and the
  /// payload without its version word.
  struct Fresh {
    KnowledgeTable::Stream* stream = nullptr;
    std::span<const std::uint32_t> body;
  };
  /// Flood acceptance plus monotone version acceptance on the origin's
  /// `stream` (&Entry::list or &Entry::tree); nullopt for a duplicate or
  /// stale copy.
  std::optional<Fresh> accept_fresh(NodeContext& ctx, const Message& msg,
                                    KnowledgeTable::Stream KnowledgeTable::Entry::*stream);
  [[nodiscard]] std::vector<Edge> compute_tree() const;
  /// Sorted origins reached by a depth-scope walk over the stored lists,
  /// skipping origins whose list has not arrived (self excluded).
  [[nodiscard]] std::vector<NodeId> ball_origins() const;

  RemSpanConfig config_;
  bool reliable_;
  NodeId self_;
  FloodManager flood_;
  bool driver_sensed_ = false;
  std::vector<NodeId> neighbors_;  // sorted
  KnowledgeTable knowledge_;       // per origin: latest list and tree, accepted versions
  std::vector<Edge> tree_edges_;   // own advertised tree
  // Per-epoch schedule: local round, role, compute state.
  std::uint32_t round_ = 0;
  bool advertise_ = true;
  bool computed_ = false;
  bool list_dirty_ = false;        // list changed since last advertisement
  bool recompute_needed_ = false;  // tree inputs changed since last compute
  // Quiescence-progress counter (monotone across epochs), content versions
  // of the own streams, and the retransmission clock (reliable mode only).
  // The accepted version per origin and stream lives in knowledge_.
  std::uint64_t progress_ = 0;
  std::uint32_t list_version_ = 0;
  std::uint32_t tree_version_ = 0;
  std::uint32_t retransmit_interval_ = 0;
  std::uint32_t next_retransmit_ = 0;
  std::uint32_t resend_count_ = 0;  // feeds the per-node emission jitter
};

/// The completeness oracle behind confirmed quiescence (reconvergence.hpp,
/// proof-sketch step 4): true iff every node of `nodes` (indexed by node
/// id) is settled, senses exactly its row of net.graph(), and holds, for
/// every origin within flood_scope() of it, that origin's current neighbor
/// list and advertised tree, content-equal. `bfs` is scratch sized for the
/// graph.
[[nodiscard]] bool remspan_converged(const Network& net, std::span<const RemSpanProtocol> nodes,
                                     const RemSpanConfig& config, BoundedBfs& bfs);

/// Runs one convergence epoch of `nodes` over `net` — the one epoch runner
/// of both drivers, which attach a link model exactly when their nodes are
/// reliable. Without a link model: run(round_budget()). With one: until a
/// quiet window confirmed by remspan_converged, the window covering the
/// retransmission period plus the link model's maximum delay. Such an
/// epoch that uses up all kLossyMaxRounds rounds without a converged state
/// throws std::runtime_error naming the cap, so a lossy run never returns
/// a wrong spanner.
/// @return rounds executed.
std::uint32_t run_remspan_epoch(Network& net, std::span<RemSpanProtocol> nodes,
                                const RemSpanConfig& config, BoundedBfs& bfs);

/// Union of every node's advertised tree as an EdgeSet of net.graph() —
/// the network-wide view of the spanner the nodes maintain.
[[nodiscard]] EdgeSet advertised_spanner(const Network& net,
                                         std::span<const RemSpanProtocol> nodes);

/// Result of one run of the protocol on a graph.
struct DistributedRunResult {
  EdgeSet spanner;  ///< union of all computed trees, as an EdgeSet of g
  NetworkStats stats;
  std::uint32_t rounds = 0;
};

/// Runs the protocol on g with in-band sensing. A faulty `faults.link`
/// attaches a LinkModel, and the reliable protocol runs until the
/// quiescence detector fires; the default runs the paper's exact lossless
/// schedule. The convergence-under-loss contract (reconvergence.hpp)
/// applies: for any loss rate < 1 the returned spanner equals the lossless
/// run's spanner edge-for-edge, or the run throws std::runtime_error when
/// the epoch reaches kLossyMaxRounds first.
[[nodiscard]] DistributedRunResult run_remspan_distributed(const Graph& g,
                                                           const RemSpanConfig& config,
                                                           const FaultConfig& faults = {});

}  // namespace remspan
