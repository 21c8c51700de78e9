// Synchronous message-passing network simulator.
//
// This is the execution model the paper's "constant time" claims refer to:
// computation proceeds in rounds; a message sent (local broadcast to all
// graph neighbors) in round i is delivered in round i+1. The simulator
// accounts transmissions, receptions and payload words so the benches can
// report the communication cost of Algorithm RemSpan next to its round
// count 2r - 1 + 2*beta (Section 2.3).
//
// Network is the channel only: the graph, the outboxes, the link model,
// the delay ring and the stats. The caller owns the nodes, one NodeProgram
// value per graph node in a contiguous range indexed by node id, and hands
// them to run() / run_until_quiescent() as a std::span, so every call into
// a node is a direct call on its concrete type.
//
// The lossless LOCAL model is the default. Attaching a LinkModel
// (sim/link_model.hpp) degrades the channel: each per-neighbor copy of a
// broadcast may be dropped (independently, in bursts, or by a scripted
// adversarial schedule) or postponed, so a message sent in round i arrives
// in round i+d or never. Without a model the code path and the accounting
// are bit-identical to the original simulator.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// A protocol message. `origin`/`seq` identify flooded payloads for
/// duplicate suppression; `ttl` is the remaining forwarding budget.
struct Message {
  NodeId from = kInvalidNode;    ///< immediate sender (link-layer, not counted in wire_bytes)
  NodeId origin = kInvalidNode;  ///< original source of a flooded payload
  std::uint32_t seq = 0;         ///< origin-local sequence number
  std::uint32_t ttl = 0;         ///< hops the message may still travel
  std::uint32_t type = 0;        ///< protocol-defined tag
  std::vector<std::uint32_t> payload;  ///< protocol-defined content, 32-bit words
};

class Network;

/// Per-node handle node programs use to interact with the network.
class NodeContext {
 public:
  NodeContext(Network& net, NodeId id) : net_(&net), id_(id) {}

  /// This node's id in the simulated network.
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  /// The network's current (1-based) round number.
  [[nodiscard]] std::uint32_t round() const noexcept;

  /// Local wireless broadcast: the message reaches every graph neighbor at
  /// the start of the next round. Counts as one transmission.
  void broadcast(Message msg);

 private:
  Network* net_;
  NodeId id_;
};

/// A node program, one value per node. Each round the network calls
///   on_round(ctx)             once per node, in ascending node id, before
///                             any delivery,
///   on_message(ctx, msg)      for every message delivered this round.
/// A node signals local termination through done(); run() stops when every
/// node is done and no message is in flight.
///
/// state_version() is a monotone counter of *semantic* state changes (new
/// knowledge stored, tree recomputed), NOT bumped by duplicate or stale
/// deliveries. The quiescence detector (run_until_quiescent) watches its
/// sum across nodes; a program that never runs under a lossy channel can
/// return 0.
template <class Node>
concept NodeProgram = requires(Node& node, const Node& cnode, NodeContext& ctx,
                               const Message& msg) {
  node.on_round(ctx);
  node.on_message(ctx, msg);
  { cnode.done() } -> std::convertible_to<bool>;
  { cnode.state_version() } -> std::convertible_to<std::uint64_t>;
};

/// Fixed per-message header charged by NetworkStats::wire_bytes(): origin,
/// seq, ttl and type, one 32-bit word each (`from` is link-layer framing and
/// not counted).
inline constexpr std::uint64_t kMessageHeaderWords = 4;

/// Cumulative communication accounting of a Network. Counters only ever
/// grow; per-phase costs (e.g. one reconvergence batch) are deltas between
/// two snapshots of this struct — see operator-.
struct NetworkStats {
  std::uint64_t transmissions = 0;   ///< broadcast() calls (originations + forwards)
  std::uint64_t receptions = 0;      ///< per-neighbor deliveries that arrived
  std::uint64_t payload_words = 0;   ///< sum of payload sizes over transmissions
  std::uint64_t drops = 0;           ///< per-neighbor copies the link model dropped
  std::uint64_t delayed = 0;         ///< per-neighbor copies the link model postponed
  std::uint32_t rounds = 0;          ///< rounds executed by run()

  /// Total bytes put on the wire: every transmission pays the fixed
  /// kMessageHeaderWords header plus its payload, 4 bytes per word. A
  /// broadcast is on the air once regardless of which copies the receivers
  /// lose, so dropped copies still cost their sender's share.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept {
    return 4 * (kMessageHeaderWords * transmissions + payload_words);
  }

  /// Component-wise delta (per-batch accounting); `before` must be an
  /// earlier snapshot of the same network's stats.
  friend NetworkStats operator-(const NetworkStats& after, const NetworkStats& before) {
    return NetworkStats{after.transmissions - before.transmissions,
                        after.receptions - before.receptions,
                        after.payload_words - before.payload_words,
                        after.drops - before.drops,
                        after.delayed - before.delayed,
                        after.rounds - before.rounds};
  }
};

class LinkModel;

class Network {
 public:
  explicit Network(const Graph& g);
  ~Network();

  /// Attaches a fault model; every per-neighbor copy from now on passes
  /// through it (drop / delay / deliver). Detach with nullptr. Each
  /// run()/run_until_quiescent() invocation starts a new fault epoch
  /// (LinkModel::begin_epoch).
  void set_link_model(std::unique_ptr<LinkModel> model);
  [[nodiscard]] const LinkModel* link_model() const noexcept { return link_model_.get(); }

  /// Executes rounds over `nodes` (one per graph node, indexed by node id)
  /// until every node is done and no message is queued or delayed in
  /// flight, or max_rounds elapse. Returns the number of rounds run.
  template <NodeProgram Node>
  std::uint32_t run(std::span<Node> nodes, std::uint32_t max_rounds) {
    begin_run(nodes.size());
    std::uint32_t executed = 0;
    for (; executed < max_rounds; ++executed) {
      if (drained(nodes)) break;
      step_round(nodes);
    }
    return executed;
  }

  /// Lossy-mode driver: executes rounds until a *confirmed* quiet point —
  /// `window` consecutive rounds with no node-state progress (sum of
  /// NodeProgram::state_version unchanged) at which the driver's
  /// `converged` oracle, if provided, returns true — or until every node is
  /// done with nothing in flight, or max_rounds elapse. With ack-less
  /// periodic re-advertisement the channel never drains, so
  /// quiescence-of-state is the candidate termination criterion; the oracle
  /// is the sound half of the detector (a quiet window makes
  /// non-convergence unlikely, never impossible — at high loss every
  /// retransmission inside one window can die). When the oracle rejects a
  /// quiet point the idle counter restarts and the retransmission machinery
  /// gets another window to heal the gap; see reconvergence.hpp for why
  /// this terminates with probability 1.
  template <NodeProgram Node>
  std::uint32_t run_until_quiescent(std::span<Node> nodes, std::uint32_t window,
                                    std::uint32_t max_rounds,
                                    const std::function<bool()>& converged = {}) {
    REMSPAN_CHECK(window > 0);
    begin_run(nodes.size());
    std::uint32_t executed = 0;
    std::uint32_t idle = 0;
    std::uint64_t progress = progress_sum(nodes);
    while (executed < max_rounds) {
      if (idle >= window) {
        // A quiet point. Without an oracle it is the stop; with one, stop
        // only on a confirmed state — otherwise restart the window and let
        // the periodic retransmissions keep healing the remaining gaps.
        if (!converged || converged()) break;
        idle = 0;
      }
      // Fast exit for the drained case (every node done, channel empty):
      // nothing can ever change again, no need to sit out the window.
      if (drained(nodes)) break;
      step_round(nodes);
      ++executed;
      const std::uint64_t after = progress_sum(nodes);
      idle = after == progress ? idle + 1 : 0;
      progress = after;
    }
    return executed;
  }

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t round() const noexcept { return stats_.rounds; }

  /// Replaces the topology (same node count) between run() calls; models
  /// the link-state restabilization scenario. In-flight messages
  /// (including link-model-delayed copies) are dropped, node state is
  /// kept.
  void change_topology(const Graph& g);

 private:
  friend class NodeContext;

  /// A copy postponed by the link model, waiting for its delivery round.
  struct Pending {
    NodeId to;
    Message msg;
  };

  void enqueue_broadcast(NodeId from, Message msg);
  /// Checks that `num_nodes` nodes cover the graph and starts the link
  /// model's fault epoch.
  void begin_run(std::size_t num_nodes);
  /// One full round: send phase, then receive phase (matured delayed
  /// copies first, then this round's sends through the link model).
  template <NodeProgram Node>
  void step_round(std::span<Node> nodes);
  /// Starts a round: bumps the round counter and returns the stats before
  /// it when a sink wants per-round telemetry.
  std::optional<NetworkStats> open_round();
  /// Starts the receive phase: swaps the outboxes into inflight_ and hands
  /// out the delayed copies due this round.
  std::vector<Pending> take_matured();
  /// The link model's verdict on one per-neighbor copy of a send: true
  /// when it arrives this round; a dropped copy is counted, a postponed
  /// one is queued on the delay ring.
  bool admit(NodeId from, NodeId to, const Message& msg);
  /// Ends a round: advances the delay ring and publishes the telemetry.
  void close_round(const std::optional<NetworkStats>& before);
  /// Per-round telemetry: counter deltas into the metrics sink and one
  /// counter-sample trace event on the simulator lane (ts = round number —
  /// deterministic, no wall clock). Called only when a sink is installed.
  void publish_round_obs(const NetworkStats& before) const;
  [[nodiscard]] bool has_pending() const;

  template <NodeProgram Node>
  void deliver(std::span<Node> nodes, NodeId to, const Message& msg) {
    stats_.receptions += 1;
    NodeContext ctx(*this, to);
    nodes[to].on_message(ctx, msg);
  }
  template <NodeProgram Node>
  [[nodiscard]] bool drained(std::span<Node> nodes) const {
    return std::ranges::all_of(nodes, [](const Node& p) { return p.done(); }) && !has_pending();
  }
  template <NodeProgram Node>
  [[nodiscard]] static std::uint64_t progress_sum(std::span<Node> nodes) {
    std::uint64_t sum = 0;
    for (const Node& p : nodes) sum += p.state_version();
    return sum;
  }

  const Graph* g_;
  // outbox[v]: messages v broadcast this round, delivered next round.
  std::vector<std::vector<Message>> outbox_;
  // The previous outboxes during a receive phase, empty between rounds;
  // swapped with outbox_ each round so neither is reallocated.
  std::vector<std::vector<Message>> inflight_;
  std::unique_ptr<LinkModel> link_model_;
  // Ring buffer of delayed copies: future_[(cursor_ + d) % size] holds the
  // copies due d rounds from the current receive phase. Empty while no
  // link model is attached.
  std::vector<std::vector<Pending>> future_;
  std::size_t cursor_ = 0;
  NetworkStats stats_;
};

template <NodeProgram Node>
void Network::step_round(std::span<Node> nodes) {
  // LOCAL-model semantics, matching the paper's round accounting: within
  // one round every node first acts (on_round, send phase), then receives
  // everything due this round. Messages queued while *receiving* (flood
  // forwarding) are sent in the next round's send phase.
  const std::optional<NetworkStats> before = open_round();
  const NodeId n = g_->num_nodes();
  // Send phase.
  for (NodeId v = 0; v < n; ++v) {
    NodeContext ctx(*this, v);
    nodes[v].on_round(ctx);
  }
  // Receive phase. Copies the link model postponed to this round arrive
  // first (they are older than anything sent this round).
  for (const Pending& p : take_matured()) deliver(nodes, p.to, p.msg);
  // This round's sends (plus pre-round leftovers from forwarding), by
  // ascending sender, then the sender's message order: a broadcast by u
  // reaches every current neighbor of u in CSR order — per copy, the link
  // model may drop or postpone. Forwards triggered here enqueue for the
  // *next* round, preserving one-hop-per-round timing.
  for (NodeId u = 0; u < n; ++u) {
    for (const Message& msg : inflight_[u]) {
      for (const NodeId v : g_->neighbors(u)) {
        if (link_model_ == nullptr || admit(u, v, msg)) deliver(nodes, v, msg);
      }
    }
    inflight_[u].clear();
  }
  close_round(before);
}

}  // namespace remspan
