// Synchronous message-passing network simulator.
//
// This is the execution model the paper's "constant time" claims refer to:
// computation proceeds in rounds; a message sent (local broadcast to all
// graph neighbors) in round i is delivered in round i+1. The simulator
// accounts transmissions, receptions and payload words so the benches can
// report the communication cost of Algorithm RemSpan next to its round
// count 2r - 1 + 2*beta (Section 2.3).
//
// The lossless LOCAL model is the default. Attaching a LinkModel
// (sim/link_model.hpp) degrades the channel: each per-neighbor copy of a
// broadcast may be dropped (independently, in bursts, or by a scripted
// adversarial schedule) or postponed, so a message sent in round i arrives
// in round i+d or never. Without a model the code path and the accounting
// are bit-identical to the original simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

/// Per-node handle protocols use to interact with the network.
class NodeContext {
 public:
  NodeContext(Network& net, NodeId id) : net_(&net), id_(id) {}

  /// This node's id in the simulated network.
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  /// The network's current (1-based) round number.
  [[nodiscard]] std::uint32_t round() const noexcept;
  /// Total node count of the network (known to every real node, e.g. via
  /// configuration — not derived from messages).
  [[nodiscard]] NodeId num_network_nodes() const noexcept;

  /// Local wireless broadcast: the message reaches every graph neighbor at
  /// the start of the next round. Counts as one transmission.
  void broadcast(Message msg);

 private:
  Network* net_;
  NodeId id_;
};

/// A node program. The network calls, each round:
///   on_round(ctx)             once, before message delivery,
///   on_message(ctx, msg)      for every message delivered this round.
/// A protocol signals local termination through done(); the run stops when
/// every node is done and no message is in flight.
class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual void on_round(NodeContext& ctx) = 0;
  virtual void on_message(NodeContext& ctx, const Message& msg) = 0;
  [[nodiscard]] virtual bool done() const = 0;

  /// Monotone counter of *semantic* state changes (new knowledge stored,
  /// tree recomputed) — NOT bumped by duplicate or stale deliveries. The
  /// quiescence detector (run_until_quiescent) watches the sum across
  /// nodes; protocols that never run under a lossy channel can keep the
  /// default.
  [[nodiscard]] virtual std::uint64_t state_version() const { return 0; }
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
  /// One protocol instance per node, created by the factory.
  using ProtocolFactory = std::function<std::unique_ptr<Protocol>(NodeId)>;

  Network(const Graph& g, const ProtocolFactory& factory);
  ~Network();

  /// Attaches a fault model; every per-neighbor copy from now on passes
  /// through it (drop / delay / deliver). Detach with nullptr. Each
  /// run()/run_until_quiescent() invocation starts a new fault epoch
  /// (LinkModel::begin_epoch).
  void set_link_model(std::unique_ptr<LinkModel> model);
  [[nodiscard]] const LinkModel* link_model() const noexcept { return link_model_.get(); }

  /// Executes rounds until every protocol is done and no message is queued
  /// or delayed in flight, or max_rounds elapse. Returns the number of
  /// rounds run.
  std::uint32_t run(std::uint32_t max_rounds);

  /// Lossy-mode driver: executes rounds until a *confirmed* quiet point —
  /// `window` consecutive rounds with no protocol-state progress (sum of
  /// Protocol::state_version unchanged) at which the driver's `converged`
  /// oracle, if provided, returns true — or until every protocol is done
  /// with nothing in flight, or max_rounds elapse. With ack-less periodic
  /// re-advertisement the channel never drains, so quiescence-of-state is
  /// the candidate termination criterion; the oracle is the sound half of
  /// the detector (a quiet window makes non-convergence unlikely, never
  /// impossible — at high loss every retransmission inside one window can
  /// die). When the oracle rejects a quiet point the idle counter restarts
  /// and the retransmission machinery gets another window to heal the gap;
  /// see reconvergence.hpp for why this terminates with probability 1.
  std::uint32_t run_until_quiescent(std::uint32_t window, std::uint32_t max_rounds,
                                    const std::function<bool()>& converged = {});

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t round() const noexcept { return stats_.rounds; }

  [[nodiscard]] Protocol& node(NodeId v) { return *protocols_[v]; }
  [[nodiscard]] const Protocol& node(NodeId v) const { return *protocols_[v]; }

  /// Replaces the topology (same node count) between run() calls; models
  /// the link-state restabilization scenario. In-flight messages
  /// (including link-model-delayed copies) are dropped, protocol state is
  /// kept.
  void change_topology(const Graph& g);

 private:
  friend class NodeContext;
  void enqueue_broadcast(NodeId from, Message msg);
  /// One full round: send phase, then receive phase (matured delayed
  /// copies first, then this round's sends through the link model).
  void step_round();
  /// Per-round telemetry: counter deltas into the metrics sink and one
  /// counter-sample trace event on the simulator lane (ts = round number —
  /// deterministic, no wall clock). Called only when a sink is installed.
  void publish_round_obs(const NetworkStats& before) const;
  void deliver(NodeId to, const Message& msg);
  [[nodiscard]] bool has_pending() const;
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] std::uint64_t progress_sum() const;

  /// A copy postponed by the link model, waiting for its delivery round.
  struct Pending {
    NodeId to;
    Message msg;
  };

  const Graph* g_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
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

}  // namespace remspan
