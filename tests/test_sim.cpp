// The synchronous network simulator and flooding primitive.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/synthetic.hpp"
#include "sim/flooding.hpp"
#include "sim/link_model.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

/// Broadcasts one HELLO in round 1 and records received HELLOs.
class HelloProtocol {
 public:
  void on_round(NodeContext& ctx) {
    if (!sent_) {
      Message msg;
      msg.type = 1;
      msg.origin = ctx.id();
      ctx.broadcast(std::move(msg));
      sent_ = true;
    }
  }
  void on_message(NodeContext&, const Message& msg) { heard.push_back(msg.origin); }
  [[nodiscard]] bool done() const { return sent_; }
  [[nodiscard]] std::uint64_t state_version() const { return 0; }

  std::vector<NodeId> heard;

 private:
  bool sent_ = false;
};

TEST(Network, HelloReachesExactlyNeighbors) {
  const Graph g = cycle_graph(6);
  Network net(g);
  std::vector<HelloProtocol> nodes(g.num_nodes());
  const auto rounds = net.run(std::span(nodes), 10);
  EXPECT_EQ(rounds, 1u);  // send and receive in the same LOCAL round
  for (NodeId v = 0; v < 6; ++v) {
    auto& p = nodes[v];
    std::sort(p.heard.begin(), p.heard.end());
    const std::vector<NodeId> expected{(v + 5) % 6, (v + 1) % 6};
    auto sorted = expected;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(p.heard, sorted) << "v=" << v;
  }
  EXPECT_EQ(net.stats().transmissions, 6u);
  EXPECT_EQ(net.stats().receptions, 12u);  // each of 6 messages heard twice
}

/// Floods one payload from node 0 with a given TTL.
class FloodOnce {
 public:
  explicit FloodOnce(std::uint32_t ttl) : ttl_(ttl) {}
  void on_round(NodeContext& ctx) {
    if (ctx.id() == 0 && !sent_) {
      flood_.originate(ctx, 7, ttl_, {42});
      sent_ = true;
    }
    started_ = true;
  }
  void on_message(NodeContext& ctx, const Message& msg) {
    if (msg.type != 7) return;
    ++deliveries_attempted;
    if (flood_.accept(ctx, msg)) received = true;
  }
  [[nodiscard]] bool done() const { return started_; }
  [[nodiscard]] std::uint64_t state_version() const { return 0; }

  bool received = false;
  int deliveries_attempted = 0;

 private:
  std::uint32_t ttl_;
  FloodManager flood_;
  bool sent_ = false;
  bool started_ = false;
};

TEST(Flooding, TtlLimitsReach) {
  const Graph g = path_graph(8);
  for (const std::uint32_t ttl : {1u, 2u, 4u, 7u}) {
    Network net(g);
    std::vector<FloodOnce> nodes(g.num_nodes(), FloodOnce(ttl));
    net.run(std::span(nodes), 20);
    for (NodeId v = 1; v < 8; ++v) {
      const auto& p = nodes[v];
      EXPECT_EQ(p.received, v <= ttl) << "ttl=" << ttl << " v=" << v;
    }
  }
}

TEST(Flooding, TtlFloodTakesTtlRounds) {
  const Graph g = path_graph(8);
  Network net(g);
  std::vector<FloodOnce> nodes(g.num_nodes(), FloodOnce(5));
  const auto rounds = net.run(std::span(nodes), 30);
  EXPECT_EQ(rounds, 5u);
}

TEST(Flooding, DuplicatesSuppressed) {
  // In a cycle the flood arrives from both sides: the far node must accept
  // the payload exactly once (one side wins, the other is a duplicate).
  const Graph g = cycle_graph(6);
  Network net(g);
  std::vector<FloodOnce> nodes(g.num_nodes(), FloodOnce(5));
  net.run(std::span(nodes), 20);
  const auto& far = nodes[3];
  EXPECT_TRUE(far.received);
  EXPECT_GE(far.deliveries_attempted, 2);  // heard from both directions
}

TEST(Flooding, EveryNodeForwardsAtMostOncePerFlood) {
  // Transmission count of a full flood (large ttl) is at most n.
  const Graph g = grid_graph(4, 4);
  Network net(g);
  std::vector<FloodOnce> nodes(g.num_nodes(), FloodOnce(10));
  net.run(std::span(nodes), 30);
  // 16 nodes: 1 origination + <= 15 forwards.
  EXPECT_LE(net.stats().transmissions, 16u);
  EXPECT_GE(net.stats().transmissions, 8u);
}

TEST(Flooding, TtlZeroIsNeverForwarded) {
  // A ttl = 0 origination still goes on the air once (it is a broadcast)
  // and reaches the direct neighbors, but no receiver ever forwards it.
  const Graph g = path_graph(4);
  Network net(g);
  std::vector<FloodOnce> nodes(g.num_nodes(), FloodOnce(0));
  net.run(std::span(nodes), 10);
  EXPECT_EQ(net.stats().transmissions, 1u);  // the origination only
  EXPECT_TRUE(nodes[1].received);
  EXPECT_FALSE(nodes[2].received);
  EXPECT_FALSE(nodes[3].received);
}

TEST(Flooding, ResetSeenReacceptsDuplicateExactlyOnce) {
  // After reset_seen() a previously seen (origin, seq) key is accepted
  // exactly once more — the suppression state restarts, the dedup logic
  // does not.
  const Graph g = path_graph(2);
  Network net(g);
  NodeContext ctx(net, 1);
  FloodManager fm;
  Message msg;
  msg.origin = 0;
  msg.seq = 7;
  msg.type = 9;
  msg.ttl = 1;
  EXPECT_TRUE(fm.accept(ctx, msg));
  EXPECT_FALSE(fm.accept(ctx, msg));
  EXPECT_FALSE(fm.accept(ctx, msg));
  fm.reset_seen();
  EXPECT_TRUE(fm.accept(ctx, msg));   // re-accepted exactly once...
  EXPECT_FALSE(fm.accept(ctx, msg));  // ...then suppressed again
}

TEST(Flooding, SeenStateStaysBoundedAcrossEpochs) {
  // Long replays must hold O(live keys), not O(floods ever seen): each
  // epoch's keys vanish at reset_seen() while the seq counter keeps
  // growing (so old keys can never collide with future floods).
  const Graph g = path_graph(2);
  Network net(g);
  NodeContext ctx(net, 0);
  FloodManager fm;
  std::uint32_t expected_seq = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 3; ++i) fm.originate(ctx, 9, 1, {});
    expected_seq += 3;
    // Plus one remote flood accepted this epoch.
    Message msg;
    msg.origin = 1;
    msg.seq = expected_seq;
    msg.type = 9;
    msg.ttl = 1;
    EXPECT_TRUE(fm.accept(ctx, msg));
    EXPECT_EQ(fm.seen_size(), 4u) << "epoch " << epoch;  // 3 own + 1 remote
    fm.reset_seen();
    EXPECT_EQ(fm.seen_size(), 0u) << "epoch " << epoch;
    EXPECT_EQ(fm.next_seq(), expected_seq);  // the counter survives the reset
  }
}

/// Offers the (origin, seq) flood key to `fm` as a ttl-1 message (never
/// forwarded); true when it was fresh.
bool offer(FloodManager& fm, NodeContext& ctx, NodeId origin, std::uint32_t seq) {
  Message msg;
  msg.origin = origin;
  msg.seq = seq;
  msg.type = 9;
  msg.ttl = 1;
  return fm.accept(ctx, msg);
}

TEST(Flooding, SeenSetKeepsEveryKeyPastItsInitialCapacity) {
  // The flat set starts small and doubles; every key inserted before a
  // growth must still be suppressed after it.
  const Graph g = path_graph(2);
  Network net(g);
  NodeContext ctx(net, 1);
  FloodManager fm;
  constexpr std::uint32_t kKeys = 5000;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(offer(fm, ctx, i % 13, i)) << i;
    ASSERT_FALSE(offer(fm, ctx, i % 13, i)) << i;
  }
  EXPECT_EQ(fm.seen_size(), kKeys);
  for (std::uint32_t i = 0; i < kKeys; ++i) EXPECT_FALSE(offer(fm, ctx, i % 13, i)) << i;
  EXPECT_EQ(fm.seen_size(), kKeys);
  EXPECT_EQ(net.stats().transmissions, 0u);  // ttl 1: nothing forwarded
}

TEST(Flooding, ResetSeenCyclesAreExactAndNeverSuppressOldKeys) {
  // 1000 epochs of varying size: the count is exact after every reset and
  // every insert, and a key from an earlier epoch is fresh again.
  const Graph g = path_graph(2);
  Network net(g);
  NodeContext ctx(net, 1);
  FloodManager fm;
  std::vector<std::pair<NodeId, std::uint32_t>> previous;
  std::uint32_t seq = 0;
  for (int epoch = 0; epoch < 1000; ++epoch) {
    fm.reset_seen();
    ASSERT_EQ(fm.seen_size(), 0u) << "epoch " << epoch;
    std::size_t expected = 0;
    for (const auto& [origin, old_seq] : previous) {
      ASSERT_TRUE(offer(fm, ctx, origin, old_seq)) << "epoch " << epoch;
      ASSERT_EQ(fm.seen_size(), ++expected);
    }
    previous.clear();
    const int fresh = 1 + (epoch * 7) % 97;  // crosses several capacities
    for (int i = 0; i < fresh; ++i) {
      const NodeId origin = static_cast<NodeId>(i % 5);
      ASSERT_TRUE(offer(fm, ctx, origin, seq)) << "epoch " << epoch;
      ASSERT_FALSE(offer(fm, ctx, origin, seq)) << "epoch " << epoch;
      ASSERT_EQ(fm.seen_size(), ++expected);
      previous.emplace_back(origin, seq++);
    }
  }
}

TEST(Flooding, KeysDifferingOnlyInOriginOrOnlyInSeqAreDistinct) {
  const Graph g = path_graph(2);
  Network net(g);
  NodeContext ctx(net, 1);
  FloodManager fm;
  // A full grid: every pair of keys differs only in origin, only in seq,
  // or in both.
  for (NodeId origin = 0; origin < 40; ++origin) {
    for (std::uint32_t seq = 0; seq < 40; ++seq) {
      ASSERT_TRUE(offer(fm, ctx, origin, seq)) << origin << "," << seq;
    }
  }
  EXPECT_EQ(fm.seen_size(), 1600u);
  for (NodeId origin = 0; origin < 40; ++origin) {
    for (std::uint32_t seq = 0; seq < 40; ++seq) EXPECT_FALSE(offer(fm, ctx, origin, seq));
  }
  // The two halves of the key never alias: (a, b) and (b, a), and the
  // extreme values of each half.
  constexpr std::uint32_t kMax = ~std::uint32_t{0};
  EXPECT_TRUE(offer(fm, ctx, 1000, 2000));
  EXPECT_TRUE(offer(fm, ctx, 2000, 1000));
  EXPECT_TRUE(offer(fm, ctx, kMax, 0));
  EXPECT_TRUE(offer(fm, ctx, 0, kMax));
  EXPECT_TRUE(offer(fm, ctx, kMax, kMax));
  EXPECT_TRUE(offer(fm, ctx, kMax - 1, kMax));
  EXPECT_TRUE(offer(fm, ctx, kMax, kMax - 1));
  EXPECT_FALSE(offer(fm, ctx, 0, kMax));
  EXPECT_FALSE(offer(fm, ctx, kMax, 0));
  EXPECT_EQ(fm.seen_size(), 1607u);
}

/// One call the network made into a Recorder node.
struct Call {
  std::uint32_t round = 0;
  NodeId node = kInvalidNode;
  NodeId from = kInvalidNode;  ///< kInvalidNode for on_round
  std::uint32_t sent = 0;      ///< send round stamped into the payload
  char tag = 0;                ///< 'a' or 'b': the sender's first or second message

  /// "R<node>" for on_round, "<node><<from><tag>" for a delivery.
  [[nodiscard]] std::string str() const {
    if (from == kInvalidNode) return "R" + std::to_string(node);
    return std::to_string(node) + "<" + std::to_string(from) + tag;
  }
};

/// Logs every on_round and on_message call into one shared transcript. For
/// `send_rounds` rounds each node broadcasts message 'a', and even nodes
/// then a second message 'b', each stamped with its send round.
class Recorder {
 public:
  Recorder(std::vector<Call>* log, std::uint32_t send_rounds)
      : log_(log), send_rounds_(send_rounds) {}
  void on_round(NodeContext& ctx) {
    log_->push_back({ctx.round(), ctx.id()});
    if (rounds_++ >= send_rounds_) return;
    send(ctx, 'a');
    if (ctx.id() % 2 == 0) send(ctx, 'b');
  }
  void on_message(NodeContext& ctx, const Message& msg) {
    log_->push_back({ctx.round(), ctx.id(), msg.from, msg.payload[0],
                     static_cast<char>(msg.payload[1])});
  }
  [[nodiscard]] bool done() const { return rounds_ >= send_rounds_; }
  [[nodiscard]] std::uint64_t state_version() const { return 0; }

 private:
  void send(NodeContext& ctx, char tag) {
    Message msg;
    msg.origin = ctx.id();
    msg.payload = {ctx.round(), static_cast<std::uint32_t>(tag)};
    ctx.broadcast(std::move(msg));
  }

  std::vector<Call>* log_;
  std::uint32_t send_rounds_;
  std::uint32_t rounds_ = 0;
};

/// Runs Recorder nodes on `g` (through `faults` when given) and returns the
/// transcript.
std::vector<Call> record(const Graph& g, std::uint32_t send_rounds,
                         const LinkModelConfig* faults = nullptr) {
  std::vector<Call> log;
  std::vector<Recorder> nodes(g.num_nodes(), Recorder(&log, send_rounds));
  Network net(g);
  if (faults != nullptr) net.set_link_model(std::make_unique<LinkModel>(*faults, g.num_nodes()));
  net.run(std::span(nodes), 50);
  return log;
}

/// The transcript as strings, checking that every copy arrived in the
/// round it was sent (the lossless LOCAL model).
std::vector<std::string> lossless_transcript(const Graph& g) {
  std::vector<std::string> out;
  for (const Call& c : record(g, 2)) {
    if (c.from != kInvalidNode) EXPECT_EQ(c.sent, c.round) << c.str();
    out.push_back(c.str());
  }
  return out;
}

TEST(Network, LosslessDeliveryOrderIsPinnedOnAPath) {
  // on_round runs in ascending node id. Deliveries go by ascending sender,
  // then the sender's message order, then the sender's CSR neighbor order.
  const std::vector<std::string> round = {
      "R0",  "R1",  "R2",  "R3",                 // send phase
      "1<0a", "1<0b",                            // sender 0: a, then b
      "0<1a", "2<1a",                            // sender 1
      "1<2a", "3<2a", "1<2b", "3<2b",            // sender 2: a to 1, 3; then b
      "2<3a"};                                   // sender 3
  std::vector<std::string> expected = round;
  expected.insert(expected.end(), round.begin(), round.end());
  EXPECT_EQ(lossless_transcript(path_graph(4)), expected);
}

TEST(Network, LosslessDeliveryOrderIsPinnedOnAStar) {
  const std::vector<std::string> round = {
      "R0",   "R1",   "R2",   "R3",                      // send phase
      "1<0a", "2<0a", "3<0a", "1<0b", "2<0b", "3<0b",    // the hub's a, then b
      "0<1a", "0<2a", "0<2b", "0<3a"};                   // the leaves
  std::vector<std::string> expected = round;
  expected.insert(expected.end(), round.begin(), round.end());
  EXPECT_EQ(lossless_transcript(star_graph(4)), expected);
}

TEST(Network, MaturedDelayedCopiesArriveBeforeThisRoundsSends) {
  // Within a round, copies arrive in ascending send round: every matured
  // delayed copy before any copy sent this round, older before younger.
  // Copies of one send round keep the lossless order (sender, message,
  // neighbor). With delay 1 no copy arrives in its send round; with delay
  // 0 some rounds mix matured and fresh copies.
  Rng rng(8);
  const Graph g = connected_gnp(12, 0.3, rng);
  std::size_t copies_per_round = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) copies_per_round += g.degree(v) * (v % 2 == 0 ? 2 : 1);
  for (const std::uint32_t delay : {1u, 0u}) {
    LinkModelConfig faults;
    faults.delay = delay;
    faults.jitter = 2;
    faults.seed = 4;
    const std::vector<Call> log = record(g, 4, &faults);
    bool mixed = false;
    std::size_t deliveries = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Call& c = log[i];
      if (c.from == kInvalidNode) continue;
      ++deliveries;
      EXPECT_GE(c.round, c.sent + delay) << c.str();
      EXPECT_LE(c.round, c.sent + delay + 2) << c.str();
      const Call& prev = log[i - 1];
      if (prev.from == kInvalidNode) continue;  // first delivery of its round
      ASSERT_EQ(prev.round, c.round);
      EXPECT_LE(prev.sent, c.sent) << "delay " << delay << ": " << prev.str() << " then "
                                   << c.str() << " in round " << c.round;
      if (prev.sent < c.sent) {
        mixed = mixed || c.sent == c.round;
        continue;
      }
      EXPECT_LT(std::tie(prev.from, prev.tag, prev.node), std::tie(c.from, c.tag, c.node))
          << "delay " << delay << ": " << prev.str() << " then " << c.str();
    }
    EXPECT_EQ(deliveries, 4 * copies_per_round);  // nothing dropped
    EXPECT_EQ(mixed, delay == 0) << "delay " << delay;
  }
}

TEST(Network, TopologyChangeDropsInflight) {
  const Graph g1 = path_graph(4);
  const Graph g2 = cycle_graph(4);
  Network net(g1);
  std::vector<FloodOnce> nodes(g1.num_nodes(), FloodOnce(3));
  net.run(std::span(nodes), 1);  // origination queued/delivered partially
  net.change_topology(g2);
  // Remaining forwards were dropped; run to quiescence.
  net.run(std::span(nodes), 10);
  SUCCEED();  // no crash, accounting consistent
  EXPECT_GE(net.stats().rounds, 1u);
}

}  // namespace
}  // namespace remspan
