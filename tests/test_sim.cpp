// The synchronous network simulator and flooding primitive.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "geom/synthetic.hpp"
#include "sim/flooding.hpp"
#include "sim/network.hpp"

namespace remspan {
namespace {

/// Broadcasts one HELLO in round 1 and records received HELLOs.
class HelloProtocol : public Protocol {
 public:
  void on_round(NodeContext& ctx) override {
    if (!sent_) {
      Message msg;
      msg.type = 1;
      msg.origin = ctx.id();
      ctx.broadcast(std::move(msg));
      sent_ = true;
    }
  }
  void on_message(NodeContext&, const Message& msg) override {
    heard.push_back(msg.origin);
  }
  [[nodiscard]] bool done() const override { return sent_; }

  std::vector<NodeId> heard;

 private:
  bool sent_ = false;
};

TEST(Network, HelloReachesExactlyNeighbors) {
  const Graph g = cycle_graph(6);
  Network net(g, [](NodeId) { return std::make_unique<HelloProtocol>(); });
  const auto rounds = net.run(10);
  EXPECT_EQ(rounds, 1u);  // send and receive in the same LOCAL round
  for (NodeId v = 0; v < 6; ++v) {
    auto& p = dynamic_cast<HelloProtocol&>(net.node(v));
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
class FloodOnce : public Protocol {
 public:
  explicit FloodOnce(std::uint32_t ttl) : ttl_(ttl) {}
  void on_round(NodeContext& ctx) override {
    if (ctx.id() == 0 && !sent_) {
      flood_.originate(ctx, 7, ttl_, {42});
      sent_ = true;
    }
    started_ = true;
  }
  void on_message(NodeContext& ctx, const Message& msg) override {
    if (msg.type != 7) return;
    ++deliveries_attempted;
    if (flood_.accept(ctx, msg)) received = true;
  }
  [[nodiscard]] bool done() const override { return started_; }

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
    Network net(g, [ttl](NodeId) { return std::make_unique<FloodOnce>(ttl); });
    net.run(20);
    for (NodeId v = 1; v < 8; ++v) {
      const auto& p = dynamic_cast<const FloodOnce&>(net.node(v));
      EXPECT_EQ(p.received, v <= ttl) << "ttl=" << ttl << " v=" << v;
    }
  }
}

TEST(Flooding, TtlFloodTakesTtlRounds) {
  const Graph g = path_graph(8);
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(5); });
  const auto rounds = net.run(30);
  EXPECT_EQ(rounds, 5u);
}

TEST(Flooding, DuplicatesSuppressed) {
  // In a cycle the flood arrives from both sides: the far node must accept
  // the payload exactly once (one side wins, the other is a duplicate).
  const Graph g = cycle_graph(6);
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(5); });
  net.run(20);
  const auto& far = dynamic_cast<const FloodOnce&>(net.node(3));
  EXPECT_TRUE(far.received);
  EXPECT_GE(far.deliveries_attempted, 2);  // heard from both directions
}

TEST(Flooding, EveryNodeForwardsAtMostOncePerFlood) {
  // Transmission count of a full flood (large ttl) is at most n.
  const Graph g = grid_graph(4, 4);
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(10); });
  net.run(30);
  // 16 nodes: 1 origination + <= 15 forwards.
  EXPECT_LE(net.stats().transmissions, 16u);
  EXPECT_GE(net.stats().transmissions, 8u);
}

TEST(Flooding, TtlZeroIsNeverForwarded) {
  // A ttl = 0 origination still goes on the air once (it is a broadcast)
  // and reaches the direct neighbors, but no receiver ever forwards it.
  const Graph g = path_graph(4);
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(0); });
  net.run(10);
  EXPECT_EQ(net.stats().transmissions, 1u);  // the origination only
  EXPECT_TRUE(dynamic_cast<const FloodOnce&>(net.node(1)).received);
  EXPECT_FALSE(dynamic_cast<const FloodOnce&>(net.node(2)).received);
  EXPECT_FALSE(dynamic_cast<const FloodOnce&>(net.node(3)).received);
}

TEST(Flooding, ResetSeenReacceptsDuplicateExactlyOnce) {
  // After reset_seen() a previously seen (origin, seq) key is accepted
  // exactly once more — the suppression state restarts, the dedup logic
  // does not.
  const Graph g = path_graph(2);
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(1); });
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
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(1); });
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
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(1); });
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
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(1); });
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
  Network net(g, [](NodeId) { return std::make_unique<FloodOnce>(1); });
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

TEST(Network, TopologyChangeDropsInflight) {
  const Graph g1 = path_graph(4);
  const Graph g2 = cycle_graph(4);
  Network net(g1, [](NodeId) { return std::make_unique<FloodOnce>(3); });
  net.run(1);  // origination queued/delivered partially
  net.change_topology(g2);
  // Remaining forwards were dropped; run to quiescence.
  net.run(10);
  SUCCEED();  // no crash, accounting consistent
  EXPECT_GE(net.stats().rounds, 1u);
}

}  // namespace
}  // namespace remspan
