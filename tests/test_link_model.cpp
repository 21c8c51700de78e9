// The fault-injection layer: LinkModel decisions (Bernoulli loss, bursts,
// delay/jitter, adversarial schedules) must be deterministic pure functions
// of (seed, link, round, message), and the Network must account every
// dropped or postponed copy. Lint rule R5 bans ambient randomness; these
// tests pin the seeded-PRF path the model uses instead.
#include <gtest/gtest.h>

#include <algorithm>

#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "sim/flooding.hpp"
#include "sim/link_model.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Message make_msg(NodeId origin, std::uint32_t seq, std::uint32_t type = 2) {
  Message msg;
  msg.origin = origin;
  msg.seq = seq;
  msg.type = type;
  return msg;
}

TEST(LinkModel, DefaultConfigIsNotFaulty) {
  const LinkModelConfig def;
  EXPECT_FALSE(def.faulty());
  EXPECT_EQ(def.max_delay(), 0u);

  LinkModelConfig c;
  c.drop = 0.1;
  EXPECT_TRUE(c.faulty());
  c = LinkModelConfig{};
  c.delay = 1;
  EXPECT_TRUE(c.faulty());
  c = LinkModelConfig{};
  c.jitter = 2;
  EXPECT_TRUE(c.faulty());
  EXPECT_EQ(c.max_delay(), 2u);
  c = LinkModelConfig{};
  c.drop_every_nth = 5;
  EXPECT_TRUE(c.faulty());
  c = LinkModelConfig{};
  c.burst = GilbertElliott::from_loss_and_burst(0.2, 4.0);
  EXPECT_TRUE(c.faulty());
  c = LinkModelConfig{};
  c.kills.push_back(FloodKill{0, 0});
  EXPECT_TRUE(c.faulty());
}

TEST(LinkModel, FromLossAndBurstHitsStationaryRate) {
  for (const double loss : {0.05, 0.2, 0.5}) {
    for (const double burst : {1.0, 4.0, 10.0}) {
      const GilbertElliott ge = GilbertElliott::from_loss_and_burst(loss, burst);
      ASSERT_TRUE(ge.enabled());
      // Mean Bad sojourn is 1/p_bad_to_good.
      EXPECT_NEAR(1.0 / ge.p_bad_to_good, burst, 1e-12);
      // Stationary Bad fraction (= loss rate with drop_bad=1, drop_good=0).
      const double pi_bad = ge.p_good_to_bad / (ge.p_good_to_bad + ge.p_bad_to_good);
      EXPECT_NEAR(pi_bad, loss, 1e-12);
    }
  }
  EXPECT_FALSE(GilbertElliott::from_loss_and_burst(0.0, 4.0).enabled());
}

TEST(LinkModel, DecisionsAreDeterministicPerSeed) {
  LinkModelConfig cfg;
  cfg.drop = 0.3;
  cfg.jitter = 3;
  cfg.seed = 42;
  LinkModel a(cfg, 10);
  LinkModel b(cfg, 10);
  a.begin_epoch(0);
  b.begin_epoch(0);
  bool any_drop = false;
  bool any_deliver = false;
  for (std::uint32_t round = 1; round <= 50; ++round) {
    for (NodeId u = 0; u < 4; ++u) {
      for (NodeId v = 0; v < 4; ++v) {
        if (u == v) continue;
        const Message msg = make_msg(u, round);
        const LinkDecision da = a.decide(round, u, v, msg);
        const LinkDecision db = b.decide(round, u, v, msg);
        EXPECT_EQ(da.deliver, db.deliver);
        EXPECT_EQ(da.delay, db.delay);
        any_drop = any_drop || !da.deliver;
        any_deliver = any_deliver || da.deliver;
        if (da.deliver) EXPECT_LE(da.delay, cfg.max_delay());
      }
    }
  }
  EXPECT_TRUE(any_drop);
  EXPECT_TRUE(any_deliver);
}

TEST(LinkModel, DifferentSeedsGiveDifferentDecisionSequences) {
  LinkModelConfig cfg;
  cfg.drop = 0.5;
  cfg.seed = 1;
  LinkModel a(cfg, 4);
  cfg.seed = 2;
  LinkModel b(cfg, 4);
  a.begin_epoch(0);
  b.begin_epoch(0);
  int disagreements = 0;
  for (std::uint32_t round = 1; round <= 100; ++round) {
    const Message msg = make_msg(0, round);
    if (a.decide(round, 0, 1, msg).deliver != b.decide(round, 0, 1, msg).deliver) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(LinkModel, DropEveryNthDropsExactlyEveryNth) {
  LinkModelConfig cfg;
  cfg.drop_every_nth = 3;
  LinkModel model(cfg, 4);
  model.begin_epoch(0);
  int drops = 0;
  for (int attempt = 1; attempt <= 30; ++attempt) {
    const LinkDecision d = model.decide(1, 0, 1, make_msg(0, 0));
    EXPECT_EQ(d.deliver, attempt % 3 != 0) << "attempt " << attempt;
    if (!d.deliver) ++drops;
  }
  EXPECT_EQ(drops, 10);
  // begin_epoch restarts the attempt counter.
  model.begin_epoch(10);
  EXPECT_TRUE(model.decide(10, 0, 1, make_msg(0, 0)).deliver);
}

TEST(LinkModel, PartitionWindowBlocksExactlyCutCopiesInWindow) {
  LinkModelConfig cfg;
  cfg.partitions.push_back(PartitionWindow{{0, 1}, 1, 4});  // epoch rounds 1..3
  LinkModel model(cfg, 4);
  model.begin_epoch(0);
  for (std::uint32_t round = 1; round <= 6; ++round) {
    const bool in_window = round < 4;
    // Cut-crossing copies (both directions) drop inside the window only.
    EXPECT_EQ(model.decide(round, 1, 2, make_msg(1, round)).deliver, !in_window);
    EXPECT_EQ(model.decide(round, 2, 1, make_msg(2, round)).deliver, !in_window);
    // Same-side copies always pass.
    EXPECT_TRUE(model.decide(round, 0, 1, make_msg(0, round)).deliver);
    EXPECT_TRUE(model.decide(round, 2, 3, make_msg(2, round)).deliver);
  }
  // Windows are epoch-relative: a new epoch rearms the blackout.
  model.begin_epoch(100);
  EXPECT_FALSE(model.decide(101, 1, 2, make_msg(1, 7)).deliver);
}

TEST(LinkModel, FloodKillDropsOnlyTheNamedFlood) {
  LinkModelConfig cfg;
  cfg.kills.push_back(FloodKill{2, 5});
  LinkModel model(cfg, 4);
  model.begin_epoch(0);
  EXPECT_FALSE(model.decide(1, 2, 3, make_msg(2, 5)).deliver);
  EXPECT_FALSE(model.decide(2, 0, 1, make_msg(2, 5)).deliver);  // forwarded copy
  EXPECT_TRUE(model.decide(1, 2, 3, make_msg(2, 6)).deliver);   // fresh seq survives
  EXPECT_TRUE(model.decide(1, 3, 2, make_msg(3, 5)).deliver);   // other origin
}

TEST(LinkModel, JitterStaysInRangeAndVaries) {
  LinkModelConfig cfg;
  cfg.delay = 2;
  cfg.jitter = 3;
  cfg.seed = 7;
  LinkModel model(cfg, 4);
  model.begin_epoch(0);
  std::vector<std::uint32_t> extras;
  for (std::uint32_t round = 1; round <= 60; ++round) {
    const LinkDecision d = model.decide(round, 0, 1, make_msg(0, round));
    ASSERT_TRUE(d.deliver);
    EXPECT_GE(d.delay, cfg.delay);
    EXPECT_LE(d.delay, cfg.max_delay());
    extras.push_back(d.delay);
  }
  std::sort(extras.begin(), extras.end());
  extras.erase(std::unique(extras.begin(), extras.end()), extras.end());
  EXPECT_GE(extras.size(), 2u);  // the jitter draw actually varies
}

TEST(LinkModel, GilbertElliottLossComesInBursts) {
  LinkModelConfig cfg;
  cfg.burst = GilbertElliott::from_loss_and_burst(0.3, 5.0);
  cfg.seed = 3;
  LinkModel model(cfg, 2);
  model.begin_epoch(0);
  int drops = 0;
  int drop_runs = 0;
  bool prev_dropped = false;
  int longest_run = 0;
  int run = 0;
  for (std::uint32_t round = 1; round <= 400; ++round) {
    const bool dropped = !model.decide(round, 0, 1, make_msg(0, round)).deliver;
    if (dropped) {
      ++drops;
      ++run;
      if (!prev_dropped) ++drop_runs;
      longest_run = std::max(longest_run, run);
    } else {
      run = 0;
    }
    prev_dropped = dropped;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 400);
  // Bursty, not iid: with mean Bad sojourn 5 the drops cluster into far
  // fewer runs than their count, and some burst spans several rounds.
  EXPECT_LT(2 * drop_runs, drops);
  EXPECT_GE(longest_run, 3);
}

/// Broadcasts one HELLO in round 1 and records arrival rounds.
class StampedHello {
 public:
  void on_round(NodeContext& ctx) {
    if (sent_) return;
    Message msg;
    msg.type = 1;
    msg.origin = ctx.id();
    ctx.broadcast(std::move(msg));
    sent_ = true;
  }
  void on_message(NodeContext& ctx, const Message& msg) {
    arrivals.emplace_back(msg.origin, ctx.round());
  }
  [[nodiscard]] bool done() const { return sent_; }
  [[nodiscard]] std::uint64_t state_version() const { return 0; }

  std::vector<std::pair<NodeId, std::uint32_t>> arrivals;

 private:
  bool sent_ = false;
};

TEST(LinkModel, FixedDelayPostponesDeliveryExactly) {
  const Graph g = path_graph(2);
  LinkModelConfig cfg;
  cfg.delay = 3;
  Network net(g);
  std::vector<StampedHello> nodes(g.num_nodes());
  net.set_link_model(std::make_unique<LinkModel>(cfg, g.num_nodes()));
  const auto rounds = net.run(std::span(nodes), 20);
  // Sent in round 1, delivered in round 1 + 3; the run drains the delayed
  // copies before stopping.
  EXPECT_EQ(rounds, 4u);
  for (NodeId v = 0; v < 2; ++v) {
    const auto& p = nodes[v];
    ASSERT_EQ(p.arrivals.size(), 1u) << "v=" << v;
    EXPECT_EQ(p.arrivals[0].second, 4u) << "v=" << v;
  }
  EXPECT_EQ(net.stats().delayed, 2u);
  EXPECT_EQ(net.stats().drops, 0u);
  EXPECT_EQ(net.stats().receptions, 2u);
}

TEST(LinkModel, NetworkAccountsDropsAndDeliversTheRest) {
  Rng rng(5);
  const Graph g = connected_gnp(24, 0.3, rng);
  LinkModelConfig cfg;
  cfg.drop = 0.4;
  cfg.seed = 11;
  Network net(g);
  std::vector<StampedHello> nodes(g.num_nodes());
  net.set_link_model(std::make_unique<LinkModel>(cfg, g.num_nodes()));
  net.run(std::span(nodes), 10);
  const NetworkStats& s = net.stats();
  EXPECT_EQ(s.transmissions, 24u);
  EXPECT_GT(s.drops, 0u);
  EXPECT_GT(s.receptions, 0u);
  // Every per-neighbor copy is either delivered, dropped or (here, no
  // delay) nothing else: attempts = 2m.
  EXPECT_EQ(s.receptions + s.drops, 2 * g.num_edges());
  EXPECT_EQ(s.delayed, 0u);
}

TEST(LinkModel, SameSeedSameNetworkStatsAcrossRuns) {
  Rng rng(6);
  const Graph g = connected_gnp(30, 0.2, rng);
  LinkModelConfig cfg;
  cfg.drop = 0.25;
  cfg.delay = 1;
  cfg.jitter = 2;
  cfg.seed = 99;

  auto run_once = [&] {
    Network net(g);
    std::vector<StampedHello> nodes(g.num_nodes());
    net.set_link_model(std::make_unique<LinkModel>(cfg, g.num_nodes()));
    net.run(std::span(nodes), 30);
    std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> arrivals;
    for (const StampedHello& p : nodes) arrivals.push_back(p.arrivals);
    return std::make_pair(net.stats(), arrivals);
  };

  const auto [sa, aa] = run_once();
  const auto [sb, ab] = run_once();
  EXPECT_EQ(sa.transmissions, sb.transmissions);
  EXPECT_EQ(sa.receptions, sb.receptions);
  EXPECT_EQ(sa.payload_words, sb.payload_words);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.delayed, sb.delayed);
  EXPECT_EQ(sa.rounds, sb.rounds);
  EXPECT_EQ(aa, ab);  // per-node arrival history bit-identical
}

TEST(LinkModel, LosslessModelMatchesNoModelBitExactly) {
  // An attached-but-all-zero model must not perturb anything: same stats as
  // the plain LOCAL network (the decide() path returns {true, 0} always).
  Rng rng(7);
  const Graph g = connected_gnp(20, 0.25, rng);
  Network plain(g);
  std::vector<StampedHello> plain_nodes(g.num_nodes());
  const auto rounds_plain = plain.run(std::span(plain_nodes), 10);

  Network modeled(g);
  std::vector<StampedHello> modeled_nodes(g.num_nodes());
  modeled.set_link_model(std::make_unique<LinkModel>(LinkModelConfig{}, g.num_nodes()));
  const auto rounds_modeled = modeled.run(std::span(modeled_nodes), 10);

  EXPECT_EQ(rounds_plain, rounds_modeled);
  EXPECT_EQ(plain.stats().receptions, modeled.stats().receptions);
  EXPECT_EQ(plain.stats().transmissions, modeled.stats().transmissions);
  EXPECT_EQ(modeled.stats().drops, 0u);
  EXPECT_EQ(modeled.stats().delayed, 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(plain_nodes[v].arrivals, modeled_nodes[v].arrivals);
  }
}

}  // namespace
}  // namespace remspan
