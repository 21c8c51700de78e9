// Convergence under loss — the contract of reconvergence.hpp: for any
// channel whose per-copy delivery probability is bounded away from zero
// (iid drop p < 1, Gilbert–Elliott bursts, bounded delay jitter, finitely
// scripted adversarial schedules), the reliable protocol variant reaches,
// at quiescence, the bit-exact per-node state of the lossless run — the
// global spanner, every node's advertised tree, and every node's scope-ball
// lists and tree views. Loss and delay cost rounds and messages, never
// correctness. All runs are seeded: these are deterministic regression
// tests, not statistical ones.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/registry.hpp"
#include "dynamic/churn_trace.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "sim/reconvergence.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

FaultConfig iid_faults(double drop, std::uint32_t delay = 0, std::uint32_t jitter = 0,
                       std::uint64_t seed = 1) {
  FaultConfig f;
  f.link.drop = drop;
  f.link.delay = delay;
  f.link.jitter = jitter;
  f.link.seed = seed;
  return f;
}

/// The lossy run must agree with the lossless reference on everything
/// observable: the global spanner, per-node advertised trees, and per-node
/// scope-ball knowledge (lists and tree views).
void expect_same_converged_state(ReconvergenceSim& lossy, ReconvergenceSim& lossless,
                                 const std::string& context) {
  ASSERT_EQ(lossy.graph().num_nodes(), lossless.graph().num_nodes()) << context;
  ASSERT_EQ(lossy.graph().num_edges(), lossless.graph().num_edges()) << context;
  ASSERT_EQ(lossy.spanner().edge_list(), lossless.spanner().edge_list()) << context;
  for (NodeId v = 0; v < lossy.graph().num_nodes(); ++v) {
    ASSERT_EQ(lossy.node(v).tree_edges(), lossless.node(v).tree_edges())
        << context << " node " << v;
    ASSERT_EQ(lossy.node(v).ball_lists(), lossless.node(v).ball_lists())
        << context << " node " << v;
    ASSERT_EQ(lossy.node(v).ball_trees(), lossless.node(v).ball_trees())
        << context << " node " << v;
  }
}

/// Replays `trace` twice — over the faulted channel and over the lossless
/// LOCAL channel — and asserts bit-exact converged state after the cold
/// start and after every batch.
void replay_and_compare_to_lossless(const ChurnTrace& trace, const RemSpanConfig& cfg,
                                    const FaultConfig& faults, const std::string& label,
                                    ReconvergeStrategy strategy = ReconvergeStrategy::kIncremental) {
  const Graph initial = trace.initial_graph();
  ReconvergenceSim lossless(initial, cfg, strategy);
  ReconvergenceSim lossy(initial, cfg, strategy, faults);
  expect_same_converged_state(lossy, lossless, label + " initial");
  for (std::size_t b = 0; b < trace.batches.size(); ++b) {
    const auto lossy_stats = lossy.apply_batch(trace.batches[b]);
    const auto lossless_stats = lossless.apply_batch(trace.batches[b]);
    const std::string context = label + " batch " + std::to_string(b);
    ASSERT_EQ(lossy_stats.inserted_edges, lossless_stats.inserted_edges) << context;
    ASSERT_EQ(lossy_stats.removed_edges, lossless_stats.removed_edges) << context;
    expect_same_converged_state(lossy, lossless, context);
  }
}

TEST(ReconvergenceLoss, IidLossSweepConvergesBitExactOnThreeFamilies) {
  Rng rng(31);
  const Graph gnp = connected_gnp(48, 0.12, rng);
  const auto udg = largest_component(uniform_unit_ball_graph(60, 3.8, 2, rng));
  const Graph grid = grid_graph(6, 6);

  struct FamilyCase {
    std::string name;
    ChurnTrace trace;
    RemSpanConfig cfg;
  };
  const FamilyCase families[] = {
      {"gnp", random_edge_churn_trace(gnp, 3, 4, 0.2, 101),
       RemSpanConfig{TreeRecipe::k_connecting(1)}},
      {"udg", mobility_churn_trace(udg, 3, 2, 102),
       RemSpanConfig{TreeRecipe::two_connecting(2)}},
      {"grid", random_edge_churn_trace(grid, 3, 3, 0.0, 103),
       RemSpanConfig{TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kMis)}},
  };
  // p = 0 rides the lossless fast path (faulty() == false) and pins that a
  // zero config changes nothing; the positive rates exercise the reliable
  // retransmit/backoff/quiescence machinery.
  for (const double p : {0.0, 0.05, 0.2, 0.5}) {
    for (const FamilyCase& fam : families) {
      replay_and_compare_to_lossless(fam.trace, fam.cfg, iid_faults(p, 0, 0, 7),
                                     fam.name + " p=" + std::to_string(p));
    }
  }
}

TEST(ReconvergenceLoss, DelayJitterConvergesBitExact) {
  // Reordered late copies (a round-i flood arriving after a round-i+2
  // recompute's flood) must be discarded by the monotone version
  // acceptance, never regress state.
  Rng rng(32);
  const Graph g = connected_gnp(44, 0.13, rng);
  const ChurnTrace trace = random_edge_churn_trace(g, 3, 4, 0.2, 104);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};
  for (const std::uint32_t jitter : {0u, 1u, 3u}) {
    for (const double p : {0.05, 0.2, 0.5}) {
      replay_and_compare_to_lossless(
          trace, cfg, iid_faults(p, /*delay=*/jitter == 0 ? 2 : 0, jitter, 8),
          "jitter=" + std::to_string(jitter) + " p=" + std::to_string(p));
    }
  }
}

TEST(ReconvergenceLoss, GilbertElliottBurstLossConvergesBitExact) {
  Rng rng(33);
  const auto udg = largest_component(uniform_unit_ball_graph(55, 3.6, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(udg, 3, 2, 105);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};
  for (const auto& [loss, burst] : {std::pair{0.2, 4.0}, std::pair{0.5, 8.0}}) {
    FaultConfig faults;
    faults.link.burst = GilbertElliott::from_loss_and_burst(loss, burst);
    faults.link.seed = 9;
    replay_and_compare_to_lossless(
        trace, cfg, faults,
        "burst loss=" + std::to_string(loss) + " len=" + std::to_string(burst));
  }
}

TEST(ReconvergenceLoss, AdversarialPartitionWindowConvergesBitExact) {
  // Schedule 1: black out the cut between the first half of the node set
  // and the rest for the first seven rounds of every epoch. Once the window
  // lapses, periodic re-advertisement heals both sides.
  Rng rng(34);
  const Graph g = connected_gnp(40, 0.15, rng);
  const ChurnTrace trace = random_edge_churn_trace(g, 3, 4, 0.2, 106);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};

  FaultConfig faults;
  PartitionWindow window;
  for (NodeId v = 0; v < g.num_nodes() / 2; ++v) window.side.push_back(v);
  window.from_round = 1;
  window.until_round = 8;
  faults.link.partitions.push_back(window);
  replay_and_compare_to_lossless(trace, cfg, faults, "partition [1,8)");

  // Partition plus background iid loss — the schedules compose.
  faults.link.drop = 0.1;
  faults.link.seed = 10;
  replay_and_compare_to_lossless(trace, cfg, faults, "partition [1,8) + p=0.1");
}

TEST(ReconvergenceLoss, AdversarialKillAndAttritionConvergeBitExact) {
  // Schedule 2: assassinate specific initial floods (origin 0's first list
  // flood, origin 1's first tree flood) and drop every 4th delivery attempt
  // globally. Retransmissions carry fresh seqs, so the kills cost rounds,
  // not correctness.
  Rng rng(35);
  const Graph g = connected_gnp(40, 0.15, rng);
  const ChurnTrace trace = random_edge_churn_trace(g, 3, 4, 0.2, 107);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};

  FaultConfig faults;
  faults.link.kills.push_back(FloodKill{0, 0});
  faults.link.kills.push_back(FloodKill{1, 1});
  faults.link.drop_every_nth = 4;
  replay_and_compare_to_lossless(trace, cfg, faults, "kills + every-4th");
}

TEST(ReconvergenceLoss, FullRefloodStrategyAlsoConvergesUnderLoss) {
  // The convergence-under-loss contract is strategy-independent: the
  // cold-start strawman must reach the lossless strawman's state too.
  Rng rng(36);
  const Graph g = connected_gnp(36, 0.15, rng);
  const ChurnTrace trace = random_edge_churn_trace(g, 2, 4, 0.2, 108);
  replay_and_compare_to_lossless(trace, RemSpanConfig{TreeRecipe::k_connecting(1)},
                                 iid_faults(0.2, 0, 1, 11), "reflood p=0.2",
                                 ReconvergeStrategy::kFullReflood);
}

TEST(ReconvergenceLoss, LossyRunsAreDeterministicForFixedSeed) {
  // Same seed + same LinkModel config => bit-identical per-batch stats
  // (including drop/delay accounting and rounds-to-quiescence) and state.
  // This is lint rule R5's determinism bar extended to the fault RNG path.
  Rng rng(37);
  const auto udg = largest_component(uniform_unit_ball_graph(50, 3.6, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(udg, 3, 2, 109);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};
  const FaultConfig faults = iid_faults(0.3, 1, 2, 12);

  ReconvergenceSim a(udg.graph, cfg, ReconvergeStrategy::kIncremental, faults);
  ReconvergenceSim b(udg.graph, cfg, ReconvergeStrategy::kIncremental, faults);
  EXPECT_EQ(a.initial_stats().rounds, b.initial_stats().rounds);
  EXPECT_EQ(a.initial_stats().drops, b.initial_stats().drops);
  EXPECT_EQ(a.initial_stats().delayed, b.initial_stats().delayed);
  EXPECT_EQ(a.initial_stats().transmissions, b.initial_stats().transmissions);
  for (std::size_t i = 0; i < trace.batches.size(); ++i) {
    const auto sa = a.apply_batch(trace.batches[i]);
    const auto sb = b.apply_batch(trace.batches[i]);
    EXPECT_EQ(sa.rounds, sb.rounds) << i;
    EXPECT_EQ(sa.transmissions, sb.transmissions) << i;
    EXPECT_EQ(sa.receptions, sb.receptions) << i;
    EXPECT_EQ(sa.payload_words, sb.payload_words) << i;
    EXPECT_EQ(sa.wire_bytes, sb.wire_bytes) << i;
    EXPECT_EQ(sa.drops, sb.drops) << i;
    EXPECT_EQ(sa.delayed, sb.delayed) << i;
    EXPECT_EQ(sa.advertising_nodes, sb.advertising_nodes) << i;
    EXPECT_EQ(sa.spanner_edges, sb.spanner_edges) << i;
    EXPECT_EQ(a.spanner().edge_list(), b.spanner().edge_list()) << i;
  }
}

TEST(ReconvergenceLoss, LossCostsRoundsNotCorrectness) {
  // The observable price of loss: more rounds and more messages than the
  // exact lossless schedule, with a nonzero drop account — never a
  // different spanner.
  Rng rng(38);
  const Graph g = connected_gnp(40, 0.15, rng);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};

  ReconvergenceSim lossless(g, cfg, ReconvergeStrategy::kIncremental);
  ReconvergenceSim lossy(g, cfg, ReconvergeStrategy::kIncremental, iid_faults(0.3, 0, 0, 13));
  EXPECT_EQ(lossless.initial_stats().rounds, cfg.expected_rounds());
  EXPECT_GT(lossy.initial_stats().rounds, lossless.initial_stats().rounds);
  EXPECT_GT(lossy.initial_stats().transmissions, lossless.initial_stats().transmissions);
  EXPECT_GT(lossy.initial_stats().drops, 0u);
  EXPECT_EQ(lossy.spanner().edge_list(), lossless.spanner().edge_list());
}

TEST(ReconvergenceLoss, DistributedRunUnderLossMatchesLosslessSpanner) {
  // The one-shot driver (run_remspan_distributed) under faults: the
  // reliable RemSpanProtocol with in-band sensing must union to the
  // identical spanner. Its lossy schedule is pinned exactly too, so a
  // change to the node program that shifts any kind's retransmission
  // pattern fails here, not only in the one golden config.
  struct Pinned {
    std::uint32_t rounds;
    std::uint64_t transmissions, receptions, payload_words, drops;
  };
  Rng rng(39);
  const Graph g = connected_gnp(42, 0.14, rng);
  const struct {
    RemSpanConfig cfg;
    Pinned at_p05, at_p30;
  } cases[] = {
      {RemSpanConfig{TreeRecipe::k_connecting(1)},
       {57, 1089, 5668, 6744, 328},
       {109, 1929, 7437, 11841, 3273}},
      {RemSpanConfig{TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kMis)},
       {82, 20888, 115415, 453887, 6265},
       {202, 34231, 141803, 756291, 60397}},
      {RemSpanConfig{.olsr_mpr = true},
       {58, 1078, 5584, 6449, 322},
       {87, 1560, 6013, 9104, 2603}},
  };
  for (const auto& [cfg, at_p05, at_p30] : cases) {
    const auto lossless = run_remspan_distributed(g, cfg);
    for (const auto& [p, pin] : {std::pair{0.05, at_p05}, std::pair{0.3, at_p30}}) {
      const auto lossy = run_remspan_distributed(g, cfg, iid_faults(p, 0, 1, 14));
      EXPECT_EQ(lossy.spanner.edge_list(), lossless.spanner.edge_list())
          << cfg.kind_name() << " p=" << p;
      EXPECT_GE(lossy.rounds, lossless.rounds) << cfg.kind_name();
      EXPECT_GT(lossy.stats.drops, 0u) << cfg.kind_name();
      EXPECT_EQ(lossy.rounds, pin.rounds) << cfg.kind_name() << " p=" << p;
      EXPECT_EQ(lossy.stats.transmissions, pin.transmissions) << cfg.kind_name() << " p=" << p;
      EXPECT_EQ(lossy.stats.receptions, pin.receptions) << cfg.kind_name() << " p=" << p;
      EXPECT_EQ(lossy.stats.payload_words, pin.payload_words) << cfg.kind_name() << " p=" << p;
      EXPECT_EQ(lossy.stats.drops, pin.drops) << cfg.kind_name() << " p=" << p;
    }
  }
}

// At 99.9 % loss no epoch on this graph converges within kLossyMaxRounds.
// Both drivers must say so instead of returning the unconverged nodes'
// spanner, which differs from the lossless one.
struct RoundCapCase {
  Graph g = [] {
    Rng rng(39);
    return connected_gnp(42, 0.14, rng);
  }();
  RemSpanConfig cfg{TreeRecipe::k_connecting(1)};
  FaultConfig faults = iid_faults(0.999, 0, 0, 3);
};

/// Asserts that `run` throws std::runtime_error naming the epoch round cap.
template <class Run>
void expect_round_cap_error(const Run& run) {
  try {
    run();
    ADD_FAILURE() << "no error at the round cap";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kLossyMaxRounds)), std::string::npos)
        << e.what();
  }
}

TEST(ReconvergenceLoss, DistributedRunThatReachesTheRoundCapThrows) {
  const RoundCapCase c;
  expect_round_cap_error([&c] { (void)run_remspan_distributed(c.g, c.cfg, c.faults); });
}

TEST(ReconvergenceLoss, SimThatReachesTheRoundCapThrowsFromItsConstructor) {
  const RoundCapCase c;
  expect_round_cap_error(
      [&c] { ReconvergenceSim sim(c.g, c.cfg, ReconvergeStrategy::kIncremental, c.faults); });
}

TEST(ReconvergenceLoss, SessionOpenedBySpecCarriesFaultsAndMeetsGuarantee) {
  // The api layer: loss parameters reach ReconvergenceSim sessions opened
  // by spec string, and the converged post-loss spanner still satisfies the
  // facade's stretch guarantee under the sampled exact oracle — quality,
  // not only bit-equality.
  Rng rng(40);
  const auto udg = largest_component(uniform_unit_ball_graph(60, 3.8, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(udg, 3, 2, 110);
  const api::SpannerSpec spec = api::SpannerSpec::th2(1);

  const auto lossless =
      api::open_reconvergence_session(udg.graph, spec, ReconvergeStrategy::kIncremental);
  const auto lossy = api::open_reconvergence_session(
      udg.graph, spec, ReconvergeStrategy::kIncremental, iid_faults(0.2, 0, 2, 15));
  EXPECT_TRUE(lossy->faults().faulty());
  for (const auto& batch : trace.batches) {
    lossy->apply_batch(batch);
    lossless->apply_batch(batch);
  }
  EXPECT_EQ(lossy->spanner().edge_list(), lossless->spanner().edge_list());
  EXPECT_EQ(lossy->spanner().edge_list(),
            api::build_spanner(lossy->graph(), spec).edges.edge_list());

  const api::VerifyFn oracle = api::make_verifier(spec);
  ASSERT_NE(oracle, nullptr);
  api::VerifyOptions opts;
  opts.sample_pairs = 200;
  opts.seed = 5;
  const api::VerifyReport report = oracle(lossy->graph(), lossy->spanner(), opts);
  EXPECT_TRUE(report.satisfied);
  EXPECT_GE(report.max_ratio, 1.0);
}

}  // namespace
}  // namespace remspan
