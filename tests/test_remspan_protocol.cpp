// Distributed RemSpan protocol: the distributed union must equal the
// centralized construction edge-for-edge, within the paper's round budget.
#include <gtest/gtest.h>

#include <functional>

#include "analysis/stretch_oracle.hpp"
#include "core/remote_spanner.hpp"
#include "dynamic/churn_trace.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/reconvergence.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph test_graph(int which, std::uint64_t seed) {
  Rng rng(seed);
  switch (which % 4) {
    case 0:
      return connected_gnp(35, 0.15, rng);
    case 1:
      return grid_graph(6, 6);
    case 2: {
      const auto gg = uniform_unit_ball_graph(60, 4.0, 2, rng);
      const auto comps = connected_components(gg.graph);
      return induced_subgraph(gg.graph, comps.largest()).graph;
    }
    default:
      return cycle_graph(20);
  }
}

TEST(RemSpanProtocol, KConnGreedyMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 500 + static_cast<std::uint64_t>(which));
    for (const Dist k : {1u, 2u}) {
      const RemSpanConfig cfg{TreeRecipe::k_connecting(k)};
      const auto dist = run_remspan_distributed(g, cfg);
      const EdgeSet central = build_k_connecting_spanner(g, k);
      EXPECT_EQ(dist.spanner, central) << "graph=" << which << " k=" << k;
    }
  }
}

TEST(RemSpanProtocol, KConnMisMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 600 + static_cast<std::uint64_t>(which));
    const RemSpanConfig cfg{TreeRecipe::two_connecting(2)};
    const auto dist = run_remspan_distributed(g, cfg);
    const EdgeSet central = build_2connecting_spanner(g, 2);
    EXPECT_EQ(dist.spanner, central) << "graph=" << which;
  }
}

TEST(RemSpanProtocol, LowStretchGreedyMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 700 + static_cast<std::uint64_t>(which));
    for (const Dist r : {2u, 3u}) {
      const RemSpanConfig cfg{TreeRecipe::r_beta_tree(r, 1, TreeAlgorithm::kGreedy)};
      const auto dist = run_remspan_distributed(g, cfg);
      const EdgeSet central = build_remote_spanner(g, r, 1, TreeAlgorithm::kGreedy);
      EXPECT_EQ(dist.spanner, central) << "graph=" << which << " r=" << r;
    }
  }
}

TEST(RemSpanProtocol, LowStretchMisMatchesCentralized) {
  for (int which = 0; which < 4; ++which) {
    const Graph g = test_graph(which, 800 + static_cast<std::uint64_t>(which));
    const RemSpanConfig cfg{TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kMis)};
    const auto dist = run_remspan_distributed(g, cfg);
    const EdgeSet central = build_remote_spanner(g, 3, 1, TreeAlgorithm::kMis);
    EXPECT_EQ(dist.spanner, central) << "graph=" << which;
  }
}

TEST(RemSpanProtocol, BadTreeParametersAreRejectedBeforeAnyRound) {
  // r < 2, k < 1 and a MIS tree with beta != 1 are rejected by the recipe
  // factory that every protocol config is built from, so the failure comes
  // before any Network exists (`built` stays false), for the one-shot run
  // and for ReconvergenceSim alike — never from a node's tree compute in
  // the middle of a run.
  const Graph g = cycle_graph(12);
  const std::function<TreeRecipe()> bad[] = {
      [] { return TreeRecipe::r_beta_tree(1, 1, TreeAlgorithm::kGreedy); },
      [] { return TreeRecipe::r_beta_tree(1, 1, TreeAlgorithm::kMis); },
      [] { return TreeRecipe::r_beta_tree(3, 2, TreeAlgorithm::kMis); },
      [] { return TreeRecipe::r_beta_tree(3, 0, TreeAlgorithm::kMis); },
      [] { return TreeRecipe::low_stretch(0.0); },
      [] { return TreeRecipe::k_connecting(0); },
      [] { return TreeRecipe::two_connecting(0); },
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    bool built = false;
    EXPECT_THROW(
        {
          const RemSpanConfig cfg{bad[i]()};
          built = true;
          (void)run_remspan_distributed(g, cfg);
        },
        CheckError)
        << "case " << i;
    EXPECT_THROW(
        {
          const RemSpanConfig cfg{bad[i]()};
          built = true;
          const ReconvergenceSim sim(g, cfg, ReconvergeStrategy::kIncremental);
        },
        CheckError)
        << "case " << i;
    EXPECT_FALSE(built) << "case " << i;
  }
}

TEST(RemSpanProtocol, RoundCountMatchesPaperFormula) {
  // 2r - 1 + 2*beta rounds (Section 2.3), independent of n.
  for (const NodeId n : {20u, 60u}) {
    const Graph g = cycle_graph(n);
    {
      const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};  // r=2, beta=0 -> 3 rounds
      const auto run = run_remspan_distributed(g, cfg);
      EXPECT_EQ(run.rounds, 3u) << "n=" << n;
      EXPECT_EQ(run.rounds, cfg.expected_rounds());
    }
    {
      const RemSpanConfig cfg{TreeRecipe::r_beta_tree(4, 1, TreeAlgorithm::kGreedy)};  // 2r-1+2b
      const auto run = run_remspan_distributed(g, cfg);
      EXPECT_EQ(run.rounds, 2u * 4u - 1u + 2u) << "n=" << n;
      EXPECT_EQ(run.rounds, cfg.expected_rounds());
    }
  }
}

TEST(RemSpanProtocol, TopologyKnowledgeIsLocal) {
  // With scope s, a node must only know neighbor lists of nodes within
  // distance s — the protocol is local, the paper's key selling point.
  const Graph g = path_graph(12);
  const RemSpanConfig cfg{TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kGreedy)};  // scope 3
  Network net(g);
  std::vector<RemSpanProtocol> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.emplace_back(cfg, v);
  net.run(std::span(nodes), cfg.expected_rounds() + 2);
  const RemSpanProtocol& p0 = nodes[0];
  for (const auto& [origin, list] : p0.topology_knowledge()) {
    EXPECT_LE(origin, 3u);  // on a path, distance = id difference
  }
  // And it must know all of them (1..3; its own list comes from HELLOs).
  EXPECT_EQ(p0.topology_knowledge().size(), 3u);
}

TEST(RemSpanProtocol, MessageCountScalesWithScopeTimesN) {
  // Each node originates 2 floods of scope s: total transmissions are
  // O(n * ball(s)) on bounded-degree graphs — here we just check the exact
  // budget on a cycle: hello (n) + 2 floods, each forwarded by every node
  // within distance s-1... measured empirically and stable.
  const Graph g = cycle_graph(30);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};  // scope 1: no forwarding
  const auto run = run_remspan_distributed(g, cfg);
  // hello 30 + neighbor lists 30 + trees 30 = 90 transmissions exactly.
  EXPECT_EQ(run.stats.transmissions, 90u);
}

TEST(RemSpanProtocol, StretchOfDistributedResult) {
  const Graph g = test_graph(0, 900);
  const RemSpanConfig cfg{TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kMis)};
  const auto run = run_remspan_distributed(g, cfg);
  const Stretch s = stretch_for_radius(3);
  EXPECT_TRUE(check_remote_stretch(g, run.spanner, s).satisfied);
}

TEST(RemSpanProtocol, RestabilizesAfterTopologyChange) {
  // Run on g1, then rerun fresh protocols on g2 (periodic re-advertisement
  // in OLSR terms): result equals centralized on g2.
  Rng rng(901);
  const Graph g2 = connected_gnp(30, 0.15, rng);
  const RemSpanConfig cfg{TreeRecipe::k_connecting(1)};
  const auto run2 = run_remspan_distributed(g2, cfg);
  EXPECT_EQ(run2.spanner, build_k_connecting_spanner(g2, 1));
}

/// Every count a seeded lossy reconvergence run produces, summed over the
/// cold start and every batch.
struct LossyCounts {
  std::uint64_t rounds = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t receptions = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t flood_accepts = 0;
  std::uint64_t flood_dups = 0;
};

LossyCounts run_lossy_mobility(const RemSpanConfig& cfg) {
  Rng rng(2024);
  const GeometricGraph gg = largest_component(uniform_unit_ball_graph(150, 7.8, 2, rng));
  const ChurnTrace trace = mobility_churn_trace(gg, 6, 3, 7);
  FaultConfig faults;
  faults.link.drop = 0.1;
  faults.link.seed = 5;
  LossyCounts c;
  obs::Registry reg;
  {
    const obs::ScopedSinks sinks(&reg, nullptr);
    ReconvergenceSim sim(trace.initial_graph(), cfg, ReconvergeStrategy::kIncremental, faults);
    const auto add = [&c](const ReconvergeBatchStats& s) {
      c.rounds += s.rounds;
      c.transmissions += s.transmissions;
      c.receptions += s.receptions;
      c.drops += s.drops;
    };
    add(sim.initial_stats());
    for (const auto& batch : trace.batches) add(sim.apply_batch(batch));
  }
  const obs::Snapshot snap = reg.snapshot();
  const auto counter = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.retransmissions = counter("sim.retransmissions");
  c.flood_accepts = counter("sim.flood_accepts");
  c.flood_dups = counter("sim.flood_dups");
  return c;
}

void expect_counts(const LossyCounts& got, const LossyCounts& want, const char* label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.transmissions, want.transmissions) << label;
  EXPECT_EQ(got.receptions, want.receptions) << label;
  EXPECT_EQ(got.drops, want.drops) << label;
  EXPECT_EQ(got.retransmissions, want.retransmissions) << label;
  EXPECT_EQ(got.flood_accepts, want.flood_accepts) << label;
  EXPECT_EQ(got.flood_dups, want.flood_dups) << label;
}

TEST(RemSpanProtocol, LossyMessageCountsArePinned) {
  // Every accept, duplicate and stale-copy decision of the receive path
  // feeds these counts: a rejected fresh copy or an accepted stale one
  // changes the rounds to quiescence and the retransmissions. Scope 1 never
  // forwards; scope 2 forwards and suppresses duplicates.
  const RemSpanConfig scope1{TreeRecipe::k_connecting(1)};  // th2?k=1
  ASSERT_EQ(scope1.flood_scope(), 1u);
  expect_counts(run_lossy_mobility(scope1), {437, 9542, 61132, 6713, 3896, 57533, 0}, "scope 1");

  const RemSpanConfig scope2{TreeRecipe::r_beta_tree(2, 1, TreeAlgorithm::kGreedy)};
  ASSERT_EQ(scope2.flood_scope(), 2u);
  const LossyCounts c2 = run_lossy_mobility(scope2);
  EXPECT_GT(c2.flood_dups, 0u);
  expect_counts(c2, {478, 93153, 687704, 76549, 5495, 203533, 479455}, "scope 2");
}

}  // namespace
}  // namespace remspan
