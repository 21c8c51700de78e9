// The shared random-graph corpus of the equivalence suites. Every suite
// that pins bit-exactness (domtree hot path, incremental maintenance,
// observability no-feedback, shard invariance) sweeps the same families,
// seeds and parameter grids, so the corpus lives here once instead of
// drifting apart across test files.
//
// Determinism conventions (docs/TESTING.md): every graph is a pure
// function of (family, seed) — generators draw from an explicitly seeded
// Rng and never from ambient randomness — so a failure reproduces from the
// test's printed label alone.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace remspan::testsupport {

/// Families of equivalence_family(): each exercises a different ball
/// geometry (sparse/dense Gnp, grid, unit-ball, hypercube, bipartite).
inline constexpr int kNumEquivalenceFamilies = 6;

/// The static-equivalence corpus (domtree and shard suites): small graphs
/// whose full family x seed x parameter sweep stays tier-1 fast.
inline Graph equivalence_family(int which, std::uint64_t seed) {
  Rng rng(seed);
  switch (which % kNumEquivalenceFamilies) {
    case 0:
      return connected_gnp(48, 0.10, rng);
    case 1:
      return grid_graph(8, 6);
    case 2:
      return connected_gnp(30, 0.25, rng);  // dense: big shells, heavy covers
    case 3: {
      const auto gg = uniform_unit_ball_graph(70, 5.0, 2, rng);
      const auto comps = connected_components(gg.graph);
      return induced_subgraph(gg.graph, comps.largest()).graph;
    }
    case 4:
      return hypercube_graph(5);
    default:
      return complete_bipartite(6, 8);
  }
}

/// Families of churn_family(): larger graphs for the dynamic-maintenance
/// sweeps (>= 3 per the PR-3 acceptance criteria; each a different ball
/// geometry).
inline constexpr int kNumChurnFamilies = 3;

inline Graph churn_family(int family, std::uint64_t seed) {
  Rng rng(seed);
  switch (family % kNumChurnFamilies) {
    case 0:
      return connected_gnp(90, 0.06, rng);
    case 1: {
      const auto gg = largest_component(uniform_unit_ball_graph(110, 5.5, 2, rng));
      return gg.graph;
    }
    default:
      return watts_strogatz(100, 6, 0.1, rng);
  }
}

/// A mid-size UDG largest component: the single-graph corpus of suites
/// that need one realistic topology rather than a family sweep (obs).
inline Graph observability_graph(std::uint64_t seed) {
  Rng rng(seed);
  const auto gg = random_unit_disk_graph(5.0, 160, rng);
  return largest_component(gg.graph);
}

// Parameter grids of the per-algorithm sweeps. The suites iterate these
// instead of inlining literals so every equivalence harness proves the
// same parameter space.
inline constexpr Dist kGreedyRadii[] = {2, 3, 4};
inline constexpr Dist kGreedyBetas[] = {0, 1, 2};
inline constexpr Dist kMisRadii[] = {2, 3, 5};
inline constexpr Dist kGreedyKs[] = {1, 2, 3, 5};
inline constexpr Dist kMisKs[] = {1, 2, 3};

/// The incremental-maintenance construction sweep: one recipe per
/// construction family the dynamic engine supports.
inline std::vector<TreeRecipe> incremental_sweep_configs() {
  return {
      TreeRecipe::k_connecting(1),
      TreeRecipe::k_connecting(2),
      TreeRecipe::two_connecting(2),
      TreeRecipe::r_beta_tree(3, 1, TreeAlgorithm::kGreedy),
      TreeRecipe::r_beta_tree(2, 0, TreeAlgorithm::kGreedy),
      TreeRecipe::low_stretch(0.5, TreeAlgorithm::kMis),
  };
}

/// A seeded batch (0-11 draws) mixing every kind of event a batch delta
/// must net out: edge up/down, duplicates, no-ops, an absent edge up then
/// down, a stored edge down then up, and node down/up with incident edges.
/// Slots freed by one batch are reused by the next as a matter of course.
inline std::vector<GraphEvent> mixed_churn_batch(const DynamicGraph& dg, Rng& rng) {
  const NodeId n = dg.num_nodes();
  const auto pair = [&] {
    const auto a = static_cast<NodeId>(rng.uniform(n));
    auto b = static_cast<NodeId>(rng.uniform(n));
    if (a == b) b = (b + 1) % n;
    return make_edge(a, b);
  };
  const auto stored = [&] {
    // A stored edge when one is found quickly, else any pair.
    for (int tries = 0; tries < 20; ++tries) {
      const Edge e = pair();
      if (dg.has_edge(e.u, e.v)) return e;
    }
    return pair();
  };
  std::vector<GraphEvent> batch;
  const auto size = static_cast<int>(rng.uniform(12));
  for (int i = 0; i < size; ++i) {
    const double roll = rng.uniform_real();
    if (roll < 0.25) {
      const Edge e = pair();
      batch.push_back(GraphEvent::edge_up(e.u, e.v));
    } else if (roll < 0.5) {
      const Edge e = stored();
      batch.push_back(GraphEvent::edge_down(e.u, e.v));
    } else if (roll < 0.6 && !batch.empty()) {
      batch.push_back(batch[rng.uniform(batch.size())]);  // duplicate
    } else if (roll < 0.7) {
      const Edge e = pair();  // up then down: net nothing if it was absent
      batch.push_back(GraphEvent::edge_up(e.u, e.v));
      batch.push_back(GraphEvent::edge_down(e.u, e.v));
    } else if (roll < 0.8) {
      const Edge e = stored();  // down then up: the same cell, the same slot
      batch.push_back(GraphEvent::edge_down(e.u, e.v));
      batch.push_back(GraphEvent::edge_up(e.u, e.v));
    } else {
      const auto v = static_cast<NodeId>(rng.uniform(n));
      batch.push_back(rng.bernoulli(0.5) ? GraphEvent::node_down(v) : GraphEvent::node_up(v));
    }
  }
  return batch;
}

}  // namespace remspan::testsupport
