// SpannerSnapshot: the immutable epoch-tagged unit of publication in the
// multi-tenant service.
//
// A tenant's drainer applies a coalesced batch to its IncrementalSpanner,
// then freezes the result — the versioned CSR snapshot (shared ownership of
// the same immutable Graph the engine advanced to) plus a copy of the
// spanner's edge bitset and the batch's build info — into one object
// published as a shared_ptr behind a per-tenant mutex, held only for the
// pointer copy or swap (never while a batch applies). Readers copy the
// pointer once and answer any number of queries (contains-edge, spanner
// extraction, stats, sampled remote stretch) against a perfectly stable
// world, with no further locking and no waiting on the writer rebuilding
// the next epoch. Old
// epochs stay fully valid for as long as any reader holds them: the
// shared_ptr keeps the CSR alive even after the tenant's DynamicGraph has
// re-materialized many newer snapshots (pinned by the keep-alive
// regression test in tests/test_serve.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/spanner_stats.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"

namespace remspan::serve {

/// Provenance of one published epoch.
struct SnapshotInfo {
  std::uint64_t epoch = 0;          ///< 0 for the open-time build, then +1 per batch
  std::uint64_t graph_version = 0;  ///< DynamicGraph::version() at publication
  std::uint64_t batches_applied = 0;   ///< cumulative coalesced batches
  std::uint64_t events_applied = 0;    ///< cumulative coalesced events
  ChurnBatchStats last_batch{};        ///< stats of the producing batch
};

class SpannerSnapshot {
 public:
  /// Freezes `graph` + `spanner_bits` (one bit per graph edge id) at
  /// `info`. The graph is shared, the bits are owned: nothing in the
  /// snapshot aliases tenant state that a later batch could mutate.
  SpannerSnapshot(std::shared_ptr<const Graph> graph, DynamicBitset spanner_bits,
                  SnapshotInfo info);

  [[nodiscard]] std::uint64_t epoch() const noexcept { return info_.epoch; }
  [[nodiscard]] const SnapshotInfo& info() const noexcept { return info_; }

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const EdgeSet& spanner() const noexcept { return spanner_; }

  [[nodiscard]] std::size_t num_spanner_edges() const noexcept { return spanner_edges_; }

  /// Whether {a, b} is a spanner edge of this epoch. Out-of-range ids and
  /// non-edges are simply absent (false), not errors — the service answers
  /// queries about nodes a tenant's topology may not have.
  [[nodiscard]] bool contains(NodeId a, NodeId b) const noexcept;

  /// The spanner edges in canonical order.
  [[nodiscard]] std::vector<Edge> spanner_edges() const { return spanner_.edge_list(); }

  [[nodiscard]] SpannerStats stats() const { return compute_spanner_stats(spanner_); }

  /// Sampled remote-stretch probe: for `pairs` seeded (u, v) draws, the
  /// worst d_{H_u}(u, v) / d_G(u, v) over connected nonadjacent pairs
  /// (1.0 when no draw hits one). Uses the oracle identity
  /// d_{H_u}(u, .) = BFS in H seeded with u at 0 and u's G-neighbors at 1,
  /// so each draw costs two BFS passes — cheap enough to serve online,
  /// deterministic in (pairs, seed) for a given epoch.
  [[nodiscard]] double sampled_stretch(std::size_t pairs, std::uint64_t seed) const;

 private:
  std::shared_ptr<const Graph> graph_;  // declared before spanner_: EdgeSet borrows it
  EdgeSet spanner_;
  std::size_t spanner_edges_ = 0;
  SnapshotInfo info_;
};

}  // namespace remspan::serve
