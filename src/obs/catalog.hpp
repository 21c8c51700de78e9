// The metric catalog: one compile-time row (id, name, kind, unit, help) per
// metric the library emits. Call sites write by id — obs::add(Metric::
// kBfsRuns, 1), obs::record(Metric::kDomtreeTreeEdges, e) — so a hot write
// is an array index, never a string or a map lookup. An id is the only
// way to write a metric: there is no name-keyed write path, so every metric
// the library can emit is a row here. Names only reappear when
// Registry::snapshot() folds the cells into a name-keyed Snapshot.
//
// docs/OBSERVABILITY.md carries the human-facing copy of this table; the
// obs.catalog_check ctest (tools/check_obs_catalog.sh) fails when the two
// disagree on any name, kind or unit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace remspan::obs {

/// Counter: monotone uint64 sum. Gauge: last-write int64 level.
/// Histogram: power-of-two bucketed uint64 samples.
enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Metric ids, in catalog row order (kCount is the row count, not a metric).
enum class Metric : std::uint16_t {
  kBfsRuns,
  kBfsNodesExpanded,
  kBfsBallNodes,
  kBfsShellNodes,
  kBfsFrontierMax,
  kDomtreeBuilds,
  kDomtreeHeapPops,
  kDomtreeCoverTouches,
  kDomtreeTreeEdges,
  kUnionBuilds,
  kUnionTrees,
  kUnionWordsOrd,
  kUnionSpannerEdges,
  kShardBatches,
  kShardGatherNodes,
  kShardGatherEdges,
  kIncBatches,
  kIncNoopBatches,
  kIncDirtyRoots,
  kIncDirtyRootsPerBatch,
  kIncExpandOldNodes,
  kIncExpandNewNodes,
  kIncRetiredTreeEdges,
  kIncRebuiltTreeEdges,
  kIncRefcountChurn,
  kSimRounds,
  kSimMsgsOffered,
  kSimMsgsDelivered,
  kSimMsgsDropped,
  kSimMsgsDelayed,
  kSimPayloadWords,
  kSimRoundOffered,
  kSimRetransmissions,
  kSimBackoffInterval,
  kSimFloodAccepts,
  kSimFloodDups,
  kSimFloodTtlLeft,
  kServeTenantsOpened,
  kServeTenantsClosed,
  kServeTenantsLive,
  kServeEpochsPublished,
  kServeEventsSubmitted,
  kServeEventsAccepted,
  kServeEventsCoalesced,
  kServeEventsApplied,
  kServeRejectedRetryAfter,
  kServeRejectedOverloaded,
  kServeQueueDepth,
  kServeBatchEvents,
  kCount,
};

struct MetricDef {
  Metric id;
  std::string_view name;
  Kind kind;
  std::string_view unit;
  std::string_view help;
};

// One row per line, id-name-kind first: tools/check_obs_catalog.sh reads
// the rows with a line regex.
// clang-format off
inline constexpr MetricDef kCatalog[] = {
    {Metric::kBfsRuns, "bfs.runs", Kind::kCounter, "runs", "bounded-BFS invocations"},
    {Metric::kBfsNodesExpanded, "bfs.nodes_expanded", Kind::kCounter, "nodes", "nodes popped, summed over runs"},
    {Metric::kBfsBallNodes, "bfs.ball_nodes", Kind::kHistogram, "nodes", "ball size per run"},
    {Metric::kBfsShellNodes, "bfs.shell_nodes", Kind::kHistogram, "nodes", "shell width per (run, radius)"},
    {Metric::kBfsFrontierMax, "bfs.frontier_max", Kind::kHistogram, "nodes", "widest shell per run"},
    {Metric::kDomtreeBuilds, "domtree.builds", Kind::kCounter, "trees", "dominating-tree builds"},
    {Metric::kDomtreeHeapPops, "domtree.heap_pops", Kind::kCounter, "picks", "greedy set-cover picks"},
    {Metric::kDomtreeCoverTouches, "domtree.cover_touches", Kind::kCounter, "evals", "candidate-cover evaluations (one masked popcount over a candidate's words)"},
    {Metric::kDomtreeTreeEdges, "domtree.tree_edges", Kind::kHistogram, "edges", "edges per built tree"},
    {Metric::kUnionBuilds, "union.builds", Kind::kCounter, "builds", "union-of-trees builds"},
    {Metric::kUnionTrees, "union.trees", Kind::kCounter, "trees", "per-root trees fed into unions"},
    {Metric::kUnionWordsOrd, "union.words_ord", Kind::kCounter, "words", "bitset words OR-ed into the shared accumulator"},
    {Metric::kUnionSpannerEdges, "union.spanner_edges", Kind::kCounter, "edges", "edges in the resulting spanners"},
    {Metric::kShardBatches, "shard.batches", Kind::kCounter, "clusters", "root clusters scouted, gathered and built"},
    {Metric::kShardGatherNodes, "shard.gather_nodes", Kind::kCounter, "nodes", "union-ball nodes gathered, summed over clusters"},
    {Metric::kShardGatherEdges, "shard.gather_edges", Kind::kCounter, "edges", "induced edges of the gathered local subgraphs"},
    {Metric::kIncBatches, "inc.batches", Kind::kCounter, "batches", "incremental batches applied"},
    {Metric::kIncNoopBatches, "inc.noop_batches", Kind::kCounter, "batches", "incremental batches with no live-topology change"},
    {Metric::kIncDirtyRoots, "inc.dirty_roots", Kind::kCounter, "roots", "roots invalidated, summed over batches"},
    {Metric::kIncDirtyRootsPerBatch, "inc.dirty_roots_per_batch", Kind::kHistogram, "roots", "dirty-root count per batch"},
    {Metric::kIncExpandOldNodes, "inc.expand_old_nodes", Kind::kCounter, "nodes", "dependency-ball nodes expanded on the old graph"},
    {Metric::kIncExpandNewNodes, "inc.expand_new_nodes", Kind::kCounter, "nodes", "dependency-ball nodes expanded on the new graph"},
    {Metric::kIncRetiredTreeEdges, "inc.retired_tree_edges", Kind::kCounter, "edges", "tree edges retired from the refcounts"},
    {Metric::kIncRebuiltTreeEdges, "inc.rebuilt_tree_edges", Kind::kCounter, "edges", "tree edges added back by rebuilds"},
    {Metric::kIncRefcountChurn, "inc.refcount_churn", Kind::kCounter, "edges", "retired + rebuilt tree edges"},
    {Metric::kSimRounds, "sim.rounds", Kind::kCounter, "rounds", "network rounds stepped"},
    {Metric::kSimMsgsOffered, "sim.msgs_offered", Kind::kCounter, "messages", "transmissions offered to the link layer"},
    {Metric::kSimMsgsDelivered, "sim.msgs_delivered", Kind::kCounter, "messages", "receptions delivered"},
    {Metric::kSimMsgsDropped, "sim.msgs_dropped", Kind::kCounter, "messages", "receptions dropped by the link model"},
    {Metric::kSimMsgsDelayed, "sim.msgs_delayed", Kind::kCounter, "messages", "receptions deferred by the link model"},
    {Metric::kSimPayloadWords, "sim.payload_words", Kind::kCounter, "words", "payload volume delivered"},
    {Metric::kSimRoundOffered, "sim.round_offered", Kind::kHistogram, "messages", "transmissions offered per round"},
    {Metric::kSimRetransmissions, "sim.retransmissions", Kind::kCounter, "messages", "ack-less retransmit firings"},
    {Metric::kSimBackoffInterval, "sim.backoff_interval", Kind::kHistogram, "rounds", "backoff interval at each retransmit"},
    {Metric::kSimFloodAccepts, "sim.flood_accepts", Kind::kCounter, "messages", "flood messages seen for the first time"},
    {Metric::kSimFloodDups, "sim.flood_dups", Kind::kCounter, "messages", "duplicate flood messages"},
    {Metric::kSimFloodTtlLeft, "sim.flood_ttl_left", Kind::kHistogram, "hops", "residual TTL at acceptance"},
    {Metric::kServeTenantsOpened, "serve.tenants_opened", Kind::kCounter, "tenants", "tenants opened"},
    {Metric::kServeTenantsClosed, "serve.tenants_closed", Kind::kCounter, "tenants", "tenants closed"},
    {Metric::kServeTenantsLive, "serve.tenants_live", Kind::kGauge, "tenants", "tenants currently open"},
    {Metric::kServeEpochsPublished, "serve.epochs_published", Kind::kCounter, "epochs", "snapshots published, epoch 0 included"},
    {Metric::kServeEventsSubmitted, "serve.events_submitted", Kind::kCounter, "events", "events offered to submit"},
    {Metric::kServeEventsAccepted, "serve.events_accepted", Kind::kCounter, "events", "events admitted into tenant queues"},
    {Metric::kServeEventsCoalesced, "serve.events_coalesced", Kind::kCounter, "events", "admitted events coalesced away in the queue"},
    {Metric::kServeEventsApplied, "serve.events_applied", Kind::kCounter, "events", "events applied by published batches"},
    {Metric::kServeRejectedRetryAfter, "serve.rejected_retry_after", Kind::kCounter, "submits", "submits rejected with retry-after"},
    {Metric::kServeRejectedOverloaded, "serve.rejected_overloaded", Kind::kCounter, "submits", "submits rejected as overloaded"},
    {Metric::kServeQueueDepth, "serve.queue_depth", Kind::kGauge, "events", "pending events across tenants"},
    {Metric::kServeBatchEvents, "serve.batch_events", Kind::kHistogram, "events", "events applied per published batch"},
};
// clang-format on

inline constexpr std::size_t kNumMetrics = std::size(kCatalog);

[[nodiscard]] constexpr std::size_t index(Metric id) noexcept {
  return static_cast<std::size_t>(id);
}

[[nodiscard]] constexpr const MetricDef& def(Metric id) noexcept { return kCatalog[index(id)]; }

/// Number of catalog rows of one kind.
[[nodiscard]] constexpr std::size_t num_of_kind(Kind kind) noexcept {
  std::size_t n = 0;
  for (const MetricDef& d : kCatalog) n += d.kind == kind ? 1 : 0;
  return n;
}

inline constexpr std::size_t kNumCounters = num_of_kind(Kind::kCounter);
inline constexpr std::size_t kNumGauges = num_of_kind(Kind::kGauge);
inline constexpr std::size_t kNumHistograms = num_of_kind(Kind::kHistogram);

namespace detail {

constexpr std::array<std::uint16_t, kNumMetrics> make_slots() noexcept {
  std::array<std::uint16_t, kNumMetrics> slots{};
  std::array<std::uint16_t, 3> next{};
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    slots[i] = next[static_cast<std::size_t>(kCatalog[i].kind)]++;
  }
  return slots;
}

constexpr bool catalog_well_formed() noexcept {
  if (kNumMetrics != index(Metric::kCount)) return false;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    if (index(kCatalog[i].id) != i || kCatalog[i].name.empty()) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (kCatalog[j].name == kCatalog[i].name) return false;
    }
  }
  return true;
}

}  // namespace detail

static_assert(detail::catalog_well_formed(),
              "kCatalog rows must follow Metric order, one row per id, with unique names");

/// Dense index of each metric among the metrics of its kind: the position
/// of its cell in a per-thread slab (counters, histograms) or in the
/// registry's shared gauge array.
inline constexpr std::array<std::uint16_t, kNumMetrics> kSlot = detail::make_slots();

}  // namespace remspan::obs
