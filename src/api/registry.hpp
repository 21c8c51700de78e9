// The remspan::api facade: one way in for every driver (remspan_tool, the
// benches, the C ABI, external code).
//
// A SpannerSpec names one of the seven shipped constructions (th1, th2,
// th3, mpr, greedy, baswana, full); each facade function is a switch over
// those kinds. The facade (a) builds the spanner with its paper guarantee
// and matching exact-oracle verifier, (b) opens an incremental-maintenance
// config for it (src/dynamic), and (c) opens a distributed-protocol config
// for it (src/sim: a RemSpanConfig for the one node program
// RemSpanProtocol, which run_remspan_distributed runs once and
// ReconvergenceSim once per churn batch) — (b) and (c) only where the
// construction has them. The union-of-trees kinds th1/th2/th3 map to one
// TreeRecipe (core/remote_spanner.hpp), and building, the incremental
// config and the protocol config all come from that recipe.
//
// Builds call the exact same library entry points (core/, baseline/) a
// direct caller would, so going through the facade is bit-identical to
// calling the construction directly (tests/test_api_spec.cpp pins this
// for all seven).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "api/spec.hpp"
#include "core/remote_spanner.hpp"
#include "dynamic/incremental_spanner.hpp"
#include "graph/edge_set.hpp"
#include "sim/reconvergence.hpp"
#include "sim/remspan_protocol.hpp"
#include "util/rng.hpp"

namespace remspan::api {

/// Optional knobs a driver can thread into a facade build.
struct BuildContext {
  /// RNG for seeded constructions (baswana). When null, the build derives a
  /// fresh Rng from spec.seed; passing one lets a driver share generator
  /// state across several builds (remspan_tool threads its CLI seed RNG).
  Rng* rng = nullptr;
  /// Filled with per-root tree aggregates when the construction has them.
  SpannerBuildInfo* info = nullptr;
  /// Execution knobs of the cluster-batched engine behind the
  /// union-of-trees constructions (th1, th2, th3; src/shard): worker cap
  /// (0 = the whole pool) and roots per cluster. Output is bit-identical
  /// for every setting. Constructions without per-root trees ignore it.
  ShardConfig shards{};
};

/// Knobs of the verifier hook; defaults match remspan_tool's oracle calls.
struct VerifyOptions {
  std::size_t sample_pairs = 300;  ///< k-connecting oracle sample budget
  std::uint64_t seed = 1;          ///< sampling seed
};

/// Outcome of the construction-matching exact oracle.
struct VerifyReport {
  bool satisfied = true;
  double max_ratio = 1.0;  ///< worst measured stretch ratio
};

/// Construction-matching exact-oracle runner (remote / k-connecting /
/// classical stretch); null when there is nothing to verify ("full").
using VerifyFn = std::function<VerifyReport(const Graph&, const EdgeSet&, const VerifyOptions&)>;

/// What a facade build returns: the spanner plus everything a driver
/// needs to report and check it without knowing which construction ran.
struct SpannerResult {
  EdgeSet edges;
  SpannerBuildInfo info;
  /// The paper guarantee (alpha, beta) the construction promises.
  Stretch guarantee;
  /// Human-readable guarantee, e.g. "2-connecting remote (2,-1)".
  std::string guarantee_label;
  /// See VerifyFn; capture the matching oracle for `edges`.
  VerifyFn verify;
};

// --- facade ---------------------------------------------------------------

/// Builds the spanner a spec describes.
[[nodiscard]] SpannerResult build_spanner(const Graph& g, const SpannerSpec& spec,
                                          const BuildContext& ctx = {});

/// String-spec convenience: parse + build. Throws SpecError on bad specs.
[[nodiscard]] SpannerResult build_spanner(const Graph& g, const std::string& spec,
                                          const BuildContext& ctx = {});

/// The spec's paper guarantee / label without building anything.
[[nodiscard]] Stretch guarantee(const SpannerSpec& spec);
[[nodiscard]] std::string guarantee_label(const SpannerSpec& spec);

/// The spec's exact-oracle runner; a null function when the construction
/// has nothing to verify.
[[nodiscard]] VerifyFn make_verifier(const SpannerSpec& spec);

/// Maps a spec to the tree recipe an IncrementalSpanner maintains; throws
/// SpecError when the construction has no incremental support (mpr,
/// greedy, baswana, full).
[[nodiscard]] TreeRecipe incremental_config(const SpannerSpec& spec);

/// Maps a spec to its distributed-protocol config; throws SpecError when the
/// construction has no protocol (greedy, baswana, full).
[[nodiscard]] RemSpanConfig protocol_config(const SpannerSpec& spec);

/// True when the spec's construction supports the capability.
[[nodiscard]] bool supports_incremental(const SpannerSpec& spec);
[[nodiscard]] bool supports_protocol(const SpannerSpec& spec);

/// An incremental-maintenance session: owns the evolving topology (seeded
/// from `initial`) and the engine maintaining the spec's spanner over it —
/// the pairing every driver of src/dynamic needs (IncrementalSpanner
/// borrows its DynamicGraph). Opened by spec; the C ABI's
/// remspan_session_t wraps exactly this.
class IncrementalSession {
 public:
  /// Builds the initial spanner; throws SpecError for constructions without
  /// incremental support.
  IncrementalSession(const Graph& initial, const SpannerSpec& spec);

  /// Not movable: the engine holds a reference to this object's
  /// DynamicGraph member, so a moved-from session would leave the engine
  /// pointing at dead storage. Hold sessions by unique_ptr (as
  /// open_incremental_session returns them).
  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;
  IncrementalSession(IncrementalSession&&) = delete;
  IncrementalSession& operator=(IncrementalSession&&) = delete;

  [[nodiscard]] const SpannerSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] DynamicGraph& dynamic_graph() noexcept { return dynamic_; }
  [[nodiscard]] IncrementalSpanner& engine() noexcept { return *engine_; }
  [[nodiscard]] const IncrementalSpanner& engine() const noexcept { return *engine_; }

  /// Shorthands for the common queries (built lazily per version; they
  /// trip a check while the engine is stale, see IncrementalSpanner).
  [[nodiscard]] const Graph& graph() const { return engine_->graph(); }
  [[nodiscard]] const EdgeSet& spanner() const { return engine_->spanner(); }
  ChurnBatchStats apply_batch(std::span<const GraphEvent> events) {
    return engine_->apply_batch(events);
  }

 private:
  SpannerSpec spec_;
  DynamicGraph dynamic_;
  std::unique_ptr<IncrementalSpanner> engine_;
};

/// Opens an incremental session for a spec (see IncrementalSession).
[[nodiscard]] std::unique_ptr<IncrementalSession> open_incremental_session(
    const Graph& initial, const SpannerSpec& spec);

/// Opens a protocol-level reconvergence session for a spec; throws
/// SpecError for constructions without a protocol. A faulty `faults.link`
/// runs the session over a lossy/delaying channel with the reliable
/// protocol variant (see reconvergence.hpp for the convergence-under-loss
/// contract); the default keeps the paper's exact lossless schedule.
[[nodiscard]] std::unique_ptr<ReconvergenceSim> open_reconvergence_session(
    const Graph& initial, const SpannerSpec& spec, ReconvergeStrategy strategy,
    const FaultConfig& faults = {});

}  // namespace remspan::api
