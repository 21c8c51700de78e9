#include "api/registry.hpp"

#include <optional>

#include "analysis/kconn_oracle.hpp"
#include "analysis/stretch_oracle.hpp"
#include "baseline/baswana_sen.hpp"
#include "baseline/greedy_spanner.hpp"
#include "baseline/mpr.hpp"
#include "core/params.hpp"
#include "util/table.hpp"

namespace remspan::api {
namespace {

/// Shared verifier shapes: remote / k-connecting / classical stretch, each
/// capturing the construction's guarantee.
VerifyFn remote_verifier(Stretch stretch) {
  return [stretch](const Graph& g, const EdgeSet& h, const VerifyOptions&) {
    const StretchReport r = check_remote_stretch(g, h, stretch);
    return VerifyReport{r.satisfied, r.max_ratio};
  };
}

VerifyFn kconn_verifier(Dist k, Stretch stretch) {
  return [k, stretch](const Graph& g, const EdgeSet& h, const VerifyOptions& opts) {
    const KConnReport r =
        check_k_connecting_stretch(g, h, k, stretch, opts.sample_pairs, opts.seed);
    return VerifyReport{r.satisfied, r.max_ratio};
  };
}

VerifyFn classic_verifier(Stretch stretch) {
  return [stretch](const Graph& g, const EdgeSet& h, const VerifyOptions&) {
    const StretchReport r = check_spanner_stretch(g, h, stretch);
    return VerifyReport{r.satisfied, r.max_ratio};
  };
}

/// The per-root tree of a union-of-trees kind; nullopt for the others.
std::optional<TreeRecipe> recipe_of(const SpannerSpec& spec) {
  switch (spec.kind) {
    case SpannerSpec::Kind::kTh1:
      return TreeRecipe::low_stretch(spec.eps, spec.tree);
    case SpannerSpec::Kind::kTh2:
      return TreeRecipe::k_connecting(spec.k);
    case SpannerSpec::Kind::kTh3:
      return TreeRecipe::two_connecting(spec.k);
    case SpannerSpec::Kind::kMpr:
    case SpannerSpec::Kind::kGreedy:
    case SpannerSpec::Kind::kBaswana:
    case SpannerSpec::Kind::kFull:
      return std::nullopt;
  }
  return std::nullopt;
}

[[noreturn]] void unsupported(const SpannerSpec& spec, const char* capability) {
  throw SpecError(std::string("construction '") + spec.kind_name() + "' has no " + capability);
}

}  // namespace

SpannerResult build_spanner(const Graph& g, const SpannerSpec& spec, const BuildContext& ctx) {
  SpannerResult res{EdgeSet(g), {}, {}, {}, {}};
  SpannerBuildInfo* info = ctx.info != nullptr ? ctx.info : &res.info;
  switch (spec.kind) {
    case SpannerSpec::Kind::kTh1:
    case SpannerSpec::Kind::kTh2:
    case SpannerSpec::Kind::kTh3:
      res.edges = recipe_of(spec)->build_spanner(g, info, ctx.shards);
      break;
    case SpannerSpec::Kind::kMpr:
      res.edges = olsr_mpr_spanner(g);
      break;
    case SpannerSpec::Kind::kGreedy:
      res.edges = greedy_spanner(g, spec.t);
      break;
    case SpannerSpec::Kind::kBaswana: {
      Rng local(spec.seed);
      res.edges = baswana_sen_spanner(g, spec.k, ctx.rng != nullptr ? *ctx.rng : local);
      break;
    }
    case SpannerSpec::Kind::kFull:
      res.edges = EdgeSet(g, true);
      break;
  }
  res.info = *info;
  res.guarantee = guarantee(spec);
  res.guarantee_label = guarantee_label(spec);
  res.verify = make_verifier(spec);
  return res;
}

SpannerResult build_spanner(const Graph& g, const std::string& spec, const BuildContext& ctx) {
  return build_spanner(g, parse_spanner_spec(spec), ctx);
}

Stretch guarantee(const SpannerSpec& spec) {
  switch (spec.kind) {
    case SpannerSpec::Kind::kTh1:
      return Stretch{1.0 + spec.eps, 1.0 - 2.0 * spec.eps};
    case SpannerSpec::Kind::kTh3:
      return Stretch{2.0, -1.0};
    case SpannerSpec::Kind::kGreedy:
      return Stretch{spec.t, 0.0};
    case SpannerSpec::Kind::kBaswana:
      return Stretch{2.0 * spec.k - 1.0, 0.0};
    case SpannerSpec::Kind::kTh2:
    case SpannerSpec::Kind::kMpr:
    case SpannerSpec::Kind::kFull:
      return Stretch{1.0, 0.0};
  }
  return Stretch{1.0, 0.0};
}

std::string guarantee_label(const SpannerSpec& spec) {
  const Stretch s = guarantee(spec);
  switch (spec.kind) {
    case SpannerSpec::Kind::kTh1:
      return "remote (" + format_double(s.alpha, 2) + "," + format_double(s.beta, 2) + ")";
    case SpannerSpec::Kind::kTh2:
      return std::to_string(spec.k) + "-connecting remote (1,0)";
    case SpannerSpec::Kind::kTh3:
      return "2-connecting remote (2,-1)";
    case SpannerSpec::Kind::kMpr:
      return "remote (1,0) via OLSR MPR";
    case SpannerSpec::Kind::kGreedy:
      return "classical (" + format_double(s.alpha, 1) + ",0)";
    case SpannerSpec::Kind::kBaswana:
      return "classical (" + format_double(s.alpha, 0) + ",0)";
    case SpannerSpec::Kind::kFull:
      return "all edges";
  }
  return "?";
}

VerifyFn make_verifier(const SpannerSpec& spec) {
  const Stretch s = guarantee(spec);
  switch (spec.kind) {
    case SpannerSpec::Kind::kTh1:
    case SpannerSpec::Kind::kMpr:
      return remote_verifier(s);
    case SpannerSpec::Kind::kTh2:
      return kconn_verifier(spec.k, s);
    case SpannerSpec::Kind::kTh3:
      // Theorem 3's guarantee is stated for k' <= 2 regardless of the tree
      // parameter k (remspan_tool has always checked it at 2).
      return kconn_verifier(2, s);
    case SpannerSpec::Kind::kGreedy:
    case SpannerSpec::Kind::kBaswana:
      return classic_verifier(s);
    case SpannerSpec::Kind::kFull:
      return {};  // nothing to check on the identity "spanner"
  }
  return {};
}

TreeRecipe incremental_config(const SpannerSpec& spec) {
  if (const std::optional<TreeRecipe> recipe = recipe_of(spec)) return *recipe;
  unsupported(spec, "incremental maintenance support");
}

RemSpanConfig protocol_config(const SpannerSpec& spec) {
  if (spec.kind == SpannerSpec::Kind::kMpr) return RemSpanConfig{.olsr_mpr = true};
  if (const std::optional<TreeRecipe> recipe = recipe_of(spec)) return RemSpanConfig{*recipe};
  unsupported(spec, "distributed protocol");
}

bool supports_incremental(const SpannerSpec& spec) {
  switch (spec.kind) {
    case SpannerSpec::Kind::kTh1:
    case SpannerSpec::Kind::kTh2:
    case SpannerSpec::Kind::kTh3:
      return true;
    case SpannerSpec::Kind::kMpr:
    case SpannerSpec::Kind::kGreedy:
    case SpannerSpec::Kind::kBaswana:
    case SpannerSpec::Kind::kFull:
      return false;
  }
  return false;
}

bool supports_protocol(const SpannerSpec& spec) {
  return supports_incremental(spec) || spec.kind == SpannerSpec::Kind::kMpr;
}

IncrementalSession::IncrementalSession(const Graph& initial, const SpannerSpec& spec)
    : spec_(spec),
      dynamic_(initial),
      engine_(std::make_unique<IncrementalSpanner>(dynamic_, incremental_config(spec))) {}

std::unique_ptr<IncrementalSession> open_incremental_session(const Graph& initial,
                                                             const SpannerSpec& spec) {
  return std::make_unique<IncrementalSession>(initial, spec);
}

std::unique_ptr<ReconvergenceSim> open_reconvergence_session(const Graph& initial,
                                                             const SpannerSpec& spec,
                                                             ReconvergeStrategy strategy,
                                                             const FaultConfig& faults) {
  return std::make_unique<ReconvergenceSim>(initial, protocol_config(spec), strategy, faults);
}

}  // namespace remspan::api
