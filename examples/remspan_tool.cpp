// remspan_tool: command-line driver over the whole library, built entirely
// on the remspan::api facade (src/api): the graph source and the
// construction are both specs the facade resolves — the tool itself knows
// no construction by name.
//
//   ./example_remspan_tool --input graph.txt --construction th1 --eps 0.5
//   ./example_remspan_tool --gen udg --n 500 --side 6 --construction th2 --k 2
//   ./example_remspan_tool --gen gnp --n 300 --deg 12 --construction mpr --dot out.dot
//
// --construction accepts a construction name (th1, th2, th3, mpr, greedy,
// baswana, full) or a full spec string like "th2?k=2" (docs/API.md has the
// grammar); the dedicated flags --eps/--k/--t override the spec's
// parameters when passed. Verification runs the construction's registered
// oracle unless --no-verify. Unknown flags exit 2 with the flag named.
//
// Dynamic mode: --churn-trace <file> replays a recorded edge-event list
// (see src/dynamic/churn_trace.hpp for the format) through an incremental
// maintenance session and prints per-batch update stats; the final spanner
// is checked bit-exact against a from-scratch rebuild (and the matching
// oracle unless --no-verify). --emit-churn-trace <file> writes a random
// link-churn trace for the loaded/generated graph to replay later.
//
// Protocol mode: --churn-trace <file> --reconverge replays the same trace
// at the protocol level (src/sim/reconvergence.hpp): per batch it reports
// the rounds, messages and bytes the scoped incremental re-advertisement
// needs to re-converge, next to the full-re-flood strawman, and checks both
// end on the centralized construction bit-exact. --loss <p> runs the replay
// over a lossy channel (per-copy iid drop probability p; --burst <len>
// shapes it into Gilbert–Elliott bursts of mean length len), --delay <d>
// and --jitter <j> postpone every surviving copy by d + uniform{0..j}
// rounds, --fault-seed pins the channel's randomness. Faults switch the
// protocol to its reliable (retransmit + quiescence-detect) variant; the
// bit-exactness checks still hold — that is the convergence-under-loss
// contract of reconvergence.hpp.
//
// Service mode: --churn-trace <file> --serve-replay replays the trace
// through the multi-tenant SpannerService (src/serve): --tenants T tenants
// all open on the trace's initial graph, every trace batch is submitted to
// every tenant through admission control (a kRetryAfter verdict flushes
// the tenant and resubmits once), --workers W background drain threads
// (0 = deterministic synchronous mode). The final drain prints per-tenant
// epoch/coalescing/rejection accounting, and each tenant's last published
// snapshot is checked bit-exact against a from-scratch build on its final
// topology (and the matching oracle unless --no-verify).
//
// Observability: --trace-out <file> records the run as Chrome trace_event
// JSON (load in Perfetto / chrome://tracing), --metrics-out <file> dumps
// the metrics-registry snapshot; the REMSPAN_TRACE / REMSPAN_METRICS
// environment variables do the same without flags. Enabling either never
// changes any computed result (docs/OBSERVABILITY.md).
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "analysis/spanner_stats.hpp"
#include "api/observability.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "dynamic/churn_trace.hpp"
#include "graph/graphio.hpp"
#include "obs/obs.hpp"
#include "serve/service.hpp"
#include "sim/reconvergence.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace remspan;

namespace {

/// Maps the CLI graph flags onto a GraphSpec (--input wins over --gen).
/// Every generator flag is consumed unconditionally so that passing one
/// alongside --input (or another family) is never flagged as unknown.
api::GraphSpec graph_spec_from_flags(Options& opts) {
  const std::string input = opts.get_string("input", "");
  const std::string gen = opts.get_string("gen", "udg");
  const auto n = static_cast<NodeId>(opts.get_int("n", 400));
  const double side = opts.get_double("side", 6.0);
  const double deg = opts.get_double("deg", 10.0);
  const auto m = static_cast<NodeId>(opts.get_int("m", 3));
  const auto ring = static_cast<NodeId>(opts.get_int("ring", 6));
  const double rewire = opts.get_double("rewire", 0.1);
  if (!input.empty()) return api::GraphSpec::file(input);
  if (gen == "udg") return api::GraphSpec::udg(n, side);
  if (gen == "gnp") return api::GraphSpec::gnp(n, deg);
  if (gen == "ba") return api::GraphSpec::ba(n, m);
  if (gen == "ws") return api::GraphSpec::ws(n, ring, rewire);
  if (gen == "grid") return api::GraphSpec::grid(n);
  throw BadOptionError("option --gen expects udg|gnp|ba|ws|grid, got '" + gen + "'");
}

/// Resolves --construction (a registered name or a full spec string) and
/// folds the dedicated CLI flags into the spec's parameters. The historical
/// flag semantics are preserved: --k 1 means "the construction's natural
/// minimum" for th3 and baswana (both need k >= 2).
api::SpannerSpec spanner_spec_from_flags(const std::string& construction, Options& opts,
                                         std::uint64_t seed, bool& spec_seed_explicit) {
  api::SpannerSpec spec = api::parse_spanner_spec(construction);
  const double eps = opts.get_double("eps", 0.5);
  const auto k = static_cast<Dist>(opts.get_int("k", 1));
  const double t = opts.get_double("t", 3.0);
  using Kind = api::SpannerSpec::Kind;
  if (opts.has("eps") && spec.kind == Kind::kTh1) spec.eps = eps;
  if (opts.has("k") &&
      (spec.kind == Kind::kTh2 || spec.kind == Kind::kTh3 || spec.kind == Kind::kBaswana)) {
    const bool needs_two = spec.kind == Kind::kTh3 || spec.kind == Kind::kBaswana;
    spec.k = needs_two && k == 1 ? 2 : k;
  }
  if (opts.has("t") && spec.kind == Kind::kGreedy) spec.t = t;
  // An explicit seed inside the spec string ("baswana?k=2&seed=5") wins;
  // otherwise the CLI --seed RNG is threaded through the build (see
  // tool_main, which keys off spec_seed_explicit), and the spec mirrors it
  // for display coherence.
  spec_seed_explicit =
      spec.kind == Kind::kBaswana && construction.find("seed=") != std::string::npos;
  if (spec.kind == Kind::kBaswana && !spec_seed_explicit) spec.seed = seed;
  return spec;
}

/// Maps the channel-fault CLI flags onto a FaultConfig (all default off):
/// --loss <p> iid per-copy drop probability, --burst <len> switches the
/// loss to a Gilbert–Elliott chain with mean burst length <len>,
/// --delay <d> fixed extra delivery rounds, --jitter <j> + uniform{0..j}
/// more, --fault-seed <s> the channel's own seed. Out-of-range values are
/// flag errors (exit 2), matching LinkModel's constructor contract.
FaultConfig fault_config_from_flags(Options& opts, std::uint64_t seed) {
  FaultConfig faults;
  const double loss = opts.get_double("loss", 0.0);
  const double burst = opts.get_double("burst", 0.0);
  faults.link.delay = static_cast<std::uint32_t>(opts.get_int("delay", 0));
  faults.link.jitter = static_cast<std::uint32_t>(opts.get_int("jitter", 0));
  faults.link.seed = static_cast<std::uint64_t>(opts.get_int("fault-seed", static_cast<long long>(seed)));
  if (loss < 0.0 || loss >= 1.0) {
    throw BadOptionError("option --loss expects a probability in [0, 1), got " +
                         std::to_string(loss));
  }
  if (burst < 0.0 || (burst > 0.0 && burst < 1.0)) {
    throw BadOptionError("option --burst expects a mean burst length >= 1, got " +
                         std::to_string(burst));
  }
  if (burst > 0.0 && loss <= 0.0) {
    throw BadOptionError("option --burst needs --loss > 0 (it shapes the loss into bursts)");
  }
  if (burst > 0.0) {
    faults.link.burst = GilbertElliott::from_loss_and_burst(loss, burst);
  } else {
    faults.link.drop = loss;
  }
  return faults;
}

/// RAII for --trace-out / --metrics-out: enables the requested sinks (on
/// top of whatever REMSPAN_TRACE / REMSPAN_METRICS already switched on) at
/// construction and writes the files on scope exit, covering every return
/// path of tool_main.
class ObsOutputs {
 public:
  ObsOutputs(std::string trace_path, std::string metrics_path)
      : trace_path_(std::move(trace_path)), metrics_path_(std::move(metrics_path)) {
    api::observability_from_env();
    if (!trace_path_.empty() || !metrics_path_.empty()) {
      api::enable_observability(!metrics_path_.empty() || obs::metrics() != nullptr,
                                !trace_path_.empty() || obs::trace() != nullptr);
    }
  }
  ~ObsOutputs() {
    std::string err;
    if (!trace_path_.empty()) {
      if (api::write_trace_file(trace_path_, &err)) {
        std::cout << "trace written to " << trace_path_ << "\n";
      } else {
        std::cerr << "trace write failed: " << err << "\n";
      }
    }
    if (!metrics_path_.empty()) {
      if (api::write_metrics_file(metrics_path_, &err)) {
        std::cout << "metrics written to " << metrics_path_ << "\n";
      } else {
        std::cerr << "metrics write failed: " << err << "\n";
      }
    }
  }
  ObsOutputs(const ObsOutputs&) = delete;
  ObsOutputs& operator=(const ObsOutputs&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

/// Loads a trace file, mapping I/O and parse failures to exit code 2
/// (reported via the bool). read_churn_trace throws CheckError on
/// malformed input.
bool load_trace(const std::string& path, ChurnTrace& trace) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  try {
    trace = read_churn_trace(in);
  } catch (const CheckError& e) {
    std::cerr << "malformed churn trace " << path << ": " << e.what() << "\n";
    return false;
  }
  return true;
}

/// --churn-trace replay: feed every batch through an incremental session,
/// print per-batch stats, and check the final spanner bit-exact against a
/// from-scratch rebuild.
int run_churn_replay(const std::string& path, const api::SpannerSpec& spec,
                     const std::string& construction, bool verify, std::uint64_t seed) {
  ChurnTrace trace;
  if (!load_trace(path, trace)) return 2;

  if (!api::supports_incremental(spec)) {
    std::cerr << "--churn-trace supports --construction th1|th2|th3 (got " << construction
              << ")\n";
    return 2;
  }

  obs::PhaseSpan timer("tool.churn_replay", "tool");
  const auto session = api::open_incremental_session(trace.initial_graph(), spec);
  IncrementalSpanner& inc = session->engine();
  const TreeRecipe& recipe = inc.recipe();
  const double init_s = timer.seconds();
  std::cout << "churn replay: " << path << "\n"
            << "initial graph: n=" << inc.graph().num_nodes() << " m="
            << inc.graph().num_edges() << ", " << recipe.name() << " spanner built in "
            << format_double(init_s, 3) << " s (dirty radius " << recipe.dirty_radius()
            << ")\n\n";

  Table table({"batch", "events", "+edges", "-edges", "dirty roots", "rebuilt", "|H|", "ms"});
  double total_s = 0.0;
  std::size_t batch_no = 0;
  for (const auto& batch : trace.batches) {
    const ChurnBatchStats stats = inc.apply_batch(batch);
    total_s += stats.seconds;
    table.add_row({std::to_string(++batch_no), std::to_string(stats.applied_events),
                   std::to_string(stats.inserted_edges), std::to_string(stats.removed_edges),
                   std::to_string(stats.dirty_roots), std::to_string(stats.rebuilt_tree_edges),
                   std::to_string(stats.spanner_edges), format_double(1e3 * stats.seconds, 3)});
  }
  table.print(std::cout);
  std::cout << "\nreplayed " << trace.batches.size() << " batches in "
            << format_double(total_s, 3) << " s (amortized "
            << format_double(1e3 * total_s / std::max<std::size_t>(1, trace.batches.size()), 3)
            << " ms/batch)\n";

  timer.reset();
  const EdgeSet scratch = recipe.build_spanner(inc.graph());
  const bool exact = scratch == inc.spanner();
  std::cout << "final spanner: " << inc.spanner().size() << " edges; from-scratch rebuild "
            << format_double(timer.seconds(), 3) << " s; bit-exact: " << (exact ? "yes" : "NO")
            << "\n";
  if (!exact) return 1;
  if (verify) {
    timer.reset();
    const api::VerifyFn oracle = api::make_verifier(spec);
    api::VerifyOptions vopts;
    vopts.seed = seed;
    const bool ok = oracle(inc.graph(), inc.spanner(), vopts).satisfied;
    std::cout << "oracle on final snapshot: " << (ok ? "satisfied" : "VIOLATED") << " ("
              << format_double(timer.seconds(), 3) << " s)\n";
    if (!ok) return 1;
  }
  return 0;
}

/// --churn-trace --reconverge: replay the trace at the protocol level and
/// report the per-batch reconvergence cost of scoped incremental
/// re-advertisement against the full-re-flood strawman.
int run_reconverge(const std::string& path, const api::SpannerSpec& spec,
                   const std::string& construction, bool verify, const FaultConfig& faults) {
  ChurnTrace trace;
  if (!load_trace(path, trace)) return 2;

  if (!api::supports_protocol(spec)) {
    std::cerr << "--reconverge supports --construction th1|th2|th3|mpr (got " << construction
              << ")\n";
    return 2;
  }
  const RemSpanConfig cfg = api::protocol_config(spec);

  const Graph initial = trace.initial_graph();
  const auto inc =
      api::open_reconvergence_session(initial, spec, ReconvergeStrategy::kIncremental, faults);
  const auto ref =
      api::open_reconvergence_session(initial, spec, ReconvergeStrategy::kFullReflood, faults);
  const auto& init = inc->initial_stats();
  std::cout << "protocol reconvergence replay: " << path << "\n"
            << "initial graph: n=" << initial.num_nodes() << " m=" << initial.num_edges()
            << ", protocol " << cfg.kind_name() << " (scope " << cfg.flood_scope()
            << "), cold start: " << init.rounds << " rounds, " << init.transmissions
            << " msgs, " << init.wire_bytes << " B\n";
  if (faults.faulty()) {
    std::cout << "channel: ";
    if (faults.link.burst.enabled()) {
      std::cout << "burst loss (GE, drop_bad=1)";
    } else if (faults.link.drop > 0.0) {
      std::cout << "iid loss p=" << faults.link.drop;
    } else {
      std::cout << "lossless";
    }
    std::cout << ", delay " << faults.link.delay << "+U{0.." << faults.link.jitter
              << "}, fault seed " << faults.link.seed << " (reliable mode, cold start dropped "
              << init.drops << ", delayed " << init.delayed << ")\n";
  }
  std::cout << "\n";

  Table table({"batch", "events", "+edges", "-edges", "advertisers", "rounds", "msgs",
               "bytes", "reflood msgs", "saved"});
  std::size_t batch_no = 0;
  std::uint64_t inc_msgs = 0;
  std::uint64_t ref_msgs = 0;
  for (const auto& batch : trace.batches) {
    const ReconvergeBatchStats a = inc->apply_batch(batch);
    const ReconvergeBatchStats b = ref->apply_batch(batch);
    inc_msgs += a.transmissions;
    ref_msgs += b.transmissions;
    const double saved =
        b.transmissions == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(a.transmissions) /
                                 static_cast<double>(b.transmissions));
    table.add_row({std::to_string(++batch_no), std::to_string(a.applied_events),
                   std::to_string(a.inserted_edges), std::to_string(a.removed_edges),
                   std::to_string(a.advertising_nodes), std::to_string(a.rounds),
                   std::to_string(a.transmissions), std::to_string(a.wire_bytes),
                   std::to_string(b.transmissions), format_double(saved, 1) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nreplayed " << trace.batches.size() << " batches: " << inc_msgs
            << " incremental msgs vs " << ref_msgs << " re-flood msgs\n";

  const bool same = inc->spanner().edge_list() == ref->spanner().edge_list();
  std::cout << "incremental converged state == full re-flood: " << (same ? "yes" : "NO") << "\n";
  if (!same) return 1;
  if (verify) {
    const EdgeSet central = api::build_spanner(inc->graph(), spec).edges;
    const bool exact = inc->spanner() == central;
    std::cout << "final spanner == centralized construction: " << (exact ? "yes" : "NO") << "\n";
    if (!exact) return 1;
  }
  return 0;
}

/// --churn-trace --serve-replay: replay the trace through the multi-tenant
/// service, every batch submitted to every tenant, and check each tenant's
/// final published snapshot bit-exact against a from-scratch rebuild.
int run_serve_replay(const std::string& path, const api::SpannerSpec& spec,
                     const std::string& construction, bool verify, std::uint64_t seed,
                     serve::ServiceConfig cfg, std::size_t num_tenants) {
  ChurnTrace trace;
  if (!load_trace(path, trace)) return 2;

  if (!api::supports_incremental(spec)) {
    std::cerr << "--serve-replay supports --construction th1|th2|th3 (got " << construction
              << ")\n";
    return 2;
  }
  if (num_tenants == 0) {
    std::cerr << "--tenants expects a positive count\n";
    return 2;
  }
  cfg.max_tenants = std::max(cfg.max_tenants, num_tenants);

  obs::PhaseSpan timer("tool.serve_replay", "tool");
  serve::SpannerService service(cfg);
  const Graph initial = trace.initial_graph();
  std::vector<serve::TenantId> ids;
  ids.reserve(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    ids.push_back(service.open_tenant(initial, spec.to_string()));
  }
  std::cout << "serve replay: " << path << "\n"
            << "initial graph: n=" << initial.num_nodes() << " m=" << initial.num_edges()
            << ", " << num_tenants << " tenant(s) of " << spec.to_string() << ", "
            << cfg.worker_threads << " worker(s), opened in " << format_double(timer.seconds(), 3)
            << " s\n\n";

  std::uint64_t retries = 0;
  for (const auto& batch : trace.batches) {
    for (const serve::TenantId id : ids) {
      serve::Admission verdict = service.submit(id, batch);
      if (verdict != serve::Admission::kAccepted) {
        // Back off exactly once: drain the offender and resubmit.
        ++retries;
        service.flush(id);
        verdict = service.submit(id, batch);
        if (verdict != serve::Admission::kAccepted) {
          std::cerr << "tenant " << id << ": batch rejected twice ("
                    << serve::admission_name(verdict) << ")\n";
          return 1;
        }
      }
    }
  }
  service.drain();
  const double replay_s = timer.seconds();

  Table table({"tenant", "epoch", "submitted", "coalesced", "applied", "batches", "retry",
               "|H|"});
  for (const serve::TenantId id : ids) {
    const serve::TenantStats ts = service.tenant_stats(id);
    table.add_row({std::to_string(id), std::to_string(ts.epoch),
                   std::to_string(ts.events_submitted), std::to_string(ts.events_coalesced),
                   std::to_string(ts.events_applied), std::to_string(ts.batches_applied),
                   std::to_string(ts.rejected_retry_after + ts.rejected_overloaded),
                   std::to_string(ts.spanner_edges)});
  }
  table.print(std::cout);
  const serve::ServiceStats totals = service.stats();
  std::cout << "\nreplayed " << trace.batches.size() << " batches x " << num_tenants
            << " tenants in " << format_double(replay_s, 3) << " s (" << totals.epochs_published
            << " epochs, " << totals.events_coalesced << " of " << totals.events_accepted
            << " accepted events coalesced away, " << retries << " backoff retries)\n";

  // Every tenant ran the same stream, so all final snapshots must agree —
  // and each must equal a from-scratch build on its own final topology.
  for (const serve::TenantId id : ids) {
    const auto snap = service.snapshot(id);
    const EdgeSet scratch = api::build_spanner(snap->graph(), spec).edges;
    if (!(scratch == snap->spanner())) {
      std::cout << "tenant " << id << " final snapshot vs from-scratch rebuild: NOT bit-exact\n";
      return 1;
    }
  }
  std::cout << "final snapshots vs from-scratch rebuilds: bit-exact ("
            << service.snapshot(ids.front())->num_spanner_edges() << " edges each)\n";

  if (verify) {
    const auto snap = service.snapshot(ids.front());
    timer.reset();
    const api::VerifyFn oracle = api::make_verifier(spec);
    api::VerifyOptions vopts;
    vopts.seed = seed;
    const bool ok = oracle(snap->graph(), snap->spanner(), vopts).satisfied;
    std::cout << "oracle on final snapshot: " << (ok ? "satisfied" : "VIOLATED") << " ("
              << format_double(timer.seconds(), 3) << " s)\n";
    if (!ok) return 1;
  }
  return 0;
}

int tool_main(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string construction = opts.get_string("construction", "th2");
  const bool verify = !opts.get_flag("no-verify");
  const std::string dot_path = opts.get_string("dot", "");
  const std::string out_path = opts.get_string("save-graph", "");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  bool spec_seed_explicit = false;
  const api::SpannerSpec spec =
      spanner_spec_from_flags(construction, opts, seed, spec_seed_explicit);
  std::string churn_path = opts.get_string("churn-trace", "");
  const bool reconverge = opts.get_flag("reconverge");
  // --serve-replay: the trace through the multi-tenant service layer.
  const bool serve_replay = opts.get_flag("serve-replay");
  serve::ServiceConfig serve_cfg;
  const auto num_tenants = static_cast<std::size_t>(opts.get_int("tenants", 4));
  serve_cfg.worker_threads = static_cast<std::size_t>(opts.get_int("workers", 0));
  serve_cfg.tenant_queue_budget =
      static_cast<std::size_t>(opts.get_int("queue-budget", 4096));
  serve_cfg.max_batch_events = static_cast<std::size_t>(opts.get_int("batch-events", 512));
  const std::string trace_out = opts.get_string("trace-out", "");
  const std::string metrics_out = opts.get_string("metrics-out", "");
  const FaultConfig faults = fault_config_from_flags(opts, seed);
  // --shards caps the pool workers that build (0 = the whole pool),
  // --shard-batch sets the roots per cluster; output is the same either way.
  const auto shards = static_cast<std::size_t>(opts.get_int("shards", 0));
  const auto shard_batch = static_cast<std::size_t>(opts.get_int("shard-batch", 128));
  const std::string emit_trace_path = opts.get_string("emit-churn-trace", "");
  const auto trace_batches = static_cast<std::size_t>(opts.get_int("trace-batches", 20));
  const auto trace_events = static_cast<std::size_t>(opts.get_int("trace-events", 10));
  const double trace_node_frac = opts.get_double("trace-node-frac", 0.0);
  Rng rng(seed);
  const api::GraphSpec graph_spec = graph_spec_from_flags(opts);
  // All options are registered by now: gate --help and typos before paying
  // for graph generation.
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;
  const ObsOutputs obs_outputs(trace_out, metrics_out);
  Graph g = api::build_graph(graph_spec, &rng);

  if (!emit_trace_path.empty()) {
    const ChurnTrace trace =
        random_edge_churn_trace(g, trace_batches, trace_events, trace_node_frac, seed);
    std::ofstream out(emit_trace_path);
    if (!out) {
      std::cerr << "cannot write " << emit_trace_path << "\n";
      return 2;
    }
    write_churn_trace(out, trace);
    std::cout << "churn trace (" << trace.batches.size() << " batches x " << trace_events
              << " events) written to " << emit_trace_path << "\n";
    return 0;
  }
  if ((reconverge || serve_replay) && churn_path.empty()) {
    churn_path = opts.require_string("churn-trace");
  }
  if (!churn_path.empty()) {
    if (reconverge) return run_reconverge(churn_path, spec, construction, verify, faults);
    if (serve_replay) {
      return run_serve_replay(churn_path, spec, construction, verify, seed, serve_cfg,
                              num_tenants);
    }
    return run_churn_replay(churn_path, spec, construction, verify, seed);
  }

  std::cout << "graph: n=" << g.num_nodes() << " m=" << g.num_edges() << " maxdeg="
            << g.max_degree() << "\n";
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    write_edge_list(out, g);
    std::cout << "graph saved to " << out_path << "\n";
  }

  obs::PhaseSpan timer("tool.build", "tool");
  api::BuildContext ctx;
  // Thread the CLI seed RNG through seeded builds — unless the spec string
  // itself pinned a seed, which then drives a fresh RNG inside the build.
  if (!spec_seed_explicit) ctx.rng = &rng;
  ctx.shards.num_shards = shards;
  ctx.shards.batch_roots = shard_batch;
  const api::SpannerResult res = api::build_spanner(g, spec, ctx);
  const double build_s = timer.seconds();

  const auto stats = compute_spanner_stats(res.edges);
  Table table({"metric", "value"});
  table.add_row({"construction", construction});
  table.add_row({"guarantee", res.guarantee_label});
  table.add_row({"edges", format_edges_with_fraction(stats)});
  table.add_row({"edges/n", format_double(stats.edges_per_node, 2)});
  table.add_row({"max degree in H", std::to_string(stats.max_degree)});
  table.add_row({"build time (s)", format_double(build_s, 3)});

  if (verify && res.verify != nullptr) {
    timer.reset();
    api::VerifyOptions vopts;
    vopts.seed = seed;
    const api::VerifyReport report = res.verify(g, res.edges, vopts);
    table.add_row({"verified", report.satisfied ? "yes" : "NO"});
    table.add_row({"measured max ratio", format_double(report.max_ratio, 3)});
    table.add_row({"verify time (s)", format_double(timer.seconds(), 3)});
  }
  table.print(std::cout);

  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    out << to_dot(g, &res.edges, "H");
    std::cout << "DOT written to " << dot_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(argc, argv);
  } catch (const OptionError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const api::SpecError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::runtime_error& e) {
    // A lossy protocol epoch that reached its round cap unconverged.
    std::cerr << "remspan_tool: " << e.what() << "\n";
    return 1;
  }
}
