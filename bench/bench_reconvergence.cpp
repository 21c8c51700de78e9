// Dynamic workload — protocol-level reconvergence under churn: what the
// remote-spanner's locality buys a *running* link-state protocol. Per churn
// batch the round simulator measures the cost of re-converging the
// distributed state (rounds, messages, bytes on the wire) for
//
//   remspan_inc     — scoped incremental re-advertisement: only the nodes
//                     within the flood scope of a touched endpoint (the
//                     dirty ball of src/dynamic) re-flood lists and trees,
//   remspan_reflood — the strawman: every node cold-starts Algorithm
//                     RemSpan on the new snapshot each batch,
//   mpr_inc         — the OLSR multipoint-relay baseline riding the same
//                     scoped pipeline (scope 1, RFC 3626 selection).
//
// Every count is deterministic at fixed seed (single-threaded simulator),
// so the committed baseline gates all values hard; only wall time is
// ignored. The incremental strategies are checked to converge to exactly
// the centralized construction on the final snapshot.
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "dynamic/churn_trace.hpp"
#include "sim/reconvergence.hpp"

using namespace remspan;
using namespace remspan::bench;

namespace {

struct StrategyCase {
  std::string name;  // JSON key fragment
  api::SpannerSpec spec;  ///< protocol + centralized oracle both come from it
  ReconvergeStrategy strategy = ReconvergeStrategy::kIncremental;
};

struct StrategyResult {
  std::vector<ReconvergeBatchStats> batches;
  ReconvergeBatchStats initial;
  std::size_t final_spanner_edges = 0;
  bool equivalent = false;  // final spanner == centralized construction
};

StrategyResult replay(const ChurnTrace& trace, const StrategyCase& c) {
  StrategyResult result;
  const auto sim = api::open_reconvergence_session(trace.initial_graph(), c.spec, c.strategy);
  result.initial = sim->initial_stats();
  for (const auto& batch : trace.batches) {
    result.batches.push_back(sim->apply_batch(batch));
  }
  result.final_spanner_edges = sim->spanner().size();
  result.equivalent = sim->spanner().edge_list() ==
                      api::build_spanner(sim->graph(), c.spec).edges.edge_list();
  return result;
}

/// One full replay over a degraded channel: cumulative cost counters plus
/// the converged end state (per-node trees + spanner) for the bit-exactness
/// check against the lossless replay.
struct LossResult {
  std::uint64_t rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t delayed = 0;
  std::vector<std::vector<Edge>> trees;  // per node
  std::vector<Edge> spanner;
};

LossResult replay_under_faults(const ChurnTrace& trace, const api::SpannerSpec& spec,
                               ReconvergeStrategy strategy, const FaultConfig& faults) {
  const auto sim = api::open_reconvergence_session(trace.initial_graph(), spec, strategy, faults);
  LossResult r;
  auto account = [&r](const ReconvergeBatchStats& s) {
    r.rounds += s.rounds;
    r.msgs += s.transmissions;
    r.bytes += s.wire_bytes;
    r.drops += s.drops;
    r.delayed += s.delayed;
  };
  account(sim->initial_stats());
  for (const auto& batch : trace.batches) account(sim->apply_batch(batch));
  for (NodeId v = 0; v < sim->graph().num_nodes(); ++v) r.trees.push_back(sim->node(v).tree_edges());
  r.spanner = sim->spanner().edge_list();
  return r;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto n = static_cast<std::size_t>(opts.get_int("n", 400));
  const double side = opts.get_double("side", 12.5);
  // At least one mobility batch and one outage/recovery pair: zero-batch
  // scenarios would divide by zero in the per-batch means below.
  const auto batches =
      std::max<std::size_t>(1, static_cast<std::size_t>(opts.get_int("batches", 6)));
  const double churn = opts.get_double("churn", 0.01);
  const auto k = static_cast<Dist>(opts.get_int("k", 1));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;

  Report report("reconvergence");
  report.seed(seed);
  report.param("n", n);
  report.param("side", side);
  report.param("batches", batches);
  report.param("churn", churn);
  report.param("k", k);

  banner("Protocol reconvergence under churn — scoped re-advertisement vs full re-flood",
         "dirty-ball locality: a batch only makes the nodes near its touched endpoints re-advertise");

  Rng rng(seed);
  const GeometricGraph gg = largest_component(uniform_unit_ball_graph(n, side, 2, rng));
  const Graph& g = gg.graph;
  const auto m = g.num_edges();
  const double target_edges = churn * static_cast<double>(m);
  std::cout << "workload: n=" << g.num_nodes() << " m=" << m
            << " avg deg=" << format_double(g.average_degree(), 2) << ", churn target "
            << format_double(target_edges, 0) << " edges/batch\n\n";
  report.value("nodes", g.num_nodes());
  report.value("initial_edges", m);

  const auto movers = static_cast<std::size_t>(
      std::max(1.0, std::round(target_edges / (2.0 * g.average_degree()))));
  const double region_radius =
      side * std::sqrt(churn / 3.14159265358979323846) + 0.5 * gg.radius;

  const api::SpannerSpec remspan_spec = api::SpannerSpec::th2(k);
  const api::SpannerSpec mpr_spec = api::SpannerSpec::mpr();

  const StrategyCase cases[] = {
      {"remspan_inc", remspan_spec, ReconvergeStrategy::kIncremental},
      {"remspan_reflood", remspan_spec, ReconvergeStrategy::kFullReflood},
      {"mpr_inc", mpr_spec, ReconvergeStrategy::kIncremental},
      {"mpr_reflood", mpr_spec, ReconvergeStrategy::kFullReflood},
  };
  const std::pair<std::string, ChurnTrace> scenarios[] = {
      {"mobility", mobility_churn_trace(gg, batches, movers, 100 * seed + 1)},
      {"outage", region_outage_trace(gg, std::max<std::size_t>(1, batches / 2), region_radius,
                                     100 * seed + 2)},
  };

  bool all_equivalent = true;
  Table per_batch({"scenario", "strategy", "batch", "+e", "-e", "adv", "rounds", "msgs",
                   "words", "bytes"});
  Table summary({"scenario", "strategy", "batches", "rounds", "msgs total", "KB total",
                 "msgs/batch", "vs reflood", "|H| final", "exact"});

  for (const auto& [scenario, trace] : scenarios) {
    // Replay every strategy first: the summary's ratio column compares each
    // incremental run against its own protocol's re-flood strawman.
    std::vector<StrategyResult> results;
    std::map<std::string, std::uint64_t> reflood_msgs;
    for (const StrategyCase& c : cases) {
      results.push_back(replay(trace, c));
      if (c.strategy == ReconvergeStrategy::kFullReflood) {
        std::uint64_t msgs = 0;
        for (const auto& b : results.back().batches) msgs += b.transmissions;
        reflood_msgs[c.spec.kind_name()] = msgs;
      }
    }
    for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
      const StrategyCase& c = cases[ci];
      const StrategyResult& r = results[ci];
      all_equivalent = all_equivalent && r.equivalent;

      std::uint64_t total_msgs = 0;
      std::uint64_t total_bytes = 0;
      std::uint64_t total_rounds = 0;
      double sum_adv = 0.0;
      for (const auto& b : r.batches) {
        total_msgs += b.transmissions;
        total_bytes += b.wire_bytes;
        total_rounds += b.rounds;
        sum_adv += static_cast<double>(b.advertising_nodes);
        const std::string prefix =
            scenario + "_" + c.name + "_b" + std::to_string(b.batch);
        report.value(prefix + "_rounds", b.rounds);
        report.value(prefix + "_msgs", b.transmissions);
        report.value(prefix + "_bytes", b.wire_bytes);
        per_batch.add_row({scenario, c.name, std::to_string(b.batch),
                           std::to_string(b.inserted_edges), std::to_string(b.removed_edges),
                           std::to_string(b.advertising_nodes), std::to_string(b.rounds),
                           std::to_string(b.transmissions), std::to_string(b.payload_words),
                           std::to_string(b.wire_bytes)});
      }
      const double msgs_per_batch =
          static_cast<double>(total_msgs) / static_cast<double>(r.batches.size());
      const std::uint64_t strawman = reflood_msgs[c.spec.kind_name()];
      const std::string ratio =
          strawman == 0 ? "1.00"
                        : format_double(static_cast<double>(total_msgs) /
                                            static_cast<double>(strawman),
                                        2);
      summary.add_row({scenario, c.name, std::to_string(r.batches.size()),
                       std::to_string(total_rounds), std::to_string(total_msgs),
                       format_double(static_cast<double>(total_bytes) / 1024.0, 1),
                       format_double(msgs_per_batch, 1), ratio,
                       std::to_string(r.final_spanner_edges), r.equivalent ? "yes" : "NO"});

      const std::string prefix = scenario + "_" + c.name;
      report.value(prefix + "_total_rounds", total_rounds);
      report.value(prefix + "_total_msgs", total_msgs);
      report.value(prefix + "_total_bytes", total_bytes);
      report.value(prefix + "_mean_advertisers",
                   sum_adv / static_cast<double>(r.batches.size()));
      report.value(prefix + "_final_spanner_edges", r.final_spanner_edges);
      report.value(prefix + "_equivalent", r.equivalent ? 1 : 0);
      report.value(prefix + "_initial_msgs", r.initial.transmissions);
    }
  }

  std::cout << "per-batch reconvergence cost:\n";
  per_batch.print(std::cout);
  std::cout << "\nsummary ('vs reflood' = message volume relative to the same protocol's\n"
               "cold-start strawman in the same scenario):\n";
  summary.print(std::cout);
  std::cout << "\nreading: the incremental strategies pay only for the dirty ball around\n"
               "each batch's touched endpoints, while the re-flood strawman pays the\n"
               "full n-node advertisement cost every batch — yet all strategies end on\n"
               "the identical converged spanner ('exact' column, checked against the\n"
               "centralized construction).\n";

  report.value("all_equivalent", all_equivalent ? 1 : 0);
  report.finish();

  // --- Convergence under loss: the same protocol over degraded channels ---
  //
  // The contract (sim/reconvergence.hpp): loss and delay cost rounds and
  // messages, never correctness — every channel row must end bit-exactly on
  // the lossless replay's per-node state. Counters are deterministic at
  // fixed seeds (hash-derived channel, single-threaded simulator), so the
  // committed baseline gates every value; only wall time is ignored.
  Report loss_report("reconvergence_loss");
  loss_report.seed(seed);
  loss_report.param("n", n);
  loss_report.param("side", side);
  loss_report.param("churn", churn);
  loss_report.param("k", k);

  banner("Reconvergence under loss — retransmit/backoff vs the degraded channel",
         "same converged state as the lossless run, paid for in rounds and retransmissions");

  const ChurnTrace loss_trace = mobility_churn_trace(gg, 2, movers, 100 * seed + 3);
  struct ChannelCase {
    std::string name;
    FaultConfig faults;
  };
  std::vector<ChannelCase> channels;
  for (const double p : {0.0, 0.05, 0.2, 0.5}) {
    FaultConfig f;
    f.link.drop = p;
    f.link.seed = seed + 11;
    channels.push_back({"p" + std::to_string(static_cast<int>(p * 100)), f});
  }
  {
    FaultConfig f;
    f.link.burst = GilbertElliott::from_loss_and_burst(0.2, 4.0);
    f.link.seed = seed + 11;
    channels.push_back({"burst20", f});
  }
  {
    FaultConfig f;
    f.link.drop = 0.1;
    f.link.delay = 1;
    f.link.jitter = 2;
    f.link.seed = seed + 11;
    channels.push_back({"delay_jitter", f});
  }

  const std::pair<std::string, ReconvergeStrategy> loss_strategies[] = {
      {"inc", ReconvergeStrategy::kIncremental},
      {"reflood", ReconvergeStrategy::kFullReflood},
  };

  bool all_loss_exact = true;
  Table loss_table({"channel", "strategy", "rounds", "msgs", "KB", "drops", "delayed", "exact"});
  for (const auto& [sname, strategy] : loss_strategies) {
    const LossResult lossless =
        replay_under_faults(loss_trace, remspan_spec, strategy, FaultConfig{});
    for (const ChannelCase& c : channels) {
      const LossResult r = c.faults.faulty()
                               ? replay_under_faults(loss_trace, remspan_spec, strategy, c.faults)
                               : lossless;
      const bool exact = r.trees == lossless.trees && r.spanner == lossless.spanner;
      all_loss_exact = all_loss_exact && exact;
      loss_table.add_row({c.name, sname, std::to_string(r.rounds), std::to_string(r.msgs),
                          format_double(static_cast<double>(r.bytes) / 1024.0, 1),
                          std::to_string(r.drops), std::to_string(r.delayed),
                          exact ? "yes" : "NO"});
      const std::string prefix = sname + "_" + c.name;
      loss_report.value(prefix + "_rounds", r.rounds);
      loss_report.value(prefix + "_msgs", r.msgs);
      loss_report.value(prefix + "_bytes", r.bytes);
      loss_report.value(prefix + "_drops", r.drops);
      loss_report.value(prefix + "_delayed", r.delayed);
      loss_report.value(prefix + "_state_exact", exact ? 1 : 0);
    }
  }

  std::cout << "cost of convergence per channel (initial build + 2 mobility batches;\n"
               "'exact' = per-node converged state bit-identical to the lossless replay):\n";
  loss_table.print(std::cout);
  std::cout << "\nreading: the degraded channels change what convergence *costs* —\n"
               "retransmissions, extra rounds, dropped and delayed copies — but never\n"
               "what it converges *to*.\n";

  loss_report.value("all_state_exact", all_loss_exact ? 1 : 0);
  loss_report.finish();
  return all_equivalent && all_loss_exact ? 0 : 1;
}

int main(int argc, char** argv) { return cli_main(bench_main, argc, argv); }
