// E11 — remote-spanners against the classical alternatives on the same
// inputs: edge budget vs measured worst-case stretch (remote and classical
// where applicable), plus — for every construction with a distributed
// protocol — the measured cost of *computing* it on the round simulator:
// rounds until quiescence, transmissions per node, wire bytes per node.
// This is the "who wins" reading of Table 1, now including the
// communication axis the CONGEST baselines compete on.
#include <optional>

#include "analysis/stretch_oracle.hpp"
#include "api/registry.hpp"
#include "bench_common.hpp"
#include "geom/synthetic.hpp"
#include "sim/remspan_protocol.hpp"

using namespace remspan;
using namespace remspan::bench;

namespace {

void compare_on(const std::string& label, const Graph& g, std::uint64_t seed,
                Report& report, const std::string& prefix) {
  std::cout << "\ninput: " << label << " (n=" << g.num_nodes() << " m=" << g.num_edges()
            << ")\n";
  // One shared RNG across the seeded constructions (the two Baswana-Sen
  // rows draw from it in sequence), threaded through the facade builds.
  Rng rng(seed);
  api::BuildContext ctx;
  ctx.rng = &rng;
  struct Case {
    std::string name;
    EdgeSet h;
    // Protocol behind the construction, when one exists: the distributed
    // rounds/communication columns are measured by actually running it.
    std::optional<RemSpanConfig> protocol;
  };
  std::vector<Case> cases;
  for (const auto& [name, spec_text] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"full topology", "full"},
           {"(1,0)-rem-span [Th.2 k=1]", "th2?k=1"},
           {"2-conn (1,0)-rem-span [Th.2 k=2]", "th2?k=2"},
           {"OLSR MPR union", "mpr"},
           {"(1.5,0)-rem-span [Th.1 eps=.5]", "th1?eps=0.5"},
           {"2-conn (2,-1)-rem-span [Th.3]", "th3?k=2"},
           {"greedy (3,0)-spanner", "greedy?t=3"},
           {"Baswana-Sen k=2 (3,0)-spanner", "baswana?k=2"},
           {"Baswana-Sen k=3 (5,0)-spanner", "baswana?k=3"}}) {
    const api::SpannerSpec spec = api::parse_spanner_spec(spec_text);
    api::SpannerResult res = api::build_spanner(g, spec, ctx);
    cases.push_back({name, std::move(res.edges),
                     api::supports_protocol(spec)
                         ? std::optional<RemSpanConfig>(api::protocol_config(spec))
                         : std::nullopt});
  }

  report.value(prefix + "_input_edges", g.num_edges());
  report.value(prefix + "_edges_th2_k1", cases[1].h.size());
  report.value(prefix + "_edges_mpr", cases[3].h.size());
  report.value(prefix + "_edges_th1", cases[4].h.size());
  report.value(prefix + "_edges_greedy3", cases[6].h.size());

  Table table({"construction", "edges", "% input", "remote max-ratio", "classic max-ratio",
               "rounds", "tx/node", "wire B/node"});
  for (const auto& c : cases) {
    const auto remote = check_remote_stretch(g, c.h, Stretch{1000.0, 1000.0});
    const auto classic = check_spanner_stretch(g, c.h, Stretch{1000.0, 1000.0});
    std::string rounds = "-";
    std::string tx_per_node = "-";
    std::string bytes_per_node = "-";
    if (c.protocol.has_value()) {
      const auto run = run_remspan_distributed(g, *c.protocol);
      const auto n = static_cast<double>(g.num_nodes());
      rounds = std::to_string(run.rounds);
      tx_per_node = format_double(static_cast<double>(run.stats.transmissions) / n, 1);
      bytes_per_node = format_double(static_cast<double>(run.stats.wire_bytes()) / n, 0);
    }
    table.add_row(
        {c.name, std::to_string(c.h.size()),
         format_double(100.0 * static_cast<double>(c.h.size()) /
                           static_cast<double>(g.num_edges()),
                       1),
         remote.violations == 0 ? format_double(remote.max_ratio, 3) : "disconnects",
         classic.violations == 0 ? format_double(classic.max_ratio, 3) : "disconnects",
         rounds, tx_per_node, bytes_per_node});
  }
  table.print(std::cout);
  std::cout << "('-' in the distributed columns: centralized constructions with no\n"
               "constant-round protocol — greedy/Baswana-Sen run on the full topology.)\n";
}

}  // namespace

int bench_main(int argc, char** argv) {
  Options opts(argc, argv);
  const double mean_n = opts.get_double("n-udg", 600);
  const auto n_gnp = static_cast<NodeId>(opts.get_int("n-gnp", 450));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 51));
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;

  Report report("baseline_compare");
  report.seed(seed);
  report.param("n_udg", mean_n);
  report.param("n_gnp", n_gnp);

  banner("Table E11 — remote-spanners vs classical spanners (same inputs)",
         "paper: remote relaxation buys exactness ((1,0) possible & sparse) or size (O(n) on UBG)");

  compare_on("random UDG", paper_udg(7.0, mean_n, seed), seed, report, "udg");
  Rng rng(seed + 1);
  compare_on("G(n,p) p=12/n", connected_gnp(n_gnp, 12.0 / n_gnp, rng), seed + 2, report, "gnp");

  std::cout << "\nReading: the (1,0)-remote-spanner rows keep remote max-ratio at 1.000\n"
               "with a fraction of the edges — impossible for any classical (1,0)\n"
               "spanner (100% of edges by definition). The classical spanners pay\n"
               "stretch ~3-5 for comparable sparsity.\n";
  report.finish();
  return 0;
}

int main(int argc, char** argv) { return cli_main(bench_main, argc, argv); }
