// E8 — Table 1's "Comp. time" column: every construction runs in O(1)
// rounds (O(eps^-1) for Theorem 1), independent of n. Measured on the
// synchronous simulator: exact round counts (paper formula 2r - 1 + 2*beta)
// and communication volume per node.
#include <algorithm>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "sim/remspan_protocol.hpp"

using namespace remspan;
using namespace remspan::bench;

int bench_main(int argc, char** argv) {
  Options opts(argc, argv);
  const double side = opts.get_double("side", 7.0);
  const auto n_max = static_cast<std::uint64_t>(opts.get_int("n-max", 800));
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;

  Report report("rounds");
  report.param("side", side);
  report.param("n_max", n_max);

  banner("Table E8 — distributed round complexity of Algorithm RemSpan",
         "paper: 2r-1+2beta rounds, independent of n (Section 2.3, Theorems 1-3)");

  bool all_rounds_match = true;
  std::size_t max_rounds = 0;
  double max_tx_per_node = 0.0;
  // Totals over every row: exact message counts, so a CI gate at zero
  // tolerance catches any drift in the protocol's wire schedule.
  std::uint64_t sum_tx = 0;
  std::uint64_t sum_payload_words = 0;
  Table table({"n", "construction", "scope", "rounds", "paper", "tx/node", "words/node"});
  for (std::uint64_t n = 200; n <= n_max; n *= 2) {
    const Graph g = paper_udg(side, static_cast<double>(n), 70 + n);
    // Protocol configs come from the facade by spec (eps=.5 -> r=3,
    // eps=.25 -> r=5).
    struct Case {
      const char* name;
      RemSpanConfig cfg;
    };
    const std::vector<Case> cases = {
        {"(1,0)-rem-span [Th.2 k=1]", api::protocol_config(api::parse_spanner_spec("th2?k=1"))},
        {"2-conn (2,-1) [Th.3]", api::protocol_config(api::parse_spanner_spec("th3?k=2"))},
        {"OLSR MPR union [RFC 3626]", api::protocol_config(api::parse_spanner_spec("mpr"))},
        {"(1.5,0)-rem-span [Th.1 eps=.5]",
         api::protocol_config(api::parse_spanner_spec("th1?eps=0.5"))},
        {"(1.25,.5)-rem-span [Th.1 eps=.25]",
         api::protocol_config(api::parse_spanner_spec("th1?eps=0.25"))},
    };
    for (const auto& [name, cfg] : cases) {
      const auto run = run_remspan_distributed(g, cfg);
      all_rounds_match = all_rounds_match && run.rounds == cfg.expected_rounds();
      max_rounds = std::max<std::size_t>(max_rounds, run.rounds);
      sum_tx += run.stats.transmissions;
      sum_payload_words += run.stats.payload_words;
      max_tx_per_node = std::max(max_tx_per_node,
                                 static_cast<double>(run.stats.transmissions) /
                                     static_cast<double>(g.num_nodes()));
      table.add_row(
          {std::to_string(g.num_nodes()), name, std::to_string(cfg.flood_scope()),
           std::to_string(run.rounds), std::to_string(cfg.expected_rounds()),
           format_double(static_cast<double>(run.stats.transmissions) /
                             static_cast<double>(g.num_nodes()),
                         1),
           format_double(static_cast<double>(run.stats.payload_words) /
                             static_cast<double>(g.num_nodes()),
                         0)});
    }
  }
  table.print(std::cout);
  std::cout << "\n'rounds' must equal 'paper' on every row and stay constant as n\n"
               "quadruples; transmissions per node depend only on the flooding scope\n"
               "(ball size), not on n.\n";
  report.value("all_rounds_match_paper", static_cast<std::int64_t>(all_rounds_match));
  report.value("max_rounds", max_rounds);
  report.value("max_tx_per_node", max_tx_per_node);
  report.value("sum_tx", sum_tx);
  report.value("sum_payload_words", sum_payload_words);
  report.finish();
  return 0;
}

int main(int argc, char** argv) { return cli_main(bench_main, argc, argv); }
