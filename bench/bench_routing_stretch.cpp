// E9 — the routing property that motivates remote-spanners (Section 1):
// greedy forwarding over H_u delivers with route length <= d_{H_u}(u,v),
// hence within the spanner's stretch of the true shortest path. Measured:
// delivery rate and hop-stretch of greedy routes over each construction,
// against the shortest paths of the full topology.
#include "api/registry.hpp"
#include "bench_common.hpp"
#include "sim/routing.hpp"
#include "util/fit.hpp"

using namespace remspan;
using namespace remspan::bench;

int bench_main(int argc, char** argv) {
  Options opts(argc, argv);
  const double mean_n = opts.get_double("n", 700);
  const double side = opts.get_double("side", 7.0);
  const auto num_pairs = static_cast<std::size_t>(opts.get_int("pairs", 400));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 41));
  if (opts.help_requested()) {
    std::cout << opts.usage();
    return 0;
  }
  if (!opts.reject_unknown(std::cerr)) return 2;

  Report report("routing_stretch");
  report.seed(seed);
  report.param("n", mean_n);
  report.param("side", side);
  report.param("pairs", num_pairs);

  banner("Table E9 — greedy routing stretch over remote-spanners",
         "paper: route length <= d_{H_u}(u,v) <= alpha d_G(u,v) + beta (Section 1)");

  const Graph g = paper_udg(side, mean_n, seed);
  std::cout << "random UDG: n=" << g.num_nodes() << " m=" << g.num_edges() << ", "
            << num_pairs << " random pairs\n\n";

  Rng rng(seed + 1);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < num_pairs) {
    const auto s = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.uniform(g.num_nodes()));
    if (s != t) pairs.emplace_back(s, t);
  }

  // Every construction goes through the facade by spec; the stretch bound
  // each route is checked against is the facade's guarantee.
  struct Case {
    std::string name;
    EdgeSet h;
    double alpha;
    double beta;
  };
  std::vector<Case> cases;
  for (const auto& [name, spec] : std::initializer_list<std::pair<const char*, const char*>>{
           {"full topology", "full"},
           {"(1,0)-rem-span [Th.2 k=1]", "th2?k=1"},
           {"OLSR MPR union", "mpr"},
           {"(1.5,0)-rem-span [Th.1]", "th1?eps=0.5"},
           {"(2,-1)-rem-span [Th.1 eps=1]", "th1?eps=1"}}) {
    api::SpannerResult res = api::build_spanner(g, spec);
    cases.push_back({name, std::move(res.edges), res.guarantee.alpha, res.guarantee.beta});
  }

  Table table({"advertised H", "edges", "delivered", "max hop-stretch", "avg hop-stretch",
               "bound respected"});
  bool all_bounds_ok = true;
  bool all_delivered = true;
  for (const auto& c : cases) {
    const auto samples = route_sample_pairs(c.h, pairs);
    std::size_t delivered = 0;
    double max_ratio = 1.0, sum_ratio = 0.0;
    std::size_t ratio_n = 0;
    bool ok = true;
    for (const auto& s : samples) {
      if (s.route_hops == kUnreachable) continue;
      ++delivered;
      if (s.shortest >= 1) {
        const double ratio =
            static_cast<double>(s.route_hops) / static_cast<double>(s.shortest);
        max_ratio = std::max(max_ratio, ratio);
        sum_ratio += ratio;
        ++ratio_n;
        if (static_cast<double>(s.route_hops) >
            c.alpha * static_cast<double>(s.shortest) + std::max(0.0, c.beta) + 1e-9) {
          ok = false;
        }
      }
    }
    table.add_row({c.name, std::to_string(c.h.size()),
                   std::to_string(delivered) + "/" + std::to_string(samples.size()),
                   format_double(max_ratio, 3),
                   format_double(ratio_n ? sum_ratio / static_cast<double>(ratio_n) : 1.0, 3),
                   ok ? "yes" : "NO"});
    all_bounds_ok = all_bounds_ok && ok;
    all_delivered = all_delivered && delivered == samples.size();
  }
  table.print(std::cout);
  std::cout << "\nEvery remote-spanner row must deliver all pairs with the bound\n"
               "respected; the (1,0) rows route on exact shortest paths.\n";
  report.value("component_nodes", g.num_nodes());
  report.value("edges_full", cases[0].h.size());
  report.value("edges_th2_k1", cases[1].h.size());
  report.value("edges_mpr", cases[2].h.size());
  report.value("all_delivered", static_cast<std::int64_t>(all_delivered));
  report.value("all_bounds_respected", static_cast<std::int64_t>(all_bounds_ok));
  report.finish();
  return 0;
}

int main(int argc, char** argv) { return cli_main(bench_main, argc, argv); }
