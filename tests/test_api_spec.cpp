// The public facade: spec grammar round-trips, bad-spec errors, and —
// the load-bearing guarantee — facade builds bit-exact equal to calling
// the underlying constructions directly, for all seven shipped kinds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "baseline/baswana_sen.hpp"
#include "baseline/greedy_spanner.hpp"
#include "baseline/mpr.hpp"
#include "core/remote_spanner.hpp"
#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/graphio.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

Graph test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return largest_component(uniform_unit_ball_graph(150, 4.5, 2, rng).graph);
}

TEST(ApiSpec, SpannerSpecCanonicalStringsRoundTrip) {
  // parse(to_string(s)) == s, and to_string(parse(text)) is canonical.
  const api::SpannerSpec specs[] = {
      api::SpannerSpec::th1(0.5),
      api::SpannerSpec::th1(0.25, TreeAlgorithm::kGreedy),
      api::SpannerSpec::th2(1),
      api::SpannerSpec::th2(3),
      api::SpannerSpec::th3(2),
      api::SpannerSpec::mpr(),
      api::SpannerSpec::greedy(3.0),
      api::SpannerSpec::baswana(2),
      api::SpannerSpec::baswana(3, 42),
      api::SpannerSpec::full(),
  };
  for (const auto& spec : specs) {
    EXPECT_EQ(api::parse_spanner_spec(spec.to_string()), spec) << spec.to_string();
  }
  EXPECT_EQ(api::SpannerSpec::th1(0.5).to_string(), "th1?eps=0.5");
  EXPECT_EQ(api::SpannerSpec::th1(0.25, TreeAlgorithm::kGreedy).to_string(),
            "th1?eps=0.25&tree=greedy");
  EXPECT_EQ(api::SpannerSpec::th2(2).to_string(), "th2?k=2");
  EXPECT_EQ(api::SpannerSpec::baswana(3, 42).to_string(), "baswana?k=3&seed=42");
  EXPECT_EQ(api::SpannerSpec::mpr().to_string(), "mpr");
  EXPECT_EQ(api::SpannerSpec::full().to_string(), "full");
  // Bare kinds parse to their defaults; defaults re-print canonically.
  EXPECT_EQ(api::parse_spanner_spec("th2").to_string(), "th2?k=1");
  EXPECT_EQ(api::parse_spanner_spec("th3").to_string(), "th3?k=2");
  EXPECT_EQ(api::parse_spanner_spec("baswana").to_string(), "baswana?k=2");
  EXPECT_EQ(api::parse_spanner_spec("greedy").to_string(), "greedy?t=3");
  // Round-trip holds even when the parameter needs more than %g's 6
  // significant digits.
  const api::SpannerSpec precise = api::SpannerSpec::th1(0.1234567);
  EXPECT_EQ(api::parse_spanner_spec(precise.to_string()), precise) << precise.to_string();
}

TEST(ApiSpec, GraphSpecCanonicalStringsRoundTrip) {
  const api::GraphSpec specs[] = {
      api::GraphSpec::udg(500, 6.0),
      api::GraphSpec::udg(400, 7.5, 9),
      api::GraphSpec::gnp(300, 12.0),
      api::GraphSpec::ba(200, 3),
      api::GraphSpec::ws(200, 6, 0.1, 2),
      api::GraphSpec::grid(256),
      api::GraphSpec::file("graphs/x.txt"),
  };
  for (const auto& spec : specs) {
    EXPECT_EQ(api::parse_graph_spec(spec.to_string()), spec) << spec.to_string();
  }
  EXPECT_EQ(api::GraphSpec::udg(500, 6.0).to_string(), "udg?n=500&side=6");
  EXPECT_EQ(api::GraphSpec::udg(400, 7.5, 9).to_string(), "udg?n=400&side=7.5&seed=9");
  EXPECT_EQ(api::GraphSpec::file("g.txt").to_string(), "file:g.txt");
}

TEST(ApiSpec, BadSpecsThrowWithTheOffendingTokenNamed) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)api::parse_spanner_spec(text);
    } catch (const api::SpecError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("th1?eps=banana").find("banana"), std::string::npos);
  EXPECT_NE(message_of("th1?radius=3").find("radius"), std::string::npos);
  EXPECT_NE(message_of("th1?eps=0").find("eps"), std::string::npos);
  EXPECT_NE(message_of("th1?eps=1.5").find("eps"), std::string::npos);
  EXPECT_NE(message_of("th2?k=0").find("k"), std::string::npos);
  EXPECT_NE(message_of("th2?k=-1").find("-1"), std::string::npos);
  EXPECT_NE(message_of("greedy?t=0.5").find("t"), std::string::npos);
  // Non-finite tokens are rejected outright: NaN would otherwise slip past
  // the range checks (NaN < 1.0 is false) and poison the stretch oracle.
  EXPECT_NE(message_of("greedy?t=nan").find("nan"), std::string::npos);
  EXPECT_NE(message_of("th1?eps=inf").find("inf"), std::string::npos);
  EXPECT_THROW((void)api::parse_graph_spec("udg?n=100&side=inf"), api::SpecError);
  EXPECT_NE(message_of("mpr?k=2").find("k"), std::string::npos);
  EXPECT_NE(message_of("th2?k").find("k"), std::string::npos);       // missing '='
  EXPECT_NE(message_of("th2?=1").find("=1"), std::string::npos);     // missing key
  EXPECT_NE(message_of("th!x").find("th!x"), std::string::npos);
  EXPECT_THROW((void)api::parse_spanner_spec(""), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("octahedron?n=5"), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("udg?deg=4"), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("file:"), api::SpecError);
  EXPECT_THROW((void)api::parse_graph_spec("udg?n=0"), api::SpecError);
  // Unknown construction names are rejected at parse time, naming the
  // token and the seven kinds.
  const std::string unknown = message_of("th9?x=1");
  EXPECT_NE(unknown.find("th9"), std::string::npos);
  EXPECT_NE(unknown.find("th1|th2|th3|mpr|greedy|baswana|full"), std::string::npos);
  EXPECT_THROW((void)api::parse_spanner_spec("my-algo"), api::SpecError);
}

TEST(ApiSpec, BuildGraphMatchesGeneratorsAndReadsFiles) {
  // Generator kinds produce exactly what calling the generator would.
  {
    Rng direct(7);
    const Graph expected =
        largest_component(uniform_unit_ball_graph(200, 5.0, 2, direct).graph);
    const Graph got = api::build_graph(api::GraphSpec::udg(200, 5.0, 7));
    EXPECT_EQ(got.num_nodes(), expected.num_nodes());
    EXPECT_TRUE(std::equal(got.edges().begin(), got.edges().end(), expected.edges().begin(),
                           expected.edges().end()));
  }
  // file: round-trips through the edge-list format.
  const Graph g = test_graph(5);
  const std::string path = "test_api_spec_graph.txt";
  {
    std::ofstream out(path);
    write_edge_list(out, g);
  }
  const Graph loaded = api::build_graph(api::parse_graph_spec("file:" + path));
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_TRUE(std::equal(loaded.edges().begin(), loaded.edges().end(), g.edges().begin(),
                         g.edges().end()));
  std::remove(path.c_str());
  EXPECT_THROW((void)api::build_graph(api::GraphSpec::file("does_not_exist.txt")),
               api::SpecError);
}

TEST(ApiSpec, RegistryBuildsBitExactMatchTheDirectConstructions) {
  const Graph g = test_graph(11);
  // th1, both tree backends.
  EXPECT_EQ(api::build_spanner(g, "th1?eps=0.5").edges,
            build_low_stretch_remote_spanner(g, 0.5, TreeAlgorithm::kMis));
  EXPECT_EQ(api::build_spanner(g, "th1?eps=0.25&tree=greedy").edges,
            build_low_stretch_remote_spanner(g, 0.25, TreeAlgorithm::kGreedy));
  // th2 / th3.
  EXPECT_EQ(api::build_spanner(g, "th2?k=1").edges, build_k_connecting_spanner(g, 1));
  EXPECT_EQ(api::build_spanner(g, "th2?k=2").edges, build_k_connecting_spanner(g, 2));
  EXPECT_EQ(api::build_spanner(g, "th3?k=2").edges, build_2connecting_spanner(g, 2));
  // mpr / greedy / full.
  EXPECT_EQ(api::build_spanner(g, "mpr").edges, olsr_mpr_spanner(g));
  EXPECT_EQ(api::build_spanner(g, "greedy?t=3").edges, greedy_spanner(g, 3.0));
  EXPECT_EQ(api::build_spanner(g, "full").edges, EdgeSet(g, true));
  // baswana: seeded from the spec...
  {
    Rng direct(9);
    EXPECT_EQ(api::build_spanner(g, "baswana?k=2&seed=9").edges,
              baswana_sen_spanner(g, 2, direct));
  }
  // ...or drawing from a caller-threaded RNG (remspan_tool's shared seed).
  {
    Rng direct(4);
    const EdgeSet first = baswana_sen_spanner(g, 2, direct);
    const EdgeSet second = baswana_sen_spanner(g, 3, direct);
    Rng threaded(4);
    api::BuildContext ctx;
    ctx.rng = &threaded;
    EXPECT_EQ(api::build_spanner(g, "baswana?k=2", ctx).edges, first);
    EXPECT_EQ(api::build_spanner(g, "baswana?k=3", ctx).edges, second);
  }
  // SpannerBuildInfo flows through for the tree-union constructions.
  SpannerBuildInfo direct_info;
  (void)build_k_connecting_spanner(g, 1, &direct_info);
  const api::SpannerResult res = api::build_spanner(g, "th2?k=1");
  EXPECT_EQ(res.info.sum_tree_edges, direct_info.sum_tree_edges);
  EXPECT_EQ(res.info.max_tree_edges, direct_info.max_tree_edges);
}

TEST(ApiSpec, GuaranteesLabelsAndVerifiersMatchTheConstructions) {
  const Graph g = test_graph(13);
  const auto th1 = api::build_spanner(g, "th1?eps=0.5");
  EXPECT_DOUBLE_EQ(th1.guarantee.alpha, 1.5);
  EXPECT_DOUBLE_EQ(th1.guarantee.beta, 0.0);
  EXPECT_EQ(th1.guarantee_label, "remote (1.50,0.00)");
  ASSERT_NE(th1.verify, nullptr);
  EXPECT_TRUE(th1.verify(g, th1.edges, {}).satisfied);

  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("th2?k=2")),
            "2-connecting remote (1,0)");
  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("th3")),
            "2-connecting remote (2,-1)");
  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("mpr")), "remote (1,0) via OLSR MPR");
  EXPECT_EQ(api::guarantee_label(api::parse_spanner_spec("baswana?k=3")), "classical (5,0)");
  EXPECT_DOUBLE_EQ(api::guarantee(api::parse_spanner_spec("greedy?t=3")).alpha, 3.0);

  // full has nothing to verify; every other kind has an oracle.
  EXPECT_EQ(api::make_verifier(api::parse_spanner_spec("full")), nullptr);
  EXPECT_NE(api::make_verifier(api::parse_spanner_spec("th2")), nullptr);
  const auto th2 = api::build_spanner(g, "th2?k=1");
  api::VerifyOptions opts;
  opts.sample_pairs = 100;
  EXPECT_TRUE(th2.verify(g, th2.edges, opts).satisfied);
}

TEST(ApiSpec, FacadeAnswersArePinnedForEveryKind) {
  // Every facade answer per kind, at non-default parameters, so a change to
  // how specs map onto constructions cannot move any of them silently.
  struct IncrementalRow {
    const char* name;
    Dist dirty_radius;
    Dist ball_depth;
  };
  struct ProtocolRow {
    Dist flood_scope;
    std::uint32_t expected_rounds;
    const char* kind_name;
  };
  struct Row {
    const char* spec;
    bool has_verifier;
    double alpha;
    double beta;
    const char* label;
    std::optional<IncrementalRow> incremental;
    std::optional<ProtocolRow> protocol;
  };
  const Row rows[] = {
      {"th1?eps=0.25&tree=greedy", true, 1.25, 0.5, "remote (1.25,0.50)",
       IncrementalRow{"r-beta (greedy)", 5, 5}, ProtocolRow{5, 11, "low-stretch (greedy)"}},
      {"th1?eps=0.4", true, 1.4, 1.0 - 2.0 * 0.4, "remote (1.40,0.20)",
       IncrementalRow{"r-beta (mis)", 4, 4}, ProtocolRow{4, 9, "low-stretch (mis)"}},
      {"th2?k=3", true, 1.0, 0.0, "3-connecting remote (1,0)",
       IncrementalRow{"k-connecting (1,0)", 1, 2}, ProtocolRow{1, 3, "k-connecting (greedy)"}},
      {"th3?k=1", true, 2.0, -1.0, "2-connecting remote (2,-1)",
       IncrementalRow{"k-connecting (2,1)", 2, 2}, ProtocolRow{2, 5, "k-connecting (mis)"}},
      {"mpr", true, 1.0, 0.0, "remote (1,0) via OLSR MPR", std::nullopt,
       ProtocolRow{1, 3, "olsr-mpr"}},
      {"greedy?t=2.5", true, 2.5, 0.0, "classical (2.5,0)", std::nullopt, std::nullopt},
      {"baswana?k=3&seed=7", true, 5.0, 0.0, "classical (5,0)", std::nullopt, std::nullopt},
      {"full", false, 1.0, 0.0, "all edges", std::nullopt, std::nullopt},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.spec);
    const api::SpannerSpec spec = api::parse_spanner_spec(row.spec);
    EXPECT_EQ(api::supports_incremental(spec), row.incremental.has_value());
    EXPECT_EQ(api::supports_protocol(spec), row.protocol.has_value());
    EXPECT_EQ(api::make_verifier(spec) != nullptr, row.has_verifier);
    const Stretch s = api::guarantee(spec);
    EXPECT_DOUBLE_EQ(s.alpha, row.alpha);
    EXPECT_DOUBLE_EQ(s.beta, row.beta);
    EXPECT_EQ(api::guarantee_label(spec), row.label);
    if (row.incremental) {
      const IncrementalConfig inc = api::incremental_config(spec);
      EXPECT_STREQ(inc.name(), row.incremental->name);
      EXPECT_EQ(inc.dirty_radius(), row.incremental->dirty_radius);
      EXPECT_EQ(inc.ball_depth(), row.incremental->ball_depth);
    }
    if (row.protocol) {
      const RemSpanConfig proto = api::protocol_config(spec);
      EXPECT_EQ(proto.flood_scope(), row.protocol->flood_scope);
      EXPECT_EQ(proto.expected_rounds(), row.protocol->expected_rounds);
      EXPECT_STREQ(proto.kind_name(), row.protocol->kind_name);
    }
  }
}

TEST(ApiSpec, CapabilityMapsMatchTheDynamicAndProtocolConfigs) {
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("th1")));
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("th2")));
  EXPECT_TRUE(api::supports_incremental(api::parse_spanner_spec("th3")));
  EXPECT_FALSE(api::supports_incremental(api::parse_spanner_spec("mpr")));
  EXPECT_FALSE(api::supports_incremental(api::parse_spanner_spec("greedy")));
  EXPECT_FALSE(api::supports_incremental(api::parse_spanner_spec("full")));
  EXPECT_TRUE(api::supports_protocol(api::parse_spanner_spec("mpr")));
  EXPECT_FALSE(api::supports_protocol(api::parse_spanner_spec("baswana")));

  const IncrementalConfig inc = api::incremental_config(api::parse_spanner_spec("th2?k=2"));
  EXPECT_EQ(inc.algorithm(), TreeRecipe::Algorithm::kGreedyK);
  EXPECT_EQ(inc.k(), 2u);
  const IncrementalConfig th1 = api::incremental_config(api::parse_spanner_spec("th1?eps=0.5"));
  EXPECT_EQ(th1.algorithm(), TreeRecipe::Algorithm::kMis);
  EXPECT_EQ(th1.r(), domination_radius_for_eps(0.5));

  const RemSpanConfig proto = api::protocol_config(api::parse_spanner_spec("th1?eps=0.25"));
  EXPECT_FALSE(proto.olsr_mpr);
  EXPECT_EQ(proto.tree.algorithm(), TreeRecipe::Algorithm::kMis);
  EXPECT_EQ(proto.tree.r(), 5u);
  EXPECT_TRUE(api::protocol_config(api::parse_spanner_spec("mpr")).olsr_mpr);
  EXPECT_THROW((void)api::incremental_config(api::parse_spanner_spec("mpr")), api::SpecError);
  EXPECT_THROW((void)api::protocol_config(api::parse_spanner_spec("full")), api::SpecError);
}

TEST(ApiSpec, IncrementalSessionTracksTheDirectEngine) {
  const Graph g = test_graph(17);
  const api::SpannerSpec spec = api::parse_spanner_spec("th2?k=1");
  const auto session = api::open_incremental_session(g, spec);
  // (edge_list compare: the session maintains its own snapshot copy of g.)
  EXPECT_EQ(session->spanner().edge_list(), build_k_connecting_spanner(g, 1).edge_list());
  // A mixed batch stays bit-exact vs a from-scratch facade build.
  std::vector<GraphEvent> batch;
  const Edge e0 = g.edge(0);
  batch.push_back(GraphEvent::edge_down(e0.u, e0.v));
  batch.push_back(GraphEvent::edge_up(0, g.num_nodes() - 1));
  const ChurnBatchStats stats = session->apply_batch(batch);
  EXPECT_EQ(stats.spanner_edges, session->spanner().size());
  EXPECT_EQ(session->spanner(), api::build_spanner(session->graph(), spec).edges);
  EXPECT_THROW((void)api::open_incremental_session(g, api::parse_spanner_spec("greedy")),
               api::SpecError);
}

}  // namespace
}  // namespace remspan
