// Fuzz-style property test of the spec grammar (api/spec.hpp): for ANY
// input string, parsing has exactly two allowed outcomes —
//
//   1. it succeeds, and then the canonical form round-trips losslessly:
//      parse(spec.to_string()) == spec, and to_string is idempotent;
//   2. it throws SpecError whose message names the offending token (the
//      first single-quoted fragment occurs in the input), or is the
//      structural "empty spec" complaint for inputs with no kind.
//
// No third outcome: no other exception type, no crash, no silently
// misparsed spec. The generator is seeded (determinism conventions,
// docs/TESTING.md): every failure reproduces from the printed iteration.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "util/rng.hpp"

namespace remspan {
namespace {

using api::SpecError;

/// First 'single-quoted' fragment of a SpecError message; nullopt when the
/// message quotes nothing. The token itself may be empty ('' names an
/// empty parameter item, e.g. a trailing '&') — distinct from nullopt.
std::optional<std::string> first_quoted_token(const std::string& message) {
  const auto open = message.find('\'');
  if (open == std::string::npos) return std::nullopt;
  const auto close = message.find('\'', open + 1);
  if (close == std::string::npos) return std::nullopt;
  return message.substr(open + 1, close - open - 1);
}

/// The two-outcome property for one input under one parser.
template <typename Spec, typename ParseFn>
void expect_parse_or_named_error(const std::string& input, const ParseFn& parse,
                                 const std::string& label) {
  Spec spec;
  try {
    spec = parse(input);
  } catch (const SpecError& e) {
    const std::string message = e.what();
    ASSERT_FALSE(message.empty()) << label << " input='" << input << "'";
    const std::optional<std::string> token = first_quoted_token(message);
    // Every rejection names a token from the input, except the structural
    // empty-kind complaint. (An empty quoted token '' is a degenerate
    // name for an empty parameter item and matches any input.)
    if (!token) {
      EXPECT_EQ(message, "empty spec") << label << " input='" << input << "'";
    } else {
      EXPECT_NE(input.find(*token), std::string::npos)
          << label << " input='" << input << "': message \"" << message
          << "\" names a token absent from the input";
    }
    return;
  }
  // Parse succeeded: the canonical form must round-trip bit-exact. A
  // SpecError here (canonical form rejected) is a property violation, so
  // let it escape as a test failure.
  const std::string canonical = spec.to_string();
  const Spec again = parse(canonical);
  EXPECT_TRUE(again == spec) << label << " input='" << input << "' canonical='" << canonical
                             << "' re-parse changed the spec";
  EXPECT_EQ(again.to_string(), canonical)
      << label << " input='" << input << "': to_string not idempotent";
}

/// Grammar-aware generator: mostly well-shaped kind?key=value&... strings
/// over a pool of valid and invalid fragments, plus occasional structural
/// mutations (missing '=', stray separators, empty items).
class SpecStringGenerator {
 public:
  explicit SpecStringGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    static const std::vector<std::string> kinds = {
        "th1", "th2",  "th3",    "mpr",  "greedy", "baswana", "full",   "udg",
        "gnp", "ba",   "ws",     "grid", "file:g", "file:",   "custom", "my-algo2",
        "",    "TH1",  "th1 x",  "a!b",  "th2?",   "0",       "th4"};
    static const std::vector<std::string> keys = {
        "eps", "k", "t", "seed", "tree", "n", "side", "deg",
        "m",   "ring", "rewire", "bogus", "K", "", "k k"};
    static const std::vector<std::string> values = {
        "0.5", "2",  "1",   "0",    "-1",  "abc", "",    "1e3",
        "1.5", "mis", "greedy", "7",  "0.0", "999999999999999999999", "3.14", "=",
        "nan"};

    std::string out = pick(kinds);
    const std::size_t params = rng_.uniform(4);
    for (std::size_t i = 0; i < params; ++i) {
      out += i == 0 ? "?" : "&";
      const double mutation = rng_.uniform_real();
      if (mutation < 0.08) continue;  // empty item: "th2?&k=1" shapes
      out += pick(keys);
      if (mutation < 0.16) continue;  // missing '=value'
      out += "=";
      out += pick(values);
    }
    // Occasionally append raw separator noise.
    const double tail = rng_.uniform_real();
    if (tail < 0.05) out += "?";
    if (tail > 0.95) out += "&";
    return out;
  }

 private:
  const std::string& pick(const std::vector<std::string>& pool) {
    return pool[rng_.uniform(pool.size())];
  }

  Rng rng_;
};

TEST(SpecFuzz, SpannerSpecsParseOrNameTheOffendingToken) {
  SpecStringGenerator gen(0xC0FFEE);
  for (int i = 0; i < 4000; ++i) {
    const std::string input = gen.next();
    expect_parse_or_named_error<api::SpannerSpec>(
        input, [](const std::string& s) { return api::parse_spanner_spec(s); },
        "spanner iter=" + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SpecFuzz, GraphSpecsParseOrNameTheOffendingToken) {
  SpecStringGenerator gen(0xBEEF);
  for (int i = 0; i < 4000; ++i) {
    const std::string input = gen.next();
    expect_parse_or_named_error<api::GraphSpec>(
        input, [](const std::string& s) { return api::parse_graph_spec(s); },
        "graph iter=" + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The documented valid corners stay valid and canonical (anchors the fuzz
/// pools: if one of these starts throwing, the generator's "valid" pool is
/// stale, not the grammar).
TEST(SpecFuzz, CanonicalExamplesRoundTrip) {
  for (const char* text : {"th1?eps=0.5", "th2?k=2", "th3?k=2", "mpr", "greedy?t=3",
                           "baswana?k=3&seed=7", "full"}) {
    const api::SpannerSpec spec = api::parse_spanner_spec(text);
    EXPECT_EQ(api::parse_spanner_spec(spec.to_string()), spec) << text;
  }
  // Only the seven kinds parse; any other name is an error.
  EXPECT_THROW((void)api::parse_spanner_spec("custom?alpha=raw"), api::SpecError);
  for (const char* text : {"udg?n=500&side=6", "gnp?n=300&deg=12", "ba?n=200&m=3",
                           "ws?n=100&ring=6&rewire=0.1", "grid?n=64", "file:graph.txt"}) {
    const api::GraphSpec spec = api::parse_graph_spec(text);
    EXPECT_EQ(api::parse_graph_spec(spec.to_string()), spec) << text;
  }
}

}  // namespace
}  // namespace remspan
