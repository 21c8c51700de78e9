// Typed, string-addressable descriptions of the library's two kinds of
// inputs: which spanner to build (SpannerSpec) and which graph to build it
// on (GraphSpec). Every spec has a canonical string form
//
//   spanner-spec := kind [ '?' key '=' value ( '&' key '=' value )* ]
//                   kind in { th1, th2, th3, mpr, greedy, baswana, full }
//   graph-spec   := 'file:' path
//                 | kind [ '?' key '=' value ( '&' key '=' value )* ]
//                   kind in { udg, gnp, ba, ws, grid }
//
// e.g. "th1?eps=0.5", "th2?k=2", "baswana?k=3&seed=7", "udg?n=500&side=6",
// "file:graph.txt". parse and to_string round-trip: parse(to_string(s)) == s
// for every valid spec, and to_string(parse(str)) is the canonical spelling
// of str (parameters in fixed order, defaults that equal the canonical
// default omitted). Unknown kinds, unknown keys and out-of-range values
// throw SpecError with the offending token named.
//
// These specs are the currency of the whole public surface: the facade
// (api/registry.hpp) maps a SpannerSpec to its construction, remspan_tool
// assembles one from its flags, and the C ABI
// (include/remspan/remspan.h) accepts the string forms verbatim.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/remote_spanner.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace remspan::api {

/// Thrown on malformed or out-of-range specs; what() names the offending
/// kind/key/value. The C ABI maps it to REMSPAN_ERR_PARSE.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A fully-parameterized spanner construction. The seven kinds mirror the
/// constructions the library ships (three theorems plus the baselines);
/// only the parameters a kind reads are meaningful for it (the rest stay
/// at their defaults, and to_string never prints them).
struct SpannerSpec {
  enum class Kind : std::uint8_t {
    kTh1,      ///< Theorem 1: (1+eps, 1-2eps)-remote-spanner (param eps, tree)
    kTh2,      ///< Theorem 2: k-connecting (1,0)-remote-spanner (param k)
    kTh3,      ///< Theorem 3: k-connecting (2,-1)-remote-spanner (param k)
    kMpr,      ///< OLSR multipoint-relay union (RFC 3626)
    kGreedy,   ///< classical greedy (t,0)-spanner (param t)
    kBaswana,  ///< Baswana-Sen (2k-1,0)-spanner (params k, seed)
    kFull,     ///< all edges (trivial baseline)
  };

  Kind kind = Kind::kTh2;
  double eps = 0.5;                          ///< th1 stretch parameter, 0 < eps <= 1
  TreeAlgorithm tree = TreeAlgorithm::kMis;  ///< th1 per-root backend
  Dist k = 1;                                ///< th2/th3 connectivity, baswana parameter
  double t = 3.0;                            ///< greedy stretch, >= 1
  std::uint64_t seed = 1;                    ///< baswana RNG seed

  [[nodiscard]] static SpannerSpec th1(double eps, TreeAlgorithm tree = TreeAlgorithm::kMis);
  [[nodiscard]] static SpannerSpec th2(Dist k = 1);
  [[nodiscard]] static SpannerSpec th3(Dist k = 2);
  [[nodiscard]] static SpannerSpec mpr();
  [[nodiscard]] static SpannerSpec greedy(double t = 3.0);
  [[nodiscard]] static SpannerSpec baswana(Dist k = 2, std::uint64_t seed = 1);
  [[nodiscard]] static SpannerSpec full();

  /// Name of the kind: "th1", "th2", ..., "full".
  [[nodiscard]] const char* kind_name() const noexcept;

  /// Canonical string form, e.g. "th1?eps=0.5" ("&tree=greedy" only when
  /// not the MIS default), "th2?k=1", "baswana?k=2" ("&seed=..." only when
  /// not the default 1), "mpr".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SpannerSpec&, const SpannerSpec&) = default;
};

/// Parses the spanner-spec grammar above; throws SpecError on unknown
/// kind/key (an unknown kind's message lists the seven kinds), malformed
/// numbers, or out-of-range values (eps outside (0,1], k < 1, t < 1).
[[nodiscard]] SpannerSpec parse_spanner_spec(const std::string& text);

/// A graph workload: either a generator family with parameters or an edge
/// list file. Matches the generator semantics of remspan_tool: `udg` keeps
/// the largest component of a uniform unit disk graph, `gnp` conditions on
/// connectivity.
struct GraphSpec {
  enum class Kind : std::uint8_t {
    kUdg,   ///< uniform unit disk graph in [0,side]^2, largest component
    kGnp,   ///< connected G(n, deg/n)
    kBa,    ///< Barabasi-Albert preferential attachment (param m)
    kWs,    ///< Watts-Strogatz ring (params ring, rewire)
    kGrid,  ///< grid with 16 columns, ceil-ish rows (n/16 + 1)
    kFile,  ///< edge-list file (path)
  };

  Kind kind = Kind::kUdg;
  NodeId n = 400;           ///< node count target (generators)
  double side = 6.0;        ///< udg square side
  double deg = 10.0;        ///< gnp expected average degree
  NodeId m = 3;             ///< ba edges per arriving node
  NodeId ring = 6;          ///< ws ring degree
  double rewire = 0.1;      ///< ws rewiring probability
  std::uint64_t seed = 1;   ///< generator RNG seed
  std::string path;         ///< file path (kFile)

  [[nodiscard]] static GraphSpec udg(NodeId n, double side = 6.0, std::uint64_t seed = 1);
  [[nodiscard]] static GraphSpec gnp(NodeId n, double deg = 10.0, std::uint64_t seed = 1);
  [[nodiscard]] static GraphSpec ba(NodeId n, NodeId m = 3, std::uint64_t seed = 1);
  [[nodiscard]] static GraphSpec ws(NodeId n, NodeId ring = 6, double rewire = 0.1,
                                    std::uint64_t seed = 1);
  [[nodiscard]] static GraphSpec grid(NodeId n);
  [[nodiscard]] static GraphSpec file(std::string path);

  [[nodiscard]] const char* kind_name() const noexcept;

  /// Canonical string form, e.g. "udg?n=500&side=6" ("&seed=" only when
  /// not 1), "file:graph.txt".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const GraphSpec&, const GraphSpec&) = default;
};

/// Parses the graph-spec grammar; throws SpecError like parse_spanner_spec.
[[nodiscard]] GraphSpec parse_graph_spec(const std::string& text);

/// Materializes the workload a GraphSpec describes. Generator kinds consume
/// `rng` when one is passed (so a caller can thread one RNG through
/// generation and a seeded construction, the way remspan_tool does) and a
/// fresh Rng(spec.seed) otherwise. kFile reads the edge-list format of
/// graph/graphio.hpp; I/O and parse failures throw SpecError.
[[nodiscard]] Graph build_graph(const GraphSpec& spec, Rng* rng = nullptr);

/// Canonical minimal rendering of a numeric spec value ("0.5", not
/// "0.500000"); shared by the spec printers and the guarantee labels.
[[nodiscard]] std::string spec_number(double v);

}  // namespace remspan::api
