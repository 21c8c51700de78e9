#include "api/spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "geom/ball_graph.hpp"
#include "geom/synthetic.hpp"
#include "graph/connectivity.hpp"
#include "graph/graphio.hpp"
#include "util/strnum.hpp"

namespace remspan::api {
namespace {

struct Param {
  std::string key;
  std::string value;
};

/// Splits "kind?k1=v1&k2=v2" into the kind and its key=value list; the
/// grammar is shared by both spec families.
struct SplitSpec {
  std::string kind;
  std::vector<Param> params;
};

SplitSpec split_spec(const std::string& text) {
  SplitSpec out;
  const auto qmark = text.find('?');
  out.kind = text.substr(0, qmark);
  if (out.kind.empty()) throw SpecError("empty spec");
  if (qmark == std::string::npos) return out;
  std::string rest = text.substr(qmark + 1);
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    const auto amp = rest.find('&', pos);
    const std::string item =
        rest.substr(pos, amp == std::string::npos ? std::string::npos : amp - pos);
    const auto eq = item.find('=');
    if (item.empty() || eq == 0 || eq == std::string::npos || eq + 1 == item.size()) {
      throw SpecError("malformed parameter '" + item + "' in spec '" + text +
                      "' (expected key=value)");
    }
    out.params.push_back({item.substr(0, eq), item.substr(eq + 1)});
    if (amp == std::string::npos) break;
    pos = amp + 1;
  }
  return out;
}

double parse_double_value(const Param& p) {
  const auto v = parse_full_double(p.value);
  if (!v) {
    throw SpecError("parameter '" + p.key + "': '" + p.value + "' is not a number");
  }
  return *v;
}

std::uint64_t parse_uint_value(const Param& p) {
  const auto v = parse_full_int(p.value);
  if (!v || *v < 0) {
    throw SpecError("parameter '" + p.key + "': '" + p.value +
                    "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(*v);
}

[[noreturn]] void unknown_key(const std::string& kind, const Param& p) {
  throw SpecError("unknown parameter '" + p.key + "' for '" + kind + "'");
}

}  // namespace

std::string spec_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  // %g keeps canonical strings short but holds only 6 significant digits;
  // fall back to round-trip-exact precision when that loses information,
  // so parse(to_string(s)) == s holds for every finite normal parameter
  // (subnormals are rejected by parse_full_double's stod underflow, which
  // the string grammar never produces in the first place). The round-trip
  // probe goes through the same strict parser the spec grammar uses.
  if (parse_full_double(buf) != std::optional<double>(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

// --- SpannerSpec ----------------------------------------------------------

SpannerSpec SpannerSpec::th1(double eps, TreeAlgorithm tree) {
  SpannerSpec s;
  s.kind = Kind::kTh1;
  s.eps = eps;
  s.tree = tree;
  return s;
}

SpannerSpec SpannerSpec::th2(Dist k) {
  SpannerSpec s;
  s.kind = Kind::kTh2;
  s.k = k;
  return s;
}

SpannerSpec SpannerSpec::th3(Dist k) {
  SpannerSpec s;
  s.kind = Kind::kTh3;
  s.k = k;
  return s;
}

SpannerSpec SpannerSpec::mpr() {
  SpannerSpec s;
  s.kind = Kind::kMpr;
  return s;
}

SpannerSpec SpannerSpec::greedy(double t) {
  SpannerSpec s;
  s.kind = Kind::kGreedy;
  s.t = t;
  return s;
}

SpannerSpec SpannerSpec::baswana(Dist k, std::uint64_t seed) {
  SpannerSpec s;
  s.kind = Kind::kBaswana;
  s.k = k;
  s.seed = seed;
  return s;
}

SpannerSpec SpannerSpec::full() {
  SpannerSpec s;
  s.kind = Kind::kFull;
  return s;
}

const char* SpannerSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kTh1: return "th1";
    case Kind::kTh2: return "th2";
    case Kind::kTh3: return "th3";
    case Kind::kMpr: return "mpr";
    case Kind::kGreedy: return "greedy";
    case Kind::kBaswana: return "baswana";
    case Kind::kFull: return "full";
  }
  return "?";
}

std::string SpannerSpec::to_string() const {
  std::string out = kind_name();
  switch (kind) {
    case Kind::kTh1:
      out += "?eps=" + spec_number(eps);
      if (tree != TreeAlgorithm::kMis) out += "&tree=greedy";
      break;
    case Kind::kTh2:
    case Kind::kTh3:
      out += "?k=" + std::to_string(k);
      break;
    case Kind::kGreedy:
      out += "?t=" + spec_number(t);
      break;
    case Kind::kBaswana:
      out += "?k=" + std::to_string(k);
      if (seed != 1) out += "&seed=" + std::to_string(seed);
      break;
    case Kind::kMpr:
    case Kind::kFull:
      break;
  }
  return out;
}

SpannerSpec parse_spanner_spec(const std::string& text) {
  const SplitSpec split = split_spec(text);
  SpannerSpec spec;
  if (split.kind == "th1") {
    spec = SpannerSpec::th1(0.5);
  } else if (split.kind == "th2") {
    spec = SpannerSpec::th2();
  } else if (split.kind == "th3") {
    spec = SpannerSpec::th3();
  } else if (split.kind == "mpr") {
    spec = SpannerSpec::mpr();
  } else if (split.kind == "greedy") {
    spec = SpannerSpec::greedy();
  } else if (split.kind == "baswana") {
    spec = SpannerSpec::baswana();
  } else if (split.kind == "full") {
    spec = SpannerSpec::full();
  } else {
    throw SpecError("unknown construction '" + split.kind +
                    "' (th1|th2|th3|mpr|greedy|baswana|full)");
  }
  for (const Param& p : split.params) {
    switch (spec.kind) {
      case SpannerSpec::Kind::kTh1:
        if (p.key == "eps") {
          spec.eps = parse_double_value(p);
        } else if (p.key == "tree") {
          if (p.value == "mis") {
            spec.tree = TreeAlgorithm::kMis;
          } else if (p.value == "greedy") {
            spec.tree = TreeAlgorithm::kGreedy;
          } else {
            throw SpecError("parameter 'tree': '" + p.value + "' is not mis|greedy");
          }
        } else {
          unknown_key(split.kind, p);
        }
        break;
      case SpannerSpec::Kind::kTh2:
      case SpannerSpec::Kind::kTh3:
        if (p.key == "k") {
          spec.k = static_cast<Dist>(parse_uint_value(p));
        } else {
          unknown_key(split.kind, p);
        }
        break;
      case SpannerSpec::Kind::kGreedy:
        if (p.key == "t") {
          spec.t = parse_double_value(p);
        } else {
          unknown_key(split.kind, p);
        }
        break;
      case SpannerSpec::Kind::kBaswana:
        if (p.key == "k") {
          spec.k = static_cast<Dist>(parse_uint_value(p));
        } else if (p.key == "seed") {
          spec.seed = parse_uint_value(p);
        } else {
          unknown_key(split.kind, p);
        }
        break;
      case SpannerSpec::Kind::kMpr:
      case SpannerSpec::Kind::kFull:
        unknown_key(split.kind, p);
    }
  }
  if (spec.kind == SpannerSpec::Kind::kTh1 && !(spec.eps > 0.0 && spec.eps <= 1.0)) {
    throw SpecError("parameter 'eps': " + spec_number(spec.eps) + " is outside (0, 1]");
  }
  if ((spec.kind == SpannerSpec::Kind::kTh2 || spec.kind == SpannerSpec::Kind::kTh3 ||
       spec.kind == SpannerSpec::Kind::kBaswana) &&
      spec.k < 1) {
    throw SpecError("parameter 'k': must be >= 1");
  }
  if (spec.kind == SpannerSpec::Kind::kGreedy && !(spec.t >= 1.0)) {
    throw SpecError("parameter 't': " + spec_number(spec.t) + " is not >= 1");
  }
  return spec;
}

// --- GraphSpec ------------------------------------------------------------

GraphSpec GraphSpec::udg(NodeId n, double side, std::uint64_t seed) {
  GraphSpec s;
  s.kind = Kind::kUdg;
  s.n = n;
  s.side = side;
  s.seed = seed;
  return s;
}

GraphSpec GraphSpec::gnp(NodeId n, double deg, std::uint64_t seed) {
  GraphSpec s;
  s.kind = Kind::kGnp;
  s.n = n;
  s.deg = deg;
  s.seed = seed;
  return s;
}

GraphSpec GraphSpec::ba(NodeId n, NodeId m, std::uint64_t seed) {
  GraphSpec s;
  s.kind = Kind::kBa;
  s.n = n;
  s.m = m;
  s.seed = seed;
  return s;
}

GraphSpec GraphSpec::ws(NodeId n, NodeId ring, double rewire, std::uint64_t seed) {
  GraphSpec s;
  s.kind = Kind::kWs;
  s.n = n;
  s.ring = ring;
  s.rewire = rewire;
  s.seed = seed;
  return s;
}

GraphSpec GraphSpec::grid(NodeId n) {
  GraphSpec s;
  s.kind = Kind::kGrid;
  s.n = n;
  return s;
}

GraphSpec GraphSpec::file(std::string path) {
  GraphSpec s;
  s.kind = Kind::kFile;
  s.path = std::move(path);
  return s;
}

const char* GraphSpec::kind_name() const noexcept {
  switch (kind) {
    case Kind::kUdg: return "udg";
    case Kind::kGnp: return "gnp";
    case Kind::kBa: return "ba";
    case Kind::kWs: return "ws";
    case Kind::kGrid: return "grid";
    case Kind::kFile: return "file";
  }
  return "?";
}

std::string GraphSpec::to_string() const {
  if (kind == Kind::kFile) return "file:" + path;
  std::string out = kind_name();
  out += "?n=" + std::to_string(n);
  switch (kind) {
    case Kind::kUdg:
      out += "&side=" + spec_number(side);
      break;
    case Kind::kGnp:
      out += "&deg=" + spec_number(deg);
      break;
    case Kind::kBa:
      out += "&m=" + std::to_string(m);
      break;
    case Kind::kWs:
      out += "&ring=" + std::to_string(ring) + "&rewire=" + spec_number(rewire);
      break;
    case Kind::kGrid:
    case Kind::kFile:
      break;
  }
  if (kind != Kind::kGrid && seed != 1) out += "&seed=" + std::to_string(seed);
  return out;
}

GraphSpec parse_graph_spec(const std::string& text) {
  if (text.rfind("file:", 0) == 0) {
    const std::string path = text.substr(5);
    if (path.empty()) throw SpecError("graph spec 'file:' needs a path");
    return GraphSpec::file(path);
  }
  const SplitSpec split = split_spec(text);
  GraphSpec spec;
  if (split.kind == "udg") {
    spec = GraphSpec::udg(400);
  } else if (split.kind == "gnp") {
    spec = GraphSpec::gnp(400);
  } else if (split.kind == "ba") {
    spec = GraphSpec::ba(400);
  } else if (split.kind == "ws") {
    spec = GraphSpec::ws(400);
  } else if (split.kind == "grid") {
    spec = GraphSpec::grid(400);
  } else {
    throw SpecError("unknown graph family '" + split.kind +
                    "' (udg|gnp|ba|ws|grid|file:<path>)");
  }
  for (const Param& p : split.params) {
    const bool seed_ok = spec.kind != GraphSpec::Kind::kGrid;
    if (p.key == "n") {
      spec.n = static_cast<NodeId>(parse_uint_value(p));
    } else if (seed_ok && p.key == "seed") {
      spec.seed = parse_uint_value(p);
    } else if (spec.kind == GraphSpec::Kind::kUdg && p.key == "side") {
      spec.side = parse_double_value(p);
    } else if (spec.kind == GraphSpec::Kind::kGnp && p.key == "deg") {
      spec.deg = parse_double_value(p);
    } else if (spec.kind == GraphSpec::Kind::kBa && p.key == "m") {
      spec.m = static_cast<NodeId>(parse_uint_value(p));
    } else if (spec.kind == GraphSpec::Kind::kWs && p.key == "ring") {
      spec.ring = static_cast<NodeId>(parse_uint_value(p));
    } else if (spec.kind == GraphSpec::Kind::kWs && p.key == "rewire") {
      spec.rewire = parse_double_value(p);
    } else {
      unknown_key(split.kind, p);
    }
  }
  if (spec.kind != GraphSpec::Kind::kFile && spec.n < 1) {
    throw SpecError("parameter 'n': must be >= 1");
  }
  return spec;
}

Graph build_graph(const GraphSpec& spec, Rng* rng) {
  Rng local(spec.seed);
  Rng& r = rng != nullptr ? *rng : local;
  switch (spec.kind) {
    case GraphSpec::Kind::kUdg: {
      const auto gg = uniform_unit_ball_graph(spec.n, spec.side, 2, r);
      return largest_component(gg.graph);
    }
    case GraphSpec::Kind::kGnp:
      return connected_gnp(spec.n, spec.deg / spec.n, r);
    case GraphSpec::Kind::kBa:
      return barabasi_albert(spec.n, spec.m, r);
    case GraphSpec::Kind::kWs:
      return watts_strogatz(spec.n, spec.ring, spec.rewire, r);
    case GraphSpec::Kind::kGrid:
      return grid_graph(spec.n / 16 + 1, 16);
    case GraphSpec::Kind::kFile: {
      std::ifstream in(spec.path);
      if (!in) throw SpecError("cannot open " + spec.path);
      try {
        return read_edge_list(in);
      } catch (const CheckError& e) {
        throw SpecError("malformed edge list " + spec.path + ": " + e.what());
      }
    }
  }
  throw SpecError("unknown graph spec kind");
}

}  // namespace remspan::api
