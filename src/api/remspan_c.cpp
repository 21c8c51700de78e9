// Implementation of the versioned C ABI (include/remspan/remspan.h) on top
// of the remspan::api facade. This file compiles into the remspan_c shared
// library (default-hidden symbols; only the REMSPAN_API declarations are
// exported) — it is deliberately not part of libremspan.
//
// Conventions enforced here (machine-checked by remspan_lint rule R1):
//   * no exception crosses the ABI: every entry point's body is exactly one
//     top-level try block ending in catch (...) — even argument validation
//     runs inside it, because fail() allocates its message string and
//     std::bad_alloc must not unwind through extern "C";
//   * status-returning entry points map exceptions via trap(); accessors
//     and free() fall back to a neutral value (0, "", no-op);
//   * out-pointers are written only on REMSPAN_OK;
//   * handles own shared_ptr copies of their graph, so freeing handles in
//     any order is safe.
#include "remspan/remspan.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/c_abi_detail.hpp"
#include "api/observability.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"

namespace {

using remspan::Dist;
using remspan::DynamicGraph;
using remspan::EdgeSet;
using remspan::Graph;
using remspan::GraphBuilder;
using remspan::GraphEvent;
using remspan::NodeId;
namespace api = remspan::api;
using api::c_detail::copy_edges;
using api::c_detail::fail;
using api::c_detail::trap;

/// Same topology test for verify: the exact build handle, or any handle
/// holding an identical canonical node/edge set.
bool same_topology(const Graph& a, const Graph& b) {
  if (&a == &b) return true;
  return a.num_nodes() == b.num_nodes() && a.num_edges() == b.num_edges() &&
         std::equal(a.edges().begin(), a.edges().end(), b.edges().begin());
}

}  // namespace

struct remspan_spanner {
  std::shared_ptr<const Graph> graph;  ///< keeps result.edges' backing graph alive
  api::SpannerResult result;
  std::string spec;  ///< canonical spec string
};

struct remspan_session {
  std::unique_ptr<api::IncrementalSession> session;
};

extern "C" {

uint32_t remspan_abi_version(void) {
  try {
    return REMSPAN_ABI_VERSION;
  } catch (...) {
    return 0;
  }
}

const char* remspan_last_error(void) {
  try {
    return api::c_detail::last_error_cstr();
  } catch (...) {
    return "";
  }
}

/* --- graphs ------------------------------------------------------------- */

remspan_status_t remspan_graph_from_edges(uint32_t num_nodes, const uint32_t* endpoints,
                                          size_t num_edges, remspan_graph_t** out_graph) {
  try {
    if (out_graph == nullptr || (endpoints == nullptr && num_edges > 0)) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    for (size_t i = 0; i < num_edges; ++i) {
      const uint32_t u = endpoints[2 * i];
      const uint32_t v = endpoints[2 * i + 1];
      if (u >= num_nodes || v >= num_nodes || u == v) {
        return fail(REMSPAN_ERR_INVALID_ARGUMENT,
                    "edge " + std::to_string(i) + " {" + std::to_string(u) + "," +
                        std::to_string(v) + "} is out of range or a self-loop");
      }
    }
    GraphBuilder builder(num_nodes);
    builder.reserve(num_edges);
    for (size_t i = 0; i < num_edges; ++i) {
      builder.add_edge(endpoints[2 * i], endpoints[2 * i + 1]);
    }
    *out_graph = new remspan_graph{std::make_shared<const Graph>(builder.build())};
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_graph_load(const char* path, remspan_graph_t** out_graph) {
  try {
    if (path == nullptr || out_graph == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    Graph g = api::build_graph(api::GraphSpec::file(path));
    *out_graph = new remspan_graph{std::make_shared<const Graph>(std::move(g))};
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception(), REMSPAN_ERR_IO);
  }
}

remspan_status_t remspan_graph_generate(const char* graph_spec, remspan_graph_t** out_graph) {
  try {
    if (graph_spec == nullptr || out_graph == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    api::GraphSpec spec;
    try {
      spec = api::parse_graph_spec(graph_spec);
    } catch (...) {
      return trap(std::current_exception(), REMSPAN_ERR_PARSE);
    }
    Graph g = api::build_graph(spec);
    *out_graph = new remspan_graph{std::make_shared<const Graph>(std::move(g))};
    return REMSPAN_OK;
  } catch (...) {
    // Build-time SpecErrors are file problems (the generators validate in
    // the nested parse step above).
    return trap(std::current_exception(), REMSPAN_ERR_IO);
  }
}

uint32_t remspan_graph_num_nodes(const remspan_graph_t* graph) {
  try {
    return graph == nullptr ? 0 : graph->graph->num_nodes();
  } catch (...) {
    return 0;
  }
}

size_t remspan_graph_num_edges(const remspan_graph_t* graph) {
  try {
    return graph == nullptr ? 0 : graph->graph->num_edges();
  } catch (...) {
    return 0;
  }
}

size_t remspan_graph_edges(const remspan_graph_t* graph, uint32_t* endpoints,
                           size_t max_edges) {
  try {
    if (graph == nullptr || endpoints == nullptr) return 0;
    return copy_edges(graph->graph->edges(), endpoints, max_edges);
  } catch (...) {
    return 0;
  }
}

void remspan_graph_free(remspan_graph_t* graph) {
  try {
    delete graph;
  } catch (...) {
    // Swallow: a throwing destructor must not unwind through extern "C".
  }
}

/* --- spanners ----------------------------------------------------------- */

remspan_status_t remspan_spanner_build(const remspan_graph_t* graph, const char* spanner_spec,
                                       remspan_spanner_t** out_spanner) {
  try {
    if (graph == nullptr || spanner_spec == nullptr || out_spanner == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    const api::SpannerSpec spec = api::parse_spanner_spec(spanner_spec);
    auto handle = std::make_unique<remspan_spanner>(
        remspan_spanner{graph->graph, api::build_spanner(*graph->graph, spec), spec.to_string()});
    *out_spanner = handle.release();
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

const char* remspan_spanner_spec(const remspan_spanner_t* spanner) {
  try {
    return spanner == nullptr ? "" : spanner->spec.c_str();
  } catch (...) {
    return "";
  }
}

size_t remspan_spanner_num_edges(const remspan_spanner_t* spanner) {
  try {
    return spanner == nullptr ? 0 : spanner->result.edges.size();
  } catch (...) {
    return 0;
  }
}

size_t remspan_spanner_edges(const remspan_spanner_t* spanner, uint32_t* endpoints,
                             size_t max_edges) {
  try {
    if (spanner == nullptr || endpoints == nullptr) return 0;
    return copy_edges(spanner->result.edges.edge_list(), endpoints, max_edges);
  } catch (...) {
    return 0;
  }
}

int remspan_spanner_contains(const remspan_spanner_t* spanner, uint32_t u, uint32_t v) {
  try {
    if (spanner == nullptr) return 0;
    const NodeId n = spanner->graph->num_nodes();
    if (u >= n || v >= n || u == v) return 0;
    return spanner->result.edges.contains(u, v) ? 1 : 0;
  } catch (...) {
    return 0;
  }
}

remspan_status_t remspan_spanner_guarantee(const remspan_spanner_t* spanner, double* out_alpha,
                                           double* out_beta) {
  try {
    if (spanner == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null spanner");
    }
    if (out_alpha != nullptr) *out_alpha = spanner->result.guarantee.alpha;
    if (out_beta != nullptr) *out_beta = spanner->result.guarantee.beta;
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_spanner_verify(const remspan_graph_t* graph,
                                        const remspan_spanner_t* spanner, uint64_t seed,
                                        int* out_satisfied, double* out_max_ratio) {
  try {
    if (graph == nullptr || spanner == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    if (!same_topology(*graph->graph, *spanner->graph)) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT,
                  "graph does not match the topology the spanner was built on");
    }
    if (spanner->result.verify == nullptr) {
      return fail(REMSPAN_ERR_UNSUPPORTED,
                  "construction '" + spanner->spec + "' has nothing to verify");
    }
    api::VerifyOptions opts;
    opts.seed = seed;
    const api::VerifyReport report =
        spanner->result.verify(*graph->graph, spanner->result.edges, opts);
    if (out_satisfied != nullptr) *out_satisfied = report.satisfied ? 1 : 0;
    if (out_max_ratio != nullptr) *out_max_ratio = report.max_ratio;
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

void remspan_spanner_free(remspan_spanner_t* spanner) {
  try {
    delete spanner;
  } catch (...) {
    // Swallow: a throwing destructor must not unwind through extern "C".
  }
}

/* --- incremental sessions ----------------------------------------------- */

remspan_status_t remspan_session_open(const remspan_graph_t* graph, const char* spanner_spec,
                                      remspan_session_t** out_session) {
  try {
    if (graph == nullptr || spanner_spec == nullptr || out_session == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    // An unknown construction name throws SpecError here (->
    // REMSPAN_ERR_PARSE), which must not cross the ABI.
    const api::SpannerSpec spec = api::parse_spanner_spec(spanner_spec);
    if (!api::supports_incremental(spec)) {
      return fail(REMSPAN_ERR_UNSUPPORTED, "construction '" + std::string(spec.kind_name()) +
                                               "' has no incremental maintenance support");
    }
    auto session = api::open_incremental_session(*graph->graph, spec);
    *out_session = new remspan_session{std::move(session)};
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_session_apply(remspan_session_t* session,
                                       const remspan_event_t* events, size_t num_events,
                                       remspan_batch_stats_t* out_stats) {
  try {
    if (session == nullptr || (events == nullptr && num_events > 0)) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    // Validate the whole batch before touching any state, so a bad event
    // cannot leave the session half-applied.
    const NodeId n = session->session->dynamic_graph().num_nodes();
    std::vector<GraphEvent> batch;
    batch.reserve(num_events);
    for (size_t i = 0; i < num_events; ++i) {
      const remspan_event_t& e = events[i];
      const bool edge_event =
          e.kind == REMSPAN_EVENT_EDGE_UP || e.kind == REMSPAN_EVENT_EDGE_DOWN;
      const bool node_event =
          e.kind == REMSPAN_EVENT_NODE_UP || e.kind == REMSPAN_EVENT_NODE_DOWN;
      if ((!edge_event && !node_event) || e.u >= n ||
          (edge_event && (e.v >= n || e.u == e.v))) {
        return fail(REMSPAN_ERR_INVALID_ARGUMENT,
                    "event " + std::to_string(i) + " is malformed (kind " +
                        std::to_string(e.kind) + ", u " + std::to_string(e.u) + ", v " +
                        std::to_string(e.v) + ", n " + std::to_string(n) + ")");
      }
      if (e.kind == REMSPAN_EVENT_EDGE_UP) {
        batch.push_back(GraphEvent::edge_up(e.u, e.v));
      } else if (e.kind == REMSPAN_EVENT_EDGE_DOWN) {
        batch.push_back(GraphEvent::edge_down(e.u, e.v));
      } else if (e.kind == REMSPAN_EVENT_NODE_UP) {
        batch.push_back(GraphEvent::node_up(e.u));
      } else {
        batch.push_back(GraphEvent::node_down(e.u));
      }
    }
    const remspan::ChurnBatchStats stats = session->session->apply_batch(batch);
    if (out_stats != nullptr) {
      *out_stats = remspan_batch_stats_t{stats.version,        stats.applied_events,
                                         stats.inserted_edges, stats.removed_edges,
                                         stats.dirty_roots,    stats.rebuilt_tree_edges,
                                         stats.spanner_edges,  stats.seconds};
    }
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

size_t remspan_session_spanner_num_edges(const remspan_session_t* session) {
  try {
    return session == nullptr ? 0 : session->session->spanner().size();
  } catch (...) {
    return 0;
  }
}

size_t remspan_session_spanner_edges(const remspan_session_t* session, uint32_t* endpoints,
                                     size_t max_edges) {
  try {
    if (session == nullptr || endpoints == nullptr) return 0;
    return copy_edges(session->session->spanner().edge_list(), endpoints, max_edges);
  } catch (...) {
    return 0;
  }
}

remspan_status_t remspan_session_graph(const remspan_session_t* session,
                                       remspan_graph_t** out_graph) {
  try {
    if (session == nullptr || out_graph == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    *out_graph = new remspan_graph{session->session->dynamic_graph().snapshot()};
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

void remspan_session_free(remspan_session_t* session) {
  try {
    delete session;
  } catch (...) {
    // Swallow: a throwing destructor must not unwind through extern "C".
  }
}

/* --- observability ------------------------------------------------------ */

remspan_status_t remspan_metrics_enable(int enable) {
  try {
    // Trace stays driver-side (REMSPAN_TRACE / --trace-out); the ABI only
    // switches the metrics registry.
    api::enable_observability(enable != 0, /*trace=*/false);
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

const char* remspan_metrics_snapshot(void) {
  try {
    // Thread-local storage keeps the returned pointer valid until this
    // thread's next snapshot call, mirroring remspan_last_error().
    thread_local std::string t_snapshot;
    t_snapshot = api::metrics_snapshot_json();
    return t_snapshot.c_str();
  } catch (...) {
    return "";
  }
}

} /* extern "C" */
