// The multi-tenant service section of the C ABI (include/remspan/remspan.h)
// over serve::SpannerService. Compiles into the remspan_c shared library
// next to remspan_c.cpp and follows the same machine-checked conventions
// (remspan_lint rule R1): every entry point's body is exactly one top-level
// try block ending in catch (...), statuses map through c_detail::trap(),
// out-pointers are written only on REMSPAN_OK, and accessors fall back to
// a neutral value instead of throwing.
#include "remspan/remspan.h"

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "api/c_abi_detail.hpp"
#include "api/spec.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "serve/service.hpp"

namespace {

using remspan::Graph;
using remspan::GraphEvent;
using remspan::api::c_detail::copy_edges;
using remspan::api::c_detail::fail;
using remspan::api::c_detail::trap;
namespace serve = remspan::serve;

/// Converts one ABI event batch. Throws ServiceError with the offending
/// index on the first unknown kind; SpannerService::submit rejects bad ids
/// (>= n, self-loops) the same way, before any state changes.
std::vector<GraphEvent> convert_events(const remspan_event_t* events, size_t num_events) {
  std::vector<GraphEvent> batch;
  batch.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const remspan_event_t& e = events[i];
    if (e.kind != REMSPAN_EVENT_EDGE_UP && e.kind != REMSPAN_EVENT_EDGE_DOWN &&
        e.kind != REMSPAN_EVENT_NODE_UP && e.kind != REMSPAN_EVENT_NODE_DOWN) {
      throw serve::ServiceError("event " + std::to_string(i) + " has unknown kind " +
                                std::to_string(e.kind));
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
  return batch;
}

serve::ServiceConfig convert_config(const remspan_service_config_t* config) {
  serve::ServiceConfig cfg;
  if (config != nullptr) {
    cfg.worker_threads = config->worker_threads;
    cfg.max_tenants = config->max_tenants;
    cfg.tenant_queue_budget = config->tenant_queue_budget;
    cfg.global_queue_budget = config->global_queue_budget;
    cfg.max_batch_events = config->max_batch_events;
  }
  return cfg;
}

}  // namespace

struct remspan_service {
  explicit remspan_service(const serve::ServiceConfig& cfg) : service(cfg) {}
  serve::SpannerService service;
};

extern "C" {

void remspan_service_config_default(remspan_service_config_t* out_config) {
  try {
    if (out_config == nullptr) return;
    const serve::ServiceConfig cfg;
    out_config->worker_threads = static_cast<uint32_t>(cfg.worker_threads);
    out_config->max_tenants = static_cast<uint32_t>(cfg.max_tenants);
    out_config->tenant_queue_budget = cfg.tenant_queue_budget;
    out_config->global_queue_budget = cfg.global_queue_budget;
    out_config->max_batch_events = cfg.max_batch_events;
  } catch (...) {
    // Swallow: a defaults query must not throw across the ABI.
  }
}

remspan_status_t remspan_service_create(const remspan_service_config_t* config,
                                        remspan_service_t** out_service) {
  try {
    if (out_service == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    const serve::ServiceConfig cfg = convert_config(config);
    if (cfg.max_tenants == 0 || cfg.max_batch_events == 0) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT,
                  "max_tenants and max_batch_events must be nonzero");
    }
    *out_service = new remspan_service(cfg);
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_open_tenant(remspan_service_t* service,
                                             const remspan_graph_t* graph,
                                             const char* spanner_spec, uint32_t* out_tenant) {
  try {
    if (service == nullptr || graph == nullptr || spanner_spec == nullptr ||
        out_tenant == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    const remspan::api::SpannerSpec spec = remspan::api::parse_spanner_spec(spanner_spec);
    if (!remspan::api::supports_incremental(spec)) {
      return fail(REMSPAN_ERR_UNSUPPORTED, "construction '" + std::string(spec.kind_name()) +
                                               "' has no incremental maintenance support");
    }
    *out_tenant = service->service.open_tenant(*graph->graph, spec.to_string());
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_close_tenant(remspan_service_t* service, uint32_t tenant) {
  try {
    if (service == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null service");
    }
    service->service.close_tenant(tenant);
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_submit(remspan_service_t* service, uint32_t tenant,
                                        const remspan_event_t* events, size_t num_events,
                                        uint32_t* out_admission) {
  try {
    if (service == nullptr || (events == nullptr && num_events > 0)) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    const std::vector<GraphEvent> batch = convert_events(events, num_events);
    const serve::Admission verdict = service->service.submit(tenant, batch);
    if (out_admission != nullptr) *out_admission = static_cast<uint32_t>(verdict);
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_flush(remspan_service_t* service, uint32_t tenant) {
  try {
    if (service == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null service");
    }
    service->service.flush(tenant);
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_drain(remspan_service_t* service) {
  try {
    if (service == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null service");
    }
    service->service.drain();
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

uint64_t remspan_service_epoch(const remspan_service_t* service, uint32_t tenant) {
  try {
    if (service == nullptr) return 0;
    return service->service.snapshot(tenant)->epoch();
  } catch (...) {
    return 0;
  }
}

int remspan_service_contains(const remspan_service_t* service, uint32_t tenant, uint32_t u,
                             uint32_t v) {
  try {
    if (service == nullptr) return 0;
    return service->service.snapshot(tenant)->contains(u, v) ? 1 : 0;
  } catch (...) {
    return 0;
  }
}

size_t remspan_service_spanner_num_edges(const remspan_service_t* service, uint32_t tenant) {
  try {
    if (service == nullptr) return 0;
    return service->service.snapshot(tenant)->num_spanner_edges();
  } catch (...) {
    return 0;
  }
}

size_t remspan_service_spanner_edges(const remspan_service_t* service, uint32_t tenant,
                                     uint32_t* endpoints, size_t max_edges) {
  try {
    if (service == nullptr || endpoints == nullptr) return 0;
    return copy_edges(service->service.snapshot(tenant)->spanner_edges(), endpoints, max_edges);
  } catch (...) {
    return 0;
  }
}

remspan_status_t remspan_service_stretch(const remspan_service_t* service, uint32_t tenant,
                                         size_t pairs, uint64_t seed, double* out_max_ratio) {
  try {
    if (service == nullptr || out_max_ratio == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    *out_max_ratio = service->service.snapshot(tenant)->sampled_stretch(pairs, seed);
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_tenant_stats(const remspan_service_t* service, uint32_t tenant,
                                              remspan_tenant_stats_t* out_stats) {
  try {
    if (service == nullptr || out_stats == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    const serve::TenantStats s = service->service.tenant_stats(tenant);
    *out_stats = remspan_tenant_stats_t{s.epoch,
                                        s.graph_version,
                                        s.queue_depth,
                                        s.events_submitted,
                                        s.events_accepted,
                                        s.events_coalesced,
                                        s.events_applied,
                                        s.batches_applied,
                                        s.rejected_retry_after,
                                        s.rejected_overloaded,
                                        s.spanner_edges};
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

remspan_status_t remspan_service_stats(const remspan_service_t* service,
                                       remspan_service_totals_t* out_stats) {
  try {
    if (service == nullptr || out_stats == nullptr) {
      return fail(REMSPAN_ERR_INVALID_ARGUMENT, "null pointer argument");
    }
    const serve::ServiceStats s = service->service.stats();
    *out_stats = remspan_service_totals_t{s.tenants_open,
                                         s.tenants_opened,
                                         s.tenants_closed,
                                         s.queue_depth,
                                         s.epochs_published,
                                         s.events_submitted,
                                         s.events_accepted,
                                         s.events_coalesced,
                                         s.events_applied,
                                         s.batches_applied,
                                         s.rejected_retry_after,
                                         s.rejected_overloaded};
    return REMSPAN_OK;
  } catch (...) {
    return trap(std::current_exception());
  }
}

void remspan_service_free(remspan_service_t* service) {
  try {
    delete service;
  } catch (...) {
    // Swallow: a throwing destructor must not unwind through extern "C".
  }
}

} /* extern "C" */
