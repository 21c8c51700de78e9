#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"

namespace remspan::serve {

const char* admission_name(Admission a) noexcept {
  switch (a) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kRetryAfter:
      return "retry_after";
    case Admission::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

/// The published epoch of one tenant: a plain shared_ptr behind its own
/// mutex, held only for a pointer copy or swap. Readers copy the pointer
/// and drop the lock; only the current drainer stores (epoch-monotone by
/// the single-drainer invariant). libstdc++ 12's
/// std::atomic<std::shared_ptr> hides its internal lock from
/// ThreadSanitizer, which then reports every store/load pair as a race;
/// this lock is one TSan can see.
class PublishedSnapshot {
 public:
  [[nodiscard]] std::shared_ptr<const SpannerSnapshot> load() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ptr_;
  }

  void store(std::shared_ptr<const SpannerSnapshot> next) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ptr_.swap(next);
    }
    // `next` now holds the previous epoch; it is released outside the lock.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const SpannerSnapshot> ptr_;
};

/// All per-tenant state. Lock order service-wide: mu_ may be taken while
/// holding no tenant lock or by a thread that holds no tenant lock; a
/// tenant's mu is never held when taking mu_ (schedule() runs on the
/// atomic `queued` flag outside both).
struct SpannerService::Tenant {
  Tenant(std::string spec_string_in, std::unique_ptr<api::IncrementalSession> session_in)
      : spec_string(std::move(spec_string_in)),
        session(std::move(session_in)),
        num_nodes(session->dynamic_graph().num_nodes()),
        queue(session->dynamic_graph().snapshot()) {
    SnapshotInfo info;
    info.epoch = 0;
    info.graph_version = session->dynamic_graph().version();
    snap.store(std::make_shared<const SpannerSnapshot>(session->dynamic_graph().snapshot(),
                                                       session->spanner().bits(), info));
    stats.graph_version = info.graph_version;
    stats.spanner_edges = session->spanner().size();
  }

  TenantId id = kInvalidTenant;
  std::string spec_string;
  /// Engine + DynamicGraph. Touched only by the current drainer (the
  /// `draining` flag serializes), never under `mu`.
  std::unique_ptr<api::IncrementalSession> session;
  /// The fixed node universe, readable without the drainer's session.
  const NodeId num_nodes;

  mutable std::mutex mu;  ///< queue, stats, draining/closing, journal
  CoalescingQueue queue;
  TenantStats stats;
  bool draining = false;
  bool closing = false;
  std::condition_variable drain_cv;  ///< signalled when a drain pass ends
  /// Scheduling flag: true while the tenant sits in (or is headed for) the
  /// ready ring. Outside `mu` so producers can flag without the lock.
  std::atomic<bool> queued{false};
  /// The published epoch (readers never take `mu`).
  PublishedSnapshot snap;
  std::vector<std::vector<GraphEvent>> journal;
};

SpannerService::SpannerService(ServiceConfig config) : cfg_(config) {
  workers_.reserve(cfg_.worker_threads);
  for (std::size_t i = 0; i < cfg_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SpannerService::~SpannerService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::shared_ptr<SpannerService::Tenant> SpannerService::find(TenantId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    throw ServiceError("unknown tenant id " + std::to_string(id));
  }
  return it->second;
}

TenantId SpannerService::open_tenant(const Graph& initial, const std::string& spanner_spec) {
  // Validate the request before checking capacity: a malformed or
  // unsupported spec is the caller's fault however loaded the service is,
  // and must surface as SpecError, not a capacity ServiceError.
  const api::SpannerSpec spec = api::parse_spanner_spec(spanner_spec);
  if (!api::supports_incremental(spec)) {
    throw api::SpecError("construction '" + std::string(spec.kind_name()) +
                         "' has no incremental maintenance support");
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (tenants_.size() >= cfg_.max_tenants) {
      throw ServiceError("tenant capacity reached (" + std::to_string(cfg_.max_tenants) + ")");
    }
  }
  // The initial build is the expensive part; run it outside mu_ so opens
  // don't serialize against each other or against the data path.
  auto tenant =
      std::make_shared<Tenant>(spec.to_string(), api::open_incremental_session(initial, spec));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (tenants_.size() >= cfg_.max_tenants) {
      throw ServiceError("tenant capacity reached (" + std::to_string(cfg_.max_tenants) + ")");
    }
    tenant->id = next_id_++;
    tenants_.emplace(tenant->id, tenant);
    ++tenants_opened_;
  }
  obs::add(obs::Metric::kServeTenantsOpened);
  obs::gauge_add(obs::Metric::kServeTenantsLive, 1);
  obs::add(obs::Metric::kServeEpochsPublished);  // epoch 0
  return tenant->id;
}

void SpannerService::close_tenant(TenantId id) {
  auto tenant = find(id);
  {
    std::lock_guard<std::mutex> lk(tenant->mu);
    if (tenant->closing) throw ServiceError("tenant " + std::to_string(id) + " already closing");
    tenant->closing = true;  // submits start bouncing; drains keep going
  }
  flush_tenant(*tenant);  // graceful: publish everything already accepted
  {
    std::lock_guard<std::mutex> lk(mu_);
    tenants_.erase(id);
    ++tenants_closed_;
  }
  obs::add(obs::Metric::kServeTenantsClosed);
  obs::gauge_add(obs::Metric::kServeTenantsLive, -1);
}

bool SpannerService::has_tenant(TenantId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.count(id) != 0;
}

std::vector<TenantId> SpannerService::tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) out.push_back(id);
  return out;
}

std::string SpannerService::tenant_spec(TenantId id) const { return find(id)->spec_string; }

namespace {

/// Throws ServiceError naming the first event whose ids the tenant's graph
/// would reject: a node outside [0, n), or an edge that is a self-loop.
void validate_events(std::span<const GraphEvent> events, NodeId n, TenantId id) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const GraphEvent& e = events[i];
    const bool edge = e.kind == GraphEventKind::kEdgeUp || e.kind == GraphEventKind::kEdgeDown;
    if (e.u < n && (!edge || (e.v < n && e.u != e.v))) continue;
    throw ServiceError("tenant " + std::to_string(id) + ": event " + std::to_string(i) + " (" +
                       (edge ? "edge " + std::to_string(e.u) + "-" + std::to_string(e.v)
                             : "node " + std::to_string(e.u)) +
                       ") is invalid on " + std::to_string(n) + " nodes");
  }
}

}  // namespace

Admission SpannerService::submit(TenantId id, std::span<const GraphEvent> events) {
  auto tenant = find(id);
  // All-or-nothing: a bad id must bounce before the batch reaches the
  // queue, where it would only fail later inside the drainer's apply.
  validate_events(events, tenant->num_nodes, id);
  Admission verdict = Admission::kAccepted;
  CoalescingQueue::SubmitDelta delta;
  {
    std::lock_guard<std::mutex> lk(tenant->mu);
    if (tenant->closing) {
      throw ServiceError("tenant " + std::to_string(id) + " is closing");
    }
    tenant->stats.events_submitted += events.size();
    const auto global_now = static_cast<std::size_t>(
        std::max<std::int64_t>(0, global_pending_.load(std::memory_order_relaxed)));
    if (tenant->queue.pending() + events.size() > cfg_.tenant_queue_budget) {
      ++tenant->stats.rejected_retry_after;
      verdict = Admission::kRetryAfter;
    } else if (global_now + events.size() > cfg_.global_queue_budget) {
      ++tenant->stats.rejected_overloaded;
      verdict = Admission::kOverloaded;
    } else {
      delta = tenant->queue.submit(events);
      global_pending_.fetch_add(delta.net_growth, std::memory_order_relaxed);
      tenant->stats.events_accepted += delta.events;
      tenant->stats.events_coalesced += delta.coalesced;
    }
  }
  obs::add(obs::Metric::kServeEventsSubmitted, events.size());
  if (verdict != Admission::kAccepted) {
    obs::add(verdict == Admission::kRetryAfter ? obs::Metric::kServeRejectedRetryAfter
                                               : obs::Metric::kServeRejectedOverloaded);
    return verdict;
  }
  obs::add(obs::Metric::kServeEventsAccepted, delta.events);
  obs::add(obs::Metric::kServeEventsCoalesced, delta.coalesced);
  obs::gauge_set(obs::Metric::kServeQueueDepth, global_pending_.load(std::memory_order_relaxed));
  if (cfg_.worker_threads > 0) schedule(*tenant);
  return verdict;
}

void SpannerService::schedule(Tenant& t) {
  if (t.queued.exchange(true, std::memory_order_acq_rel)) return;  // already enqueued
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      t.queued.store(false, std::memory_order_release);
      return;
    }
    ready_.push_back(t.id);
  }
  work_cv_.notify_one();
}

void SpannerService::worker_loop() {
  for (;;) {
    std::shared_ptr<Tenant> tenant;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !ready_.empty(); });
      if (stop_) return;
      const TenantId id = ready_.front();
      ready_.pop_front();
      const auto it = tenants_.find(id);
      if (it == tenants_.end()) continue;  // evicted while queued
      tenant = it->second;
    }
    (void)drain_pass(*tenant);  // kBusy/kEmpty are fine: someone else owns it
  }
}

SpannerService::DrainResult SpannerService::drain_pass(Tenant& t) {
  std::vector<GraphEvent> batch;
  {
    std::lock_guard<std::mutex> lk(t.mu);
    // Clear the scheduling flag before extracting: any submit from here on
    // re-flags, so a batch left behind is always rescheduled by someone.
    t.queued.store(false, std::memory_order_release);
    if (t.draining) return DrainResult::kBusy;
    batch = t.queue.take_batch(cfg_.max_batch_events);
    if (batch.empty()) return DrainResult::kEmpty;
    t.draining = true;
  }
  const std::size_t applied = batch.size();
  global_pending_.fetch_sub(static_cast<std::int64_t>(applied), std::memory_order_relaxed);

  // Heavy phase, outside every lock: only this thread touches the engine
  // (single-drainer invariant), and readers keep serving the old epoch.
  std::shared_ptr<const SpannerSnapshot> next;
  {
    obs::PhaseSpan span("serve.publish_epoch", "serve");
    const ChurnBatchStats bs = t.session->apply_batch(batch);
    const auto prev = t.snap.load();
    SnapshotInfo info;
    info.epoch = prev->epoch() + 1;
    info.graph_version = t.session->dynamic_graph().version();
    info.batches_applied = prev->info().batches_applied + 1;
    info.events_applied = prev->info().events_applied + applied;
    info.last_batch = bs;
    next = std::make_shared<const SpannerSnapshot>(t.session->dynamic_graph().snapshot(),
                                                   t.session->spanner().bits(), info);
  }

  bool more = false;
  {
    std::lock_guard<std::mutex> lk(t.mu);
    t.snap.store(next);
    t.stats.epoch = next->epoch();
    t.stats.graph_version = next->info().graph_version;
    t.stats.events_applied += applied;
    t.stats.batches_applied += 1;
    t.stats.spanner_edges = next->num_spanner_edges();
    if (cfg_.record_journal) t.journal.push_back(std::move(batch));
    t.draining = false;
    more = !t.queue.empty();
    t.drain_cv.notify_all();
  }
  obs::add(obs::Metric::kServeEpochsPublished);
  obs::add(obs::Metric::kServeEventsApplied, applied);
  obs::record(obs::Metric::kServeBatchEvents, applied);
  obs::gauge_set(obs::Metric::kServeQueueDepth, global_pending_.load(std::memory_order_relaxed));
  if (more && cfg_.worker_threads > 0) schedule(t);
  return DrainResult::kDrained;
}

void SpannerService::flush_tenant(Tenant& t) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(t.mu);
      t.drain_cv.wait(lk, [&] { return !t.draining; });
      if (t.queue.empty()) return;
    }
    // A worker may beat us to the batch (kBusy/kEmpty); the loop re-checks.
    (void)drain_pass(t);
  }
}

void SpannerService::flush(TenantId id) { flush_tenant(*find(id)); }

void SpannerService::drain() {
  std::vector<std::shared_ptr<Tenant>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    all.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) all.push_back(t);
  }
  for (const auto& t : all) flush_tenant(*t);
}

std::shared_ptr<const SpannerSnapshot> SpannerService::snapshot(TenantId id) const {
  return find(id)->snap.load();
}

TenantStats SpannerService::tenant_stats(TenantId id) const {
  auto tenant = find(id);
  std::lock_guard<std::mutex> lk(tenant->mu);
  TenantStats out = tenant->stats;
  out.queue_depth = tenant->queue.pending();
  return out;
}

ServiceStats SpannerService::stats() const {
  ServiceStats s;
  std::vector<std::shared_ptr<Tenant>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.tenants_open = tenants_.size();
    s.tenants_opened = tenants_opened_;
    s.tenants_closed = tenants_closed_;
    all.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) all.push_back(t);
  }
  for (const auto& t : all) {
    std::lock_guard<std::mutex> lk(t->mu);
    s.queue_depth += t->queue.pending();
    s.epochs_published += t->stats.batches_applied + 1;  // + epoch 0
    s.events_submitted += t->stats.events_submitted;
    s.events_accepted += t->stats.events_accepted;
    s.events_coalesced += t->stats.events_coalesced;
    s.events_applied += t->stats.events_applied;
    s.batches_applied += t->stats.batches_applied;
    s.rejected_retry_after += t->stats.rejected_retry_after;
    s.rejected_overloaded += t->stats.rejected_overloaded;
  }
  return s;
}

std::vector<std::vector<GraphEvent>> SpannerService::journal(TenantId id) const {
  auto tenant = find(id);
  std::lock_guard<std::mutex> lk(tenant->mu);
  return tenant->journal;
}

}  // namespace remspan::serve
