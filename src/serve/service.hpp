// SpannerService: the long-lived multi-tenant serving layer over src/api.
//
// Each tenant is an open incremental-maintenance session addressed by a
// TenantId: a spec string, a DynamicGraph and the IncrementalSpanner
// maintaining that spec's remote-spanner over it (api::IncrementalSession),
// fronted by a CoalescingQueue on the write side and an epoch-tagged
// immutable SpannerSnapshot on the read side.
//
//   writers ──submit──▶ CoalescingQueue ──take_batch──▶ IncrementalSpanner
//                (admission control,        (one drainer per tenant,
//                 annihilation)              worker pool or caller thread)
//                                                    │ publish
//   readers ◀──snapshot()── shared_ptr<const SpannerSnapshot> (own lock)
//
// Concurrency contract:
//   * Readers never block on writers: snapshot() is a map lookup plus a
//     shared_ptr copy under the tenant's publish lock, which is held only
//     for that copy or the drainer's pointer swap (never while a batch
//     applies); every query then runs against the immutable
//     snapshot object, which stays valid for as long as the reader holds
//     it — across later epochs and even tenant eviction.
//   * Exactly one drainer works a tenant at a time (worker threads and
//     flush() callers coordinate through the tenant's `draining` flag), so
//     the engine and DynamicGraph are only ever touched single-threaded.
//     Different tenants drain fully in parallel.
//   * Epochs are published in order: epoch e+1's snapshot is stored after
//     batch e+1 is fully applied, so a reader that saw epoch e can only
//     ever move forward (monotonicity, pinned by tests/test_serve.cpp).
//
// Determinism contract: with worker_threads == 0 every drain happens
// synchronously inside submit()/flush()/drain() on the calling thread, so
// admission decisions, rejection counts and all published epochs are a
// pure function of the submit stream — the mode the bench's backpressure
// phase and the C ABI's deterministic tests rely on. With workers, the
// final drained state is still bit-exact (coalescing is order-insensitive
// per cell and batches serialize per tenant); only queue-depth-dependent
// admission outcomes and batch boundaries become timing-dependent.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "serve/coalesce.hpp"
#include "serve/snapshot.hpp"

namespace remspan::serve {

using TenantId = std::uint32_t;
inline constexpr TenantId kInvalidTenant = ~TenantId{0};

/// Admission-control verdict of one submit.
enum class Admission : std::uint8_t {
  kAccepted = 0,
  kRetryAfter = 1,  ///< this tenant's queue budget is full — back off, retry
  kOverloaded = 2,  ///< the service-wide budget is full — shed load
};

[[nodiscard]] const char* admission_name(Admission a) noexcept;

struct ServiceConfig {
  /// Background drain threads. 0 = fully synchronous: submits drain their
  /// tenant inline and the service is deterministic (see header comment).
  std::size_t worker_threads = 0;
  std::size_t max_tenants = 256;
  /// Per-tenant pending-cell budget: a submit that would push the tenant's
  /// queue past this is rejected kRetryAfter.
  std::size_t tenant_queue_budget = 4096;
  /// Service-wide pending-cell budget: exceeded => kOverloaded.
  std::size_t global_queue_budget = 1u << 16;
  /// Max coalesced events per IncrementalSpanner batch (one epoch).
  std::size_t max_batch_events = 512;
  /// Record every applied coalesced batch per tenant — the replay journal
  /// the bit-exactness tests feed to a single-threaded IncrementalSession.
  bool record_journal = false;
};

/// Point-in-time per-tenant accounting (all cumulative unless noted).
struct TenantStats {
  std::uint64_t epoch = 0;
  std::uint64_t graph_version = 0;
  std::size_t queue_depth = 0;  ///< current pending cells (not cumulative)
  std::uint64_t events_submitted = 0;
  std::uint64_t events_accepted = 0;
  std::uint64_t events_coalesced = 0;  ///< accepted events absorbed before the engine
  std::uint64_t events_applied = 0;    ///< coalesced events the engine actually ran
  std::uint64_t batches_applied = 0;
  std::uint64_t rejected_retry_after = 0;
  std::uint64_t rejected_overloaded = 0;
  std::size_t spanner_edges = 0;
};

/// Service-wide aggregates (sums of TenantStats over open tenants, plus
/// lifetime totals that survive eviction).
struct ServiceStats {
  std::size_t tenants_open = 0;
  std::uint64_t tenants_opened = 0;  ///< lifetime
  std::uint64_t tenants_closed = 0;  ///< lifetime
  std::size_t queue_depth = 0;       ///< current global pending cells
  std::uint64_t epochs_published = 0;
  std::uint64_t events_submitted = 0;
  std::uint64_t events_accepted = 0;
  std::uint64_t events_coalesced = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t rejected_retry_after = 0;
  std::uint64_t rejected_overloaded = 0;
};

/// Service-layer failures (unknown tenant, capacity, closed handles).
/// Spec problems keep surfacing as api::SpecError.
class ServiceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SpannerService {
 public:
  explicit SpannerService(ServiceConfig config = {});

  /// Stops the worker pool; queued-but-undrained events are dropped (call
  /// drain() first for a graceful wind-down). Snapshots handed to readers
  /// stay valid after destruction.
  ~SpannerService();

  SpannerService(const SpannerService&) = delete;
  SpannerService& operator=(const SpannerService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

  /// Opens a tenant maintaining `spanner_spec` over `initial` and publishes
  /// its epoch-0 snapshot. Throws ServiceError at max_tenants, SpecError on
  /// bad specs or constructions without incremental support.
  [[nodiscard]] TenantId open_tenant(const Graph& initial, const std::string& spanner_spec);

  /// Graceful eviction: drains the tenant's pending events (publishing
  /// final epochs), then removes it. Readers holding its snapshots are
  /// unaffected. Throws ServiceError on unknown ids.
  void close_tenant(TenantId id);

  [[nodiscard]] bool has_tenant(TenantId id) const;
  [[nodiscard]] std::vector<TenantId> tenants() const;
  [[nodiscard]] std::string tenant_spec(TenantId id) const;

  /// Admission-controlled ingestion: folds `events` into the tenant's
  /// coalescing queue, or rejects the whole batch (all-or-nothing — a
  /// rejected batch changes no state except the rejection counter). Throws
  /// ServiceError, changing nothing, if any event names a node outside the
  /// tenant's universe or an edge event is a self-loop.
  Admission submit(TenantId id, std::span<const GraphEvent> events);

  /// Drains this tenant's queue to empty on the calling thread,
  /// cooperating with any worker currently on it.
  void flush(TenantId id);

  /// flush() over all tenants.
  void drain();

  /// The tenant's current epoch snapshot. Hold the pointer and query it
  /// freely; it never changes and never blocks the writer.
  [[nodiscard]] std::shared_ptr<const SpannerSnapshot> snapshot(TenantId id) const;

  [[nodiscard]] TenantStats tenant_stats(TenantId id) const;
  [[nodiscard]] ServiceStats stats() const;

  /// The applied coalesced batches, in order (record_journal only):
  /// replaying exactly these through a fresh single-threaded
  /// IncrementalSession reproduces the tenant's final state bit-exact.
  [[nodiscard]] std::vector<std::vector<GraphEvent>> journal(TenantId id) const;

 private:
  struct Tenant;

  [[nodiscard]] std::shared_ptr<Tenant> find(TenantId id) const;
  /// One drain pass outcome (see drain_pass).
  enum class DrainResult : std::uint8_t { kDrained, kEmpty, kBusy };
  DrainResult drain_pass(Tenant& t);
  void flush_tenant(Tenant& t);
  void schedule(Tenant& t);
  void worker_loop();

  ServiceConfig cfg_;
  mutable std::mutex mu_;  ///< tenants_ map, ready ring, lifetime counters
  std::map<TenantId, std::shared_ptr<Tenant>> tenants_;
  TenantId next_id_ = 0;
  std::uint64_t tenants_opened_ = 0;
  std::uint64_t tenants_closed_ = 0;
  std::deque<TenantId> ready_;
  std::condition_variable work_cv_;
  bool stop_ = false;
  /// Pending cells across all tenants (admission's global budget check).
  std::atomic<std::int64_t> global_pending_{0};
  std::vector<std::thread> workers_;
};

}  // namespace remspan::serve
