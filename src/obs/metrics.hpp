// The metrics registry: catalog metrics written by id into per-thread
// cells, ad-hoc named counters, gauges and fixed-bucket histograms for
// tests, plus point-in-time snapshots that diff, merge and serialize. This
// is the passive half of src/obs — instruments write cells, tools and
// benches snapshot them; nothing here ever feeds back into computation (the
// bit-exactness contract of docs/OBSERVABILITY.md).
//
// Engine hooks publish per tree (every BFS run and dominating-tree build
// writes about a dozen cells, ~10^7 writes per build of a 10^6-node
// graph), so a write must not lock, allocate or look anything up. Each registry therefore
// owns one cache-line-aligned slab of counter and histogram cells per
// writing thread, indexed by catalog slot (obs/catalog.hpp). A write is a
// relaxed load and store on a line only its own thread writes; the
// registry mutex is taken only when a thread writes to a registry other
// than the one it last wrote to (its first write included).
// snapshot() sums the slabs, so the cost of summation moves from the write
// to the read. Gauges keep last-write semantics and stay one shared atomic
// per id. Cells are atomics throughout, so a concurrent snapshot reads
// each cell's own value (not a consistent cut across cells) without a race.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/catalog.hpp"
#include "util/prelude.hpp"

namespace remspan {
class BenchReport;
}  // namespace remspan

namespace remspan::obs {

/// Monotone event count (ad-hoc named cell).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed level that can move both ways (queue depths, live handles).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed distribution of unsigned samples. Bucket index is
/// bit_width(value): bucket 0 holds exactly 0, bucket i >= 1 holds
/// [2^(i-1), 2^i). Fixed geometry means snapshots of the same name always
/// diff and merge bucket-by-bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Smallest sample a bucket can hold (its label in serialized snapshots).
  [[nodiscard]] static constexpr std::uint64_t bucket_floor(std::size_t index) noexcept {
    return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Plain-value copy of one histogram (inside a Snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  [[nodiscard]] bool operator==(const HistogramSnapshot&) const = default;
};

/// A point-in-time copy of a registry's cells. Name-keyed maps keep the
/// serialization deterministic (sorted), so two snapshots of bit-identical
/// runs are byte-identical JSON.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// This snapshot minus `earlier` (per key; keys absent from `earlier`
  /// count as zero). Counters and histogram cells are monotone, so a
  /// negative delta means the snapshots are from different runs — checked.
  [[nodiscard]] Snapshot diff(const Snapshot& earlier) const;

  /// Adds `other` into this snapshot (union of keys, cells summed) — the
  /// aggregation primitive for per-shard or per-run telemetry.
  void merge(const Snapshot& other);

  /// Full snapshot as a JSON document (the --metrics-out /
  /// remspan_metrics_snapshot format; see docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;

  /// Flattens counters, gauges and histogram count/sum into a BenchReport's
  /// values ("<prefix><name>" keys; histograms add _count/_sum suffixes).
  void append_to(BenchReport& report, const std::string& prefix = "") const;

  [[nodiscard]] bool operator==(const Snapshot&) const = default;
};

namespace detail {

/// Adds `n` to a cell only the calling thread writes: a relaxed load and
/// store, no read-modify-write.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace detail

/// One thread's cells for every catalog counter and histogram, plus a bit
/// per metric id recording that the thread wrote it (a written metric
/// appears in snapshots even when its total is zero). Single writer: only
/// the owning thread writes; snapshot() and reset() read and zero it.
struct alignas(64) ThreadCells {
  struct HistogramCells {
    std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };

  std::array<std::atomic<std::uint64_t>, (kNumMetrics + 63) / 64> written{};
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<HistogramCells, kNumHistograms> histograms{};

  void add(Metric id, std::uint64_t n) {
    REMSPAN_CHECK(def(id).kind == Kind::kCounter);
    mark(id);
    detail::bump(counters[kSlot[index(id)]], n);
  }

  void record(Metric id, std::uint64_t value) {
    REMSPAN_CHECK(def(id).kind == Kind::kHistogram);
    mark(id);
    HistogramCells& h = histograms[kSlot[index(id)]];
    detail::bump(h.buckets[Histogram::bucket_index(value)], 1);
    detail::bump(h.count, 1);
    detail::bump(h.sum, value);
  }

  [[nodiscard]] bool was_written(Metric id) const noexcept {
    return (written[index(id) / 64].load(std::memory_order_relaxed) >> (index(id) % 64) & 1) != 0;
  }

 private:
  void mark(Metric id) noexcept {
    std::atomic<std::uint64_t>& word = written[index(id) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (index(id) % 64);
    const std::uint64_t seen = word.load(std::memory_order_relaxed);
    if ((seen & bit) == 0) [[unlikely]] word.store(seen | bit, std::memory_order_relaxed);
  }
};

namespace detail {

/// The (registry serial, slab) pair a thread last wrote through. Keyed by
/// serial number, never by registry address: a registry re-created at a
/// freed one's address gets a fresh serial, so a stale entry can never
/// match it.
struct SlabRef {
  std::uint64_t serial = 0;  // 0: empty (serials start at 1)
  ThreadCells* cells = nullptr;
};
inline constinit thread_local SlabRef t_slab{};

}  // namespace detail

/// Metric registry. Catalog metrics are written by id through add(),
/// record(), set() and add_gauge(); the name-keyed counter()/gauge()/
/// histogram() accessors serve ad-hoc cells in tests (a catalog name is
/// rejected there) and keep stable addresses for the registry's lifetime.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The calling thread's slab: a thread-local compare on the hot path;
  /// a thread's first write to this registry, or its first after writing
  /// to another one, takes the mutex.
  [[nodiscard]] ThreadCells& local() {
    const detail::SlabRef& hot = detail::t_slab;
    if (hot.serial == serial_) [[likely]] return *hot.cells;
    return attach();
  }

  void add(Metric id, std::uint64_t n) { local().add(id, n); }
  void record(Metric id, std::uint64_t value) { local().record(id, value); }
  void set(Metric id, std::int64_t value);
  void add_gauge(Metric id, std::int64_t n);

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Sums every thread's cells in catalog order into a name-keyed
  /// Snapshot, together with the ad-hoc cells. A metric appears once it
  /// has been written (with any value, zero included).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every cell of every slab, gauge and ad-hoc instrument; the set
  /// of written names is kept (ad-hoc addresses stay valid). Call it while
  /// no write is in flight: a concurrent write may land on either side.
  void reset();

 private:
  ThreadCells& attach();
  std::atomic<std::int64_t>& gauge_cell(Metric id);

  const std::uint64_t serial_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<ThreadCells>>> slabs_;
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges_{};
  std::array<std::atomic<bool>, kNumGauges> gauge_written_{};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_by_name_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace remspan::obs
