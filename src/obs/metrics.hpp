// The metrics registry: catalog metrics (obs/catalog.hpp) written by id
// into per-thread cells, plus point-in-time snapshots that diff and
// serialize. An id is the only way to write a metric. This
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

/// Histogram bucket geometry, shared by every catalog histogram: the bucket
/// index is bit_width(value), so bucket 0 holds exactly 0 and bucket i >= 1
/// holds [2^(i-1), 2^i). Fixed geometry means two snapshots of one name
/// always diff bucket by bucket.
inline constexpr std::size_t kHistogramBuckets = 65;  // bit_width of uint64 is 0..64

[[nodiscard]] constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

/// Smallest sample a bucket can hold (its label in serialized snapshots).
[[nodiscard]] constexpr std::uint64_t bucket_floor(std::size_t index) noexcept {
  return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
}

/// Plain-value copy of one histogram (inside a Snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

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
/// the owning thread writes; snapshot() reads it.
struct alignas(64) ThreadCells {
  struct HistogramCells {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
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
    detail::bump(h.buckets[bucket_index(value)], 1);
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

/// Metric registry. Every metric is a catalog row, written by id through
/// add(), record(), set() and add_gauge(); names appear only in snapshots.
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

  /// Sums every thread's cells in catalog order into a name-keyed
  /// Snapshot. A metric appears once it has been written (with any value,
  /// zero included).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  ThreadCells& attach();
  /// The gauge's one shared cell, marked written (a kind mismatch throws).
  std::atomic<std::int64_t>& written_gauge(Metric id);

  const std::uint64_t serial_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<ThreadCells>>> slabs_;
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges_{};
  std::array<std::atomic<bool>, kNumGauges> gauge_written_{};
};

}  // namespace remspan::obs
