#include "obs/metrics.hpp"

#include <iterator>
#include <utility>

#include "util/json_report.hpp"
#include "util/prelude.hpp"

namespace remspan::obs {

namespace {

/// Bucket labels are the bucket floors, so a serialized histogram reads as
/// "samples >= floor (up to the next floor)".
void append_histogram_json(std::string& out, const HistogramSnapshot& h) {
  out += "{\"count\": " + std::to_string(h.count);
  out += ", \"sum\": " + std::to_string(h.sum);
  out += ", \"buckets\": {";
  bool first = true;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += json_quote(std::to_string(bucket_floor(i)));
    out += ": " + std::to_string(h.buckets[i]);
  }
  out += "}}";
}

}  // namespace

Snapshot Snapshot::diff(const Snapshot& earlier) const {
  Snapshot out;
  for (const auto& [name, value] : counters) {
    const auto it = earlier.counters.find(name);
    const std::uint64_t base = it == earlier.counters.end() ? 0 : it->second;
    REMSPAN_CHECK(value >= base);
    out.counters.emplace(name, value - base);
  }
  for (const auto& [name, value] : gauges) {
    const auto it = earlier.gauges.find(name);
    const std::int64_t base = it == earlier.gauges.end() ? 0 : it->second;
    out.gauges.emplace(name, value - base);
  }
  for (const auto& [name, h] : histograms) {
    const auto it = earlier.histograms.find(name);
    HistogramSnapshot d = h;
    if (it != earlier.histograms.end()) {
      const HistogramSnapshot& base = it->second;
      REMSPAN_CHECK(h.count >= base.count && h.sum >= base.sum);
      d.count -= base.count;
      d.sum -= base.sum;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        REMSPAN_CHECK(h.buckets[i] >= base.buckets[i]);
        d.buckets[i] -= base.buckets[i];
      }
    }
    out.histograms.emplace(name, d);
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": " + std::to_string(value);
  }
  out += "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": " + std::to_string(value);
  }
  out += "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": ";
    append_histogram_json(out, h);
  }
  out += "}\n}\n";
  return out;
}

void Snapshot::append_to(BenchReport& report, const std::string& prefix) const {
  for (const auto& [name, value] : counters) {
    report.value(prefix + name, static_cast<std::int64_t>(value));
  }
  for (const auto& [name, value] : gauges) report.value(prefix + name, value);
  for (const auto& [name, h] : histograms) {
    report.value(prefix + name + "_count", static_cast<std::int64_t>(h.count));
    report.value(prefix + name + "_sum", static_cast<std::int64_t>(h.sum));
  }
}

namespace {

std::atomic<std::uint64_t> g_next_serial{1};

void add_histogram(HistogramSnapshot& into, const ThreadCells::HistogramCells& h) {
  into.count += h.count.load(std::memory_order_relaxed);
  into.sum += h.sum.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    into.buckets[i] += h.buckets[i].load(std::memory_order_relaxed);
  }
}

}  // namespace

// Serials are never reused: a thread may still hold a cache entry naming a
// destroyed registry's serial, and that entry must match no later one.
Registry::Registry() : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)) {}

ThreadCells& Registry::attach() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id self = std::this_thread::get_id();
  auto it = slabs_.begin();
  while (it != slabs_.end() && it->first != self) ++it;
  if (it == slabs_.end()) {
    slabs_.emplace_back(self, std::make_unique<ThreadCells>());
    it = std::prev(slabs_.end());
  }
  detail::t_slab = {serial_, it->second.get()};
  return *it->second;
}

std::atomic<std::int64_t>& Registry::written_gauge(Metric id) {
  REMSPAN_CHECK(def(id).kind == Kind::kGauge);
  const std::size_t slot = kSlot[index(id)];
  if (!gauge_written_[slot].load(std::memory_order_relaxed)) {
    gauge_written_[slot].store(true, std::memory_order_relaxed);
  }
  return gauges_[slot];
}

void Registry::set(Metric id, std::int64_t value) {
  written_gauge(id).store(value, std::memory_order_relaxed);
}

void Registry::add_gauge(Metric id, std::int64_t n) {
  written_gauge(id).fetch_add(n, std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  for (const MetricDef& d : kCatalog) {
    const std::size_t slot = kSlot[index(d.id)];
    if (d.kind == Kind::kGauge) {
      if (gauge_written_[slot].load(std::memory_order_relaxed)) {
        out.gauges.emplace(d.name, gauges_[slot].load(std::memory_order_relaxed));
      }
      continue;
    }
    bool written = false;
    std::uint64_t total = 0;
    HistogramSnapshot h;
    for (const auto& [thread, cells] : slabs_) {
      if (!cells->was_written(d.id)) continue;
      written = true;
      if (d.kind == Kind::kCounter) {
        total += cells->counters[slot].load(std::memory_order_relaxed);
      } else {
        add_histogram(h, cells->histograms[slot]);
      }
    }
    if (!written) continue;
    if (d.kind == Kind::kCounter) {
      out.counters.emplace(d.name, total);
    } else {
      out.histograms.emplace(d.name, h);
    }
  }
  return out;
}

}  // namespace remspan::obs
