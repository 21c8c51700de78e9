// The sink hub of src/obs: process-global metric/trace sink pointers, null
// by default, plus the span helpers every instrumented call site uses.
//
// The contract that keeps observability safe in a bit-exact codebase
// (docs/OBSERVABILITY.md):
//   - sinks are pointer-null by default, so a disabled hook is one acquire
//     load and a branch (pinned by BM_ObsSpanDisabled and
//     BM_SpannerBuildTh2);
//   - nothing an instrument records is ever read back by the algorithms —
//     engine and simulator outputs are bit-identical with sinks installed
//     or not (pinned by the ObsEquivalence suite);
//   - wall-clock only ever appears in engine-lane trace timestamps and
//     span seconds, never in metric cells, so metric snapshots of
//     bit-identical runs are byte-identical.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace remspan::obs {

/// The installed sinks (either may be null). Hooks call these on every hit;
/// both are a single acquire load.
[[nodiscard]] Registry* metrics() noexcept;
[[nodiscard]] TraceBuffer* trace() noexcept;

/// Installs / clears the process-global sinks. The caller keeps ownership
/// and must uninstall before destroying the sinks; installation is not a
/// synchronization point for in-flight hooks, so install before starting
/// the work being observed (drivers do this at startup).
void install(Registry* m, TraceBuffer* t) noexcept;
void uninstall() noexcept;

/// Scoped install/uninstall for tests and one-shot drivers.
class ScopedSinks {
 public:
  ScopedSinks(Registry* m, TraceBuffer* t) noexcept { install(m, t); }
  ~ScopedSinks() { uninstall(); }
  ScopedSinks(const ScopedSinks&) = delete;
  ScopedSinks& operator=(const ScopedSinks&) = delete;
};

/// Small dense per-thread lane id for engine-side trace events (tid field).
[[nodiscard]] std::uint32_t engine_lane() noexcept;

/// Wall-clock microseconds since the process-wide trace epoch (the ts field
/// of engine-lane events).
[[nodiscard]] double process_micros() noexcept;

/// RAII phase span: always a stopwatch (seconds() replaces the ad-hoc
/// util/timer.hpp call sites), and additionally a B/E trace span on the
/// current engine lane when a trace sink is installed. Name/category are
/// borrowed pointers and must outlive the span (string literals at every
/// call site).
class PhaseSpan {
 public:
  explicit PhaseSpan(const char* name, const char* cat = "engine") noexcept
      : name_(name), cat_(cat) {
    if (TraceBuffer* t = trace()) {
      traced_ = true;
      t->emit(TraceEvent{name_, cat_, kPhaseBegin, process_micros(), kEnginePid, engine_lane(), {}});
    }
  }

  ~PhaseSpan() {
    if (!traced_) return;
    if (TraceBuffer* t = trace()) {
      t->emit(TraceEvent{name_, cat_, kPhaseEnd, process_micros(), kEnginePid, engine_lane(), {}});
    }
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  /// Elapsed wall seconds since construction.
  [[nodiscard]] double seconds() const noexcept { return timer_.seconds(); }
  [[nodiscard]] double millis() const noexcept { return timer_.millis(); }

  /// Restarts the stopwatch (the trace span is not reopened).
  void reset() noexcept { timer_.reset(); }

 private:
  const char* name_;
  const char* cat_;
  Timer timer_;
  bool traced_ = false;
};

/// Emits an instant event on the current engine lane (no-op when disabled).
inline void instant(const char* name, const char* cat = "engine") {
  if (TraceBuffer* t = trace()) {
    t->emit(TraceEvent{name, cat, kPhaseInstant, process_micros(), kEnginePid, engine_lane(), {}});
  }
}

/// Metric hooks by catalog id (obs/catalog.hpp). With no registry
/// installed each is one acquire load and a branch; with one, a counter or
/// histogram write is a thread-local slab lookup plus relaxed loads and
/// stores on cells no other thread writes. Call sites that publish several
/// metrics at once load metrics() once and write through the registry.
inline void add(Metric id, std::uint64_t n = 1) {
  if (Registry* m = metrics()) m->add(id, n);
}
inline void record(Metric id, std::uint64_t value) {
  if (Registry* m = metrics()) m->record(id, value);
}
inline void gauge_set(Metric id, std::int64_t value) {
  if (Registry* m = metrics()) m->set(id, value);
}
inline void gauge_add(Metric id, std::int64_t n) {
  if (Registry* m = metrics()) m->add_gauge(id, n);
}

}  // namespace remspan::obs
