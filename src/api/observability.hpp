// Process-wide observability switchboard of the public facade: owns one
// static metrics registry and one static trace buffer, installs/uninstalls
// them as the engine-wide sinks (obs/obs.hpp), and serializes their content
// for the CLI (--metrics-out / --trace-out), the REMSPAN_TRACE /
// REMSPAN_METRICS environment hooks, and the C ABI
// (remspan_metrics_enable / remspan_metrics_snapshot).
//
// Contract (same as the obs layer it fronts): disabled costs one branch per
// hook, enabling never changes any computed result — telemetry content is
// write-only from the engine's point of view.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace remspan::api {

/// Installs the facade-owned sinks: the static registry when `metrics`,
/// the static trace buffer when `trace`. Either flag false uninstalls that
/// sink; previously collected content is kept (re-enabling resumes the
/// streams). Not thread-safe against concurrently *running* instrumented
/// work — switch before starting it (see obs::install).
void enable_observability(bool metrics, bool trace);

/// Uninstalls both sinks (equivalent to enable_observability(false, false)).
void disable_observability();

/// The facade-owned metrics registry — for tests and drivers that want to
/// inspect collected content. Always valid; collecting only while
/// installed.
[[nodiscard]] obs::Registry& observability_registry();

/// JSON serialization of the registry's current snapshot (valid JSON with
/// empty sections when nothing was ever collected).
[[nodiscard]] std::string metrics_snapshot_json();

/// Write the trace buffer (Chrome trace_event JSON) / metrics snapshot to
/// `path`. Returns false with *error set on I/O failure.
bool write_trace_file(const std::string& path, std::string* error = nullptr);
bool write_metrics_file(const std::string& path, std::string* error = nullptr);

/// Environment hook for unmodified drivers: REMSPAN_TRACE=<path> enables
/// tracing, REMSPAN_METRICS=<path> enables metrics; each registers an
/// atexit writer to its path. No-op when neither variable is set. Call
/// early in main(); repeated calls re-read the environment.
void observability_from_env();

}  // namespace remspan::api
