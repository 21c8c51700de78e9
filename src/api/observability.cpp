#include "api/observability.hpp"

#include <cstdlib>
#include <fstream>

#include "obs/obs.hpp"

namespace remspan::api {

namespace {

// Function-local statics: constructed on first use, alive until after the
// atexit writer registered by observability_from_env() has run.
obs::Registry& static_registry() {
  static obs::Registry registry;
  return registry;
}

obs::TraceBuffer& static_trace() {
  static obs::TraceBuffer buffer;
  return buffer;
}

// Destinations of the atexit writer (empty = no write). Plain statics are
// safe here: the handler is registered after their construction, so it runs
// before their destruction.
std::string& trace_path() {
  static std::string path;
  return path;
}

std::string& metrics_path() {
  static std::string path;
  return path;
}

void write_env_outputs() {
  // Exit path: failures have nowhere to go but stderr-less silence; the CI
  // checker notices the missing file.
  if (!trace_path().empty()) (void)write_trace_file(trace_path(), nullptr);
  if (!metrics_path().empty()) (void)write_metrics_file(metrics_path(), nullptr);
}

}  // namespace

void enable_observability(bool metrics, bool trace) {
  obs::install(metrics ? &static_registry() : nullptr, trace ? &static_trace() : nullptr);
}

void disable_observability() { enable_observability(false, false); }

obs::Registry& observability_registry() { return static_registry(); }

std::string metrics_snapshot_json() { return static_registry().snapshot().to_json(); }

bool write_trace_file(const std::string& path, std::string* error) {
  return static_trace().write_file(path, error);
}

bool write_metrics_file(const std::string& path, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << metrics_snapshot_json() << '\n';
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

void observability_from_env() {
  const char* trace_env = std::getenv("REMSPAN_TRACE");
  const char* metrics_env = std::getenv("REMSPAN_METRICS");
  trace_path() = trace_env != nullptr ? trace_env : "";
  metrics_path() = metrics_env != nullptr ? metrics_env : "";
  if (trace_env == nullptr && metrics_env == nullptr) return;
  enable_observability(metrics_env != nullptr, trace_env != nullptr);
  static const bool registered = [] {
    std::atexit(write_env_outputs);
    return true;
  }();
  (void)registered;
}

}  // namespace remspan::api
