#include "sim/reconvergence.hpp"

#include <utility>

#include "dynamic/incremental_spanner.hpp"
#include "obs/obs.hpp"

namespace remspan {

const char* strategy_name(ReconvergeStrategy strategy) noexcept {
  return strategy == ReconvergeStrategy::kIncremental ? "incremental" : "full-reflood";
}

namespace {

std::vector<NodeId> sorted_neighbors(const Graph& g, NodeId v) {
  const auto nbrs = g.neighbors(v);  // CSR rows are sorted
  return {nbrs.begin(), nbrs.end()};
}

}  // namespace

ReconvergenceSim::ReconvergenceSim(const Graph& initial, const RemSpanConfig& config,
                                   ReconvergeStrategy strategy, const FaultConfig& faults)
    : config_(config),
      strategy_(strategy),
      faults_(faults),
      dynamic_(initial),
      graph_(dynamic_.snapshot()),
      net_(*graph_),
      dirty_bfs_(initial.num_nodes()) {
  obs::PhaseSpan span("sim.initial_convergence", "sim");
  if (faults_.faulty()) {
    net_.set_link_model(std::make_unique<LinkModel>(faults_.link, graph_->num_nodes()));
  }
  nodes_.reserve(graph_->num_nodes());
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    RemSpanProtocol& p = nodes_.emplace_back(config_, v, faults_.faulty());
    p.sense_neighbors(sorted_neighbors(*graph_, v));
    p.begin_epoch(/*advertise=*/true, /*reset_state=*/true);
  }
  initial_.rounds = run_remspan_epoch(net_, nodes_, config_, dirty_bfs_);
  const NetworkStats& s = net_.stats();
  initial_.advertising_nodes = graph_->num_nodes();
  initial_.transmissions = s.transmissions;
  initial_.receptions = s.receptions;
  initial_.payload_words = s.payload_words;
  initial_.wire_bytes = s.wire_bytes();
  initial_.drops = s.drops;
  initial_.delayed = s.delayed;
  initial_.spanner_edges = spanner().size();
  initial_.seconds = span.seconds();
}

ReconvergeBatchStats ReconvergenceSim::apply_batch(std::span<const GraphEvent> events) {
  obs::PhaseSpan span("sim.reconverge_batch", "sim");
  ReconvergeBatchStats stats;
  stats.batch = ++epoch_;
  stats.applied_events = dynamic_.apply_all(events);

  const std::shared_ptr<const Graph> old_graph = graph_;
  const std::shared_ptr<const Graph> new_graph = dynamic_.snapshot();
  const GraphDelta delta = diff_graphs(*old_graph, *new_graph);
  graph_ = new_graph;
  net_.change_topology(*graph_);
  if (delta.empty()) {
    // No live-topology change: nobody re-advertises, nothing flows.
    stats.spanner_edges = spanner().size();
    stats.seconds = span.seconds();
    return stats;
  }
  stats.removed_edges = delta.removed.size();
  stats.inserted_edges = delta.inserted.size();

  const std::vector<NodeId> touched = touched_endpoints(delta);
  stats.touched_nodes = touched.size();

  if (strategy_ == ReconvergeStrategy::kFullReflood) {
    for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
      RemSpanProtocol& p = nodes_[v];
      p.sense_neighbors(sorted_neighbors(*graph_, v));
      p.begin_epoch(/*advertise=*/true, /*reset_state=*/true);
    }
    stats.advertising_nodes = graph_->num_nodes();
  } else {
    const std::vector<NodeId> dirty = collect_dirty_roots(
        *old_graph, *new_graph, touched, config_.flood_scope(), dirty_bfs_, dirty_flag_);
    for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
      nodes_[v].begin_epoch(/*advertise=*/dirty_flag_[v] != 0, /*reset_state=*/false);
    }
    for (const NodeId v : touched) {
      nodes_[v].sense_neighbors(sorted_neighbors(*graph_, v));
    }
    stats.advertising_nodes = dirty.size();
  }

  const NetworkStats before = net_.stats();
  stats.rounds = run_remspan_epoch(net_, nodes_, config_, dirty_bfs_);
  const NetworkStats delta_stats = net_.stats() - before;
  stats.transmissions = delta_stats.transmissions;
  stats.receptions = delta_stats.receptions;
  stats.payload_words = delta_stats.payload_words;
  stats.wire_bytes = delta_stats.wire_bytes();
  stats.drops = delta_stats.drops;
  stats.delayed = delta_stats.delayed;
  stats.spanner_edges = spanner().size();
  stats.seconds = span.seconds();
  return stats;
}

EdgeSet ReconvergenceSim::spanner() const { return advertised_spanner(net_, nodes_); }

}  // namespace remspan
