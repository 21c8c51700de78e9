#include "sim/remspan_protocol.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "baseline/mpr.hpp"
#include "graph/bfs.hpp"
#include "obs/obs.hpp"

namespace remspan {

namespace {

/// Telemetry hook of the ack-less retransmission machinery: bumps the
/// sim.retransmissions counter, records the freshly scheduled backoff
/// interval (backoff state occupancy), and drops an instant trace event on
/// the node's simulator lane (ts = round number — deterministic, no wall
/// clock). Costs one branch per sink when nothing is installed.
void record_retransmit_obs(NodeId self, std::uint32_t round, std::uint32_t interval) {
  if (obs::Registry* m = obs::metrics()) {
    m->add(obs::Metric::kSimRetransmissions, 1);
    m->record(obs::Metric::kSimBackoffInterval, interval);
  }
  if (obs::TraceBuffer* t = obs::trace()) {
    obs::TraceEvent e;
    e.name = "sim.retransmit";
    e.cat = "sim";
    e.ph = obs::kPhaseInstant;
    e.ts = static_cast<double>(round) * obs::kRoundMicros;
    e.pid = obs::kSimPid;
    e.tid = self;
    e.args = {{"interval", static_cast<std::int64_t>(interval)}};
    t->emit(std::move(e));
  }
}

}  // namespace

std::uint32_t RemSpanConfig::expected_rounds() const { return 1 + 2 * flood_scope(); }

const char* RemSpanConfig::kind_name() const noexcept {
  if (olsr_mpr) return "olsr-mpr";
  switch (tree.algorithm()) {
    case TreeRecipe::Algorithm::kGreedy:
      return "low-stretch (greedy)";
    case TreeRecipe::Algorithm::kMis:
      return "low-stretch (mis)";
    case TreeRecipe::Algorithm::kGreedyK:
      return "k-connecting (greedy)";
    case TreeRecipe::Algorithm::kMisK:
      return "k-connecting (mis)";
  }
  return "?";
}

std::vector<Edge> compute_local_tree_edges(const RemSpanConfig& config, NodeId self,
                                           const std::vector<NodeId>& neighbors,
                                           const std::map<NodeId, std::vector<NodeId>>& lists) {
  // Collect every node id the local view mentions. Ids are compacted
  // monotonically so that every id-based tie-break in DomTreeBuilder and
  // olsr_mpr_set matches the centralized computation on the full graph.
  std::vector<NodeId> known;
  known.push_back(self);
  for (const NodeId v : neighbors) known.push_back(v);
  for (const auto& [origin, list] : lists) {
    known.push_back(origin);
    known.insert(known.end(), list.begin(), list.end());
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());

  std::unordered_map<NodeId, NodeId> local_id;
  local_id.reserve(known.size());
  for (NodeId i = 0; i < known.size(); ++i) local_id.emplace(known[i], i);

  GraphBuilder builder(static_cast<NodeId>(known.size()));
  for (const NodeId v : neighbors) builder.add_edge(local_id.at(self), local_id.at(v));
  for (const auto& [origin, list] : lists) {
    for (const NodeId v : list) builder.add_edge(local_id.at(origin), local_id.at(v));
  }
  const Graph local = builder.build();
  const NodeId root = local_id.at(self);

  std::vector<Edge> out;
  if (config.olsr_mpr) {
    for (const NodeId m : olsr_mpr_set(local, root)) {
      out.push_back(make_edge(self, known[m]));
    }
    return out;
  }

  DomTreeBuilder trees(local);
  const RootedTree tree = config.tree.build_tree(trees, root);
  for (const Edge& e : tree.edges()) {
    out.push_back(make_edge(known[e.u], known[e.v]));
  }
  return out;
}

void RemSpanProtocol::begin_epoch(bool advertise, bool reset_state) {
  if (reset_state) {
    lists_.clear();
    trees_.clear();
    tree_edges_.clear();
  }
  // The previous epoch ran to quiescence, so its duplicate-suppression keys
  // can never match again (seqs only grow); keep memory O(live state). The
  // receive-side version maps empty alongside them and the own streams
  // restart at version 0.
  flood_.reset_seen();
  advertise_ = advertise;
  round_ = 0;
  computed_ = false;
  list_dirty_ = false;
  recompute_needed_ = false;
  list_version_ = 0;
  tree_version_ = 0;
  list_rx_version_.clear();
  tree_rx_version_.clear();
  retransmit_interval_ = 0;
  next_retransmit_ = 0;
  resend_count_ = 0;
}

const std::vector<NodeId>* RemSpanProtocol::stored_list(NodeId origin) const {
  const auto it = lists_.find(origin);
  return it == lists_.end() ? nullptr : &it->second;
}

const std::vector<Edge>* RemSpanProtocol::stored_tree(NodeId origin) const {
  const auto it = trees_.find(origin);
  return it == trees_.end() ? nullptr : &it->second;
}

void RemSpanProtocol::send_hello(NodeContext& ctx) {
  Message hello;
  hello.type = kMsgHello;
  hello.origin = self_;
  ctx.broadcast(std::move(hello));
}

void RemSpanProtocol::advertise_list(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(neighbors_.size() + (rel_.enabled ? kVersionPrefixWords : 0));
  if (rel_.enabled) payload.push_back(list_version_);
  payload.insert(payload.end(), neighbors_.begin(), neighbors_.end());
  flood_.originate(ctx, kMsgNeighborList, config_.flood_scope(), std::move(payload));
}

void RemSpanProtocol::flood_tree(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(tree_edges_.size() * 2 + (rel_.enabled ? kVersionPrefixWords : 0));
  if (rel_.enabled) payload.push_back(tree_version_);
  for (const Edge& e : tree_edges_) {
    payload.push_back(e.u);
    payload.push_back(e.v);
  }
  flood_.originate(ctx, kMsgTree, config_.flood_scope(), std::move(payload));
}

void RemSpanProtocol::schedule_retransmit() {
  next_retransmit_ = round_ + retransmit_interval_ +
                     emission_jitter(self_, ++resend_count_, rel_.retransmit_jitter);
}

void RemSpanProtocol::on_round(NodeContext& ctx) {
  ++round_;
  if (!advertise_) return;
  if (round_ == 1) {
    send_hello(ctx);
    return;
  }
  if (round_ == 2) {
    // Advertise the neighbor list to B(u, scope). Under loss an in-band
    // list may still be partial — every later new HELLO marks it dirty and
    // a higher-versioned re-advertisement supersedes this one.
    advertise_list(ctx);
    if (rel_.enabled) {
      retransmit_interval_ = std::max<std::uint32_t>(1, rel_.retransmit_base);
      schedule_retransmit();
    }
    return;
  }
  // Flush a dirty list the round after the change, compute on the paper's
  // round 2 + scope (every ball list has landed on a lossless channel), and
  // recompute whenever late input arrived — flooding a new tree version
  // only when the content actually changed, so retransmissions alone can
  // never look like progress to the quiescence detector.
  if (list_dirty_) {
    list_dirty_ = false;
    ++list_version_;
    ++progress_;
    advertise_list(ctx);
  }
  if (round_ == 2 + config_.flood_scope() && !computed_) {
    computed_ = true;
    tree_edges_ = compute_tree();
    ++progress_;
    flood_tree(ctx);
  } else if (recompute_needed_) {
    recompute_needed_ = false;
    std::vector<Edge> fresh = compute_tree();
    if (fresh != tree_edges_) {
      tree_edges_ = std::move(fresh);
      ++tree_version_;
      ++progress_;
      flood_tree(ctx);
    }
  }
  // Ack-less periodic re-advertisement with capped exponential backoff plus
  // deterministic emission jitter (see emission_jitter): every stream this
  // node originates goes out again with a fresh seq (so FloodManager
  // forwards it, healing downstream gaps) but unchanged content version (so
  // receivers that already have it stay untouched). A driver-sensed node
  // repeats no HELLO: its neighbor set does not come from HELLOs.
  if (next_retransmit_ != 0 && round_ >= next_retransmit_) {
    if (!driver_sensed_) send_hello(ctx);
    advertise_list(ctx);
    if (computed_) flood_tree(ctx);
    retransmit_interval_ =
        std::min(retransmit_interval_ * 2, std::max<std::uint32_t>(1, rel_.backoff_cap));
    schedule_retransmit();
    record_retransmit_obs(self_, round_, retransmit_interval_);
  }
}

void RemSpanProtocol::hear_hello(NodeId from) {
  // Repeated HELLOs are idempotent; a genuinely new neighbor after the
  // round-2 advertisement means the advertised list (and through it the
  // local topology) was incomplete — re-advertise and recompute.
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), from);
  if (it != neighbors_.end() && *it == from) return;
  neighbors_.insert(it, from);
  ++progress_;
  if (round_ >= 2) {
    list_dirty_ = true;
    if (computed_) recompute_needed_ = true;
  }
}

std::optional<std::span<const std::uint32_t>> RemSpanProtocol::accept_fresh(
    NodeContext& ctx, const Message& msg, std::map<NodeId, std::uint32_t>& accepted) {
  if (!flood_.accept(ctx, msg)) return std::nullopt;
  std::span<const std::uint32_t> body(msg.payload);
  std::uint32_t version = 0;
  if (rel_.enabled) {
    REMSPAN_CHECK(!body.empty());
    version = body.front();
    body = body.subspan(kVersionPrefixWords);
  }
  // Monotone acceptance: delay jitter can deliver version 0 after the
  // origin already flooded version 1, and retransmissions repeat versions.
  const auto [seen, first] = accepted.try_emplace(msg.origin, version);
  if (!first) {
    if (version <= seen->second) return std::nullopt;
    seen->second = version;
  }
  return body;
}

void RemSpanProtocol::on_message(NodeContext& ctx, const Message& msg) {
  switch (msg.type) {
    case kMsgHello:
      // A driver-sensed node ignores the content; the delivery is still
      // accounted.
      if (!driver_sensed_) hear_hello(msg.origin);
      break;
    case kMsgNeighborList: {
      const auto body = accept_fresh(ctx, msg, list_rx_version_);
      if (!body) break;
      lists_[msg.origin].assign(body->begin(), body->end());
      ++progress_;
      if (computed_) recompute_needed_ = true;
      break;
    }
    case kMsgTree: {
      const auto body = accept_fresh(ctx, msg, tree_rx_version_);
      if (!body) break;
      std::vector<Edge> edges;
      edges.reserve(body->size() / 2);
      for (std::size_t i = 0; i + 1 < body->size(); i += 2) {
        edges.push_back(make_edge((*body)[i], (*body)[i + 1]));
      }
      trees_[msg.origin] = std::move(edges);
      ++progress_;
      break;
    }
    default:
      break;
  }
}

std::vector<Edge> RemSpanProtocol::compute_tree() const {
  if (!driver_sensed_) return compute_local_tree_edges(config_, self_, neighbors_, lists_);
  // Only the lists the ball walk reaches: stale entries of origins that
  // left the ball are unreachable from the fresh sensed neighbors, and
  // under loss the walk tolerates lists still in flight (reconvergence.hpp).
  std::map<NodeId, std::vector<NodeId>> ball;
  for (const NodeId v : ball_origins()) {
    if (const std::vector<NodeId>* list = stored_list(v)) ball.emplace(v, *list);
  }
  return compute_local_tree_edges(config_, self_, neighbors_, ball);
}

std::vector<NodeId> RemSpanProtocol::ball_origins() const {
  std::set<NodeId> reached{self_};
  std::vector<NodeId> frontier{self_};
  for (Dist d = 0; d < config_.flood_scope() && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (const NodeId w : frontier) {
      const std::vector<NodeId>* nbrs = w == self_ ? &neighbors_ : stored_list(w);
      if (nbrs == nullptr) continue;  // still in flight
      for (const NodeId x : *nbrs) {
        if (reached.insert(x).second) next.push_back(x);
      }
    }
    frontier = std::move(next);
  }
  reached.erase(self_);
  return {reached.begin(), reached.end()};
}

std::map<NodeId, std::vector<NodeId>> RemSpanProtocol::ball_lists() const {
  std::map<NodeId, std::vector<NodeId>> out;
  for (const NodeId v : ball_origins()) {
    const std::vector<NodeId>* list = stored_list(v);
    REMSPAN_CHECK(list != nullptr);
    out.emplace(v, *list);
  }
  return out;
}

std::map<NodeId, std::vector<Edge>> RemSpanProtocol::ball_trees() const {
  std::map<NodeId, std::vector<Edge>> out;
  out.emplace(self_, tree_edges_);
  for (const NodeId v : ball_origins()) {
    const std::vector<Edge>* tree = stored_tree(v);
    REMSPAN_CHECK(tree != nullptr);
    out.emplace(v, *tree);
  }
  return out;
}

bool remspan_converged(const Network& net, const RemSpanConfig& config, BoundedBfs& bfs) {
  const Graph& g = net.graph();
  const auto node = [&net](NodeId v) -> const RemSpanProtocol& {
    return dynamic_cast<const RemSpanProtocol&>(net.node(v));
  };
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const RemSpanProtocol& pu = node(u);
    if (!pu.settled()) return false;
    const auto row = g.neighbors(u);
    const std::vector<NodeId>& sensed = pu.sensed_neighbors();
    if (!std::equal(sensed.begin(), sensed.end(), row.begin(), row.end())) return false;
    bfs.run(GraphView(g), u, config.flood_scope());
    for (const NodeId o : bfs.order()) {
      if (o == u) continue;
      const RemSpanProtocol& po = node(o);
      const std::vector<NodeId>* list = pu.stored_list(o);
      if (list == nullptr || *list != po.sensed_neighbors()) return false;
      const std::vector<Edge>* tree = pu.stored_tree(o);
      if (tree == nullptr || *tree != po.tree_edges()) return false;
    }
  }
  return true;
}

std::uint32_t run_remspan_epoch(Network& net, const RemSpanConfig& config,
                                const ReliabilityConfig& rel, BoundedBfs& bfs) {
  if (!rel.enabled) return net.run(config.round_budget());
  // The window must cover the longest progress-free stretch of the legal
  // schedule: the retransmission/delay bound, but also the quiet rounds
  // between a lone node's advertisement and its scheduled tree compute.
  // A quiet window is only a candidate stop; the completeness oracle
  // confirms it or sends the run back for another window of healing.
  const std::uint32_t max_delay =
      net.link_model() != nullptr ? net.link_model()->config().max_delay() : 0;
  const std::uint32_t window =
      std::max(rel.quiescence_window_for(max_delay), config.expected_rounds() + 2);
  return net.run_until_quiescent(window, rel.max_rounds,
                                 [&] { return remspan_converged(net, config, bfs); });
}

EdgeSet advertised_spanner(const Network& net) {
  const Graph& g = net.graph();
  EdgeSet spanner(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Edge& e : dynamic_cast<const RemSpanProtocol&>(net.node(v)).tree_edges()) {
      const EdgeId id = g.find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      spanner.insert(id);
    }
  }
  return spanner;
}

DistributedRunResult run_remspan_distributed(const Graph& g, const RemSpanConfig& config,
                                             const FaultConfig& faults) {
  const ReliabilityConfig rel = faults.effective_reliability();
  Network net(g, [&config, &rel](NodeId v) {
    return std::make_unique<RemSpanProtocol>(config, v, rel);
  });
  if (faults.faulty()) {
    net.set_link_model(std::make_unique<LinkModel>(faults.link, g.num_nodes()));
  }
  BoundedBfs bfs(g.num_nodes());
  const std::uint32_t rounds = run_remspan_epoch(net, config, rel, bfs);
  return DistributedRunResult{advertised_spanner(net), net.stats(), rounds};
}

}  // namespace remspan
