#include "sim/remspan_protocol.hpp"

#include <algorithm>
#include <unordered_map>

#include "baseline/mpr.hpp"
#include "graph/bfs.hpp"
#include "obs/obs.hpp"

namespace remspan {

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

Dist RemSpanConfig::flood_scope() const {
  switch (kind) {
    case Kind::kLowStretchGreedy:
      return r - 1 + beta;
    case Kind::kLowStretchMis:
      return r;  // r - 1 + 1
    case Kind::kKConnGreedy:
      return 1;  // r = 2, beta = 0
    case Kind::kKConnMis:
      return 2;  // r = 2, beta = 1
    case Kind::kOlsrMpr:
      return 1;  // MPR selection reads nothing beyond N(u)'s links
  }
  return 1;
}

std::uint32_t RemSpanConfig::expected_rounds() const { return 1 + 2 * flood_scope(); }

const char* RemSpanConfig::kind_name() const noexcept {
  switch (kind) {
    case Kind::kLowStretchGreedy:
      return "low-stretch (greedy)";
    case Kind::kLowStretchMis:
      return "low-stretch (mis)";
    case Kind::kKConnGreedy:
      return "k-connecting (greedy)";
    case Kind::kKConnMis:
      return "k-connecting (mis)";
    case Kind::kOlsrMpr:
      return "olsr-mpr";
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
  if (config.kind == RemSpanConfig::Kind::kOlsrMpr) {
    for (const NodeId m : olsr_mpr_set(local, root)) {
      out.push_back(make_edge(self, known[m]));
    }
    return out;
  }

  DomTreeBuilder trees(local);
  const RootedTree tree = [&] {
    switch (config.kind) {
      case RemSpanConfig::Kind::kLowStretchGreedy:
        return trees.greedy(root, config.r, config.beta);
      case RemSpanConfig::Kind::kLowStretchMis:
        return trees.mis(root, config.r);
      case RemSpanConfig::Kind::kKConnGreedy:
        return trees.greedy_k(root, config.k);
      case RemSpanConfig::Kind::kKConnMis:
        return trees.mis_k(root, config.k);
      case RemSpanConfig::Kind::kOlsrMpr:
        break;  // handled above
    }
    return RootedTree(root);
  }();
  for (const Edge& e : tree.edges()) {
    out.push_back(make_edge(known[e.u], known[e.v]));
  }
  return out;
}

void RemSpanProtocol::send_hello(NodeContext& ctx) {
  Message hello;
  hello.type = kMsgHello;
  hello.origin = ctx.id();
  ctx.broadcast(std::move(hello));
}

void RemSpanProtocol::advertise_list(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(neighbors_.size() + kVersionPrefixWords);
  payload.push_back(list_version_);
  payload.insert(payload.end(), neighbors_.begin(), neighbors_.end());
  flood_.originate(ctx, kMsgNeighborList, config_.flood_scope(), std::move(payload));
}

void RemSpanProtocol::flood_tree(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(tree_edges_.size() * 2 + kVersionPrefixWords);
  payload.push_back(tree_version_);
  for (const Edge& e : tree_edges_) {
    payload.push_back(e.u);
    payload.push_back(e.v);
  }
  flood_.originate(ctx, kMsgTree, config_.flood_scope(), std::move(payload));
}

void RemSpanProtocol::rebuild_heard_edges() {
  heard_edges_.clear();
  heard_edges_.insert(heard_edges_.end(), tree_edges_.begin(), tree_edges_.end());
  for (const auto& [origin, edges] : heard_trees_) {
    heard_edges_.insert(heard_edges_.end(), edges.begin(), edges.end());
  }
}

void RemSpanProtocol::on_round(NodeContext& ctx) {
  ++local_round_;
  const Dist scope = config_.flood_scope();
  if (local_round_ == 1) {
    // Neighbor discovery.
    send_hello(ctx);
    return;
  }
  if (local_round_ == 2) {
    // HELLOs are in: advertise the neighbor list to B(u, scope). Under loss
    // the list may still be partial — every later HELLO marks it dirty and
    // a higher-versioned re-advertisement supersedes this one.
    std::sort(neighbors_.begin(), neighbors_.end());
    if (!rel_.enabled) {
      flood_.originate(ctx, kMsgNeighborList, scope,
                       std::vector<std::uint32_t>(neighbors_.begin(), neighbors_.end()));
      return;
    }
    list_dirty_ = false;
    advertise_list(ctx);
    retransmit_interval_ = std::max<std::uint32_t>(1, rel_.retransmit_base);
    next_retransmit_ = local_round_ + retransmit_interval_ +
                       emission_jitter(ctx.id(), ++resend_count_, rel_.retransmit_jitter);
    return;
  }
  if (!rel_.enabled) {
    if (local_round_ == 2 + scope && !tree_computed_) {
      // All neighbor-list floods have drained (a ttl = scope flood originated
      // in round 2 delivers its last copies in round 2 + scope... strictly the
      // last on_message fires during round 2 + scope's delivery phase, which
      // happens after this call; but those messages can only originate from
      // nodes at distance exactly scope + 1 and are duplicates for us).
      compute_tree(ctx);
      flood_payload_and_finish(ctx);
    }
    return;
  }
  // Reliable schedule: flush a dirty list as soon as the round after the
  // change, compute on the paper's round as usual, and recompute whenever
  // late input arrived — flooding a new tree version only when the content
  // actually changed, so retransmissions alone can never look like progress
  // to the quiescence detector.
  if (list_dirty_) {
    list_dirty_ = false;
    ++list_version_;
    ++progress_;
    advertise_list(ctx);
  }
  if (local_round_ == 2 + scope && !tree_computed_) {
    compute_tree(ctx);
    flood_tree(ctx);
    tree_flooded_ = true;
    ++progress_;
  } else if (tree_computed_ && recompute_needed_) {
    recompute_needed_ = false;
    std::vector<Edge> fresh = compute_local_tree_edges(config_, ctx.id(), neighbors_, topology_);
    if (fresh != tree_edges_) {
      tree_edges_ = std::move(fresh);
      ++tree_version_;
      ++progress_;
      rebuild_heard_edges();
      flood_tree(ctx);
    }
  }
  // Ack-less periodic re-advertisement with capped exponential backoff plus
  // deterministic emission jitter (see emission_jitter): every stream this
  // node originates goes out again with a fresh seq (so FloodManager
  // forwards it, healing downstream gaps) but unchanged content version (so
  // receivers that already have it stay untouched).
  if (next_retransmit_ != 0 && local_round_ >= next_retransmit_) {
    send_hello(ctx);
    advertise_list(ctx);
    if (tree_computed_) flood_tree(ctx);
    retransmit_interval_ =
        std::min(retransmit_interval_ * 2, std::max<std::uint32_t>(1, rel_.backoff_cap));
    next_retransmit_ = local_round_ + retransmit_interval_ +
                       emission_jitter(ctx.id(), ++resend_count_, rel_.retransmit_jitter);
    record_retransmit_obs(ctx.id(), local_round_, retransmit_interval_);
  }
}

void RemSpanProtocol::flood_payload_and_finish(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(tree_edges_.size() * 2);
  for (const Edge& e : tree_edges_) {
    payload.push_back(e.u);
    payload.push_back(e.v);
  }
  flood_.originate(ctx, kMsgTree, config_.flood_scope(), std::move(payload));
  tree_flooded_ = true;
}

void RemSpanProtocol::on_message(NodeContext& ctx, const Message& msg) {
  switch (msg.type) {
    case kMsgHello: {
      if (!rel_.enabled) {
        neighbors_.push_back(msg.origin);
        break;
      }
      // Retransmitted HELLOs are idempotent; a genuinely new neighbor after
      // the round-2 advertisement means the advertised list (and through it
      // the local topology) was incomplete — re-advertise and recompute.
      const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), msg.origin);
      if (it != neighbors_.end() && *it == msg.origin) break;
      neighbors_.insert(it, msg.origin);
      ++progress_;
      if (local_round_ >= 2) {
        list_dirty_ = true;
        if (tree_computed_) recompute_needed_ = true;
      }
      break;
    }
    case kMsgNeighborList: {
      if (!flood_.accept(ctx, msg)) break;
      if (!rel_.enabled) {
        std::vector<NodeId> list(msg.payload.begin(), msg.payload.end());
        topology_.emplace(msg.origin, std::move(list));
        break;
      }
      REMSPAN_CHECK(!msg.payload.empty());
      const std::uint32_t version = msg.payload[0];
      const auto seen = list_rx_version_.find(msg.origin);
      if (seen != list_rx_version_.end() && version <= seen->second) break;  // stale / retransmit
      list_rx_version_[msg.origin] = version;
      topology_[msg.origin] =
          std::vector<NodeId>(msg.payload.begin() + kVersionPrefixWords, msg.payload.end());
      ++progress_;
      if (tree_computed_) recompute_needed_ = true;
      break;
    }
    case kMsgTree: {
      if (!flood_.accept(ctx, msg)) break;
      if (!rel_.enabled) {
        for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
          heard_edges_.push_back(make_edge(msg.payload[i], msg.payload[i + 1]));
        }
        break;
      }
      REMSPAN_CHECK(!msg.payload.empty());
      const std::uint32_t version = msg.payload[0];
      const auto seen = tree_rx_version_.find(msg.origin);
      if (seen != tree_rx_version_.end() && version <= seen->second) break;  // stale / retransmit
      tree_rx_version_[msg.origin] = version;
      std::vector<Edge> edges;
      edges.reserve((msg.payload.size() - kVersionPrefixWords) / 2);
      for (std::size_t i = kVersionPrefixWords; i + 1 < msg.payload.size(); i += 2) {
        edges.push_back(make_edge(msg.payload[i], msg.payload[i + 1]));
      }
      heard_trees_[msg.origin] = std::move(edges);
      rebuild_heard_edges();
      ++progress_;
      break;
    }
    default:
      break;
  }
}

void RemSpanProtocol::compute_tree(NodeContext& ctx) {
  tree_computed_ = true;
  tree_edges_ = compute_local_tree_edges(config_, ctx.id(), neighbors_, topology_);
  if (rel_.enabled) {
    rebuild_heard_edges();
  } else {
    heard_edges_.insert(heard_edges_.end(), tree_edges_.begin(), tree_edges_.end());
  }
}

DistributedRunResult run_remspan_distributed(const Graph& g, const RemSpanConfig& config) {
  return run_remspan_distributed(g, config, FaultConfig{});
}

namespace {

/// Completeness oracle confirming a quiet point of the reliable one-shot
/// run (reconvergence.hpp, proof-sketch step 4; ground truth here is the
/// graph itself since sensing is in-band): every node knows its full
/// neighbor row and holds, for every origin within flood scope, that
/// origin's current neighbor list and advertised tree, content-equal.
bool remspan_state_complete(Network& net, const Graph& g, const RemSpanConfig& config,
                            BoundedBfs& bfs) {
  const Dist scope = config.flood_scope();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& pu = dynamic_cast<const RemSpanProtocol&>(net.node(u));
    if (!pu.settled()) return false;
    const auto row = g.neighbors(u);
    const std::vector<NodeId>& sensed = pu.sensed_neighbors();
    if (sensed.size() != row.size() || !std::equal(sensed.begin(), sensed.end(), row.begin())) {
      return false;
    }
    bfs.run(GraphView(g), u, scope);
    for (const NodeId o : bfs.order()) {
      if (o == u) continue;
      const auto& po = dynamic_cast<const RemSpanProtocol&>(net.node(o));
      const auto list = pu.topology_knowledge().find(o);
      if (list == pu.topology_knowledge().end() || list->second != po.sensed_neighbors()) {
        return false;
      }
      const auto tree = pu.heard_trees().find(o);
      if (tree == pu.heard_trees().end() || tree->second != po.tree_edges()) return false;
    }
  }
  return true;
}

}  // namespace

DistributedRunResult run_remspan_distributed(const Graph& g, const RemSpanConfig& config,
                                             const FaultConfig& faults) {
  const ReliabilityConfig rel = faults.effective_reliability();
  Network net(g, [&config, &rel](NodeId) { return std::make_unique<RemSpanProtocol>(config, rel); });
  if (faults.faulty()) {
    net.set_link_model(std::make_unique<LinkModel>(faults.link, g.num_nodes()));
  }
  // The window must cover the longest progress-free stretch of the legal
  // schedule: the retransmission/delay bound, but also the quiet rounds
  // between a lone node's advertisement and its scheduled tree compute.
  // A quiet window is only a candidate stop; the completeness oracle
  // confirms it or sends the run back for another window of healing.
  const std::uint32_t window = std::max(rel.quiescence_window_for(faults.link.max_delay()),
                                        config.expected_rounds() + 2);
  BoundedBfs bfs(g.num_nodes());
  const std::uint32_t rounds =
      rel.enabled ? net.run_until_quiescent(
                        window, rel.max_rounds,
                        [&] { return remspan_state_complete(net, g, config, bfs); })
                  : net.run(config.round_budget());

  EdgeSet spanner(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& protocol = dynamic_cast<const RemSpanProtocol&>(net.node(v));
    for (const Edge& e : protocol.tree_edges()) {
      const EdgeId id = g.find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      spanner.insert(id);
    }
  }
  return DistributedRunResult{std::move(spanner), net.stats(), rounds};
}

}  // namespace remspan
