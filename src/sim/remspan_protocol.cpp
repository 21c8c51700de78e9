#include "sim/remspan_protocol.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

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

std::vector<NodeId> to_vector(std::span<const NodeId> words) { return {words.begin(), words.end()}; }

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
                                           std::span<const NodeId> neighbors,
                                           std::span<const OriginList> lists) {
  // Collect every node id the local view mentions. Ids are compacted
  // monotonically so that every id-based tie-break in DomTreeBuilder and
  // olsr_mpr_set matches the centralized computation on the full graph.
  std::size_t list_words = neighbors.size();
  for (const OriginList& l : lists) list_words += l.neighbors.size();
  std::vector<NodeId> known;
  known.reserve(1 + lists.size() + list_words);
  known.push_back(self);
  known.insert(known.end(), neighbors.begin(), neighbors.end());
  for (const OriginList& l : lists) {
    known.push_back(l.origin);
    known.insert(known.end(), l.neighbors.begin(), l.neighbors.end());
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());
  // `known` is sorted, so a node's rank in it is its monotone local id.
  const auto local_id = [&known](NodeId v) {
    return static_cast<NodeId>(std::lower_bound(known.begin(), known.end(), v) - known.begin());
  };

  GraphBuilder builder(static_cast<NodeId>(known.size()));
  builder.reserve(list_words);
  const NodeId root = local_id(self);
  for (const NodeId v : neighbors) builder.add_edge(root, local_id(v));
  for (const OriginList& l : lists) {
    const NodeId origin = local_id(l.origin);
    for (const NodeId v : l.neighbors) builder.add_edge(origin, local_id(v));
  }
  const Graph local = builder.build();

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

bool KnowledgeTable::accept(Stream& stream, std::uint32_t version) noexcept {
  // Monotone acceptance: delay jitter can deliver version 0 after the
  // origin already flooded version 1, and retransmissions repeat versions.
  if (stream.rx_epoch == epoch_ && version <= stream.rx_version) return false;
  stream.rx_epoch = epoch_;
  stream.rx_version = version;
  return true;
}

KnowledgeTable::Entry& KnowledgeTable::entry(NodeId origin) {
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), origin,
                                   [](const Entry& e, NodeId o) { return e.origin < o; });
  if (it != entries_.end() && it->origin == origin) return *it;
  Entry fresh;
  fresh.origin = origin;
  return *entries_.insert(it, fresh);
}

const KnowledgeTable::Entry* KnowledgeTable::find(NodeId origin) const noexcept {
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), origin,
                                   [](const Entry& e, NodeId o) { return e.origin < o; });
  return it != entries_.end() && it->origin == origin ? &*it : nullptr;
}

std::span<std::uint32_t> KnowledgeTable::store(Stream& stream, std::size_t length) {
  if (stream.length != kAbsent && length <= stream.length) {
    // Same or smaller content (the common re-advertisement): in place.
    dead_words_ += stream.length - length;
    stream.length = static_cast<std::uint32_t>(length);
    return {words_.data() + stream.offset, length};
  }
  if (stream.length != kAbsent) {
    dead_words_ += stream.length;
    stream.length = kAbsent;
  }
  if (2 * dead_words_ > words_.size()) compact();
  stream.offset = static_cast<std::uint32_t>(words_.size());
  stream.length = static_cast<std::uint32_t>(length);
  words_.resize(words_.size() + length);
  return {words_.data() + stream.offset, length};
}

void KnowledgeTable::compact() {
  std::vector<std::uint32_t> live;
  live.reserve(words_.size() - dead_words_);
  for (Entry& e : entries_) {
    for (Stream* stream : {&e.list, &e.tree}) {
      if (stream->length == kAbsent) continue;
      const auto first = words_.begin() + stream->offset;
      stream->offset = static_cast<std::uint32_t>(live.size());
      live.insert(live.end(), first, first + stream->length);
    }
  }
  words_ = std::move(live);
  dead_words_ = 0;
}

void KnowledgeTable::next_epoch() noexcept {
  if (++epoch_ != 0) return;
  // The stamp wrapped: stamps from 2^32 epochs ago would read as current.
  for (Entry& e : entries_) e.list.rx_epoch = e.tree.rx_epoch = 0;
  epoch_ = 1;
}

void KnowledgeTable::clear() noexcept {
  entries_.clear();
  words_.clear();
  dead_words_ = 0;
}

void RemSpanProtocol::begin_epoch(bool advertise, bool reset_state) {
  if (reset_state) {
    knowledge_.clear();
    tree_edges_.clear();
  }
  // The previous epoch ran to quiescence, so its duplicate-suppression keys
  // can never match again (seqs only grow); keep memory O(live state). The
  // accepted receive-side versions lapse alongside them and the own streams
  // restart at version 0. Both resets are O(1) generation bumps.
  flood_.reset_seen();
  knowledge_.next_epoch();
  advertise_ = advertise;
  round_ = 0;
  computed_ = false;
  list_dirty_ = false;
  recompute_needed_ = false;
  list_version_ = 0;
  tree_version_ = 0;
  retransmit_interval_ = 0;
  next_retransmit_ = 0;
  resend_count_ = 0;
}

std::optional<std::span<const NodeId>> RemSpanProtocol::stored_list(NodeId origin) const {
  const KnowledgeTable::Entry* e = knowledge_.find(origin);
  return e == nullptr ? std::nullopt : knowledge_.words(e->list);
}

bool RemSpanProtocol::holds(NodeId origin, std::span<const NodeId> list,
                            std::span<const Edge> tree) const {
  const KnowledgeTable::Entry* e = knowledge_.find(origin);
  if (e == nullptr) return false;
  const auto list_words = knowledge_.words(e->list);
  if (!list_words || !std::ranges::equal(*list_words, list)) return false;
  const auto tree_words = knowledge_.words(e->tree);
  if (!tree_words || tree_words->size() != 2 * tree.size()) return false;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if ((*tree_words)[2 * i] != tree[i].u || (*tree_words)[2 * i + 1] != tree[i].v) return false;
  }
  return true;
}

std::map<NodeId, std::vector<NodeId>> RemSpanProtocol::topology_knowledge() const {
  std::map<NodeId, std::vector<NodeId>> out;
  for (const KnowledgeTable::Entry& e : knowledge_.entries()) {
    if (const auto list = knowledge_.words(e.list)) out.emplace(e.origin, to_vector(*list));
  }
  return out;
}

void RemSpanProtocol::send_hello(NodeContext& ctx) {
  Message hello;
  hello.type = kMsgHello;
  hello.origin = self_;
  ctx.broadcast(std::move(hello));
}

void RemSpanProtocol::advertise_list(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(neighbors_.size() + (reliable_ ? kVersionPrefixWords : 0));
  if (reliable_) payload.push_back(list_version_);
  payload.insert(payload.end(), neighbors_.begin(), neighbors_.end());
  flood_.originate(ctx, kMsgNeighborList, config_.flood_scope(), std::move(payload));
}

void RemSpanProtocol::flood_tree(NodeContext& ctx) {
  std::vector<std::uint32_t> payload;
  payload.reserve(tree_edges_.size() * 2 + (reliable_ ? kVersionPrefixWords : 0));
  if (reliable_) payload.push_back(tree_version_);
  for (const Edge& e : tree_edges_) {
    payload.push_back(e.u);
    payload.push_back(e.v);
  }
  flood_.originate(ctx, kMsgTree, config_.flood_scope(), std::move(payload));
}

void RemSpanProtocol::schedule_retransmit() {
  next_retransmit_ = round_ + retransmit_interval_ + emission_jitter(self_, ++resend_count_);
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
    if (reliable_) {
      retransmit_interval_ = kRetransmitBase;
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
    retransmit_interval_ = std::min(retransmit_interval_ * 2, kBackoffCap);
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

std::optional<RemSpanProtocol::Fresh> RemSpanProtocol::accept_fresh(
    NodeContext& ctx, const Message& msg, KnowledgeTable::Stream KnowledgeTable::Entry::*stream) {
  if (!flood_.accept(ctx, msg)) return std::nullopt;
  std::span<const std::uint32_t> body(msg.payload);
  std::uint32_t version = 0;
  if (reliable_) {
    REMSPAN_CHECK(!body.empty());
    version = body.front();
    body = body.subspan(kVersionPrefixWords);
  }
  KnowledgeTable::Stream& s = knowledge_.entry(msg.origin).*stream;
  if (!knowledge_.accept(s, version)) return std::nullopt;
  return Fresh{&s, body};
}

void RemSpanProtocol::on_message(NodeContext& ctx, const Message& msg) {
  switch (msg.type) {
    case kMsgHello:
      // A driver-sensed node ignores the content; the delivery is still
      // accounted.
      if (!driver_sensed_) hear_hello(msg.origin);
      break;
    case kMsgNeighborList: {
      const auto fresh = accept_fresh(ctx, msg, &KnowledgeTable::Entry::list);
      if (!fresh) break;
      std::ranges::copy(fresh->body, knowledge_.store(*fresh->stream, fresh->body.size()).begin());
      ++progress_;
      if (computed_) recompute_needed_ = true;
      break;
    }
    case kMsgTree: {
      const auto fresh = accept_fresh(ctx, msg, &KnowledgeTable::Entry::tree);
      if (!fresh) break;
      const std::span<const std::uint32_t> body = fresh->body;
      const std::span<std::uint32_t> words = knowledge_.store(*fresh->stream, body.size() / 2 * 2);
      for (std::size_t i = 0; i + 1 < body.size(); i += 2) {
        const Edge e = make_edge(body[i], body[i + 1]);
        words[i] = e.u;
        words[i + 1] = e.v;
      }
      ++progress_;
      break;
    }
    default:
      break;
  }
}

std::vector<Edge> RemSpanProtocol::compute_tree() const {
  std::vector<OriginList> lists;
  if (!driver_sensed_) {
    for (const KnowledgeTable::Entry& e : knowledge_.entries()) {
      if (const auto list = knowledge_.words(e.list)) lists.push_back({e.origin, *list});
    }
  } else {
    // Only the lists the ball walk reaches: stale entries of origins that
    // left the ball are unreachable from the fresh sensed neighbors, and
    // under loss the walk tolerates lists still in flight (reconvergence.hpp).
    for (const NodeId v : ball_origins()) {
      if (const auto list = stored_list(v)) lists.push_back({v, *list});
    }
  }
  return compute_local_tree_edges(config_, self_, neighbors_, lists);
}

std::vector<NodeId> RemSpanProtocol::ball_origins() const {
  std::vector<NodeId> reached{self_};  // sorted
  std::vector<NodeId> frontier{self_};
  std::vector<NodeId> next;
  std::vector<NodeId> merged;
  for (Dist d = 0; d < config_.flood_scope() && !frontier.empty(); ++d) {
    next.clear();
    for (const NodeId w : frontier) {
      const auto nbrs = w == self_ ? std::optional(std::span<const NodeId>(neighbors_))
                                   : stored_list(w);
      if (!nbrs) continue;  // still in flight
      next.insert(next.end(), nbrs->begin(), nbrs->end());
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.clear();
    std::set_difference(next.begin(), next.end(), reached.begin(), reached.end(),
                        std::back_inserter(frontier));
    merged.clear();
    std::merge(reached.begin(), reached.end(), frontier.begin(), frontier.end(),
               std::back_inserter(merged));
    reached.swap(merged);
  }
  reached.erase(std::lower_bound(reached.begin(), reached.end(), self_));
  return reached;
}

std::map<NodeId, std::vector<NodeId>> RemSpanProtocol::ball_lists() const {
  std::map<NodeId, std::vector<NodeId>> out;
  for (const NodeId v : ball_origins()) {
    const auto list = stored_list(v);
    REMSPAN_CHECK(list.has_value());
    out.emplace(v, to_vector(*list));
  }
  return out;
}

std::map<NodeId, std::vector<Edge>> RemSpanProtocol::ball_trees() const {
  std::map<NodeId, std::vector<Edge>> out;
  out.emplace(self_, tree_edges_);
  for (const NodeId v : ball_origins()) {
    const KnowledgeTable::Entry* e = knowledge_.find(v);
    REMSPAN_CHECK(e != nullptr);
    const auto tree = knowledge_.words(e->tree);
    REMSPAN_CHECK(tree.has_value());
    std::vector<Edge>& edges = out[v];
    for (std::size_t i = 0; i < tree->size(); i += 2) edges.push_back({(*tree)[i], (*tree)[i + 1]});
  }
  return out;
}

bool remspan_converged(const Network& net, std::span<const RemSpanProtocol> nodes,
                       const RemSpanConfig& config, BoundedBfs& bfs) {
  const Graph& g = net.graph();
  REMSPAN_CHECK(nodes.size() == g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const RemSpanProtocol& pu = nodes[u];
    if (!pu.settled()) return false;
    if (!std::ranges::equal(pu.sensed_neighbors(), g.neighbors(u))) return false;
    bfs.run(GraphView(g), u, config.flood_scope());
    for (const NodeId o : bfs.order()) {
      if (o == u) continue;
      if (!pu.holds(o, nodes[o].sensed_neighbors(), nodes[o].tree_edges())) return false;
    }
  }
  return true;
}

std::uint32_t run_remspan_epoch(Network& net, std::span<RemSpanProtocol> nodes,
                                const RemSpanConfig& config, BoundedBfs& bfs) {
  if (net.link_model() == nullptr) return net.run(nodes, config.round_budget());
  // The window must cover the longest progress-free stretch of the legal
  // schedule: the retransmission/delay bound, but also the quiet rounds
  // between a lone node's advertisement and its scheduled tree compute.
  // A quiet window is only a candidate stop; the completeness oracle
  // confirms it or sends the run back for another window of healing.
  const std::uint32_t window = std::max(
      quiescence_window_for(net.link_model()->config().max_delay()), config.expected_rounds() + 2);
  const std::uint32_t rounds = net.run_until_quiescent(
      nodes, window, kLossyMaxRounds, [&] { return remspan_converged(net, nodes, config, bfs); });
  // Only a run that used up the whole cap can have stopped unconfirmed.
  if (rounds == kLossyMaxRounds && !remspan_converged(net, nodes, config, bfs)) {
    throw std::runtime_error("RemSpan epoch did not converge within the " +
                             std::to_string(kLossyMaxRounds) + "-round cap (kLossyMaxRounds)");
  }
  return rounds;
}

EdgeSet advertised_spanner(const Network& net, std::span<const RemSpanProtocol> nodes) {
  const Graph& g = net.graph();
  EdgeSet spanner(g);
  for (const RemSpanProtocol& node : nodes) {
    for (const Edge& e : node.tree_edges()) {
      const EdgeId id = g.find_edge(e.u, e.v);
      REMSPAN_CHECK(id != kInvalidEdge);
      spanner.insert(id);
    }
  }
  return spanner;
}

DistributedRunResult run_remspan_distributed(const Graph& g, const RemSpanConfig& config,
                                             const FaultConfig& faults) {
  const bool reliable = faults.faulty();
  std::vector<RemSpanProtocol> nodes;
  nodes.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.emplace_back(config, v, reliable);
  Network net(g);
  if (reliable) net.set_link_model(std::make_unique<LinkModel>(faults.link, g.num_nodes()));
  BoundedBfs bfs(g.num_nodes());
  const std::uint32_t rounds = run_remspan_epoch(net, nodes, config, bfs);
  return DistributedRunResult{advertised_spanner(net, nodes), net.stats(), rounds};
}

}  // namespace remspan
