#include "sim/network.hpp"

#include "obs/obs.hpp"
#include "sim/link_model.hpp"

namespace remspan {

std::uint32_t NodeContext::round() const noexcept { return net_->round(); }
NodeId NodeContext::num_network_nodes() const noexcept { return net_->graph().num_nodes(); }

void NodeContext::broadcast(Message msg) { net_->enqueue_broadcast(id_, std::move(msg)); }

Network::Network(const Graph& g, const ProtocolFactory& factory)
    : g_(&g), outbox_(g.num_nodes()), inflight_(g.num_nodes()) {
  protocols_.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) protocols_.push_back(factory(v));
}

Network::~Network() = default;

void Network::set_link_model(std::unique_ptr<LinkModel> model) {
  link_model_ = std::move(model);
  future_.clear();
  cursor_ = 0;
  if (link_model_ != nullptr) {
    future_.resize(link_model_->config().max_delay() + 2);
  }
}

void Network::enqueue_broadcast(NodeId from, Message msg) {
  msg.from = from;
  stats_.transmissions += 1;
  stats_.payload_words += msg.payload.size();
  outbox_[from].push_back(std::move(msg));
}

void Network::deliver(NodeId to, const Message& msg) {
  stats_.receptions += 1;
  NodeContext ctx(*this, to);
  protocols_[to]->on_message(ctx, msg);
}

bool Network::has_pending() const {
  for (const auto& box : outbox_) {
    if (!box.empty()) return true;
  }
  for (const auto& slot : future_) {
    if (!slot.empty()) return true;
  }
  return false;
}

bool Network::all_done() const {
  for (const auto& p : protocols_) {
    if (!p->done()) return false;
  }
  return true;
}

std::uint64_t Network::progress_sum() const {
  std::uint64_t sum = 0;
  for (const auto& p : protocols_) sum += p->state_version();
  return sum;
}

void Network::step_round() {
  // LOCAL-model semantics, matching the paper's round accounting: within
  // one round every node first acts (on_round, send phase), then receives
  // everything due this round. Messages queued while *receiving* (flood
  // forwarding) are sent in the next round's send phase.
  const bool observing = obs::metrics() != nullptr || obs::trace() != nullptr;
  const NetworkStats before = observing ? stats_ : NetworkStats{};
  const NodeId n = g_->num_nodes();
  ++stats_.rounds;
  // Send phase.
  for (NodeId v = 0; v < n; ++v) {
    NodeContext ctx(*this, v);
    protocols_[v]->on_round(ctx);
  }
  // Receive phase: swap the outboxes first so forwards triggered below
  // enqueue for the *next* round, preserving one-hop-per-round timing.
  // inflight_ was emptied at the end of the previous round and keeps its
  // per-node capacity.
  inflight_.swap(outbox_);
  // Copies the link model postponed to this round arrive first (they are
  // older than anything sent this round).
  if (!future_.empty()) {
    std::vector<Pending> matured;
    matured.swap(future_[cursor_]);
    for (const Pending& p : matured) deliver(p.to, p.msg);
  }
  // This round's sends (plus pre-round leftovers from forwarding). A
  // broadcast by u reaches every current neighbor of u — per copy, the
  // link model may drop or postpone.
  for (NodeId u = 0; u < n; ++u) {
    for (const Message& msg : inflight_[u]) {
      for (const NodeId v : g_->neighbors(u)) {
        if (link_model_ != nullptr) {
          const LinkDecision d = link_model_->decide(stats_.rounds, u, v, msg);
          if (!d.deliver) {
            stats_.drops += 1;
            continue;
          }
          if (d.delay > 0) {
            stats_.delayed += 1;
            future_[(cursor_ + d.delay) % future_.size()].push_back(Pending{v, msg});
            continue;
          }
        }
        deliver(v, msg);
      }
    }
    inflight_[u].clear();
  }
  if (!future_.empty()) cursor_ = (cursor_ + 1) % future_.size();
  if (observing) publish_round_obs(before);
}

void Network::publish_round_obs(const NetworkStats& before) const {
  const NetworkStats d = stats_ - before;
  if (obs::Registry* m = obs::metrics()) {
    m->add(obs::Metric::kSimRounds, 1);
    m->add(obs::Metric::kSimMsgsOffered, d.transmissions);
    m->add(obs::Metric::kSimMsgsDelivered, d.receptions);
    m->add(obs::Metric::kSimMsgsDropped, d.drops);
    m->add(obs::Metric::kSimMsgsDelayed, d.delayed);
    m->add(obs::Metric::kSimPayloadWords, d.payload_words);
    m->record(obs::Metric::kSimRoundOffered, d.transmissions);
  }
  if (obs::TraceBuffer* t = obs::trace()) {
    obs::TraceEvent e;
    e.name = "sim.round";
    e.cat = "sim";
    e.ph = obs::kPhaseCounter;
    e.ts = static_cast<double>(stats_.rounds) * obs::kRoundMicros;
    e.pid = obs::kSimPid;
    e.tid = 0;  // network-wide lane; per-node rows use tid = NodeId
    e.args = {{"offered", static_cast<std::int64_t>(d.transmissions)},
              {"delivered", static_cast<std::int64_t>(d.receptions)},
              {"dropped", static_cast<std::int64_t>(d.drops)},
              {"delayed", static_cast<std::int64_t>(d.delayed)}};
    t->emit(std::move(e));
  }
}

std::uint32_t Network::run(std::uint32_t max_rounds) {
  if (link_model_ != nullptr) link_model_->begin_epoch(stats_.rounds);
  std::uint32_t executed = 0;
  for (; executed < max_rounds; ++executed) {
    if (all_done() && !has_pending()) break;
    step_round();
  }
  return executed;
}

std::uint32_t Network::run_until_quiescent(std::uint32_t window, std::uint32_t max_rounds,
                                           const std::function<bool()>& converged) {
  REMSPAN_CHECK(window > 0);
  if (link_model_ != nullptr) link_model_->begin_epoch(stats_.rounds);
  std::uint32_t executed = 0;
  std::uint32_t idle = 0;
  std::uint64_t progress = progress_sum();
  while (executed < max_rounds) {
    if (idle >= window) {
      // A quiet point. Without an oracle it is the stop; with one, stop
      // only on a confirmed state — otherwise restart the window and let
      // the periodic retransmissions keep healing the remaining gaps.
      if (!converged || converged()) break;
      idle = 0;
    }
    // Fast exit for the drained case (every protocol done, channel empty):
    // nothing can ever change again, no need to sit out the window.
    if (all_done() && !has_pending()) break;
    step_round();
    ++executed;
    const std::uint64_t after = progress_sum();
    idle = after == progress ? idle + 1 : 0;
    progress = after;
  }
  return executed;
}

void Network::change_topology(const Graph& g) {
  REMSPAN_CHECK(g.num_nodes() == g_->num_nodes());
  g_ = &g;
  for (auto& box : outbox_) box.clear();
  for (auto& slot : future_) slot.clear();
}

}  // namespace remspan
