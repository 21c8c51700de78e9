#include "sim/network.hpp"

#include "obs/obs.hpp"
#include "sim/link_model.hpp"

namespace remspan {

std::uint32_t NodeContext::round() const noexcept { return net_->round(); }

void NodeContext::broadcast(Message msg) { net_->enqueue_broadcast(id_, std::move(msg)); }

Network::Network(const Graph& g) : g_(&g), outbox_(g.num_nodes()), inflight_(g.num_nodes()) {}

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

void Network::begin_run(std::size_t num_nodes) {
  REMSPAN_CHECK(num_nodes == g_->num_nodes());
  if (link_model_ != nullptr) link_model_->begin_epoch(stats_.rounds);
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

std::optional<NetworkStats> Network::open_round() {
  const bool observing = obs::metrics() != nullptr || obs::trace() != nullptr;
  std::optional<NetworkStats> before;
  if (observing) before = stats_;
  ++stats_.rounds;
  return before;
}

std::vector<Network::Pending> Network::take_matured() {
  // Swap the outboxes first so forwards triggered by this receive phase
  // enqueue for the next round. inflight_ was emptied at the end of the
  // previous round and keeps its per-node capacity.
  inflight_.swap(outbox_);
  std::vector<Pending> matured;
  if (!future_.empty()) matured.swap(future_[cursor_]);
  return matured;
}

bool Network::admit(NodeId from, NodeId to, const Message& msg) {
  const LinkDecision d = link_model_->decide(stats_.rounds, from, to, msg);
  if (!d.deliver) {
    stats_.drops += 1;
    return false;
  }
  if (d.delay > 0) {
    stats_.delayed += 1;
    future_[(cursor_ + d.delay) % future_.size()].push_back(Pending{to, msg});
    return false;
  }
  return true;
}

void Network::close_round(const std::optional<NetworkStats>& before) {
  if (!future_.empty()) cursor_ = (cursor_ + 1) % future_.size();
  if (before) publish_round_obs(*before);
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

void Network::change_topology(const Graph& g) {
  REMSPAN_CHECK(g.num_nodes() == g_->num_nodes());
  g_ = &g;
  for (auto& box : outbox_) box.clear();
  for (auto& slot : future_) slot.clear();
}

}  // namespace remspan
