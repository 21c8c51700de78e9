#include "sim/link_model.hpp"

#include "util/rng.hpp"

namespace remspan {

GilbertElliott GilbertElliott::from_loss_and_burst(double loss, double mean_burst_len) {
  REMSPAN_CHECK(loss >= 0.0 && loss < 1.0);
  REMSPAN_CHECK(mean_burst_len >= 1.0);
  GilbertElliott ge;
  if (loss == 0.0) return ge;  // disabled
  // Stationary Bad fraction pi_bad = loss (drop_bad = 1, drop_good = 0);
  // mean Bad sojourn 1/p_bad_to_good = mean_burst_len. Solving
  // pi_bad = p_gb / (p_gb + p_bg) for p_gb:
  ge.p_bad_to_good = 1.0 / mean_burst_len;
  ge.p_good_to_bad = ge.p_bad_to_good * loss / (1.0 - loss);
  ge.drop_good = 0.0;
  ge.drop_bad = 1.0;
  return ge;
}

std::uint32_t emission_jitter(NodeId node, std::uint32_t k) noexcept {
  std::uint64_t state = (static_cast<std::uint64_t>(node) << 32) ^ k ^ 0xA24BAED4963EE407ull;
  return static_cast<std::uint32_t>(splitmix64(state) % (kRetransmitJitter + 1));
}

LinkModel::LinkModel(LinkModelConfig config, NodeId num_nodes)
    : config_(std::move(config)), num_nodes_(num_nodes) {
  REMSPAN_CHECK(config_.drop >= 0.0 && config_.drop < 1.0);
  REMSPAN_CHECK(config_.burst.drop_good >= 0.0 && config_.burst.drop_good < 1.0);
  REMSPAN_CHECK(config_.burst.drop_bad >= 0.0 && config_.burst.drop_bad <= 1.0);
  REMSPAN_CHECK(!config_.burst.enabled() || config_.burst.drop_bad < 1.0 ||
                config_.burst.p_bad_to_good > 0.0);
  partition_mask_.reserve(config_.partitions.size());
  for (const PartitionWindow& rule : config_.partitions) {
    std::vector<std::uint8_t> mask(num_nodes_, 0);
    for (const NodeId v : rule.side) {
      REMSPAN_CHECK(v < num_nodes_);
      mask[v] = 1;
    }
    partition_mask_.push_back(std::move(mask));
  }
}

void LinkModel::begin_epoch(std::uint32_t absolute_round) {
  epoch_base_ = absolute_round;
  attempt_counter_ = 0;
  ge_state_.clear();
}

double LinkModel::unit(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) const noexcept {
  // One splitmix64 pass per mixed-in word: a short, stateless PRF. The
  // output only has to be uncorrelated across (salt, a, b, c) tuples.
  std::uint64_t state = config_.seed ^ (0x9E3779B97F4A7C15ull * (salt + 1));
  (void)splitmix64(state);
  state ^= a;
  (void)splitmix64(state);
  state ^= b;
  (void)splitmix64(state);
  state ^= c;
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool LinkModel::link_is_bad(std::uint32_t epoch_round, NodeId from, NodeId to) {
  const std::uint64_t link = (static_cast<std::uint64_t>(from) << 32) | to;
  auto [it, inserted] = ge_state_.try_emplace(link, std::pair<std::uint32_t, bool>{0, false});
  auto& [last_round, bad] = it->second;
  // Every link starts the epoch Good at round 0; advance one hash-derived
  // transition per elapsed round. Rounds are queried monotonically within
  // an epoch, so the loop amortizes to O(1) per round per live link.
  if (inserted) last_round = 0;
  for (; last_round < epoch_round; ++last_round) {
    const double u = unit(/*salt=*/1, link, last_round + 1, 0);
    bad = bad ? u >= config_.burst.p_bad_to_good : u < config_.burst.p_good_to_bad;
  }
  return bad;
}

LinkDecision LinkModel::decide(std::uint32_t round, NodeId from, NodeId to,
                               const Message& msg) {
  REMSPAN_CHECK(round >= epoch_base_);
  const std::uint32_t epoch_round = round - epoch_base_;
  const std::uint64_t link = (static_cast<std::uint64_t>(from) << 32) | to;
  const std::uint64_t flood = (static_cast<std::uint64_t>(msg.origin) << 32) | msg.seq;
  ++attempt_counter_;

  // Scripted kills: this flood instance never propagates anywhere.
  for (const FloodKill& kill : config_.kills) {
    if (kill.origin == msg.origin && kill.seq == msg.seq) return {false, 0};
  }
  // Scripted partitions: cut-crossing copies drop inside the window.
  for (std::size_t i = 0; i < config_.partitions.size(); ++i) {
    const PartitionWindow& rule = config_.partitions[i];
    if (epoch_round < rule.from_round || epoch_round >= rule.until_round) continue;
    if (partition_mask_[i][from] != partition_mask_[i][to]) return {false, 0};
  }
  // Deterministic every-Nth attrition.
  if (config_.drop_every_nth > 0 && attempt_counter_ % config_.drop_every_nth == 0) {
    return {false, 0};
  }
  // Burst loss: per-directed-link two-state chain.
  if (config_.burst.enabled()) {
    const double p = link_is_bad(epoch_round, from, to) ? config_.burst.drop_bad
                                                        : config_.burst.drop_good;
    if (p > 0.0 && unit(/*salt=*/2, link, epoch_round, flood) < p) return {false, 0};
  }
  // Independent Bernoulli loss.
  if (config_.drop > 0.0 && unit(/*salt=*/3, link, epoch_round, flood) < config_.drop) {
    return {false, 0};
  }
  // Survivors: fixed delay plus per-copy jitter.
  std::uint32_t extra = config_.delay;
  if (config_.jitter > 0) {
    const double u = unit(/*salt=*/4, link, epoch_round, flood);
    extra += static_cast<std::uint32_t>(u * (config_.jitter + 1));
  }
  return {true, extra};
}

}  // namespace remspan
