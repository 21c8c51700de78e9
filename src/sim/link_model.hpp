// Fault injection for the round simulator: per-link loss, delay and
// scripted adversarial schedules, plus the fixed retransmission schedule
// (kRetransmitBase, kBackoffCap, kRetransmitJitter, kLossyMaxRounds) the
// protocol uses to survive them.
//
// The LOCAL model the paper's round accounting assumes (network.hpp) is the
// friendliest possible channel: a broadcast in round i reaches every
// neighbor in round i, always. Real wireless links drop frames
// independently, drop them in bursts, and jitter delivery. LinkModel prices
// the protocols under exactly those regimes while keeping every run a pure
// function of its seed:
//
//   * Bernoulli loss      — every per-neighbor delivery attempt is dropped
//                           independently with probability `drop`.
//   * Gilbert–Elliott     — a two-state Markov chain per *directed* link
//                           (Good/Bad) advanced once per round; deliveries
//                           drop with `drop_good` / `drop_bad` depending on
//                           the link's state. Models burst loss: once a
//                           link turns Bad it tends to stay Bad for
//                           ~1/p_bad_to_good rounds.
//   * Delivery delay      — every surviving copy is postponed by
//                           `delay` + uniform{0..jitter} rounds; a message
//                           sent in round i arrives in round i + d, so
//                           copies of the same flood can arrive reordered.
//   * Adversarial scripts — deterministic schedules for targeted tests:
//                           partition a node set for an epoch-relative
//                           round window [from, until) (every cut-crossing
//                           copy dropped), kill every copy of one flood
//                           (origin, seq), or drop every Nth delivery
//                           attempt globally.
//
// Determinism: every stochastic decision is derived by hashing
// (seed, directed link, epoch round, message identity) through splitmix64 —
// no ambient randomness (lint rule R5), no dependence on container
// iteration order, and no state that the delivery order could perturb. Two
// runs with the same seed and config produce bit-identical NetworkStats and
// converged protocol state (tests/test_link_model.cpp pins this).
//
// Epochs: adversarial round windows and the Gilbert–Elliott chains are
// relative to the current *convergence epoch* — Network calls begin_epoch()
// at the start of every run()/run_until_quiescent() invocation (one epoch
// per cold start or churn batch), so a schedule like "partition for rounds
// [0, 6)" means the first 6 rounds of each epoch it is configured for.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/network.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// Two-state burst-loss chain parameters (per directed link). Disabled
/// while p_good_to_bad == 0 (the chain never leaves Good and drop_good
/// defaults to 0). The stationary loss rate is
///   pi_bad * drop_bad + (1 - pi_bad) * drop_good,
/// with pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good).
struct GilbertElliott {
  double p_good_to_bad = 0.0;  ///< per-round transition probability Good -> Bad
  double p_bad_to_good = 1.0;  ///< per-round transition probability Bad -> Good
  double drop_good = 0.0;      ///< per-copy loss probability in Good
  double drop_bad = 1.0;       ///< per-copy loss probability in Bad

  [[nodiscard]] bool enabled() const noexcept { return p_good_to_bad > 0.0; }

  /// The chain whose stationary loss rate is `loss` with mean Bad sojourn
  /// `mean_burst_len` rounds (drop_bad = 1, drop_good = 0) — the natural
  /// CLI parametrization (--loss + --burst).
  [[nodiscard]] static GilbertElliott from_loss_and_burst(double loss, double mean_burst_len);
};

/// Drop every copy crossing the cut between `side` and its complement
/// during epoch-relative rounds [from_round, until_round). Epoch rounds are
/// 1-based like NodeContext::round(): the first round of an epoch is 1, so
/// {.from_round = 1, .until_round = 7} blacks out the first six rounds.
struct PartitionWindow {
  std::vector<NodeId> side;
  std::uint32_t from_round = 0;
  std::uint32_t until_round = 0;
};

/// Drop every copy (origination and forwards) of the flood identified by
/// (origin, seq) — "this specific advertisement never happened". A
/// retransmission carries a fresh seq and is unaffected.
struct FloodKill {
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;
};

/// Full fault description of a channel. Default-constructed = the lossless
/// synchronous LOCAL model (faulty() == false), in which case Network skips
/// the model entirely and behaves bit-identically to the pre-fault layer.
struct LinkModelConfig {
  double drop = 0.0;           ///< iid per-copy loss probability, in [0, 1)
  std::uint32_t delay = 0;     ///< fixed extra delivery rounds per copy
  std::uint32_t jitter = 0;    ///< + uniform{0..jitter} extra rounds per copy
  GilbertElliott burst;        ///< two-state burst-loss chain (off by default)
  std::uint32_t drop_every_nth = 0;  ///< 0 = off; else attempts N, 2N, ... drop
  std::vector<PartitionWindow> partitions;  ///< scripted cut drops
  std::vector<FloodKill> kills;             ///< scripted single-flood kills
  std::uint64_t seed = 1;      ///< fault seed; independent of workload seeds

  /// True when any loss or delay mechanism is active.
  [[nodiscard]] bool faulty() const noexcept {
    return drop > 0.0 || delay > 0 || jitter > 0 || burst.enabled() ||
           drop_every_nth > 0 || !partitions.empty() || !kills.empty();
  }

  /// Upper bound on the extra rounds a surviving copy can be postponed.
  [[nodiscard]] std::uint32_t max_delay() const noexcept { return delay + jitter; }
};

// Protocol-side reliability (ack-less retransmission). A RemSpanProtocol
// node runs it exactly when its driver's FaultConfig is faulty; with a
// lossless channel the node keeps the paper's exact schedule so the
// round/message accounting is unchanged. The schedule is fixed:

/// Rounds until the first re-advertisement of a stream; the interval
/// doubles after every retransmission (capped exponential backoff).
inline constexpr std::uint32_t kRetransmitBase = 2;
/// Cap on the backoff interval: at quiescence every advertiser still
/// re-floods at least once per kBackoffCap + kRetransmitJitter rounds.
inline constexpr std::uint32_t kBackoffCap = 8;
/// Deterministic emission jitter: the k-th re-advertisement is delayed by
/// a hash of (node, k) in {0 .. kRetransmitJitter} extra rounds — the OLSR
/// trick (RFC 3626 MAXJITTER) that keeps periodic re-advertisements from
/// synchronizing with each other or locking onto the phase of a periodic
/// adversary (drop_every_nth kills the same copies forever if the traffic
/// pattern repeats exactly).
inline constexpr std::uint32_t kRetransmitJitter = 3;
/// Hard cap on the rounds of one lossy convergence epoch. A quiescent
/// epoch stops long before it; an epoch that reaches it unconverged is an
/// error (run_remspan_epoch throws), never a silently wrong spanner.
inline constexpr std::uint32_t kLossyMaxRounds = 20000;

/// The quiescence detector's window for a channel whose surviving copies
/// arrive at most `max_delay` rounds late: at least two full backoff-capped,
/// jitter-stretched retransmission periods plus the worst-case delivery
/// delay, so every advertiser re-floods at least twice inside any window
/// the detector lets elapse, and every surviving copy has landed.
[[nodiscard]] constexpr std::uint32_t quiescence_window_for(std::uint32_t max_delay) noexcept {
  return 3 * (kBackoffCap + kRetransmitJitter) + max_delay + 2;
}

/// The deterministic emission jitter: extra rounds in
/// {0 .. kRetransmitJitter} for the k-th re-advertisement of `node`, as a
/// pure hash (no ambient randomness — lint rule R5).
[[nodiscard]] std::uint32_t emission_jitter(NodeId node, std::uint32_t k) noexcept;

/// The channel faults the two drivers of RemSpanProtocol accept —
/// run_remspan_distributed (in-band sensing) and ReconvergenceSim
/// (driver-sensed epochs) — and, through them, the api sessions and the
/// CLI. A faulty channel switches every node to the reliable schedule
/// above. Default = lossless channel, the paper's exact schedule.
struct FaultConfig {
  LinkModelConfig link;

  [[nodiscard]] bool faulty() const noexcept { return link.faulty(); }
};

/// What the channel does to one per-neighbor delivery attempt.
struct LinkDecision {
  bool deliver = true;        ///< false = copy dropped
  std::uint32_t delay = 0;    ///< extra rounds before delivery (0 = this round)
};

/// Deterministic fault oracle the Network consults once per per-neighbor
/// copy. Not thread-safe (the simulator is single-threaded by design).
class LinkModel {
 public:
  LinkModel(LinkModelConfig config, NodeId num_nodes);

  [[nodiscard]] const LinkModelConfig& config() const noexcept { return config_; }

  /// Starts a new convergence epoch: resets the epoch-relative round base
  /// for the adversarial schedules, restarts the Gilbert–Elliott chains
  /// (every link Good) and the drop-every-Nth attempt counter.
  void begin_epoch(std::uint32_t absolute_round);

  /// The channel's verdict for delivering `msg` from `from` to `to` during
  /// the receive phase of absolute round `round`. Mutates only the lazily
  /// advanced Gilbert–Elliott states and the attempt counter, both of which
  /// are deterministic functions of the call sequence, which is itself
  /// deterministic (single-threaded simulator, fixed iteration order).
  [[nodiscard]] LinkDecision decide(std::uint32_t round, NodeId from, NodeId to,
                                    const Message& msg);

 private:
  /// Uniform in [0, 1) as a pure function of the seed and the salts.
  [[nodiscard]] double unit(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) const noexcept;
  /// Gilbert–Elliott state of directed link (from, to) at epoch round t,
  /// advanced lazily from the last queried round (transitions are
  /// hash-derived per round, so the state is independent of query order).
  [[nodiscard]] bool link_is_bad(std::uint32_t epoch_round, NodeId from, NodeId to);

  LinkModelConfig config_;
  NodeId num_nodes_;
  std::uint32_t epoch_base_ = 0;
  std::uint64_t attempt_counter_ = 0;
  /// Per-node membership mask per partition rule (index-aligned with
  /// config_.partitions); precomputed so decide() is O(#rules).
  std::vector<std::vector<std::uint8_t>> partition_mask_;
  /// Directed link key -> (last advanced epoch round, state is Bad).
  std::map<std::uint64_t, std::pair<std::uint32_t, bool>> ge_state_;
};

}  // namespace remspan
