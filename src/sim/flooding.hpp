// TTL-scoped flooding with duplicate suppression — the dissemination
// primitive of link-state protocols. A payload flooded by `origin` with
// ttl = d reaches every node within distance d of the origin exactly once
// (per (origin, seq) key), in at most d rounds.
#pragma once

#include <unordered_set>

#include "obs/obs.hpp"
#include "sim/network.hpp"

namespace remspan {

class FloodManager {
 public:
  /// Starts a flood from this node. seq must be fresh per (origin, type)
  /// stream; the manager hands out sequence numbers via next_seq().
  void originate(NodeContext& ctx, std::uint32_t type, std::uint32_t ttl,
                 std::vector<std::uint32_t> payload) {
    Message msg;
    msg.origin = ctx.id();
    msg.seq = next_seq_++;
    msg.ttl = ttl;
    msg.type = type;
    msg.payload = std::move(payload);
    mark_seen(msg);
    ctx.broadcast(std::move(msg));
  }

  /// Call for every received message belonging to the flood. Returns true
  /// when the payload is new for this node (the caller should process it);
  /// duplicates return false. Forwarding (ttl - 1) happens automatically
  /// for fresh messages with remaining budget.
  bool accept(NodeContext& ctx, const Message& msg) {
    if (!mark_seen(msg)) {
      obs::add(obs::Metric::kSimFloodDups);
      return false;
    }
    if (obs::Registry* m = obs::metrics()) {
      m->add(obs::Metric::kSimFloodAccepts, 1);
      // Remaining forwarding budget at acceptance; scope minus this value is
      // the hops travelled, so the histogram is the flood-lifetime profile.
      m->record(obs::Metric::kSimFloodTtlLeft, msg.ttl);
    }
    if (msg.ttl > 1) {
      Message fwd = msg;
      fwd.ttl = msg.ttl - 1;
      ctx.broadcast(std::move(fwd));
    }
    return true;
  }

  [[nodiscard]] std::uint32_t next_seq() const noexcept { return next_seq_; }

  /// Number of (origin, seq) suppression keys currently held — O(live
  /// floods since the last reset_seen()), pinned by the epoch-memory tests.
  [[nodiscard]] std::size_t seen_size() const noexcept { return seen_.size(); }

  /// Forgets every recorded (origin, seq) key while keeping the sequence
  /// counter. Safe between flooding epochs that each run to quiescence:
  /// later floods carry fresh seqs, so suppression state from drained
  /// epochs can never match again — dropping it keeps long churn replays
  /// at O(live state) memory instead of O(floods ever seen).
  void reset_seen() { seen_.clear(); }

 private:
  bool mark_seen(const Message& msg) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(msg.origin) << 32) | msg.seq;
    return seen_.insert(key).second;
  }

  std::unordered_set<std::uint64_t> seen_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace remspan
