// TTL-scoped flooding with duplicate suppression — the dissemination
// primitive of link-state protocols. A payload flooded by `origin` with
// ttl = d reaches every node within distance d of the origin exactly once
// (per (origin, seq) key), in at most d rounds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/network.hpp"

namespace remspan {

/// The (origin, seq) keys a node has seen in the current epoch: a flat
/// open-addressing set whose slots carry the epoch's generation stamp, so
/// reset() forgets every key in O(1) and a slot from an older generation
/// reads as empty. Inserts never allocate; the table only grows, by
/// doubling, and keeps its capacity across resets.
class SeenKeySet {
 public:
  /// Inserts `key`; false when it is already present this generation.
  bool insert(std::uint64_t key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    Slot* slot = find_slot(key);
    if (slot->gen == gen_) return false;
    *slot = Slot{key, gen_};
    ++size_;
    return true;
  }

  /// Keys inserted since the last reset().
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Forgets every key by starting a new generation. A wrapped stamp
  /// could match slots written 2^32 generations ago, so it zeroes them.
  void reset() noexcept {
    size_ = 0;
    if (++gen_ == 0) {
      for (Slot& slot : slots_) slot.gen = 0;
      gen_ = 1;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t gen = 0;  // 0 = never written; live iff == gen_
  };

  static constexpr std::size_t kInitialSlots = 16;

  /// The slot holding `key` this generation, else the empty slot where
  /// linear probing from its hash ends. The load factor stays <= 3/4, so
  /// an empty slot always exists.
  Slot* find_slot(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the high product bits mix origin and seq.
    std::size_t i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    while (slots_[i].gen == gen_ && slots_[i].key != key) i = (i + 1) & mask;
    return &slots_[i];
  }

  void grow() {
    const std::vector<Slot> previous = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? kInitialSlots : 2 * slots_.size()));
    for (const Slot& slot : previous) {
      if (slot.gen == gen_) *find_slot(slot.key) = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t gen_ = 1;
};

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
  /// at O(live state) memory instead of O(floods ever seen). O(1): the
  /// set starts a new generation.
  void reset_seen() noexcept { seen_.reset(); }

 private:
  bool mark_seen(const Message& msg) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(msg.origin) << 32) | msg.seq;
    return seen_.insert(key);
  }

  SeenKeySet seen_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace remspan
