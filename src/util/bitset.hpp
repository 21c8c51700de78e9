// Dynamic bitset with fast population count and iteration over set bits.
// EdgeSet (the spanner-subset representation) is built on top of this.
// AtomicBitset is the concurrent sibling: a fixed-size bitset of
// std::atomic words that many workers set into lock-free (the shared
// spanner union in core/remote_spanner.cpp is its main client).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/prelude.hpp"

namespace remspan {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits, bool value = false)
      : bits_(bits), words_((bits + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    trim();
  }

  /// Adopts a raw word vector (words.size() must match the bit count; the
  /// tail of the last word is masked off). This is how AtomicBitset
  /// snapshots become ordinary bitsets without a bit-by-bit copy.
  [[nodiscard]] static DynamicBitset from_words(std::size_t bits,
                                                std::vector<std::uint64_t> words);

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }

  /// The backing words, least-significant bit = lowest index. Word-level
  /// access is what lets downstream consumers (stats, unions) run at
  /// popcount speed instead of probing bit-by-bit.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  void set(std::size_t i) noexcept {
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  void reset(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool value) noexcept { value ? set(i) : reset(i); }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set_all() noexcept {
    for (auto& w : words_) w = ~std::uint64_t{0};
    trim();
  }

  [[nodiscard]] std::size_t count() const noexcept;

  /// Bitwise union / intersection / difference (and-not); both operands
  /// must have equal size.
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator-=(const DynamicBitset& other);

  [[nodiscard]] bool operator==(const DynamicBitset& other) const noexcept {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

 private:
  void trim() noexcept {
    const std::size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Fixed-size bitset whose words are std::atomic<std::uint64_t>, for
/// many-writer set-only phases (bits are only ever turned on). Writers use
/// relaxed fetch_or: setting a bit carries no payload another thread reads
/// through that bit, so no release/acquire pairing is needed — publication
/// to the final reader happens once via the fork/join barrier of the
/// parallel loop that drives the writers. snapshot() is therefore only
/// valid after all writers have been joined.
class AtomicBitset {
 public:
  explicit AtomicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64) {}  // atomics value-initialize to 0

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }

  void set(std::size_t i) noexcept {
    words_[i >> 6].fetch_or(std::uint64_t{1} << (i & 63), std::memory_order_relaxed);
  }

  void clear(std::size_t i) noexcept {
    words_[i >> 6].fetch_and(~(std::uint64_t{1} << (i & 63)), std::memory_order_relaxed);
  }

  /// ORs a whole prepared word in one RMW — the word-level batching hook:
  /// callers accumulate the bits of one logical unit (e.g. one dominating
  /// tree) into plain masks and pay one atomic op per touched word.
  void or_word(std::size_t word_index, std::uint64_t mask) noexcept {
    if (mask != 0) words_[word_index].fetch_or(mask, std::memory_order_relaxed);
  }

  /// ORs a batch of bit indices (one logical unit, e.g. one tree's edge
  /// ids): `bits` is sorted in place — sorted indices group by word — and
  /// same-word bits merge into one plain mask, so each touched word costs
  /// exactly one relaxed RMW. Returns the number of words actually or'd
  /// (the RMW count — callers report it as union cost, see src/obs).
  std::size_t or_batch(std::vector<std::uint32_t>& bits);

  /// Clears a batch of bit indices with the same word-level discipline as
  /// or_batch: one relaxed fetch_and per touched word. The retire mirror of
  /// or_batch for many-writer clear phases (concurrent disjoint clears are
  /// exact — see test_util.cpp); the incremental spanner engine itself
  /// retires through per-edge refcounts instead, since a bit carries no
  /// owner count.
  void clear_batch(std::vector<std::uint32_t>& bits);

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1u;
  }

  /// Copies the current words into a plain DynamicBitset. Only meaningful
  /// after the writing phase has been joined (see class comment).
  [[nodiscard]] DynamicBitset snapshot() const {
    std::vector<std::uint64_t> words(words_.size());
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words[w] = words_[w].load(std::memory_order_relaxed);
    }
    return DynamicBitset::from_words(bits_, std::move(words));
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace remspan
