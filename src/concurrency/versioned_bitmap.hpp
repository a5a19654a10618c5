#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/aligned_buffer.hpp"

namespace sge {

/// Epoch-versioned concurrent bitmap: the visited set of Algorithm 2's
/// double-checked protocol (a plain test, then an atomic test_and_set)
/// with O(1) whole-bitmap reset, for query-serving workloads that run
/// many traversals over one prepared graph.
///
/// Each 64-bit word packs `epoch (high 32) | payload bits (low 32)`, so
/// one word covers 32 vertices. A word whose stamp is older than the
/// current epoch is logically all-clear: `advance_epoch()` bumps the
/// counter and every previously-set bit goes stale without being
/// touched. Reset cost is therefore O(words actually rewritten by the
/// *next* traversal), not O(n) — the stale words are reclaimed lazily
/// by the first test_and_set that lands on them.
///
/// The price is 2 bits per vertex instead of the paper's 1. The
/// paper's Figure-2 argument still holds: 8 MB covers a 32 M-vertex
/// graph, well inside the LLC sizes where the bitmap's random-read
/// advantage over the parent array lives.
///
/// Epoch wraparound: the 32-bit epoch is bumped once per query; at
/// kMaxEpoch the advance physically zeroes every word and restarts at
/// epoch 1 — one O(n/32) sweep every ~4 billion queries. Words are
/// zero-initialized and the epoch starts at 1, so a fresh bitmap reads
/// all-clear (stamp 0 < epoch 1).
class VersionedBitmap {
  public:
    static constexpr std::size_t kSlotsPerWord = 32;
    static constexpr std::uint32_t kMaxEpoch = 0xFFFFFFFFu;

    VersionedBitmap() = default;

    /// Creates a bitmap covering `bits` slots, all clear. Pass
    /// `zeroed = false` to skip the zero-fill when the caller will
    /// first-touch the words itself via clear_words (NUMA placement).
    explicit VersionedBitmap(std::size_t bits, bool zeroed = true)
        : bits_(bits), words_((bits + kSlotsPerWord - 1) / kSlotsPerWord) {
        if (zeroed) clear_words(0, words_.size());
    }

    VersionedBitmap(VersionedBitmap&&) noexcept = default;
    VersionedBitmap& operator=(VersionedBitmap&&) noexcept = default;

    /// Non-RMW test: one acquire load plus an epoch compare. `false`
    /// means "maybe unvisited" — confirm with test_and_set before acting
    /// on it.
    [[nodiscard]] bool test(std::size_t i) const noexcept {
        const std::uint64_t w =
            words_[i / kSlotsPerWord].load(std::memory_order_acquire);
        return (w >> 32) == epoch_ && (w & bit(i)) != 0;
    }

    /// Atomically sets slot `i` in the current epoch; returns its
    /// previous value. A stale-stamped word counts as all-clear and is
    /// overwritten wholesale with `epoch | bit` — this CAS loop is the
    /// lazy reclamation that makes advance_epoch O(1).
    bool test_and_set(std::size_t i) noexcept {
        std::atomic<std::uint64_t>& word = words_[i / kSlotsPerWord];
        const std::uint64_t stamp = static_cast<std::uint64_t>(epoch_) << 32;
        std::uint64_t cur = word.load(std::memory_order_acquire);
        for (;;) {
            const bool fresh = (cur >> 32) == epoch_;
            if (fresh && (cur & bit(i)) != 0) return true;
            const std::uint64_t want = (fresh ? cur : stamp) | bit(i);
            if (word.compare_exchange_weak(cur, want,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
                return false;
        }
    }

    /// Logically clears every slot by bumping the epoch. Returns the
    /// number of words physically written (0 on the fast path; all of
    /// them on the once-per-4-billion wraparound). Not thread-safe
    /// against concurrent test/test_and_set.
    std::size_t advance_epoch() noexcept {
        if (epoch_ == kMaxEpoch) {
            clear_words(0, words_.size());
            epoch_ = 1;
            return words_.size();
        }
        ++epoch_;
        return 0;
    }

    /// Test hook: jump the epoch forward to `e` (must be >= the current
    /// epoch). Safe because every stored stamp is then strictly older.
    void set_epoch(std::uint32_t e) noexcept {
        if (e > epoch_) epoch_ = e;
    }

    /// Physically zeroes words [lo, hi) with relaxed stores. Used for
    /// socket-parallel first touch; overlapping calls that rewrite a
    /// boundary word are idempotent.
    void clear_words(std::size_t lo, std::size_t hi) noexcept {
        for (std::size_t w = lo; w < hi && w < words_.size(); ++w)
            words_[w].store(0, std::memory_order_relaxed);
    }

    /// Address of the word holding slot `i` — prefetch hint target for
    /// the double-checked test.
    [[nodiscard]] const void* word_addr(std::size_t i) const noexcept {
        return &words_[i / kSlotsPerWord];
    }

    /// Raw word storage (`epoch | payload` packing) for the
    /// word-at-a-time scans in runtime/simd_scan.hpp. Payload bits past
    /// size_bits() in the tail word are never set by test_and_set, so a
    /// whole-word mask needs no tail clipping for set bits — only
    /// unvisited-mask consumers must clip to their vertex range.
    [[nodiscard]] const std::atomic<std::uint64_t>* words() const noexcept {
        return words_.data();
    }

    [[nodiscard]] std::size_t num_words() const noexcept {
        return words_.size();
    }
    [[nodiscard]] std::size_t size_bits() const noexcept { return bits_; }
    [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  private:
    static constexpr std::uint64_t bit(std::size_t i) noexcept {
        return 1ULL << (i % kSlotsPerWord);
    }

    std::size_t bits_ = 0;
    std::uint32_t epoch_ = 1;
    AlignedBuffer<std::atomic<std::uint64_t>> words_;
};

}  // namespace sge
