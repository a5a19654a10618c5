#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/aligned_buffer.hpp"

namespace sge {

/// Concurrent one-bit-per-vertex bitmap: the visited set of Algorithm 2's
/// double-checked protocol and the hybrid's frontier bitmaps.
///
///   if (!bitmap.test(v))              // plain load, no bus lock
///       if (!bitmap.test_and_set(v))  // lock bts / lock or
///           ... first visitor wins ...
///
/// test_and_set is the paper's LockedReadSet, one locked instruction.
/// A writer that owns a whole word for the level (the hybrid's
/// bottom-up claims, cut at cache lines) publishes it with
/// or_word_owned instead, a plain store. One bit per vertex keeps the
/// randomly-accessed working set 32x smaller than the parent array
/// (Figure 2: worth >=4x in raw random-read rate), so 4 MB covers a
/// 32 M-vertex graph.
///
/// A bitmap holds no query state beyond its bits: whoever reuses one
/// zeroes it first (BfsWorkspace::prepare, the hybrid's after-read
/// clear), O(n/64) words per reset.
class AtomicBitmap {
  public:
    static constexpr std::size_t kBitsPerWord = 64;

    AtomicBitmap() = default;

    /// Creates a bitmap covering `bits` slots, all clear. Pass
    /// `zeroed = false` to skip the zero-fill when the caller will
    /// first-touch the words itself via clear_words (NUMA placement).
    explicit AtomicBitmap(std::size_t bits, bool zeroed = true)
        : bits_(bits), words_((bits + kBitsPerWord - 1) / kBitsPerWord) {
        if (zeroed) clear();
    }

    AtomicBitmap(AtomicBitmap&&) noexcept = default;
    AtomicBitmap& operator=(AtomicBitmap&&) noexcept = default;

    /// Non-RMW test: one acquire load. `false` means "maybe unvisited" —
    /// confirm with test_and_set before acting on it.
    [[nodiscard]] bool test(std::size_t i) const noexcept {
        return (words_[i / kBitsPerWord].load(std::memory_order_acquire) &
                bit(i)) != 0;
    }

    /// Atomically sets slot `i`; returns its previous value. One
    /// `fetch_or`.
    bool test_and_set(std::size_t i) noexcept {
        return (words_[i / kBitsPerWord].fetch_or(
                    bit(i), std::memory_order_acq_rel) &
                bit(i)) != 0;
    }

    /// Sets the slots of `mask` in word `wi`: a relaxed load, an OR and
    /// a relaxed store, no locked instruction. Precondition: no other
    /// thread writes word `wi` before the next barrier (the caller owns
    /// it, as a bottom-up claim owns the cache lines of its vertices);
    /// that barrier orders the store before any other thread's read.
    void or_word_owned(std::size_t wi, std::uint64_t mask) noexcept {
        words_[wi].store(words_[wi].load(std::memory_order_relaxed) | mask,
                         std::memory_order_relaxed);
    }

    /// Zeroes every slot. Not thread-safe against concurrent writers.
    void clear() noexcept { clear_words(0, words_.size()); }

    /// Zeroes words [lo, hi) with relaxed stores. Used for socket-parallel
    /// first touch; overlapping calls that rewrite a boundary word are
    /// idempotent.
    void clear_words(std::size_t lo, std::size_t hi) noexcept {
        for (std::size_t w = lo; w < hi && w < words_.size(); ++w)
            words_[w].store(0, std::memory_order_relaxed);
    }

    /// Address of the word holding slot `i` — prefetch hint target for
    /// the double-checked test.
    [[nodiscard]] const void* word_addr(std::size_t i) const noexcept {
        return &words_[i / kBitsPerWord];
    }

    /// Raw word storage for the word-at-a-time scans in
    /// runtime/simd_scan.hpp. Bits past size_bits() in the tail word are
    /// never set, so set-bit consumers need no tail clipping; unvisited
    /// (~word) consumers must clip to their vertex range.
    [[nodiscard]] const std::atomic<std::uint64_t>* words() const noexcept {
        return words_.data();
    }

    [[nodiscard]] std::size_t num_words() const noexcept {
        return words_.size();
    }
    [[nodiscard]] std::size_t size_bits() const noexcept { return bits_; }

  private:
    static constexpr std::uint64_t bit(std::size_t i) noexcept {
        return std::uint64_t{1} << (i % kBitsPerWord);
    }

    std::size_t bits_ = 0;
    AlignedBuffer<std::atomic<std::uint64_t>> words_;
};

}  // namespace sge
