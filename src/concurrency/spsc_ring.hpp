#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "runtime/aligned_buffer.hpp"
#include "runtime/cacheline.hpp"

namespace sge {

/// FastForward single-producer/single-consumer lock-free ring
/// (Giacomoni, Moseley, Vachharajani — PPoPP'08, the paper's reference
/// [23]).
///
/// The distinguishing trick versus a Lamport queue: there are no shared
/// head/tail indices at all. Each slot doubles as its own full/empty
/// flag — a slot holding `Empty` is free, anything else is a value. The
/// producer only reads/writes its own head cursor (plain, unshared) and
/// the slot; the consumer likewise. Producer and consumer therefore make
/// independent progress and the only coherence traffic is the cache line
/// carrying the payload itself, which is exactly the transfer you cannot
/// avoid. This is what lets the paper's inter-socket channels run at
/// ~20 ns per enqueue/dequeue.
///
/// `Empty` must be a value that is never pushed; for packed (child,
/// parent) vertex tuples the all-ones pattern is reserved.
template <typename T, T Empty>
class SpscRing {
    static_assert(std::atomic<T>::is_always_lock_free,
                  "slot type must be natively atomic for FastForward to work");

  public:
    /// `capacity` is rounded up to a power of two (minimum 2).
    explicit SpscRing(std::size_t capacity)
        : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 2)) - 1),
          slots_(mask_ + 1) {
        for (std::size_t i = 0; i <= mask_; ++i)
            slots_[i].store(Empty, std::memory_order_relaxed);
    }

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    /// Producer side. Returns false when the ring is full.
    bool try_push(T value) noexcept {
        std::atomic<T>& slot = slots_[head_.value & mask_];
        if (slot.load(std::memory_order_acquire) != Empty) return false;
        slot.store(value, std::memory_order_release);
        ++head_.value;
        return true;
    }

    /// Consumer side. Returns nullopt when the ring is empty.
    std::optional<T> try_pop() noexcept {
        std::atomic<T>& slot = slots_[tail_.value & mask_];
        const T value = slot.load(std::memory_order_acquire);
        if (value == Empty) return std::nullopt;
        slot.store(Empty, std::memory_order_release);
        ++tail_.value;
        return value;
    }

    /// Consumer-side bulk pop; returns the number of values written to
    /// `out` (up to `max`). One acquire fence per element, same as
    /// try_pop, but saves the call overhead in the BFS drain loop.
    std::size_t pop_bulk(T* out, std::size_t max) noexcept {
        std::size_t n = 0;
        while (n < max) {
            std::atomic<T>& slot = slots_[tail_.value & mask_];
            const T value = slot.load(std::memory_order_acquire);
            if (value == Empty) break;
            slot.store(Empty, std::memory_order_release);
            ++tail_.value;
            out[n++] = value;
        }
        return n;
    }

    /// True when the consumer would currently find nothing. Exact only
    /// while the producer is quiescent (how the BFS uses it: after a
    /// barrier).
    [[nodiscard]] bool empty() const noexcept {
        return slots_[tail_.value & mask_].load(std::memory_order_acquire) == Empty;
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

    /// Empties the ring and rewinds both cursors, in O(items left).
    /// Quiescent only: no producer or consumer may be inside the ring.
    void reset() noexcept {
        for (; tail_.value != head_.value; ++tail_.value)
            slots_[tail_.value & mask_].store(Empty, std::memory_order_relaxed);
        head_.value = 0;
        tail_.value = 0;
    }

  private:
    std::size_t mask_;
    AlignedBuffer<std::atomic<T>> slots_;
    // Cursors are private to their side; padded so the producer's head
    // and consumer's tail never share a line.
    CachePadded<std::size_t> head_{};  // producer-owned
    CachePadded<std::size_t> tail_{};  // consumer-owned
};

}  // namespace sge
