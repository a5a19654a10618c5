#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "concurrency/spsc_ring.hpp"
#include "concurrency/ticket_lock.hpp"
#include "runtime/fault.hpp"

namespace sge {

/// Inter-socket communication channel: the paper's composition of a
/// FastForward SPSC ring with a Ticket Lock on each side ("the remote
/// channel is implemented as a FastForward queue where both producers
/// and consumers are protected on their respective side by a Ticket
/// Lock", Section III). Many producers (all workers of the *other*
/// sockets) and many consumers (workers of the owning socket) time-share
/// the two SPSC endpoints; batching amortises the lock acquisition so
/// the normalized cost per vertex stays tens of nanoseconds.
///
/// The BFS drains a channel only after a barrier, at which point the
/// ring is bounded by whatever fit; anything beyond ring capacity would
/// stall producers that cannot be allowed to block (the drain phase has
/// not started yet). push_batch therefore spills to an overflow vector
/// — still under the producer lock, so still race-free — and pop_batch
/// splices the spill back in after the ring runs dry. Channels never
/// lose or duplicate items and never deadlock regardless of sizing.
///
/// Ordering contract: items of a single push_batch are delivered in
/// order, but once the spill path engages, items from different batches
/// may be delivered out of global FIFO order (ring and spill drain
/// independently). The BFS drains a whole level as a set, so this is
/// free — callers needing strict FIFO must size the ring for their
/// worst case.
template <typename T, T Empty>
class Channel {
  public:
    explicit Channel(std::size_t ring_capacity) : ring_(ring_capacity) {}

    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Producer side: enqueue `count` items. Never fails, never blocks
    /// on the consumer.
    ///
    /// Fault site `channel_push`: when armed and firing, the batch
    /// bypasses the ring entirely and goes to the spill vector — the
    /// exact path a full ring takes, exercised on demand. No item is
    /// ever lost either way.
    void push_batch(const T* items, std::size_t count) {
        std::lock_guard guard(producer_lock_);
        std::size_t i = 0;
        if (!fault::should_fire(fault::Site::kChannelPush)) [[likely]]
            while (i < count && ring_.try_push(items[i])) ++i;
        if (i < count) spill_.insert(spill_.end(), items + i, items + count);
        pushed_.fetch_add(count, std::memory_order_relaxed);
    }

    /// Consumer side: dequeue up to `max` items into `out`; returns the
    /// number dequeued. Returns 0 only when the channel is drained (with
    /// respect to all push_batch calls that happened-before, e.g. across
    /// a barrier).
    ///
    /// Fault site `channel_pop`: when armed and firing, the drain is
    /// throttled to a single item — a delayed-drain consumer. Callers
    /// loop until 0, so throttling slows them down without dropping or
    /// reordering anything they would not already tolerate.
    std::size_t pop_batch(T* out, std::size_t max) {
        if (max > 1 && fault::should_fire(fault::Site::kChannelPop)) max = 1;
        std::lock_guard guard(consumer_lock_);
        std::size_t n = ring_.pop_bulk(out, max);
        if (n == max) {
            popped_.fetch_add(n, std::memory_order_relaxed);
            return n;
        }
        // Ring dry: splice any spilled items into the consumer-side
        // pending buffer. Lock order is always consumer -> producer.
        if (pending_cursor_ >= pending_.size()) {
            pending_.clear();
            pending_cursor_ = 0;
            std::lock_guard pguard(producer_lock_);
            pending_.swap(spill_);
        }
        while (n < max && pending_cursor_ < pending_.size())
            out[n++] = pending_[pending_cursor_++];
        popped_.fetch_add(n, std::memory_order_relaxed);
        return n;
    }

    /// Items pushed/popped since the last reset() (or construction).
    /// Exact while quiescent (the BFS uses these after barriers for
    /// termination accounting, and in the diagnostics of a run stopped
    /// mid-level); safe to read concurrently, where they are merely a
    /// momentary snapshot.
    [[nodiscard]] std::size_t pushed() const noexcept {
        return pushed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t popped() const noexcept {
        return popped_.load(std::memory_order_relaxed);
    }

    /// True when every push has been consumed. Exact only while both
    /// sides are quiescent, or for the consumer whose pop_batch just
    /// returned 0 with producers quiescent (the consumer lock orders
    /// that 0-return after every counted pop) — how the BFS asserts the
    /// level's final partial batches were not left behind.
    [[nodiscard]] bool drained() const noexcept { return popped() == pushed(); }

    [[nodiscard]] std::size_t ring_capacity() const noexcept {
        return ring_.capacity();
    }

    /// Drops every undelivered item (ring, spill and pending buffer) and
    /// zeroes both counters. Quiescent only: no push_batch or pop_batch
    /// may run concurrently. No fault site: it costs O(items left)
    /// whatever `channel_pop` is armed with.
    void reset() {
        std::lock_guard cguard(consumer_lock_);
        std::lock_guard pguard(producer_lock_);
        ring_.reset();
        spill_.clear();
        pending_.clear();
        pending_cursor_ = 0;
        pushed_.store(0, std::memory_order_relaxed);
        popped_.store(0, std::memory_order_relaxed);
    }

  private:
    SpscRing<T, Empty> ring_;
    TicketLock producer_lock_;
    TicketLock consumer_lock_;
    std::vector<T> spill_;         // guarded by producer_lock_
    std::vector<T> pending_;       // guarded by consumer_lock_
    std::size_t pending_cursor_ = 0;  // guarded by consumer_lock_
    // Atomic (not lock-guarded) so diagnostics may snapshot them while
    // workers are mid-level; writers still hold the respective lock.
    std::atomic<std::size_t> pushed_{0};
    std::atomic<std::size_t> popped_{0};
};

}  // namespace sge
