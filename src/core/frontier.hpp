#pragma once

#include <atomic>
#include <cstddef>

#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/cacheline.hpp"

namespace sge {

/// Level frontier: a flat vertex array and its published size.
///
/// The modern realization of the paper's LockedEnqueue queue without the
/// lock: the FrontierCompactor (or the hybrid's bitmap harvest) copies
/// each worker's discoveries into a disjoint segment and one thread
/// publishes the total; consumers claim scan chunks through a WorkQueue
/// plan over the filled slots. Because every vertex enters a frontier at
/// most once per BFS (the bitmap guarantees it), capacity == n always
/// suffices and the array never reallocates mid-level.
class FrontierQueue {
  public:
    FrontierQueue() = default;

    explicit FrontierQueue(std::size_t capacity) : slots_(capacity) {
        size_->store(0, std::memory_order_relaxed);
    }

    // Movable so engines can build std::vector<FrontierQueue> per
    // socket; moves must be externally synchronised (setup time only) —
    // the atomic size transfers by value.
    FrontierQueue(FrontierQueue&& other) noexcept
        : slots_(std::move(other.slots_)) {
        size_->store(other.size_->load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    FrontierQueue& operator=(FrontierQueue&& other) noexcept {
        slots_ = std::move(other.slots_);
        size_->store(other.size_->load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        return *this;
    }

    /// Appends one vertex: the root seed, single-threaded, before the
    /// workers start.
    void push_one(vertex_t v) noexcept {
        const std::size_t n = size();
        slots_[n] = v;
        set_size(n + 1);
    }

    [[nodiscard]] const vertex_t* data() const noexcept { return slots_.data(); }
    [[nodiscard]] vertex_t operator[](std::size_t i) const noexcept {
        return slots_[i];
    }

    /// Mutable slot storage — used by the workspace's first-touch pass so
    /// each socket's workers fault in their own slice of the queue pages.
    [[nodiscard]] vertex_t* slots_mut() noexcept { return slots_.data(); }

    /// Number of vertices enqueued (the last published size).
    [[nodiscard]] std::size_t size() const noexcept {
        return size_->load(std::memory_order_acquire);
    }

    /// Publishes the queue's size after an externally-synchronised
    /// compact fill (FrontierCompactor: workers memcpy disjoint segments
    /// into slots_mut(), a barrier quiesces them, then one thread
    /// publishes the total). Release pairs with size()'s acquire so
    /// scanners see the filled slots.
    void set_size(std::size_t count) noexcept {
        size_->store(count, std::memory_order_release);
    }

    /// Empties the queue for the next level. Not thread-safe; call
    /// between barriers.
    void reset() noexcept { size_->store(0, std::memory_order_relaxed); }

  private:
    AlignedBuffer<vertex_t> slots_;
    CachePadded<std::atomic<std::size_t>> size_{};
};

/// Local staging buffer a worker fills before paying one lock
/// acquisition (Channel) — the batching optimization of Section III.
/// Capacity is a runtime knob (BfsOptions::batch_size).
template <typename T>
class LocalBatch {
  public:
    explicit LocalBatch(std::size_t capacity)
        : items_(capacity < 1 ? 1 : capacity) {}

    /// Appends one item; returns true when the buffer just became full
    /// and must be flushed. Pushing into a full buffer is a bug in the
    /// caller (always flush on `true`).
    bool push(T v) noexcept {
        items_[size_++] = v;
        return size_ == items_.size();
    }

    [[nodiscard]] const T* data() const noexcept { return items_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    void clear() noexcept { size_ = 0; }

    [[nodiscard]] std::size_t capacity() const noexcept { return items_.size(); }

  private:
    AlignedBuffer<T> items_;
    std::size_t size_ = 0;
};

}  // namespace sge
