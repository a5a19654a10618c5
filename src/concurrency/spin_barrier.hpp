#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "concurrency/ticket_lock.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"

namespace sge {

/// Centralized sense-reversing barrier for the level-synchronous BFS
/// ("Synchronize" in Algorithms 2 and 3).
///
/// A generation counter doubles as the sense: arrivals decrement a
/// count, the last arrival resets it and bumps the generation, everyone
/// else spins until the generation moves. The spin is bounded and falls
/// back to yield because emulated topologies oversubscribe the physical
/// CPUs (64 workers on this container's single core must not spin-wait
/// on each other).
///
/// Abort protocol: a party that cannot reach the barrier (it threw), or
/// the thread waiting on a run whose deadline passed, calls abort(),
/// which poisons the barrier — every current waiter is released
/// immediately and every future arrival returns straight away, all with
/// `false`. Poisoning is sticky: an aborted barrier never admits another
/// phase, so workers checking the return value unwind in bounded time
/// instead of spinning on a generation that will never advance.
/// ThreadTeam::run trips this automatically for the barrier registered
/// with it, on a worker's exception or at the run's deadline (see
/// thread_team.hpp).
class SpinBarrier {
  public:
    explicit SpinBarrier(int parties) noexcept
        : parties_(parties) {
        count_->store(parties, std::memory_order_relaxed);
        aborted_->store(false, std::memory_order_relaxed);
    }

    SpinBarrier(const SpinBarrier&) = delete;
    SpinBarrier& operator=(const SpinBarrier&) = delete;

    /// Arrives and waits for the other parties. Returns true on a
    /// normal release; false when the barrier is (or becomes) aborted,
    /// in which case the caller must unwind — the phase structure is
    /// gone and no further barrier will complete.
    ///
    /// May throw fault::FaultInjected when the `barrier` fault site is
    /// armed (never in production builds with injection disabled).
    bool arrive_and_wait() {
        fault::maybe_throw(fault::Site::kBarrier);
        if (aborted_->load(std::memory_order_acquire)) return false;
        const std::uint64_t gen = generation_->load(std::memory_order_acquire);
        if (count_->fetch_sub(1, std::memory_order_acq_rel) == 1) {
            count_->store(parties_, std::memory_order_relaxed);
            generation_->fetch_add(1, std::memory_order_release);
            return !aborted_->load(std::memory_order_acquire);
        }
        int spins = 0;
        while (generation_->load(std::memory_order_acquire) == gen) {
            if (aborted_->load(std::memory_order_acquire)) return false;
            if (++spins < kSpinLimit) {
                TicketLock::cpu_pause();
            } else {
                std::this_thread::yield();
            }
        }
        return !aborted_->load(std::memory_order_acquire);
    }

    /// Poisons the barrier (idempotent, async-signal-unsafe but
    /// thread-safe): releases all current waiters and makes every
    /// future arrive_and_wait return false immediately.
    void abort() noexcept {
        if (!aborted_->exchange(true, std::memory_order_acq_rel))
            runtime_warnings().barrier_aborts.fetch_add(
                1, std::memory_order_relaxed);
    }

    [[nodiscard]] bool aborted() const noexcept {
        return aborted_->load(std::memory_order_acquire);
    }

    [[nodiscard]] int parties() const noexcept { return parties_; }

  private:
    static constexpr int kSpinLimit = 128;
    const int parties_;
    CachePadded<std::atomic<int>> count_{};
    CachePadded<std::atomic<std::uint64_t>> generation_{};
    CachePadded<std::atomic<bool>> aborted_{};
};

}  // namespace sge
