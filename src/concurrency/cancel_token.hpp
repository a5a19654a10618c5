#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace sge {

/// Cooperative cancellation for traversals — the one way a run ends
/// early, threaded through BfsOptions::cancel / MsBfsOptions::cancel and
/// armed per request by the query service (service/graph_service.hpp).
///
/// The token is enforced at two points:
///   * Thread 0 polls it once per BFS level, in its end-of-level
///     bookkeeping window between the level barriers: a fired token marks
///     the run done, every worker leaves the level loop at the next
///     barrier, and the engine throws BfsDeadlineError carrying the
///     partial progress (level reached, vertices settled). The clean stop.
///   * The thread that started the run sleeps until the token's
///     deadline() and, if the run is still going, aborts its barrier
///     (ThreadTeam::run): a level that stalls — say, in Algorithm 3's
///     channel drain — ends at its next barrier instead of running on.
/// Either way the workspace is reusable for the next query: prepare()
/// rewinds whatever an aborted level left behind, which is what lets the
/// service keep a prepared arena hot across cancelled requests.
///
/// Three trigger modes, any combination:
///   * cancel()            — manual, from any thread, sticky (seen at the
///     next poll);
///   * set_deadline*()     — poll() fires once steady_clock passes it, and
///     a run's team aborts a level still running then;
///   * fire_after_polls(n) — deterministic: the nth poll() fires. The
///     engines poll once per level, so n == "cancel at level n"; used
///     by tests and chaos harnesses to hit an exact level regardless of
///     machine speed.
///
/// Configure (set_deadline / fire_after_polls) before handing the token
/// to a run; cancel() alone is safe concurrently with polling.
class CancelToken {
  public:
    using clock = std::chrono::steady_clock;

    CancelToken() = default;
    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    /// Requests cancellation. Thread-safe, sticky, idempotent.
    void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

    /// Fires poll() once `deadline` passes; time_point::max() is "none".
    void set_deadline(clock::time_point deadline) noexcept {
        deadline_ = deadline;
    }

    /// Fires poll() once `seconds` from now have elapsed. <= 0 cancels
    /// immediately (an already-expired budget).
    void set_deadline_after(double seconds) noexcept {
        if (seconds <= 0.0) {
            cancel();
            return;
        }
        set_deadline(clock::now() +
                     std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds)));
    }

    /// Deterministic trigger: the nth poll() (1-based) fires. 0 disarms.
    void fire_after_polls(std::uint64_t n) noexcept {
        fire_at_poll_ = n;
        polls_.store(0, std::memory_order_relaxed);
    }

    /// True once cancellation was requested or observed by a poll.
    [[nodiscard]] bool cancelled() const noexcept {
        return cancelled_.load(std::memory_order_acquire);
    }

    /// The engines' once-per-level check: true when the token has fired
    /// (manually, by deadline, or by poll count). Sticky — after the
    /// first true, every later poll is a single relaxed load.
    [[nodiscard]] bool poll() noexcept {
        if (cancelled()) return true;
        const std::uint64_t count =
            polls_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (fire_at_poll_ > 0 && count >= fire_at_poll_) {
            cancel();
            return true;
        }
        if (clock::now() >= deadline_) {
            cancel();
            return true;
        }
        return false;
    }

    /// The deadline set_deadline*() armed; time_point::max() when none.
    [[nodiscard]] clock::time_point deadline() const noexcept {
        return deadline_;
    }

    /// Rewinds the token for reuse (not thread-safe; call between runs).
    void reset() noexcept {
        cancelled_.store(false, std::memory_order_relaxed);
        polls_.store(0, std::memory_order_relaxed);
        deadline_ = clock::time_point::max();
        fire_at_poll_ = 0;
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<std::uint64_t> polls_{0};
    clock::time_point deadline_ = clock::time_point::max();
    std::uint64_t fire_at_poll_ = 0;
};

}  // namespace sge
