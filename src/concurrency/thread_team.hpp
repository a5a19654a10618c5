#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/topology.hpp"

namespace sge {

class SpinBarrier;

/// Persistent team of worker threads with socket-aware placement.
///
/// Every parallel region in the library (BFS levels, generators' sanity
/// sweeps, probes) executes as `team.run([](int tid){...})`. Workers are
/// created once, pinned to the CPUs the Topology prescribes (a no-op for
/// emulated topologies), and parked on a condition variable between
/// regions — the BFS engines then synchronise *inside* a region with
/// SpinBarrier, so the condvar cost is paid once per BFS, not per level.
///
/// Fault tolerance: a worker whose pin attempt fails degrades to an
/// unpinned run (counted in runtime_warnings(), warned once). A region
/// that synchronises internally with a SpinBarrier should pass that
/// barrier to run(): the first worker exception then aborts the barrier,
/// releasing siblings that would otherwise spin forever waiting for the
/// thrower, so run() completes and rethrows in bounded time. With a
/// deadline as well, the calling thread aborts the barrier itself once
/// the deadline passes, so a region that stalls also ends.
class ThreadTeam {
  public:
    /// Spawns `threads` workers placed per `topo` (see
    /// Topology::socket_of_thread for the fill order).
    ThreadTeam(int threads, Topology topo);

    /// Convenience: detected topology.
    explicit ThreadTeam(int threads) : ThreadTeam(threads, Topology::detect()) {}

    ~ThreadTeam();

    ThreadTeam(const ThreadTeam&) = delete;
    ThreadTeam& operator=(const ThreadTeam&) = delete;

    /// Number of workers.
    [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

    [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

    /// Logical socket of worker `tid`.
    [[nodiscard]] int socket_of(int tid) const noexcept {
        return topo_.socket_of_thread(tid);
    }

    /// Number of logical sockets engaged by this team's workers.
    [[nodiscard]] int sockets_used() const noexcept {
        return topo_.sockets_used(size());
    }

    /// Runs `fn(tid)` on every worker; returns when all have finished.
    /// Exceptions thrown by workers are rethrown (the first one) on the
    /// caller after all workers complete the region.
    ///
    /// When the region synchronises internally on `abort_barrier`, pass
    /// it here: the first worker that throws poisons the barrier, so
    /// waiting siblings observe `arrive_and_wait() == false`, unwind,
    /// and the region completes instead of deadlocking. Workers must
    /// honor that contract by returning when arrive_and_wait yields
    /// false.
    ///
    /// `deadline` (with `abort_barrier` only): the caller sleeps until
    /// it, and if the region is still running then, aborts the barrier —
    /// the same unwinding, started by the clock instead of a throw.
    /// time_point::max() means no deadline.
    void run(const std::function<void(int)>& fn,
             SpinBarrier* abort_barrier = nullptr,
             std::chrono::steady_clock::time_point deadline =
                 std::chrono::steady_clock::time_point::max());

  private:
    void worker_main(int tid);

    Topology topo_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    const std::function<void(int)>* job_ = nullptr;
    SpinBarrier* abort_barrier_ = nullptr;
    std::uint64_t epoch_ = 0;
    int remaining_ = 0;
    bool shutdown_ = false;
    std::exception_ptr first_error_;
};

}  // namespace sge
