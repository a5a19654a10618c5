#include "concurrency/thread_team.hpp"

#include <algorithm>

#include "concurrency/spin_barrier.hpp"
#include "runtime/affinity.hpp"
#include "runtime/stats.hpp"

namespace sge {

ThreadTeam::ThreadTeam(int threads, Topology topo) : topo_(std::move(topo)) {
    const int n = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        workers_.emplace_back([this, t] { worker_main(t); });
}

ThreadTeam::~ThreadTeam() {
    {
        std::lock_guard guard(mutex_);
        shutdown_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadTeam::run(const std::function<void(int)>& fn,
                     SpinBarrier* abort_barrier,
                     std::chrono::steady_clock::time_point deadline) {
    std::unique_lock lock(mutex_);
    job_ = &fn;
    abort_barrier_ = abort_barrier;
    remaining_ = size();
    first_error_ = nullptr;
    ++epoch_;
    start_cv_.notify_all();
    const auto finished = [this] { return remaining_ == 0; };
    // No deadline takes the plain wait: time_point::max() must never
    // reach wait_until, whose conversion to the native clock overflows.
    if (abort_barrier != nullptr &&
        deadline != std::chrono::steady_clock::time_point::max() &&
        !done_cv_.wait_until(lock, deadline, finished))
        abort_barrier->abort();  // workers unwind at their next barrier
    done_cv_.wait(lock, finished);
    job_ = nullptr;
    abort_barrier_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadTeam::worker_main(int tid) {
    // Pinning is best-effort: a refusal (cpuset, container, fault
    // injection) degrades this worker to unpinned placement — correct,
    // just less local — and is surfaced via runtime_warnings().
    const int cpu = topo_.cpu_of_thread(tid);
    if (cpu >= 0 && !pin_current_thread(cpu)) note_pin_failure(cpu);

    std::uint64_t seen_epoch = 0;
    for (;;) {
        const std::function<void(int)>* job = nullptr;
        SpinBarrier* abort_barrier = nullptr;
        {
            std::unique_lock lock(mutex_);
            start_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
            if (shutdown_) return;
            seen_epoch = epoch_;
            job = job_;
            abort_barrier = abort_barrier_;
        }
        std::exception_ptr error;
        try {
            (*job)(tid);
        } catch (...) {
            error = std::current_exception();
            // Poison the region's barrier *before* taking the team
            // mutex so siblings spinning in arrive_and_wait are
            // released immediately and the region can finish.
            if (abort_barrier != nullptr) abort_barrier->abort();
        }
        {
            std::lock_guard guard(mutex_);
            if (error && !first_error_) first_error_ = error;
            if (--remaining_ == 0) done_cv_.notify_all();
        }
    }
}

}  // namespace sge
