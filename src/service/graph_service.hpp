#pragma once

// GraphService — a long-lived, fault-tolerant concurrent BFS query
// service over one CsrGraph (the ROADMAP's "service that survives
// heavy traffic" north star; see docs/ROBUSTNESS.md "Service
// guarantees"), or — constructed over a VersionedGraphStore — over a
// live graph: queries pin an immutable published snapshot for their
// whole run while submit_mutation() feeds edge batches through the
// same admission queue, so updates and traversals never block each
// other and every answer is exact on some published version.
//
// Shape: submit() is non-blocking and pushes into a bounded
// AdmissionQueue (full queue => the request is shed with an explicit
// Outcome::kShed — backpressure, never unbounded buffering). Worker
// threads — each owning a BfsRunner with its pinned ThreadTeam and
// prepared BfsWorkspace — pop requests in batches and either run them
// individually or coalesce concurrent single-source queries into one
// bit-parallel MS-BFS wave (flush on 64 distinct roots or a batch
// window, Grappa's buffer-then-flush idiom).
//
// Robustness ladder, in order:
//   * per-request deadlines ride the worker's CancelToken, polled at
//     every level barrier, and a level still running at the deadline
//     has its barrier aborted: a late query stops at its level's next
//     barrier and resolves kCancelled, and the workspace is
//     immediately reusable;
//   * a parallel run that throws anything else (injected fault,
//     allocation failure) is retried once on the serial engine =>
//     kDegraded with a still-correct answer;
//   * a worker whose dispatch loop faults degrades its current batch,
//     then rebuilds its runner (team + workspace); if the rebuild
//     fails too, the worker falls back to serial-only — the pool
//     shrinks, the service never dies;
//   * stop() drains in-flight queries within a bounded deadline, then
//     cancels stragglers — every future resolves.
//
// Every outcome ticks ServiceCounters (sge::obs-style: always-on
// monotonic atomics, the RuntimeWarnings pattern), which is how tests,
// the chaos soak, and bench/bench_service.cpp observe shedding,
// degradation and wave coalescing.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "service/admission.hpp"
#include "service/request.hpp"
#include "stream/versioned_store.hpp"

namespace sge::service {

struct ServiceOptions {
    /// Engine configuration for the parallel attempts (engine, threads,
    /// topology...). `cancel` is overridden per worker: each
    /// worker's CancelToken carries its requests' deadlines.
    BfsOptions bfs;

    /// Dispatcher threads, each owning an independent BfsRunner (team +
    /// workspace). More workers = more concurrent waves in flight.
    int workers = 1;

    /// Admission queue capacity; a full queue sheds (Outcome::kShed).
    std::size_t queue_capacity = 256;

    /// Coalescing: batch up to this many distinct roots into one MS-BFS
    /// wave (clamped to [1, 64], 64 being the lane width; 1 runs every
    /// request alone) ...
    std::size_t batch_max_roots = 64;

    /// ... flushing early once this window has elapsed since the first
    /// request of the batch (0 = no waiting: whatever is queued right
    /// now forms the batch).
    double batch_window_seconds = 0.0005;

    /// Deadline applied to requests that do not carry their own
    /// (QueryRequest::deadline_seconds <= 0). 0 = no default deadline.
    double default_deadline_seconds = 0.0;

    /// stop() waits this long for in-flight + queued work to drain
    /// before hard-cancelling the stragglers.
    double drain_seconds = 5.0;
};

/// Always-on monotonic counters (the RuntimeWarnings pattern): one
/// instance per service, ticked on every resolution. completed +
/// degraded + cancelled + shed + failed == submitted once the service
/// is stopped — the zero-lost-requests invariant, assertable by tests.
struct ServiceCounters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> failed{0};
    /// Requests answered from a coalesced MS-BFS wave (subset of
    /// completed), waves run, and total distinct roots across waves —
    /// wave_roots / waves is the coalescing factor.
    std::atomic<std::uint64_t> batched{0};
    std::atomic<std::uint64_t> waves{0};
    std::atomic<std::uint64_t> wave_roots{0};
    /// Worker dispatch loops that faulted and rebuilt their runner, and
    /// workers that could not rebuild and fell back to serial-only.
    std::atomic<std::uint64_t> worker_restarts{0};
    std::atomic<std::uint64_t> serial_fallbacks{0};
    /// Mutation batches applied to the backing store (store-backed
    /// services only; a subset of completed).
    std::atomic<std::uint64_t> mutations{0};

    [[nodiscard]] std::uint64_t resolved() const noexcept {
        return completed.load() + degraded.load() + cancelled.load() +
               shed.load() + failed.load();
    }
};

class GraphService {
  public:
    /// Starts the worker pool immediately. The graph must outlive the
    /// service.
    explicit GraphService(const CsrGraph& g, ServiceOptions options = {});

    /// Live-graph mode: queries pin a published snapshot from `store`
    /// for their whole run (a wave's members all answer against the
    /// same version), and submit_mutation() feeds edge batches through
    /// the same admission queue. The store must outlive the service.
    explicit GraphService(VersionedGraphStore& store,
                          ServiceOptions options = {});

    /// Equivalent to stop().
    ~GraphService();

    GraphService(const GraphService&) = delete;
    GraphService& operator=(const GraphService&) = delete;

    /// Non-blocking submission. The returned future ALWAYS resolves
    /// (kShed immediately when not admitted). Throws std::out_of_range
    /// for a root outside the graph — a caller bug, not a service
    /// outcome. `deadline_seconds` <= 0 selects the service default.
    SubmitResult submit(vertex_t root, double deadline_seconds = 0.0);
    SubmitResult submit(const QueryRequest& request);

    /// Non-blocking mutation submission (store-backed services only;
    /// throws std::logic_error otherwise, std::out_of_range for bad
    /// vertex ids — caller bugs, not service outcomes). Resolves
    /// kCompleted with QueryResult::snapshot_version = the version the
    /// batch published, kShed under backpressure, kCancelled when a
    /// deadline or shutdown drain fired first — mutations ride the same
    /// bounded AdmissionQueue and zero-lost-requests invariant as
    /// queries. Workers serialize application through the store's
    /// writer mutex, so multi-worker services stay single-writer.
    SubmitResult submit_mutation(MutationBatch batch,
                                 double deadline_seconds = 0.0);

    /// True when this service runs over a VersionedGraphStore.
    [[nodiscard]] bool live() const noexcept { return store_ != nullptr; }

    /// Drains and joins: closes admission, waits up to
    /// ServiceOptions::drain_seconds for queued + in-flight work, then
    /// cancels stragglers and resolves anything left as kCancelled.
    /// Idempotent; submit() after stop() sheds.
    void stop();

    [[nodiscard]] const ServiceCounters& counters() const noexcept {
        return counters_;
    }

    /// Current admission backlog.
    [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

    /// Workers still running their full parallel runner (not serial
    /// fallback). Starts at ServiceOptions::workers.
    [[nodiscard]] int healthy_workers() const noexcept {
        return healthy_workers_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] const ServiceOptions& options() const noexcept {
        return options_;
    }

  private:
    struct Worker;

    /// The graph one run answers on, held for the run: a pinned
    /// snapshot of the live store, or the static graph at version 0.
    struct Pinned {
        SnapshotRef ref;  // empty for a static service
        const CsrGraph& graph;
        std::uint64_t version;
    };
    [[nodiscard]] Pinned pin() const;

    void start();
    SubmitResult enqueue(const AdmissionQueue::Item& item,
                         double deadline_seconds);
    void worker_loop(Worker& w);
    void process_batch(Worker& w, std::vector<AdmissionQueue::Item>& batch);
    void run_wave(Worker& w, std::vector<AdmissionQueue::Item>& batch);
    void run_single(Worker& w, const AdmissionQueue::Item& item);
    void run_degraded(Worker& w, const AdmissionQueue::Item& item);
    void run_mutation(const AdmissionQueue::Item& item);
    /// Rewinds `w`'s token for one run: stop()'s hard cancel, then
    /// `deadline` (time_point::max() when none).
    void arm_token(Worker& w, PendingQuery::clock::time_point deadline) const;
    void resolve(const AdmissionQueue::Item& item, QueryResult result);
    /// Resolves `item` kCancelled, with the partial progress of the run
    /// `stopped` ended, if one ran.
    void resolve_cancelled(const AdmissionQueue::Item& item,
                           const BfsDeadlineError* stopped = nullptr);
    void rebuild_runner(Worker& w);
    [[nodiscard]] vertex_t graph_vertices() const noexcept;

    /// Exactly one of these is set: a static graph (graph_) or a live
    /// store (store_) whose snapshots queries pin per run.
    const CsrGraph* graph_ = nullptr;
    VersionedGraphStore* store_ = nullptr;
    ServiceOptions options_;
    AdmissionQueue queue_;
    ServiceCounters counters_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    std::atomic<int> healthy_workers_{0};
    /// Batches popped but not yet fully resolved (see
    /// AdmissionQueue::pop_batch's in_flight contract).
    std::atomic<int> in_flight_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> hard_cancel_{false};
    std::atomic<bool> stopped_{false};
};

}  // namespace sge::service
