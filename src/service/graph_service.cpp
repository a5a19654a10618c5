#include "service/graph_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/msbfs.hpp"
#include "runtime/fault.hpp"

namespace sge::service {

namespace {

using clock = PendingQuery::clock;

double seconds_between(clock::time_point from, clock::time_point to) noexcept {
    return std::chrono::duration<double>(to - from).count();
}

}  // namespace

/// One dispatcher: a persistent CancelToken (arm_token() readies it for
/// every run of this worker — parallel, wave, or serial retry), a
/// BfsRunner owning the pinned team and prepared workspace (null in
/// serial-only fallback mode), and reusable scratch so steady-state
/// queries allocate nothing beyond the result copies handed to callers.
struct GraphService::Worker {
    int id = 0;
    CancelToken token;
    std::unique_ptr<BfsRunner> runner;
    BfsResult scratch;
    /// Per-lane hop distances of the current MS-BFS wave.
    std::vector<std::vector<level_t>> lane_levels;
};

GraphService::GraphService(const CsrGraph& g, ServiceOptions options)
    : graph_(&g),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {
    start();
}

GraphService::GraphService(VersionedGraphStore& store, ServiceOptions options)
    : store_(&store),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {
    start();
}

GraphService::Pinned GraphService::pin() const {
    if (store_ == nullptr) return {SnapshotRef{}, *graph_, 0};
    SnapshotRef ref = store_->acquire();
    const CsrGraph& graph = ref.graph();
    const std::uint64_t version = ref.version();
    return {std::move(ref), graph, version};
}

vertex_t GraphService::graph_vertices() const noexcept {
    return store_ != nullptr ? store_->num_vertices() : graph_->num_vertices();
}

void GraphService::start() {
    if (options_.workers < 1) options_.workers = 1;
    options_.batch_max_roots =
        std::clamp<std::size_t>(options_.batch_max_roots, 1, 64);

    for (int i = 0; i < options_.workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->id = i;
        // A worker that cannot build its runner (injected allocation
        // fault, resource exhaustion) still serves — serially. The pool
        // shrinks; the service starts regardless.
        try {
            BfsOptions bo = options_.bfs;
            bo.cancel = &w->token;
            bo.compute_levels = true;  // service answers are level vectors
            w->runner = std::make_unique<BfsRunner>(std::move(bo));
            healthy_workers_.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
            counters_.serial_fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
        workers_.push_back(std::move(w));
    }
    for (auto& w : workers_) {
        Worker* raw = w.get();
        threads_.emplace_back([this, raw] { worker_loop(*raw); });
    }
}

GraphService::~GraphService() { stop(); }

SubmitResult GraphService::submit(vertex_t root, double deadline_seconds) {
    return submit(QueryRequest{root, deadline_seconds});
}

SubmitResult GraphService::submit(const QueryRequest& request) {
    if (request.root >= graph_vertices())
        throw std::out_of_range("GraphService::submit: root out of range");
    counters_.submitted.fetch_add(1, std::memory_order_relaxed);

    auto item = std::make_shared<PendingQuery>();
    item->request = request;
    item->submitted = clock::now();
    return enqueue(item, request.deadline_seconds);
}

SubmitResult GraphService::submit_mutation(MutationBatch batch,
                                           double deadline_seconds) {
    if (store_ == nullptr)
        throw std::logic_error(
            "GraphService::submit_mutation: service is not store-backed "
            "(construct it over a VersionedGraphStore)");
    // Caller-bug validation happens here, like submit()'s root check,
    // so the worker-side apply cannot throw out_of_range mid-batch.
    for (const EdgeOp& op : batch.ops)
        if (op.u >= store_->num_vertices() || op.v >= store_->num_vertices())
            throw std::out_of_range(
                "GraphService::submit_mutation: vertex out of range");
    counters_.submitted.fetch_add(1, std::memory_order_relaxed);

    auto item = std::make_shared<PendingQuery>();
    item->kind = RequestKind::kMutation;
    item->mutation = std::move(batch);
    item->submitted = clock::now();
    return enqueue(item, deadline_seconds);
}

SubmitResult GraphService::enqueue(const AdmissionQueue::Item& item,
                                   double deadline_seconds) {
    const double dl = deadline_seconds > 0.0 ? deadline_seconds
                                             : options_.default_deadline_seconds;
    if (dl > 0.0)
        item->deadline =
            item->submitted + std::chrono::duration_cast<clock::duration>(
                                  std::chrono::duration<double>(dl));

    SubmitResult out;
    out.result = item->promise.get_future();

    bool admitted = false;
    if (!stopping_.load(std::memory_order_acquire)) {
        try {
            fault::maybe_throw(fault::Site::kServiceSubmit);
            admitted = queue_.try_push(item);
        } catch (const fault::FaultInjected&) {
            admitted = false;  // injected admission failure == shed
        }
    }
    if (admitted) {
        counters_.admitted.fetch_add(1, std::memory_order_relaxed);
        out.admitted = true;
    } else {
        QueryResult r;
        r.outcome = Outcome::kShed;
        r.root = item->request.root;
        resolve(item, std::move(r));
    }
    return out;
}

void GraphService::resolve_cancelled(const AdmissionQueue::Item& item,
                                     const BfsDeadlineError* stopped) {
    QueryResult r;
    r.outcome = Outcome::kCancelled;
    r.root = item->request.root;
    if (stopped != nullptr) {
        r.level_reached = stopped->level_reached();
        r.vertices_settled = stopped->vertices_settled();
    }
    resolve(item, std::move(r));
}

void GraphService::arm_token(Worker& w, clock::time_point deadline) const {
    w.token.reset();
    if (hard_cancel_.load(std::memory_order_acquire)) w.token.cancel();
    w.token.set_deadline(deadline);
}

void GraphService::resolve(const AdmissionQueue::Item& item,
                           QueryResult result) {
    if (item->resolved) return;
    item->resolved = true;

    const auto now = clock::now();
    if (item->dispatched == clock::time_point{}) {
        // Never reached a worker (shed at the door / drained at stop):
        // the whole lifetime was waiting.
        result.wait_seconds = seconds_between(item->submitted, now);
        result.run_seconds = 0.0;
    } else {
        result.wait_seconds = seconds_between(item->submitted,
                                              item->dispatched);
        result.run_seconds = seconds_between(item->dispatched, now);
    }

    switch (result.outcome) {
        case Outcome::kCompleted:
            counters_.completed.fetch_add(1, std::memory_order_relaxed);
            if (result.batched)
                counters_.batched.fetch_add(1, std::memory_order_relaxed);
            break;
        case Outcome::kDegraded:
            counters_.degraded.fetch_add(1, std::memory_order_relaxed);
            break;
        case Outcome::kCancelled:
            counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
            break;
        case Outcome::kShed:
            counters_.shed.fetch_add(1, std::memory_order_relaxed);
            break;
        case Outcome::kFailed:
            counters_.failed.fetch_add(1, std::memory_order_relaxed);
            break;
    }
    item->promise.set_value(std::move(result));
}

void GraphService::worker_loop(Worker& w) {
    // Prime the arena: one throwaway traversal prepares the workspace
    // (allocation + first-touch placement) before traffic arrives, so
    // the first real query pays only the per-query reset. Failures
    // (injected faults during chaos runs) are harmless — the lazy
    // prepare inside run_into covers it.
    if (w.runner && graph_vertices() > 0) {
        try {
            w.token.reset();
            w.runner->run_into(w.scratch, pin().graph, 0);
        } catch (...) {
        }
    }

    const auto window = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(
            options_.batch_window_seconds > 0.0 ? options_.batch_window_seconds
                                                : 0.0));
    std::vector<AdmissionQueue::Item> batch;
    for (;;) {
        batch.clear();
        const std::size_t n = queue_.pop_batch(batch, options_.batch_max_roots,
                                               window, &in_flight_);
        if (n == 0) break;  // closed and drained: worker exits
        try {
            process_batch(w, batch);
        } catch (const std::exception&) {
            // The dispatch loop itself faulted (kServiceWorker site, or
            // anything unexpected): answer the batch on the serial
            // engine, then rebuild this worker's runner. The worker —
            // and the service — keep going either way.
            for (const auto& item : batch) run_degraded(w, item);
            rebuild_runner(w);
        }
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void GraphService::process_batch(Worker& w,
                                 std::vector<AdmissionQueue::Item>& batch) {
    fault::maybe_throw(fault::Site::kServiceWorker);

    const auto now = clock::now();
    std::vector<AdmissionQueue::Item> live;
    live.reserve(batch.size());
    for (const auto& item : batch) {
        item->dispatched = now;
        if (item->expired(now))
            resolve_cancelled(item);
        else
            live.push_back(item);
    }
    if (live.empty()) return;

    // Mutations apply before this batch's queries, so a query admitted
    // together with (or after) a mutation observes the snapshot it
    // published. Application is serialized by the store's writer mutex;
    // with several workers the inter-batch order is whatever the pops
    // interleave to, which the staleness contract already allows.
    std::vector<AdmissionQueue::Item> queries;
    queries.reserve(live.size());
    for (const auto& item : live) {
        if (item->kind == RequestKind::kMutation)
            run_mutation(item);
        else
            queries.push_back(item);
    }
    if (queries.empty()) return;

    if (options_.batching && queries.size() >= 2) {
        run_wave(w, queries);
    } else {
        for (const auto& item : queries) run_single(w, item);
    }
}

void GraphService::run_mutation(const AdmissionQueue::Item& item) {
    if (item->resolved) return;
    if (item->expired(clock::now())) {
        resolve_cancelled(item);
        return;
    }
    QueryResult r;
    r.root = item->request.root;
    try {
        r.snapshot_version = store_->apply(item->mutation);
        r.outcome = Outcome::kCompleted;
        counters_.mutations.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
        // Ids were validated at submit, so this is resource exhaustion
        // or similar; the batch was not applied (the store validates
        // before mutating). The future still resolves.
        r.outcome = Outcome::kFailed;
    }
    resolve(item, std::move(r));
}

void GraphService::run_wave(Worker& w,
                            std::vector<AdmissionQueue::Item>& batch) {
    // Flush-path fault site: a failed wave assembly falls back to
    // per-request dispatch (which carries its own degradation ladder).
    try {
        fault::maybe_throw(fault::Site::kServiceFlush);
    } catch (const fault::FaultInjected&) {
        for (const auto& item : batch) run_single(w, item);
        return;
    }

    // Distinct roots become lanes; duplicate requests share a lane
    // (MS-BFS rejects duplicate sources).
    std::vector<vertex_t> roots;
    std::vector<std::size_t> lane_of(batch.size());
    roots.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const vertex_t root = batch[i]->request.root;
        std::size_t lane = roots.size();
        for (std::size_t l = 0; l < roots.size(); ++l)
            if (roots[l] == root) {
                lane = l;
                break;
            }
        if (lane == roots.size()) roots.push_back(root);
        lane_of[i] = lane;
    }

    // The wave's deadline is the tightest member deadline: when it
    // fires, expired members resolve kCancelled and the rest retry
    // individually — no member waits on a lane it no longer needs.
    clock::time_point deadline = clock::time_point::max();
    for (const auto& item : batch)
        deadline = std::min(deadline, item->deadline);
    arm_token(w, deadline);

    // One pin for the whole wave: every member answers against the
    // same published version (exact on that snapshot, stale by however
    // many batches publish while the wave runs).
    const Pinned pinned = pin();

    const std::size_t n = pinned.graph.num_vertices();
    w.lane_levels.resize(roots.size());
    for (std::size_t l = 0; l < roots.size(); ++l)
        w.lane_levels[l].assign(n, kInvalidLevel);

    MsBfsOptions mo;
    mo.team = w.runner ? w.runner->team() : nullptr;
    mo.workspace = mo.team != nullptr && w.runner ? w.runner->workspace()
                                                  : nullptr;
    mo.cancel = &w.token;
    if (mo.team == nullptr) mo.threads = 1;

    auto& lanes = w.lane_levels;
    const auto visitor = [&lanes](int, level_t level, vertex_t v,
                                  std::uint64_t mask) {
        while (mask != 0) {
            const int lane = std::countr_zero(mask);
            mask &= mask - 1;
            lanes[static_cast<std::size_t>(lane)][v] = level;
        }
    };

    try {
        multi_source_bfs(pinned.graph, roots, visitor, mo);
    } catch (const BfsDeadlineError& e) {
        // Wave cancelled (tightest deadline fired): expired members are
        // done; the rest get an individual run with their own slack.
        const auto now = clock::now();
        for (const auto& item : batch) {
            if (item->expired(now))
                resolve_cancelled(item, &e);
            else
                run_single(w, item);
        }
        return;
    } catch (const std::exception&) {
        // Anything else (injected engine fault, allocation failure):
        // per-request dispatch, each with its own degradation ladder.
        for (const auto& item : batch) run_single(w, item);
        return;
    }

    counters_.waves.fetch_add(1, std::memory_order_relaxed);
    counters_.wave_roots.fetch_add(roots.size(), std::memory_order_relaxed);

    // Summarise each lane once (visited count, level count), then hand
    // every member its lane's levels.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> lane_summary(
        roots.size());
    for (std::size_t l = 0; l < roots.size(); ++l) {
        std::uint64_t visited = 0;
        level_t max_level = 0;
        for (const level_t lv : lanes[l]) {
            if (lv == kInvalidLevel) continue;
            ++visited;
            max_level = std::max(max_level, lv);
        }
        lane_summary[l] = {visited,
                           visited > 0 ? static_cast<std::uint32_t>(max_level) +
                                             1
                                       : 0};
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t lane = lane_of[i];
        QueryResult r;
        r.outcome = Outcome::kCompleted;
        r.root = batch[i]->request.root;
        r.batched = true;
        r.snapshot_version = pinned.version;
        r.level = lanes[lane];  // copy: each caller owns its answer
        r.vertices_visited = lane_summary[lane].first;
        r.num_levels = lane_summary[lane].second;
        resolve(batch[i], std::move(r));
    }
}

void GraphService::run_single(Worker& w, const AdmissionQueue::Item& item) {
    if (item->resolved) return;
    if (item->expired(clock::now())) {
        resolve_cancelled(item);
        return;
    }
    if (!w.runner) {
        // Serial-only fallback mode (pool shrunk after a failed rebuild).
        run_degraded(w, item);
        return;
    }

    arm_token(w, item->deadline);
    const Pinned pinned = pin();

    try {
        w.runner->run_into(w.scratch, pinned.graph, item->request.root);
    } catch (const BfsDeadlineError& e) {
        resolve_cancelled(item, &e);
        return;
    } catch (const std::exception&) {
        run_degraded(w, item);  // injected fault / bad_alloc / ...
        return;
    }

    QueryResult r;
    r.outcome = Outcome::kCompleted;
    r.root = item->request.root;
    r.snapshot_version = pinned.version;
    r.level = w.scratch.level;  // copy: the scratch is reused
    r.vertices_visited = w.scratch.vertices_visited;
    r.num_levels = w.scratch.num_levels;
    resolve(item, std::move(r));
}

void GraphService::run_degraded(Worker& w, const AdmissionQueue::Item& item) {
    if (item->resolved) return;
    if (item->kind == RequestKind::kMutation) {
        // A faulted dispatch loop retries mutations here too: apply is
        // idempotent per item (resolved mutations return immediately)
        // and has no injected fault sites, so the batch lands exactly
        // once or resolves kFailed.
        run_mutation(item);
        return;
    }
    if (item->expired(clock::now())) {
        resolve_cancelled(item);
        return;
    }

    arm_token(w, item->deadline);
    BfsOptions so;
    so.engine = BfsEngine::kSerial;
    so.threads = 1;
    so.compute_levels = true;
    so.cancel = &w.token;

    const Pinned pinned = pin();

    QueryResult r;
    r.root = item->request.root;
    try {
        const BfsResult res = bfs(pinned.graph, item->request.root, so);
        r.outcome = Outcome::kDegraded;
        r.snapshot_version = pinned.version;
        r.level = res.level;
        r.vertices_visited = res.vertices_visited;
        r.num_levels = res.num_levels;
    } catch (const BfsDeadlineError& e) {
        resolve_cancelled(item, &e);
        return;
    } catch (const std::exception&) {
        // The serial engine has no injected fault sites; reaching this
        // means something genuinely unrecoverable. The future still
        // resolves — nothing is ever lost.
        r.outcome = Outcome::kFailed;
    }
    resolve(item, std::move(r));
}

void GraphService::rebuild_runner(Worker& w) {
    counters_.worker_restarts.fetch_add(1, std::memory_order_relaxed);
    const bool was_healthy = w.runner != nullptr;
    try {
        BfsOptions bo = options_.bfs;
        bo.cancel = &w.token;
        bo.compute_levels = true;
        auto fresh = std::make_unique<BfsRunner>(std::move(bo));
        w.runner = std::move(fresh);
        if (!was_healthy)
            healthy_workers_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
        // Could not rebuild: shrink to serial-only instead of dying.
        w.runner.reset();
        if (was_healthy)
            healthy_workers_.fetch_sub(1, std::memory_order_relaxed);
        counters_.serial_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
}

void GraphService::stop() {
    if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
    stopping_.store(true, std::memory_order_release);
    queue_.close();

    // Bounded drain: give queued + in-flight work drain_seconds to
    // finish on its own (workers keep popping a closed queue until it
    // is empty).
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(
                               options_.drain_seconds > 0.0
                                   ? options_.drain_seconds
                                   : 0.0));
    while (clock::now() < deadline) {
        if (queue_.size() == 0 &&
            in_flight_.load(std::memory_order_acquire) == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Whatever is still running now gets cancelled cooperatively — the
    // engines stop within one level, so the joins below are bounded.
    hard_cancel_.store(true, std::memory_order_release);
    for (auto& w : workers_) w->token.cancel();
    for (auto& t : threads_) t.join();
    threads_.clear();

    // Workers are gone; resolve anything still queued.
    std::vector<AdmissionQueue::Item> leftovers;
    queue_.drain(leftovers);
    for (const auto& item : leftovers) resolve_cancelled(item);
}

}  // namespace sge::service
