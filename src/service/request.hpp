#pragma once

// Request/result vocabulary of the concurrent query service
// (service/graph_service.hpp). Kept separate so tests and benches can
// name outcomes without pulling in the service machinery.

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "concurrency/cancel_token.hpp"
#include "graph/types.hpp"
#include "stream/versioned_store.hpp"

namespace sge::service {

/// What a pending request asks the service to do. Queries run a BFS
/// against the current (or, store-backed, a pinned) graph; mutations
/// apply a MutationBatch to the backing VersionedGraphStore and
/// publish the next snapshot version.
enum class RequestKind : std::uint8_t { kQuery, kMutation };

/// Terminal state of one submitted query. Every submit() resolves to
/// exactly one of these — the service never loses a request.
enum class Outcome {
    /// Answered by a parallel engine or an MS-BFS wave.
    kCompleted,
    /// The parallel attempt threw (injected fault, allocation failure);
    /// the serial retry answered. The result is still a correct BFS —
    /// only slower. A deadline never degrades: it cancels.
    kDegraded,
    /// The per-request deadline fired before an answer was produced
    /// (includes requests cancelled by a shutdown drain).
    kCancelled,
    /// Rejected at admission: the bounded queue was full (backpressure)
    /// or the service was stopping. Resolved immediately at submit().
    kShed,
    /// Both the parallel attempt and the serial retry threw something
    /// other than a deadline. Should not occur in practice — the serial
    /// engine has no injected fault sites — but the enum is total so
    /// callers never hang on an unresolved future.
    kFailed,
};

[[nodiscard]] inline const char* to_string(Outcome o) noexcept {
    switch (o) {
        case Outcome::kCompleted: return "completed";
        case Outcome::kDegraded: return "degraded";
        case Outcome::kCancelled: return "cancelled";
        case Outcome::kShed: return "shed";
        case Outcome::kFailed: return "failed";
    }
    return "unknown";
}

/// One single-source BFS query.
struct QueryRequest {
    vertex_t root = 0;
    /// Per-request deadline in seconds from submit; <= 0 means "the
    /// service default" (ServiceOptions::default_deadline_seconds, which
    /// itself may be "none").
    double deadline_seconds = 0.0;
};

/// Answer to one query. The service computes hop distances, not parent
/// trees: batched requests ride an MS-BFS wave, which produces levels
/// per lane, and BFS levels are unique for a (graph, root) pair —
/// making single-run and batched answers bit-comparable (parent trees
/// are not: any valid BFS tree may differ between engines).
struct QueryResult {
    Outcome outcome = Outcome::kFailed;
    vertex_t root = 0;

    /// Hop distance per vertex (kInvalidLevel = unreached). Empty for
    /// kCancelled / kShed / kFailed.
    std::vector<level_t> level;

    std::uint64_t vertices_visited = 0;
    std::uint32_t num_levels = 0;

    /// True when the answer came from a coalesced MS-BFS wave.
    bool batched = false;

    /// Store-backed services only: for queries, the version of the
    /// pinned snapshot the answer was computed on (the staleness window
    /// at resolution is store.version() - snapshot_version); for
    /// mutations, the version this batch published. 0 for a service
    /// over a static CsrGraph.
    std::uint64_t snapshot_version = 0;

    /// Partial progress of a cancelled run (BfsDeadlineError passthrough;
    /// zero otherwise).
    std::uint32_t level_reached = 0;
    std::uint64_t vertices_settled = 0;

    /// Time spent queued before a worker picked the request up, and time
    /// spent executing (including any degraded retry). Shed requests
    /// have both ~0.
    double wait_seconds = 0.0;
    double run_seconds = 0.0;

    [[nodiscard]] double latency_seconds() const noexcept {
        return wait_seconds + run_seconds;
    }

    /// A resolution that carries a usable BFS answer.
    [[nodiscard]] bool answered() const noexcept {
        return outcome == Outcome::kCompleted || outcome == Outcome::kDegraded;
    }
};

/// What submit() hands back: `admitted` is the backpressure signal
/// (false = shed at the door), and `result` ALWAYS becomes ready —
/// shed requests resolve immediately with Outcome::kShed, so callers
/// can wait on every future they were given without tracking admission
/// separately.
struct SubmitResult {
    bool admitted = false;
    std::future<QueryResult> result;
};

/// A query sitting in the admission queue (service-internal, exposed
/// here so AdmissionQueue stays header-only and testable).
struct PendingQuery {
    using clock = CancelToken::clock;

    RequestKind kind = RequestKind::kQuery;
    QueryRequest request;
    /// The edge ops of a kMutation request (empty for queries).
    MutationBatch mutation;
    std::promise<QueryResult> promise;
    clock::time_point submitted{};
    /// Stamped by the worker that picked the batch up (wait vs run time
    /// split); a default value means "never dispatched" (shed / drained).
    clock::time_point dispatched{};
    /// Absolute deadline; time_point::max() when the request has none.
    clock::time_point deadline = clock::time_point::max();
    /// Guards single resolution. Touched only by the owning worker (or
    /// by submit/stop before/after the queue hand-off), so plain bool.
    bool resolved = false;

    [[nodiscard]] bool expired(clock::time_point now) const noexcept {
        return now >= deadline;
    }
};

}  // namespace sge::service
