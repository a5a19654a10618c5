#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/topology.hpp"

namespace sge {

class ThreadTeam;
class BfsWorkspace;

/// Discovery callback for multi_source_bfs. Invoked once per (vertex,
/// level) with a bitmask over the source batch: bit i set means
/// sources[i] first reaches `v` at distance `level`. May be called
/// concurrently from different workers (distinct vertices); `tid`
/// identifies the worker so callers can keep per-thread accumulators.
/// Level 0 (the sources) is reported from the calling thread as tid 0,
/// before the workers start.
using MsBfsVisitor =
    std::function<void(int tid, level_t level, vertex_t v, std::uint64_t mask)>;

struct MsBfsOptions {
    int threads = 1;
    std::optional<Topology> topology;

    /// Query-throughput mode: run on an existing pinned team instead of
    /// spinning one up per call (when set, `threads`/`topology` are
    /// ignored — the team's shape wins).
    ThreadTeam* team = nullptr;

    /// Reuse a BfsRunner-owned workspace's MS-BFS lane buffers and
    /// [0, n) plan across calls (prepare_ms). Requires `team` (the
    /// buffers are first-touched/placed for that team's pinning). When
    /// null, each call prepares a workspace of its own.
    BfsWorkspace* workspace = nullptr;

    /// Collect per-level counters into *level_stats. frontier_size
    /// counts vertices active in *any* lane; atomic_wins counts
    /// fetch_or calls that claimed at least one new lane (the n-1
    /// single-source invariant does not apply to a multi-source run).
    bool collect_stats = false;

    /// Where collect_stats writes its per-level counters (cleared and
    /// refilled on each call). Ignored when null or !collect_stats.
    std::vector<BfsLevelStats>* level_stats = nullptr;

    /// Optional cancellation (not owned; must outlive the call), as
    /// BfsOptions::cancel: thread 0 polls it once per level, and its
    /// deadline also aborts a level still running then. Either way
    /// multi_source_bfs throws BfsDeadlineError and all lanes stop
    /// together — the service maps a cancelled wave back onto its member
    /// requests (expired members are cancelled, the rest retried). A stop
    /// at a level boundary counts every visitor call made so far in
    /// vertices_settled(), sources included; a level the deadline
    /// aborted may already have reported some of its vertices, so there
    /// vertices_settled() is at most the visitor calls.
    CancelToken* cancel = nullptr;
};

/// Bit-parallel multi-source BFS (the MS-BFS technique of Then et al.,
/// VLDB 2014): runs up to 64 traversals simultaneously, one bit lane per
/// source, sharing every adjacency scan among all sources whose
/// frontiers overlap. On small-world graphs frontiers overlap heavily,
/// so 64 traversals cost a small multiple of one — which is what makes
/// all-pairs-flavoured analytics (closeness, diameter sampling)
/// affordable on the paper's workloads.
///
/// Levels are synchronous across all lanes, computed with the same
/// frontier/next + fetch_or discipline as the paper's Algorithm 2, on the
/// backend `g`'s type names: a CompressedCsrGraph decodes each row on the
/// fly (BfsLevelStats::bytes_decoded/decode_ns report the decode work
/// when stats are collected); on a PagedGraph the lane frontier is a
/// whole-graph bitmap, so the frontier-ahead prefetcher does not apply
/// and scans fault pages on demand.
/// Returns the number of levels executed (max over lanes).
/// Throws std::invalid_argument for > 64 or zero sources, or duplicate
/// source vertices; std::out_of_range for bad ids.
template <BackendGraph Graph>
std::uint32_t multi_source_bfs(const Graph& g,
                               std::span<const vertex_t> sources,
                               const MsBfsVisitor& visit,
                               const MsBfsOptions& options = {});

}  // namespace sge
