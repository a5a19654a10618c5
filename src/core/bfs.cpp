#include "core/bfs.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/env.hpp"

namespace sge {

std::string to_string(BfsEngine engine) {
    switch (engine) {
        case BfsEngine::kSerial: return "serial";
        case BfsEngine::kNaive: return "naive";
        case BfsEngine::kBitmap: return "bitmap";
        case BfsEngine::kMultiSocket: return "multisocket";
        case BfsEngine::kHybrid: return "hybrid";
        case BfsEngine::kAuto: return "auto";
    }
    return "unknown";
}

std::string to_string(FrontierGen gen) {
    switch (gen) {
        case FrontierGen::kAtomic: return "atomic";
        case FrontierGen::kCompact: return "compact";
    }
    return "unknown";
}

std::string to_string(GraphBackend backend) {
    switch (backend) {
        case GraphBackend::kPlain: return "plain";
        case GraphBackend::kCompressed: return "compressed";
        case GraphBackend::kPaged: return "paged";
        case GraphBackend::kPagedCompressed: return "paged_compressed";
    }
    return "unknown";
}

namespace {

Topology resolve_topology(const BfsOptions& options) {
    return options.topology ? *options.topology : Topology::detect();
}

int resolve_threads(const BfsOptions& options, const Topology& topo) {
    if (options.threads < 0)
        throw std::invalid_argument("BfsOptions::threads must be >= 0");
    if (options.threads == 0) return topo.max_threads();
    return options.threads;
}

BfsEngine resolve_engine(const BfsOptions& options, const Topology& topo,
                         int threads) {
    if (options.engine != BfsEngine::kAuto) return options.engine;
    if (threads <= 1) return BfsEngine::kSerial;
    // The paper disables the inter-socket machinery when all workers fit
    // on one socket ("when the threads run on the same socket, we
    // disable inter-socket channels to get the highest performance").
    // There the direction-optimizing engine runs Algorithm 2's top-down
    // levels plus bottom-up sweeps on stamped graphs, and is the measured
    // winner on every low-diameter workload (docs/PERF_MODEL.md
    // "Direction optimization by default").
    if (topo.sockets_used(threads) <= 1) return BfsEngine::kHybrid;
    return BfsEngine::kMultiSocket;
}

}  // namespace

BfsRunner::BfsRunner(BfsOptions options)
    : options_(std::move(options)), topology_(resolve_topology(options_)) {
    const int threads = resolve_threads(options_, topology_);
    if (resolve_engine(options_, topology_, threads) != BfsEngine::kSerial)
        team_ = std::make_unique<ThreadTeam>(threads, topology_);
}

BfsRunner::~BfsRunner() = default;
BfsRunner::BfsRunner(BfsRunner&&) noexcept = default;
BfsRunner& BfsRunner::operator=(BfsRunner&&) noexcept = default;

BfsEngine BfsRunner::resolved_engine() const noexcept {
    return resolve_engine(options_, topology_,
                          resolve_threads(options_, topology_));
}

int BfsRunner::threads() const noexcept {
    return team_ ? team_->size() : 1;
}

const BfsWorkspaceStats& BfsRunner::workspace_stats() const noexcept {
    static const BfsWorkspaceStats kEmpty{};
    return workspace_ ? workspace_->stats : kEmpty;
}

BfsResult BfsRunner::run(const CsrGraph& g, vertex_t root) {
    BfsResult result;
    run_into(result, g, root);
    return result;
}

BfsResult BfsRunner::run(const CompressedCsrGraph& g, vertex_t root) {
    BfsResult result;
    run_into(result, g, root);
    return result;
}

BfsResult BfsRunner::run(const PagedGraph& g, vertex_t root) {
    BfsResult result;
    run_into(result, g, root);
    return result;
}

const CompressedCsrGraph& BfsRunner::compressed_for(const CsrGraph& g) {
    const void* tag = g.offsets().data();
    if (!compressed_ || compressed_tag_ != tag ||
        compressed_n_ != g.num_vertices() || compressed_m_ != g.num_edges()) {
        compressed_ = std::make_unique<CompressedCsrGraph>(csr_compress(g));
        compressed_tag_ = tag;
        compressed_n_ = g.num_vertices();
        compressed_m_ = g.num_edges();
    }
    return *compressed_;
}

const PagedGraph& BfsRunner::paged_for(const CsrGraph& g, bool compressed) {
    const void* tag = g.offsets().data();
    if (!paged_ || paged_tag_ != tag || paged_compressed_ != compressed ||
        paged_n_ != g.num_vertices() || paged_m_ != g.num_edges()) {
        // Unique spill basename: pid + a process-wide counter, under
        // $SGE_PAGED_DIR or the system temp dir. owns_files unlinks the
        // manifest and stripes when the cached graph is replaced or the
        // runner dies; validate_payload is skipped because the payload
        // was written a microsecond ago from a validated graph.
        static std::atomic<std::uint64_t> counter{0};
        std::string dir = env_string("SGE_PAGED_DIR").value_or("");
        if (dir.empty()) dir = std::filesystem::temp_directory_path().string();
        const std::string path =
            dir + "/sge_paged_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
        PagedWriteOptions wopts;
        wopts.payload = compressed ? PagedPayload::kVarintBlob
                                   : PagedPayload::kPlainTargets;
        PagedOpenOptions oopts;
        oopts.validate_payload = false;
        oopts.owns_files = true;
        paged_ = std::make_unique<PagedGraph>(make_paged(g, path, wopts, oopts));
        paged_tag_ = tag;
        paged_compressed_ = compressed;
        paged_n_ = g.num_vertices();
        paged_m_ = g.num_edges();
    }
    return *paged_;
}

void BfsRunner::run_into(BfsResult& result, const CsrGraph& g, vertex_t root) {
    if (options_.backend == GraphBackend::kCompressed) {
        detail::check_root(g, root);  // validate before paying the encode
        run_into_impl(result, compressed_for(g), root);
        return;
    }
    if (options_.backend == GraphBackend::kPaged ||
        options_.backend == GraphBackend::kPagedCompressed) {
        detail::check_root(g, root);  // validate before paying the spill
        run_into_impl(
            result,
            paged_for(g, options_.backend == GraphBackend::kPagedCompressed),
            root);
        return;
    }
    run_into_impl(result, g, root);
}

void BfsRunner::run_into(BfsResult& result, const CompressedCsrGraph& g,
                         vertex_t root) {
    run_into_impl(result, g, root);
}

void BfsRunner::run_into(BfsResult& result, const PagedGraph& g,
                         vertex_t root) {
    run_into_impl(result, g, root);
}

template <class Graph>
void BfsRunner::run_into_impl(BfsResult& result, const Graph& g,
                              vertex_t root) {
    detail::check_root(g, root);
    const BfsEngine engine = resolved_engine();
    if (engine == BfsEngine::kSerial) {
        detail::bfs_serial(g, root, options_, result);
        return;
    }
    if (!workspace_) workspace_ = std::make_unique<BfsWorkspace>();
    workspace_->prepare(g, engine, options_, *team_);
    switch (engine) {
        case BfsEngine::kNaive:
            detail::bfs_naive(g, root, options_, *team_, *workspace_, result);
            return;
        case BfsEngine::kBitmap:
            detail::bfs_bitmap(g, root, options_, *team_, *workspace_, result);
            return;
        case BfsEngine::kMultiSocket:
            detail::bfs_multisocket(g, root, options_, *team_, *workspace_,
                                    result);
            return;
        case BfsEngine::kHybrid:
            detail::bfs_hybrid(g, root, options_, *team_, *workspace_, result);
            return;
        default:
            break;  // resolved_engine never returns kAuto/kSerial here
    }
    throw std::logic_error("BfsRunner: unresolved engine");
}

BfsResult bfs(const CsrGraph& g, vertex_t root, const BfsOptions& options) {
    BfsRunner runner(options);
    return runner.run(g, root);
}

BfsResult bfs(const CompressedCsrGraph& g, vertex_t root,
              const BfsOptions& options) {
    BfsRunner runner(options);
    return runner.run(g, root);
}

BfsResult bfs(const PagedGraph& g, vertex_t root, const BfsOptions& options) {
    BfsRunner runner(options);
    return runner.run(g, root);
}

obs::ChromeTrace make_bfs_trace(const BfsResult& result,
                                const std::string& name) {
    obs::ChromeTrace trace;
    trace.set_process_name(name);

    if (!result.thread_spans.empty()) {
        int max_tid = 0;
        for (const BfsThreadSpan& s : result.thread_spans)
            max_tid = std::max(max_tid, s.thread);
        for (int t = 0; t <= max_tid; ++t)
            trace.set_thread_name(t, "worker " + std::to_string(t));
        for (const BfsThreadSpan& s : result.thread_spans)
            trace.add_span(s.thread, "level " + std::to_string(s.level),
                           s.start_ns, s.end_ns,
                           {{"level", static_cast<std::uint64_t>(s.level)}});
    } else if (!result.level_stats.empty()) {
        // No per-thread spans (serial engine, or SGE_OBS compiled out):
        // synthesize one track from the per-level wall times so the
        // trace still shows the level structure.
        trace.set_thread_name(0, "levels");
        std::uint64_t cursor = 0;
        for (std::size_t d = 0; d < result.level_stats.size(); ++d) {
            const auto ns = static_cast<std::uint64_t>(
                result.level_stats[d].seconds * 1e9);
            trace.add_span(0, "level " + std::to_string(d), cursor,
                           cursor + ns,
                           {{"level", static_cast<std::uint64_t>(d)}});
            cursor += ns;
        }
    }

    // Counter series, one sample per level boundary (timestamped with
    // the cumulative per-level wall time so they line up with the spans
    // in either mode).
    std::uint64_t cursor = 0;
    for (const BfsLevelStats& s : result.level_stats) {
        trace.add_counter("frontier", cursor, {{"vertices", s.frontier_size}});
        trace.add_counter("edges scanned", cursor, {{"edges", s.edges_scanned}});
        const std::uint64_t wins = std::min(s.atomic_wins, s.atomic_ops);
        trace.add_counter("atomics", cursor,
                          {{"wins", s.atomic_ops > 0 ? wins : s.atomic_wins},
                           {"wasted", s.atomic_ops > wins
                                          ? s.atomic_ops - wins
                                          : 0}});
        trace.add_counter("plain-test skips", cursor,
                          {{"skips", s.bitmap_skips}});
        if (s.remote_tuples > 0)
            trace.add_counter("remote tuples", cursor,
                              {{"tuples", s.remote_tuples}});
        if (s.barrier_wait_ns > 0)
            trace.add_counter("barrier wait us", cursor,
                              {{"us", s.barrier_wait_ns / 1000}});
        if (s.chunks_claimed > 0)
            trace.add_counter("scheduler chunks", cursor,
                              {{"claimed", s.chunks_claimed},
                               {"stolen", s.chunks_stolen}});
        if (s.compact_writes > 0 || s.prefix_sum_ns > 0)
            trace.add_counter("compaction", cursor,
                              {{"writes", s.compact_writes},
                               {"prefix us", s.prefix_sum_ns / 1000}});
        if (s.simd_words_scanned > 0)
            trace.add_counter("simd words", cursor,
                              {{"words", s.simd_words_scanned}});
        if (s.bytes_decoded > 0)
            trace.add_counter("decode", cursor,
                              {{"bytes", s.bytes_decoded},
                               {"us", s.decode_ns / 1000}});
        cursor += static_cast<std::uint64_t>(s.seconds * 1e9);
    }
    return trace;
}

}  // namespace sge
