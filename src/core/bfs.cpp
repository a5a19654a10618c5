#include "core/bfs.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "core/level_driver.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"

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

template <BackendGraph Graph>
BfsResult BfsRunner::run(const Graph& g, vertex_t root) {
    BfsResult result;
    run_into(result, g, root);
    return result;
}

template <BackendGraph Graph>
void BfsRunner::run_into(BfsResult& result, const Graph& g, vertex_t root) {
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
        case BfsEngine::kMultiSocket:
            detail::bfs_multisocket(g, root, options_, *team_, *workspace_,
                                    result);
            return;
        case BfsEngine::kBitmap:
        case BfsEngine::kHybrid:
            detail::bfs_hybrid(g, root, engine, options_, *team_, *workspace_,
                               result);
            return;
        default:
            break;  // resolved_engine never returns kAuto/kSerial here
    }
    throw std::logic_error("BfsRunner: unresolved engine");
}

template <BackendGraph Graph>
BfsResult bfs(const Graph& g, vertex_t root, const BfsOptions& options) {
    BfsRunner runner(options);
    return runner.run(g, root);
}

template void BfsRunner::run_into(BfsResult&, const CsrGraph&, vertex_t);
template void BfsRunner::run_into(BfsResult&, const CompressedCsrGraph&,
                                  vertex_t);
template void BfsRunner::run_into(BfsResult&, const PagedGraph&, vertex_t);
template BfsResult BfsRunner::run(const CsrGraph&, vertex_t);
template BfsResult BfsRunner::run(const CompressedCsrGraph&, vertex_t);
template BfsResult BfsRunner::run(const PagedGraph&, vertex_t);
template BfsResult bfs(const CsrGraph&, vertex_t, const BfsOptions&);
template BfsResult bfs(const CompressedCsrGraph&, vertex_t, const BfsOptions&);
template BfsResult bfs(const PagedGraph&, vertex_t, const BfsOptions&);

double level_value(const BfsLevelStats& s, const LevelCounterRow& row,
                   std::size_t element) {
    std::uint64_t bits = 0;
    std::memcpy(&bits,
                reinterpret_cast<const unsigned char*>(&s) +
                    (row.slot + element) * sizeof bits,
                sizeof bits);
    return row.floating ? std::bit_cast<double>(bits)
                        : static_cast<double>(bits);
}

std::string level_value_key(const LevelCounterRow& row, std::size_t element) {
    std::string key(row.name);
    return row.extent == 1 ? key : key + "_" + std::to_string(element);
}

std::array<bool, kLevelCounterRows.size()> nonzero_level_counters(
    const std::vector<BfsLevelStats>& levels) {
    std::array<bool, kLevelCounterRows.size()> nonzero{};
    for (const BfsLevelStats& s : levels)
        for (const LevelCounterRow& row : kLevelCounterRows)
            for (std::size_t e = 0; e < row.extent; ++e)
                if (level_value(s, row, e) != 0)
                    nonzero[static_cast<std::size_t>(row.id)] = true;
    return nonzero;
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
        // No per-thread spans (the serial engine):
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

    // One counter series per row that is nonzero in the run, one sample
    // per level boundary (timestamped with the cumulative per-level wall
    // time so they line up with the spans in either mode).
    const auto shown = nonzero_level_counters(result.level_stats);
    std::uint64_t cursor = 0;
    for (const BfsLevelStats& s : result.level_stats) {
        for (const LevelCounterRow& row : kLevelCounterRows) {
            if (!shown[static_cast<std::size_t>(row.id)]) continue;
            obs::ChromeTrace::Values values;
            for (std::size_t e = 0; e < row.extent; ++e)
                values.emplace_back(level_value_key(row, e),
                                    level_value(s, row, e));
            trace.add_counter(std::string(row.name), cursor,
                              std::move(values));
        }
        cursor += static_cast<std::uint64_t>(s.seconds * 1e9);
    }
    return trace;
}

}  // namespace sge
