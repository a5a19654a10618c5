// Streaming graph analysis — the paper's conclusion aims this design at
// "streaming and irregular applications". A network-monitoring-style
// scenario: edges (connections) arrive in batches through a
// VersionedGraphStore, which publishes one immutable snapshot per
// batch; after each batch we need hop distances from a monitored root
// without recomputing from scratch. Compares the incremental repair
// against batch BFS recompute on the same snapshot, and audits them
// against each other (exit status 1 on any disagreement).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "gen/rmat.hpp"
#include "runtime/timer.hpp"
#include "stream/incremental_bfs.hpp"
#include "stream/versioned_store.hpp"

int main(int argc, char** argv) {
    using namespace sge;

    const vertex_t n =
        argc > 1 ? static_cast<vertex_t>(std::atol(argv[1])) : 100000;
    constexpr int kBatches = 10;
    const std::size_t batch_edges = n / 4;

    // The edge stream: an R-MAT sequence, so later edges preferentially
    // attach to hubs (a realistic arrival process for social/semantic
    // graphs).
    RmatParams params;
    params.scale = 0;
    while ((1ULL << params.scale) < n) ++params.scale;
    params.num_edges = static_cast<std::uint64_t>(kBatches) * batch_edges;
    params.seed = 31;
    const EdgeList stream = generate_rmat(params);

    VersionedGraphStore store(static_cast<vertex_t>(1ULL << params.scale));
    IncrementalBfs incremental(store.acquire().graph(), /*root=*/0);

    std::printf("streaming %d batches of %zu edges into a %u-vertex graph\n\n",
                kBatches, batch_edges, store.num_vertices());
    std::printf("%-7s %-12s %-14s %-14s %-14s %-14s %s\n", "batch", "arcs",
                "reached", "publish", "repair", "batch BFS", "agree");

    const auto ms = [](double seconds) {
        return std::to_string(seconds * 1e3) + " ms";
    };
    double publish_total = 0.0;
    double repair_total = 0.0;
    double batch_total = 0.0;
    std::size_t cursor = 0;
    for (int b = 0; b < kBatches; ++b) {
        MutationBatch batch;
        std::vector<std::pair<vertex_t, vertex_t>> edges;
        for (std::size_t i = 0; i < batch_edges; ++i) {
            const Edge e = stream[cursor++];
            if (e.src == e.dst) continue;
            batch.insert(e.src, e.dst);
            edges.emplace_back(e.src, e.dst);
        }

        // Publishing the next version is O(n + m): every untouched row
        // is copied into the new snapshot.
        WallTimer timer;
        store.apply(batch);
        const SnapshotRef snap = store.acquire();
        const double publish_s = timer.seconds();

        // The repair touches only what the batch changed.
        timer.reset();
        incremental.on_edges_added(snap.graph(), edges);
        const double repair_s = timer.seconds();

        // The from-scratch alternative on the same snapshot.
        timer.reset();
        BfsOptions opts;
        opts.engine = BfsEngine::kSerial;
        const BfsResult batch_result = bfs(snap.graph(), 0, opts);
        const double batch_s = timer.seconds();

        publish_total += publish_s;
        repair_total += repair_s;
        batch_total += batch_s;
        const bool agree = batch_result.vertices_visited ==
                               incremental.reached_count() &&
                           batch_result.level == incremental.levels();

        std::printf("%-7d %-12llu %-14llu %-14s %-14s %-14s %s\n", b,
                    static_cast<unsigned long long>(snap.graph().num_edges()),
                    static_cast<unsigned long long>(incremental.reached_count()),
                    ms(publish_s).c_str(), ms(repair_s).c_str(),
                    ms(batch_s).c_str(), agree ? "yes" : "NO");
        if (!agree) return 1;
    }

    std::printf(
        "\ntotals: repair %.1f ms vs %.1f ms of recomputes (recompute cost "
        "grows\nwith the graph; repair cost tracks only what changed); "
        "publishing the\nsnapshots took %.1f ms.\n",
        repair_total * 1e3, batch_total * 1e3, publish_total * 1e3);
    return 0;
}
