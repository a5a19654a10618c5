// Ablation bench: the design choices DESIGN.md calls out, each swept in
// isolation on a fixed workload:
//
//   * channel batch size — Algorithm 3's batching optimization
//     ("rather than inserting at a granularity of a single vertex, each
//     thread batches a set of vertices to amortize the locking
//     overhead");
//   * channel ring capacity — FastForward ring size before the spill
//     path engages;
//   * sender-side remote filter — consult the (remote) bitmap before
//     shipping a tuple; the paper deliberately does not, to keep random
//     reads socket-local.

#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace sge;
using namespace sge::bench;

BfsOptions base_options() {
    BfsOptions options;
    options.engine = BfsEngine::kMultiSocket;
    options.threads = 8;
    options.topology = Topology::nehalem_ep();
    return options;
}

void sweep_batch_size(const CsrGraph& g) {
    std::printf("(1) channel/queue batch size (default 64)\n");
    Table table({"batch", "rate", "vs batch=1"});
    double base_rate = 0.0;
    for (const std::size_t batch : {1u, 4u, 16u, 64u, 256u, 1024u}) {
        BfsOptions options = base_options();
        options.batch_size = batch;
        const double rate = bfs_rate(g, options);
        if (batch == 1) base_rate = rate;
        table.add_row({fmt_u64(batch), fmt("%.1f ME/s", rate / 1e6),
                       fmt("%.2fx", rate / base_rate)});
    }
    table.print();
}

void sweep_channel_capacity(const CsrGraph& g) {
    std::printf("\n(2) FastForward ring capacity (default 32768 entries)\n");
    Table table({"ring entries", "rate"});
    for (const std::size_t cap : {64u, 1024u, 32768u, 262144u}) {
        BfsOptions options = base_options();
        options.channel_capacity = cap;
        table.add_row({fmt_u64(cap),
                       fmt("%.1f ME/s", bfs_rate(g, options) / 1e6)});
    }
    table.print();
}

void sweep_remote_filter(const CsrGraph& g) {
    std::printf("\n(3) sender-side remote bitmap filter (paper: off)\n");
    Table table({"filter", "rate", "remote tuples shipped"});
    for (const bool filter : {false, true}) {
        BfsOptions options = base_options();
        options.remote_sender_filter = filter;
        options.collect_stats = true;
        BfsRunner runner(options);
        const BfsResult r = runner.run(g, 0);
        std::uint64_t shipped = 0;
        for (const auto& s : r.level_stats) shipped += s.remote_tuples;
        table.add_row({filter ? "on" : "off",
                       fmt("%.1f ME/s", bfs_rate(g, runner) / 1e6),
                       fmt_u64(shipped)});
    }
    table.print();
    std::printf(
        "on real NUMA hardware the filter's remote reads defeat the "
        "channels' purpose;\non a single-die host it only trades bitmap "
        "loads against channel volume.\n");
}

}  // namespace

int main() {
    banner("Ablations: batching, ring capacity, remote filter",
           "Section III design choices");

    const std::uint64_t n = scaled(1 << 16);
    const CsrGraph g = uniform_graph(n, 8 * n);
    std::printf("workload: uniform, %llu vertices, arity 8, Algorithm 3 on "
                "the EP model, 8 threads\n\n",
                static_cast<unsigned long long>(n));

    sweep_batch_size(g);
    sweep_channel_capacity(g);
    sweep_remote_filter(g);
    return 0;
}
