// GraphService under an open-loop query stream.
//
// The figure benches measure one traversal; bench_throughput measures a
// closed query loop. This bench measures the *service* path end to end:
// paced open-loop arrivals into the bounded admission queue, wave
// coalescing (concurrent single-source requests riding one MS-BFS
// wave), per-request latency as the caller sees it (queue wait + run),
// and the outcome mix — with and without injected faults at the
// service sites.
//
// Series params: batching (0 = batch_max_roots 1, every request runs
// alone; 1 = batch_max_roots 64, wave coalescing on) x faults (0 =
// clean run, 1 = service fault sites armed at p=1e-3). CI guards the
// clean runs via check_bench_json.py: a faults=0 series must report
// zero degraded and zero shed requests — degradation is a fault
// response, never a steady-state behaviour.

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "report.hpp"
#include "runtime/fault.hpp"
#include "runtime/prng.hpp"
#include "runtime/timer.hpp"
#include "service/graph_service.hpp"

namespace {

using namespace sge;
using namespace sge::bench;
using service::GraphService;
using service::QueryResult;
using service::ServiceOptions;

constexpr int kRequests = 512;
constexpr int kBurst = 32;  // arrivals per pacing tick

double percentile(std::vector<double>& sorted_ms, double p) {
    if (sorted_ms.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted_ms.size() - 1));
    return sorted_ms[rank];
}

}  // namespace

int main() {
    banner("GraphService: open-loop query stream, coalescing and degradation",
           "Section I semantic-graph query services");

    BenchReport report("bench_service", "service throughput");
    report.set_topology("emulated 2x2");
    report.set_workload("rmat", scaled(1 << 12));

    const std::uint64_t n = scaled(1 << 12);
    const CsrGraph graph = rmat_graph(n, 8 * n, 21);

    Table table({"batching", "faults", "queries/s", "p50 ms", "p99 ms",
                 "completed", "degraded", "cancelled", "shed", "waves"});

    for (const bool batching : {false, true}) {
        for (const bool faults : {false, true}) {
            fault::disarm_all();
            if (faults) {
                fault::reseed(7);
                for (const fault::Site site :
                     {fault::Site::kServiceSubmit, fault::Site::kServiceFlush,
                      fault::Site::kServiceWorker})
                    fault::arm(site,
                               fault::Trigger{.probability = 1e-3, .nth = 0});
            }

            ServiceOptions options;
            options.bfs.engine = BfsEngine::kBitmap;
            options.bfs.threads = 4;
            options.bfs.topology = Topology::emulate(2, 2, 1);
            options.workers = 2;
            // Large enough for the whole stream: a clean run must never
            // shed (check_bench_json.py guards faults=0 => shed == 0).
            options.queue_capacity = kRequests;
            // One root per pop never forms a wave.
            options.batch_max_roots = batching ? 64 : 1;
            options.batch_window_seconds = 0.0005;
            GraphService svc(graph, options);

            // Paced open loop: bursts of arrivals on a fixed tick,
            // independent of completions (queueing shows up as wait
            // time, overload as shed — never as a stalled producer).
            Xoshiro256 rng(987654);
            std::vector<std::future<QueryResult>> futures;
            futures.reserve(kRequests);
            WallTimer timer;
            for (int i = 0; i < kRequests; ++i) {
                const auto root =
                    static_cast<vertex_t>(rng.next_below(graph.num_vertices()));
                futures.push_back(svc.submit(root).result);
                if ((i + 1) % kBurst == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
            }

            std::vector<double> latencies_ms;
            latencies_ms.reserve(futures.size());
            for (auto& f : futures)
                latencies_ms.push_back(f.get().latency_seconds() * 1e3);
            const double seconds = timer.seconds();
            svc.stop();

            std::sort(latencies_ms.begin(), latencies_ms.end());
            const double qps =
                seconds > 0 ? kRequests / seconds : 0.0;
            const double p50 = percentile(latencies_ms, 0.50);
            const double p99 = percentile(latencies_ms, 0.99);

            const auto& c = svc.counters();
            table.add_row({batching ? "on" : "off", faults ? "on" : "off",
                           fmt("%.0f", qps), fmt("%.3f", p50),
                           fmt("%.3f", p99), fmt_u64(c.completed.load()),
                           fmt_u64(c.degraded.load()),
                           fmt_u64(c.cancelled.load()), fmt_u64(c.shed.load()),
                           fmt_u64(c.waves.load())});

            report.add(
                std::string("rmat/") + (batching ? "waves" : "single"),
                {{"vertices", static_cast<std::int64_t>(graph.num_vertices())},
                 {"workers", options.workers},
                 {"threads", options.bfs.threads},
                 {"batching", batching ? 1 : 0},
                 {"faults", faults ? 1 : 0}},
                {{"queries_per_second", qps},
                 {"p50_ms", p50},
                 {"p99_ms", p99},
                 {"completed", static_cast<double>(c.completed.load())},
                 {"degraded", static_cast<double>(c.degraded.load())},
                 {"cancelled", static_cast<double>(c.cancelled.load())},
                 {"shed", static_cast<double>(c.shed.load())},
                 {"batched", static_cast<double>(c.batched.load())},
                 {"waves", static_cast<double>(c.waves.load())}});
        }
    }
    fault::disarm_all();

    table.print();
    std::printf("\n%d paced open-loop requests per cell (bursts of %d); "
                "latency = queue wait + run\nas the caller observes it. "
                "faults=on arms the service sites at p=1e-3.\n",
                kRequests, kBurst);
    report.write();
    return 0;
}
