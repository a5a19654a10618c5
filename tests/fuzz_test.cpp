// Randomized property tests: hundreds of generated cases per suite,
// each checked against a reference model or the serial oracle. Seeds
// are the parameter, so failures reproduce exactly.

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "concurrency/channel.hpp"
#include "concurrency/spsc_ring.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/small_world.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "runtime/prng.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

// ---------------------------------------------------------------------
// Builder fuzz: arbitrary edge lists, arbitrary build flags.
// ---------------------------------------------------------------------

class BuilderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuilderFuzz, CsrInvariantsHoldForArbitraryInput) {
    Xoshiro256 rng(GetParam());
    const auto n = static_cast<vertex_t>(1 + rng.next_below(2000));
    const std::size_t m = rng.next_below(5 * static_cast<std::uint64_t>(n));

    EdgeList edges(n);
    for (std::size_t e = 0; e < m; ++e)
        edges.add(static_cast<vertex_t>(rng.next_below(n)),
                  static_cast<vertex_t>(rng.next_below(n)));

    BuildOptions opts;
    opts.make_undirected = rng.next() & 1;
    opts.remove_self_loops = rng.next() & 1;
    opts.deduplicate = rng.next() & 1;
    opts.sort_neighbors = opts.deduplicate || (rng.next() & 1);

    const CsrGraph g = csr_from_edges(edges, opts);
    ASSERT_TRUE(g.well_formed());
    ASSERT_EQ(g.num_vertices(), n);

    if (opts.sort_neighbors) {
        for (vertex_t v = 0; v < n; ++v) {
            const auto adj = g.neighbors(v);
            ASSERT_TRUE(std::is_sorted(adj.begin(), adj.end())) << "vertex " << v;
        }
    }
    if (opts.deduplicate) {
        for (vertex_t v = 0; v < n; ++v) {
            const auto adj = g.neighbors(v);
            ASSERT_TRUE(std::adjacent_find(adj.begin(), adj.end()) == adj.end())
                << "duplicate neighbour at vertex " << v;
        }
    }
    if (opts.remove_self_loops) {
        for (vertex_t v = 0; v < n; ++v) ASSERT_FALSE(g.has_edge(v, v));
    }
    if (opts.make_undirected && opts.deduplicate) {
        for (vertex_t v = 0; v < n; ++v)
            for (const vertex_t w : g.neighbors(v))
                ASSERT_TRUE(g.has_edge(w, v)) << v << "-" << w;
    }
    if (!opts.make_undirected && !opts.deduplicate) {
        // Arc count is exact: input arcs minus removed self-loops.
        std::size_t expect = 0;
        for (const Edge& e : edges)
            expect += !(opts.remove_self_loops && e.src == e.dst);
        ASSERT_EQ(g.num_edges(), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderFuzz, ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------
// Engine fuzz: random graph family x random engine config vs the
// serial oracle.
// ---------------------------------------------------------------------

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllEnginesMatchSerialOnRandomWorkloads) {
    Xoshiro256 rng(GetParam() * 7919);

    // Random workload, symmetrized or left directed (unstamped: hybrid
    // must then stay top-down).
    BuildOptions build;
    build.make_undirected = rng.next() & 1;
    CsrGraph g;
    switch (rng.next_below(3)) {
        case 0: {
            UniformParams params;
            params.num_vertices = static_cast<vertex_t>(2 + rng.next_below(3000));
            params.degree = static_cast<std::uint32_t>(1 + rng.next_below(12));
            params.seed = rng.next();
            g = csr_from_edges(generate_uniform(params), build);
            break;
        }
        case 1: {
            RmatParams params;
            params.scale = static_cast<std::uint32_t>(6 + rng.next_below(6));
            params.num_edges = (2 + rng.next_below(14)) << params.scale;
            params.seed = rng.next();
            g = csr_from_edges(generate_rmat(params), build);
            break;
        }
        default: {
            SmallWorldParams params;
            params.num_vertices = static_cast<vertex_t>(16 + rng.next_below(3000));
            params.mean_degree = static_cast<std::uint32_t>(
                2 + rng.next_below(6));
            params.rewire_probability = rng.next_double();
            params.seed = rng.next();
            g = csr_from_edges(generate_small_world(params), build);
            break;
        }
    }
    const auto root = static_cast<vertex_t>(rng.next_below(g.num_vertices()));

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult expected = bfs(g, root, serial);

    // Random engine configuration.
    BfsOptions opts;
    const BfsEngine engines[] = {BfsEngine::kNaive, BfsEngine::kBitmap,
                                 BfsEngine::kMultiSocket, BfsEngine::kHybrid,
                                 BfsEngine::kAuto};
    opts.engine = engines[rng.next_below(5)];
    const int sockets = static_cast<int>(1 + rng.next_below(4));
    const int cores = static_cast<int>(1 + rng.next_below(4));
    opts.topology = Topology::emulate(sockets, cores, 1);
    opts.threads = static_cast<int>(1 + rng.next_below(
        static_cast<std::uint64_t>(sockets) * cores));
    opts.batch_size = 1 + rng.next_below(128);
    opts.chunk_size = 1 + rng.next_below(256);
    opts.channel_capacity = 2 + rng.next_below(512);
    opts.bitmap_double_check = rng.next() & 1;
    opts.remote_sender_filter = rng.next() & 1;
    const GraphBackend backends[] = {GraphBackend::kPlain,
                                     GraphBackend::kCompressed,
                                     GraphBackend::kPaged};
    opts.backend = backends[rng.next_below(3)];
    const SchedulePolicy schedules[] = {SchedulePolicy::kStatic,
                                        SchedulePolicy::kEdgeWeighted,
                                        SchedulePolicy::kStealing};
    opts.schedule = schedules[rng.next_below(3)];
    opts.collect_stats = rng.next() & 1;

    const BfsResult actual = bfs(g, root, opts);
    const std::string config =
        to_string(opts.engine) + " t=" + std::to_string(opts.threads) +
        " backend=" + to_string(opts.backend) +
        " schedule=" + to_string(opts.schedule) +
        " stats=" + std::to_string(opts.collect_stats) +
        " undirected=" + std::to_string(build.make_undirected);
    SCOPED_TRACE(config);
    test::expect_equivalent(expected, actual);
    const ValidationReport report = validate_bfs_tree(g, root, actual);
    ASSERT_TRUE(report.ok) << config << ": " << report.error;

    // Per-level accounting: every non-root vertex is claimed exactly
    // once, and every visited vertex is some level's frontier.
    if (opts.collect_stats && obs::compiled_in()) {
        std::uint64_t wins = 0;
        std::uint64_t frontier = 0;
        for (const BfsLevelStats& s : actual.level_stats) {
            wins += s.atomic_wins;
            frontier += s.frontier_size;
        }
        EXPECT_EQ(wins, actual.vertices_visited - 1);
        EXPECT_EQ(frontier, actual.vertices_visited);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------
// Channel fuzz: random push/pop sequences vs a deque model.
// ---------------------------------------------------------------------

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFuzz, DeliversEveryItemExactlyOnceUnderRandomBatches) {
    // The channel's contract is *set* delivery (see channel.hpp: global
    // FIFO is not guaranteed once the spill engages), so the model is a
    // pending-multiset, not a queue. Values are unique, so a plain set
    // of outstanding items suffices.
    Xoshiro256 rng(GetParam() * 104729);
    Channel<std::uint64_t, ~0ULL> channel(1 + rng.next_below(64));
    std::vector<bool> outstanding;  // outstanding[value]
    std::size_t outstanding_count = 0;

    std::uint64_t next_value = 0;
    std::vector<std::uint64_t> buf(256);
    const auto consume = [&](std::size_t got) {
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_LT(buf[i], next_value) << "value never pushed";
            ASSERT_TRUE(outstanding[buf[i]]) << "duplicate delivery";
            outstanding[buf[i]] = false;
            --outstanding_count;
        }
    };

    for (int step = 0; step < 2000; ++step) {
        if (rng.next() & 1) {
            const std::size_t count = 1 + rng.next_below(64);
            for (std::size_t i = 0; i < count; ++i) {
                buf[i] = next_value++;
                outstanding.push_back(true);
                ++outstanding_count;
            }
            channel.push_batch(buf.data(), count);
        } else {
            const std::size_t want = 1 + rng.next_below(64);
            const std::size_t got = channel.pop_batch(buf.data(), want);
            ASSERT_LE(got, want);
            // Single-threaded: empty result means genuinely drained.
            if (got == 0) {
                ASSERT_EQ(outstanding_count, 0u);
            }
            consume(got);
        }
    }
    for (;;) {
        const std::size_t got = channel.pop_batch(buf.data(), buf.size());
        if (got == 0) break;
        consume(got);
    }
    ASSERT_EQ(outstanding_count, 0u);
    ASSERT_EQ(channel.pushed(), channel.popped());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz, ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------
// SPSC ring fuzz: random interleavings vs a deque model.
// ---------------------------------------------------------------------

class SpscFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpscFuzz, MatchesQueueModel) {
    Xoshiro256 rng(GetParam() * 31337);
    SpscRing<std::uint64_t, ~0ULL> ring(1 + rng.next_below(32));
    std::deque<std::uint64_t> model;

    std::uint64_t next_value = 0;
    for (int step = 0; step < 5000; ++step) {
        if (rng.next() & 1) {
            const bool pushed = ring.try_push(next_value);
            if (pushed) {
                model.push_back(next_value);
                ++next_value;
            } else {
                ASSERT_EQ(model.size(), ring.capacity()) << "spurious full";
            }
        } else {
            const auto popped = ring.try_pop();
            if (popped) {
                ASSERT_FALSE(model.empty());
                ASSERT_EQ(*popped, model.front());
                model.pop_front();
            } else {
                ASSERT_TRUE(model.empty()) << "spurious empty";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpscFuzz, ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace sge
