// Atomic-free frontier generation (src/core/frontier_compact.hpp,
// src/runtime/simd_scan.hpp): serial-equivalent levels and valid trees
// across every engine, the compactor's exact-cover
// prefix-sum property, SIMD-vs-scalar word-scan equality (including
// tail words), and the counter invariants documented in
// docs/OBSERVABILITY.md.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "core/frontier_compact.hpp"
#include "core/validate.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "runtime/simd_scan.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

CsrGraph skewed_graph() {
    RmatParams params;
    params.scale = 10;
    params.num_edges = 1 << 13;
    params.seed = 7;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 11);
    return csr_from_edges(edges);
}

// ---------------------------------------------------------------------
// FrontierCompactor: prefix-sum exact-cover property.
// ---------------------------------------------------------------------

TEST(FrontierCompactor, OffsetsAreExclusivePrefixSums) {
    FrontierCompactor fc;
    fc.configure(5, std::size_t{64});
    const std::size_t counts[] = {3, 0, 7, 1, 5};
    for (int t = 0; t < 5; ++t) fc.publish(t, counts[t]);
    std::size_t at = 0;
    for (int t = 0; t < 5; ++t) {
        EXPECT_EQ(fc.offset_of(t), at) << "claimant " << t;
        at += counts[t];
    }
    EXPECT_EQ(fc.total(), at);
    EXPECT_EQ(fc.total(), std::size_t{16});
}

TEST(FrontierCompactor, CopyOutTilesDestinationExactlyOnce) {
    // Staged segments must land contiguously, in claimant order, with
    // no gaps or overlaps: sum(compact_writes) == |NQ| by construction.
    FrontierCompactor fc;
    fc.configure(4, std::size_t{32});
    std::mt19937 rng(99);
    std::vector<std::vector<vertex_t>> staged(4);
    std::size_t total = 0;
    for (int t = 0; t < 4; ++t) {
        const std::size_t cnt = rng() % 33;
        for (std::size_t i = 0; i < cnt; ++i) {
            const auto v = static_cast<vertex_t>(1000 * t + i);
            fc.buffer(t)[i] = v;
            staged[static_cast<std::size_t>(t)].push_back(v);
        }
        fc.publish(t, cnt);
        total += cnt;
    }
    std::vector<vertex_t> dst(total, kInvalidVertex);
    std::size_t copied = 0;
    for (int t = 0; t < 4; ++t) copied += fc.copy_out(t, dst.data());
    EXPECT_EQ(copied, total);
    std::vector<vertex_t> expected;
    for (const auto& seg : staged)
        expected.insert(expected.end(), seg.begin(), seg.end());
    EXPECT_EQ(dst, expected);
}

TEST(FrontierCompactor, GroupedOffsetsAreRelativeToOwnGroup) {
    // Multisocket layout: claimants 0,2 feed group 0 and 1,3 feed group
    // 1; each group's offsets restart at zero (one queue per socket).
    FrontierCompactor fc;
    fc.configure(4, {16, 16, 16, 16}, {0, 1, 0, 1});
    const std::size_t counts[] = {4, 9, 6, 2};
    for (int t = 0; t < 4; ++t) fc.publish(t, counts[t]);
    EXPECT_EQ(fc.offset_of(0), 0u);
    EXPECT_EQ(fc.offset_of(2), 4u);
    EXPECT_EQ(fc.offset_of(1), 0u);
    EXPECT_EQ(fc.offset_of(3), 9u);
    EXPECT_EQ(fc.group_total(0), 10u);
    EXPECT_EQ(fc.group_total(1), 11u);
    EXPECT_EQ(fc.total(), 21u);
}

TEST(FrontierCompactor, ResetZeroesCountsButKeepsShape) {
    FrontierCompactor fc;
    fc.configure(3, std::size_t{8});
    for (int t = 0; t < 3; ++t) fc.publish(t, 5);
    EXPECT_EQ(fc.total(), 15u);
    fc.reset();
    EXPECT_EQ(fc.total(), 0u);
    EXPECT_EQ(fc.claimants(), 3);
    EXPECT_EQ(fc.buffer_capacity(0), 8u);
}

// ---------------------------------------------------------------------
// SIMD word scans: the AVX2 path must report exactly the scalar path's
// (word, mask) sequence on random bitmaps, including the tail words.
// ---------------------------------------------------------------------

using WordHits = std::vector<std::pair<std::size_t, std::uint64_t>>;

WordHits scan_unvisited(const std::vector<std::atomic<std::uint64_t>>& words,
                        std::size_t wlo, std::size_t whi, simd::IsaLevel isa,
                        std::uint64_t& scanned) {
    WordHits hits;
    simd::for_each_unvisited_word(
        words.data(), wlo, whi, isa, scanned,
        [&](std::size_t i, std::uint64_t m) { hits.emplace_back(i, m); });
    return hits;
}

std::vector<std::atomic<std::uint64_t>> random_bitmap_words(std::size_t n,
                                                            std::uint64_t seed) {
    // Mix of empty, full and partial words — every class the scanner
    // treats differently. Full words come in runs, so the vector skip
    // gets whole groups of four to jump.
    std::vector<std::atomic<std::uint64_t>> words(n);
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng() % 4) {
            case 0: words[i] = 0; break;
            case 1:
            case 2: words[i] = ~std::uint64_t{0}; break;
            default: words[i] = rng(); break;
        }
    }
    return words;
}

TEST(SimdScan, UnvisitedWordsMatchScalarOnRandomBitmaps) {
    if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{5}, std::size_t{7},
                                std::size_t{8}, std::size_t{64},
                                std::size_t{65}, std::size_t{1000}}) {
        const auto words = random_bitmap_words(n, 17 * n);
        // Whole range plus offset sub-ranges (odd boundaries leave a
        // scalar tail after the vector blocks).
        for (const std::size_t wlo : {std::size_t{0}, n / 3}) {
            for (const std::size_t whi : {n, n - n / 4}) {
                std::uint64_t scanned_scalar = 0;
                std::uint64_t scanned_avx2 = 0;
                const WordHits scalar =
                    scan_unvisited(words, wlo, whi, simd::IsaLevel::kScalar,
                                   scanned_scalar);
                const WordHits avx2 = scan_unvisited(
                    words, wlo, whi, simd::IsaLevel::kAvx2, scanned_avx2);
                SCOPED_TRACE("n=" + std::to_string(n) +
                             " wlo=" + std::to_string(wlo) +
                             " whi=" + std::to_string(whi));
                EXPECT_EQ(scalar, avx2);
                EXPECT_EQ(scanned_scalar, whi > wlo ? whi - wlo : 0);
                EXPECT_EQ(scanned_avx2, whi > wlo ? whi - wlo : 0);
                // Every reported mask is the word's clear slots.
                for (const auto& [i, m] : scalar) EXPECT_EQ(m, ~words[i].load());
            }
        }
    }
}

TEST(SimdScan, NonzeroWordsMatchScalarIncludingTails) {
    if (!simd::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{4}, std::size_t{5}, std::size_t{100},
          std::size_t{101}, std::size_t{102}, std::size_t{103}}) {
        std::vector<std::uint64_t> words(n);
        std::mt19937_64 rng(5 * n);
        for (auto& w : words) w = (rng() % 3 == 0) ? rng() : 0;
        const auto run = [&](simd::IsaLevel isa) {
            std::vector<std::pair<std::size_t, std::uint64_t>> hits;
            std::uint64_t scanned = 0;
            simd::for_each_nonzero_u64(
                words.data(), 0, n, isa, scanned,
                [&](std::size_t i, std::uint64_t v) {
                    hits.emplace_back(i, v);
                });
            return std::pair{std::move(hits), scanned};
        };
        SCOPED_TRACE("n=" + std::to_string(n));
        EXPECT_EQ(run(simd::IsaLevel::kScalar), run(simd::IsaLevel::kAvx2));
    }
}

// ---------------------------------------------------------------------
// End-to-end: every engine and graph shape reproduces the serial
// levels, and its parents form a valid tree.
// ---------------------------------------------------------------------

TEST(CompactFrontier, AllEnginesMatchSerial) {
    const CsrGraph graphs[] = {skewed_graph(), test::star_graph(257),
                               test::path_graph(200), test::two_cliques(40)};
    const BfsEngine engines[] = {BfsEngine::kNaive, BfsEngine::kBitmap,
                                 BfsEngine::kMultiSocket, BfsEngine::kHybrid};
    for (const CsrGraph& g : graphs) {
        const BfsResult reference = bfs(g, 0, {});  // serial
        for (const BfsEngine engine : engines) {
            BfsOptions options;
            options.engine = engine;
            options.threads = 4;
            options.topology = Topology::emulate(2, 2, 1);
            SCOPED_TRACE(to_string(engine));
            const BfsResult r = bfs(g, 0, options);
            EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
            test::expect_equivalent(reference, r);
            // Levels are deterministic: bit-identical to serial.
            EXPECT_EQ(reference.level, r.level);
        }
    }
}

TEST(CompactFrontier, HybridForcedFlipMatchesSerial) {
    // Force the direction flip (tiny alpha/beta make the heuristic
    // eager) so the vectorized bottom-up sweep runs and the queue it
    // compacts feeds the top-down levels after it, then compare against
    // the serial levels.
    const CsrGraph g = skewed_graph();
    BfsOptions options;
    options.engine = BfsEngine::kHybrid;
    options.threads = 4;
    options.topology = Topology::emulate(2, 2, 1);
    options.hybrid_alpha = 1.0;
    options.hybrid_beta = 1e6;  // flip early, convert back late
    options.collect_stats = true;
    const BfsResult r = bfs(g, 0, options);
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
    const BfsResult reference = bfs(g, 0, {});
    test::expect_equivalent(reference, r);
    EXPECT_EQ(reference.level, r.level);
    // The flip really happened: bottom-up levels stop at the first
    // frontier parent, so they scan fewer arcs than the visited degrees.
    std::uint64_t scanned = 0;
    for (const BfsLevelStats& s : r.level_stats) scanned += s.edges_scanned;
    EXPECT_LT(scanned, r.edges_traversed);
}

// ---------------------------------------------------------------------
// Counter invariants.
// ---------------------------------------------------------------------

TEST(CompactFrontier, CompactWritesCoverEveryDiscoveryExactlyOnce) {
    // With the forced flips below, the hybrid goes bottom-up for one
    // level on skewed_graph, and for two in a row on an R-MAT twice its
    // size: the second of those levels follows no top-down one.
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 7;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 11);
    struct Case {
        CsrGraph g;
        const char* bottom_up;  // a run of the hybrid's level directions
    };
    const Case cases[] = {{skewed_graph(), "TB"},
                          {csr_from_edges(edges), "BB"}};
    const BfsEngine engines[] = {BfsEngine::kNaive, BfsEngine::kBitmap,
                                 BfsEngine::kMultiSocket, BfsEngine::kHybrid};
    for (const auto& [g, bottom_up] : cases) {
        for (const BfsEngine engine : engines) {
            BfsOptions options;
            options.engine = engine;
            options.threads = 4;
            options.topology = Topology::emulate(2, 2, 1);
            options.hybrid_alpha = 1.0;
            options.hybrid_beta = 4.0;
            options.collect_stats = true;
            const BfsResult result = bfs(g, 0, options);
            SCOPED_TRACE(to_string(engine) + " on " +
                         std::to_string(g.num_vertices()) + " vertices");
            ASSERT_FALSE(result.level_stats.empty());
            std::uint64_t writes = 0;
            std::uint64_t wins = 0;
            std::string dirs;
            for (std::size_t d = 0; d < result.level_stats.size(); ++d) {
                const BfsLevelStats& s = result.level_stats[d];
                writes += s.compact_writes;
                wins += s.atomic_wins;
                dirs += s.simd_words_scanned != 0 ? 'B' : 'T';
                // Level d's copy-out builds level d+1's frontier.
                if (d + 1 < result.level_stats.size()) {
                    EXPECT_EQ(s.compact_writes,
                              result.level_stats[d + 1].frontier_size)
                        << "level " << d;
                }
            }
            // sum(compact_writes) == |NQ| summed over levels: every
            // discovery lands in a next-queue exactly once (the root is
            // seeded, not discovered), and every non-root vertex is
            // claimed exactly once.
            EXPECT_EQ(writes, result.vertices_visited - 1);
            EXPECT_EQ(wins, result.vertices_visited - 1);
            if (engine == BfsEngine::kHybrid) {
                EXPECT_NE(dirs.find(bottom_up), std::string::npos) << dirs;
            }
        }
    }
}

TEST(CompactFrontier, HybridCompactCountsSimdWordsInBottomUpLevels) {
    const CsrGraph g = skewed_graph();
    BfsOptions options;
    options.engine = BfsEngine::kHybrid;
    options.threads = 4;
    options.topology = Topology::emulate(2, 2, 1);
    options.hybrid_alpha = 1.0;
    options.hybrid_beta = 4.0;
    options.collect_stats = true;
    const BfsResult result = bfs(g, 0, options);
    // Top-down levels scan no words. Each bottom-up level sweeps every
    // visited word once, ceil(n/64) in all: its claims are cut at cache
    // lines, so none shares a word with another. A flip scans nothing
    // more, since both directions hand over the same queue.
    const std::uint64_t words = (g.num_vertices() + 63) / 64;
    const std::vector<BfsLevelStats>& levels = result.level_stats;
    std::size_t bottom_up = 0;
    for (std::size_t d = 0; d < levels.size(); ++d) {
        if (levels[d].simd_words_scanned == 0) continue;
        ++bottom_up;
        EXPECT_EQ(levels[d].simd_words_scanned, words) << "level " << d;
    }
    // At least one bottom-up level ran (alpha=1 flips on the first
    // explosive level).
    EXPECT_GT(bottom_up, 0u);
}

}  // namespace
}  // namespace sge
