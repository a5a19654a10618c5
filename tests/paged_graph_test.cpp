#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "core/msbfs.hpp"
#include "core/validate.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/fault.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using test::expect_equivalent;

// ---------------------------------------------------------------------
// Round-trips: the paged container must reproduce the source adjacency
// exactly, for both payload formats.
// ---------------------------------------------------------------------

class PagedGraphTest : public ::testing::Test {
  protected:
    void SetUp() override {
        // Per-process dir: ctest -j runs each test in its own process.
        dir_ = std::filesystem::temp_directory_path() /
               ("sge_pgr_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    /// Overwrites 8 bytes at `offset` in the manifest: payload_kind is
    /// at 8, n at 16, m at 24, payload_bytes at 32, stripe_bytes at 40,
    /// num_stripes at 48 (after the 8-byte magic); byte_offsets follow
    /// at 56.
    static void poke_u64(const std::string& file, std::streamoff offset,
                         std::uint64_t value) {
        std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(offset);
        f.write(reinterpret_cast<const char*>(&value), sizeof(value));
        ASSERT_TRUE(f.good());
    }

    std::filesystem::path dir_;
};

void expect_same_adjacency(const CsrGraph& g, const PagedGraph& p) {
    ASSERT_EQ(p.num_vertices(), g.num_vertices());
    ASSERT_EQ(p.num_edges(), g.num_edges());
    EXPECT_TRUE(p.well_formed());
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(p.degree(v), g.degree(v)) << "degree differs at " << v;
        std::vector<vertex_t> got;
        p.neighbors_for_each(v, [&](vertex_t w) { got.push_back(w); });
        const auto want = g.neighbors(v);
        ASSERT_EQ(got.size(), want.size()) << "row size differs at " << v;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "row " << v << " slot " << i;
    }
}

TEST_F(PagedGraphTest, RoundTripBothPayloads) {
    RmatParams params;
    params.scale = 10;
    params.num_edges = 8192;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    for (const PagedPayload kind :
         {PagedPayload::kPlainTargets, PagedPayload::kVarintBlob}) {
        PagedWriteOptions wopts;
        wopts.payload = kind;
        wopts.stripe_bytes = 1 << 12;  // many stripes on a small graph
        const PagedGraph p =
            make_paged(g, path(to_string(kind).c_str()), wopts);
        SCOPED_TRACE(to_string(kind));
        expect_same_adjacency(g, p);
        EXPECT_EQ(p.payload(), kind);
        // The resident footprint must exclude the payload entirely.
        EXPECT_EQ(p.memory_bytes(),
                  (g.num_vertices() + 1) * sizeof(edge_offset_t) +
                      g.num_vertices() * sizeof(vertex_t));
    }
}

TEST_F(PagedGraphTest, RoundTripFromCompressedGraph) {
    const CsrGraph g = test::two_cliques(17);
    const CompressedCsrGraph z = csr_compress(g);
    write_paged_graph(z, path("z.pgr"));
    const PagedGraph p = open_paged_graph(path("z.pgr"));
    EXPECT_EQ(p.payload(), PagedPayload::kVarintBlob);
    EXPECT_EQ(p.payload_bytes(), z.blob().size());
    expect_same_adjacency(g, p);
}

TEST_F(PagedGraphTest, RoundTripEmptyAndEdgelessGraphs) {
    const PagedGraph empty = make_paged(csr_from_edges(EdgeList(0)),
                                        path("empty.pgr"));
    EXPECT_EQ(empty.num_vertices(), 0u);
    EXPECT_EQ(empty.num_edges(), 0u);
    EXPECT_TRUE(empty.well_formed());

    const PagedGraph edgeless =
        make_paged(csr_from_edges(EdgeList(64)), path("edgeless.pgr"));
    EXPECT_EQ(edgeless.num_vertices(), 64u);
    EXPECT_EQ(edgeless.num_edges(), 0u);
    EXPECT_EQ(edgeless.payload_bytes(), 0u);
    EXPECT_TRUE(edgeless.well_formed());
}

TEST_F(PagedGraphTest, RowsSpanStripeBoundariesTransparently) {
    // One 4 KiB stripe holds 1024 plain targets; a star of 4000 leaves
    // forces the hub row across four stripes.
    const CsrGraph g = test::star_graph(4001);
    PagedWriteOptions wopts;
    wopts.stripe_bytes = 1 << 12;
    const PagedGraph p = make_paged(g, path("star.pgr"), wopts);
    expect_same_adjacency(g, p);
    EXPECT_GT(std::filesystem::file_size(path("star.pgr.s0001")), 0u);
}

TEST_F(PagedGraphTest, OwnsFilesUnlinksOnDestruction) {
    const CsrGraph g = test::path_graph(64);
    PagedOpenOptions oopts;
    oopts.owns_files = true;
    {
        write_paged_graph(g, path("own.pgr"));
        const PagedGraph p = open_paged_graph(path("own.pgr"), oopts);
        EXPECT_TRUE(std::filesystem::exists(path("own.pgr")));
    }
    EXPECT_FALSE(std::filesystem::exists(path("own.pgr")));
    EXPECT_FALSE(std::filesystem::exists(path("own.pgr.s0000")));
}

TEST_F(PagedGraphTest, RemovePagedFilesSweepsStripes) {
    const CsrGraph g = test::star_graph(4001);
    PagedWriteOptions wopts;
    wopts.stripe_bytes = 1 << 12;
    write_paged_graph(g, path("rm.pgr"), wopts);
    ASSERT_TRUE(std::filesystem::exists(path("rm.pgr.s0003")));
    remove_paged_files(path("rm.pgr"));
    EXPECT_FALSE(std::filesystem::exists(path("rm.pgr")));
    EXPECT_FALSE(std::filesystem::exists(path("rm.pgr.s0000")));
    EXPECT_FALSE(std::filesystem::exists(path("rm.pgr.s0003")));
}

// ---------------------------------------------------------------------
// Hostile files: every corruption is a typed PagedIoError at open,
// never UB or a wrong traversal.
// ---------------------------------------------------------------------

TEST_F(PagedGraphTest, RejectsBadMagicAndMissingFile) {
    std::ofstream out(path("bad.pgr"), std::ios::binary);
    out << "NOTPAGED and then some garbage bytes";
    out.close();
    EXPECT_THROW((void)open_paged_graph(path("bad.pgr")), PagedIoError);
    EXPECT_THROW((void)open_paged_graph(path("nope.pgr")), PagedIoError);
}

TEST_F(PagedGraphTest, RejectsTruncatedManifest) {
    write_paged_graph(test::path_graph(64), path("t.pgr"));
    const auto full = std::filesystem::file_size(path("t.pgr"));
    std::filesystem::resize_file(path("t.pgr"), full - 5);
    EXPECT_THROW((void)open_paged_graph(path("t.pgr")), PagedIoError);
    std::filesystem::resize_file(path("t.pgr"), 20);  // cut mid-header
    EXPECT_THROW((void)open_paged_graph(path("t.pgr")), PagedIoError);
}

TEST_F(PagedGraphTest, RejectsCorruptHeaderFieldsBeforeAllocation) {
    const CsrGraph g = test::path_graph(32);

    write_paged_graph(g, path("h.pgr"));
    poke_u64(path("h.pgr"), 8, 7);  // unknown payload kind
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);

    write_paged_graph(g, path("h.pgr"));
    poke_u64(path("h.pgr"), 16, std::uint64_t{1} << 61);  // n: huge
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);
    poke_u64(path("h.pgr"), 16, kInvalidVertex);  // n: the sentinel
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);

    write_paged_graph(g, path("h.pgr"));
    poke_u64(path("h.pgr"), 24, std::uint64_t{1} << 61);  // m: huge
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);
    poke_u64(path("h.pgr"), 24, g.num_edges() + 1);  // m: degree-sum lies
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);

    write_paged_graph(g, path("h.pgr"));
    poke_u64(path("h.pgr"), 32, std::uint64_t{1} << 61);  // payload_bytes
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);

    write_paged_graph(g, path("h.pgr"));
    poke_u64(path("h.pgr"), 40, 123);  // stripe_bytes: not a page multiple
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);

    write_paged_graph(g, path("h.pgr"));
    poke_u64(path("h.pgr"), 48, 99);  // num_stripes: wrong
    EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError);
}

TEST_F(PagedGraphTest, RejectsOffsetPastPayloadEof) {
    const CsrGraph g = test::path_graph(32);
    write_paged_graph(g, path("o.pgr"));
    // byte_offsets[1] (at 56 + 8) pushed past payload_bytes: the open
    // validation must reject it before any scan could fault past the
    // mapping.
    poke_u64(path("o.pgr"), 56 + 8, std::uint64_t{1} << 40);
    EXPECT_THROW((void)open_paged_graph(path("o.pgr")), PagedIoError);
}

TEST_F(PagedGraphTest, RejectsMissingTruncatedAndOversizedStripes) {
    const CsrGraph g = test::star_graph(4001);
    PagedWriteOptions wopts;
    wopts.stripe_bytes = 1 << 12;

    write_paged_graph(g, path("s.pgr"), wopts);
    std::filesystem::remove(path("s.pgr.s0002"));
    EXPECT_THROW((void)open_paged_graph(path("s.pgr")), PagedIoError);

    write_paged_graph(g, path("s.pgr"), wopts);
    std::filesystem::resize_file(path("s.pgr.s0001"), 100);
    EXPECT_THROW((void)open_paged_graph(path("s.pgr")), PagedIoError);

    write_paged_graph(g, path("s.pgr"), wopts);
    std::ofstream app(path("s.pgr.s0000"), std::ios::binary | std::ios::app);
    app << "extra";
    app.close();
    EXPECT_THROW((void)open_paged_graph(path("s.pgr")), PagedIoError);
}

TEST_F(PagedGraphTest, RejectsUnreadableStripe) {
    // Root ignores permission bits, so simulate "unreadable" with a
    // directory in the stripe's place: stat size mismatches (or the map
    // fails) — either way a typed error, never UB.
    const CsrGraph g = test::path_graph(64);
    write_paged_graph(g, path("u.pgr"));
    std::filesystem::remove(path("u.pgr.s0000"));
    std::filesystem::create_directory(path("u.pgr.s0000"));
    EXPECT_THROW((void)open_paged_graph(path("u.pgr")), PagedIoError);
}

TEST_F(PagedGraphTest, RejectsCorruptVarintPayloadViaValidation) {
    const CsrGraph g = test::path_graph(32);
    PagedWriteOptions wopts;
    wopts.payload = PagedPayload::kVarintBlob;
    write_paged_graph(g, path("v.pgr"), wopts);
    // Set a continuation bit in the last payload byte: sizes all check
    // out, only the bounds-checked decode can catch it.
    const std::string stripe = path("v.pgr.s0000");
    const auto size = std::filesystem::file_size(stripe);
    // The stripe is the exact payload length (last stripe, short).
    std::fstream f(stripe, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size - 1));
    char last = 0;
    f.get(last);
    f.seekp(static_cast<std::streamoff>(size - 1));
    f.put(static_cast<char>(static_cast<unsigned char>(last) | 0x80u));
    f.close();
    EXPECT_THROW((void)open_paged_graph(path("v.pgr")), PagedIoError);

    // With validation off the open succeeds but well_formed reports it.
    PagedOpenOptions oopts;
    oopts.validate_payload = false;
    oopts.prefetch = false;
    const PagedGraph p = open_paged_graph(path("v.pgr"), oopts);
    EXPECT_FALSE(p.well_formed());

    // Rows whose values end in place but run past the codec's kMaxBytes
    // (a gap wrapping 2^64, bits above it) fail the same validation.
    for (const auto& row : test::kHostileVarintRows) {
        write_paged_graph(test::hostile_varint_graph(row), path("h.pgr"));
        EXPECT_THROW((void)open_paged_graph(path("h.pgr")), PagedIoError)
            << row.size() << "-byte row accepted";
    }
}

// ---------------------------------------------------------------------
// Fault injection: SGE_FAULT_PAGED_READ.
// ---------------------------------------------------------------------

class PagedFaultTest : public PagedGraphTest {
  protected:
    void SetUp() override {
        PagedGraphTest::SetUp();
        fault::disarm_all();
    }
    void TearDown() override {
        fault::disarm_all();
        PagedGraphTest::TearDown();
    }
};

TEST_F(PagedFaultTest, OpenFailsWithTypedError) {
    write_paged_graph(test::path_graph(64), path("f.pgr"));
    fault::arm(fault::Site::kPagedRead, fault::Trigger{.nth = 1});
    EXPECT_THROW((void)open_paged_graph(path("f.pgr")), PagedIoError);
    fault::disarm_all();
    EXPECT_NO_THROW((void)open_paged_graph(path("f.pgr")));
}

TEST_F(PagedFaultTest, PrefetchFailureDegradesNeverWrongTraversal) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 5;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const PagedGraph p = make_paged(g, path("pf.pgr"));

    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);

    // Every background prefetch range hits the fault and is skipped;
    // the demand-fault path must still produce the exact traversal.
    fault::arm(fault::Site::kPagedRead,
               fault::Trigger{.probability = 1.0, .nth = 0});
    const BfsResult faulty = bfs(p, 0, opts);
    fault::disarm_all();
    p.prefetch_quiesce();

    const BfsResult clean = bfs(g, 0, opts);
    expect_equivalent(clean, faulty);
    EXPECT_TRUE(validate_bfs_tree(g, 0, faulty).ok);
}

// ---------------------------------------------------------------------
// Eviction, prefetch counters.
// ---------------------------------------------------------------------

TEST_F(PagedGraphTest, EvictDropsResidencyAndRetraversalAgrees) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 7;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const PagedGraph p = make_paged(g, path("e.pgr"));

    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    const BfsResult before = bfs(p, 0, opts);
    p.prefetch_quiesce();
    EXPECT_GT(p.resident_payload_bytes(), 0u);

    p.evict();
    EXPECT_EQ(p.resident_payload_bytes(), 0u);

    const BfsResult after = bfs(p, 0, opts);
    expect_equivalent(before, after);
}

TEST_F(PagedGraphTest, PrefetchCountersHoldInvariants) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 9;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const PagedGraph p = make_paged(g, path("c.pgr"));
    ASSERT_TRUE(p.prefetch_enabled());

    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    (void)bfs(p, 0, opts);
    p.prefetch_quiesce();

    const PagedIoStats& stats = p.io_stats();
    const std::uint64_t issued =
        stats.prefetch_issued.load(std::memory_order_relaxed);
    const std::uint64_t hits =
        stats.prefetch_hits.load(std::memory_order_relaxed);
    EXPECT_GT(issued, 0u) << "multi-level BFS should trigger prefetch";
    EXPECT_LE(hits, issued);
    EXPECT_GT(stats.stripe_reads.load(std::memory_order_relaxed), 0u);
    EXPECT_GE(stats.bytes_mapped.load(std::memory_order_relaxed),
              p.payload_bytes());
}

TEST_F(PagedGraphTest, PrefetchOffNeverStartsWorker) {
    const CsrGraph g = test::path_graph(64);
    write_paged_graph(g, path("np.pgr"));
    PagedOpenOptions oopts;
    oopts.prefetch = false;
    const PagedGraph p = open_paged_graph(path("np.pgr"), oopts);
    EXPECT_FALSE(p.prefetch_enabled());
    p.prefetch_frontier(nullptr, 0);  // no-op, no crash
    p.prefetch_quiesce();
    const BfsResult r = bfs(p, 0, BfsOptions{});
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
}

// ---------------------------------------------------------------------
// Traversal equivalence: every engine cell from the compressed-backend
// matrix, re-run over PagedGraph with both payload formats — levels
// must be bit-identical to the plain in-memory backend.
// ---------------------------------------------------------------------

struct BackendConfig {
    BfsEngine engine;
    int threads;
    Topology topology;
    bool double_check;  // false: every visited claim is a locked RMW
    const char* label;
};

std::string backend_config_name(
    const ::testing::TestParamInfo<BackendConfig>& info) {
    return info.param.label;
}

class PagedEngineMatrix : public ::testing::TestWithParam<BackendConfig> {
  protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("sge_pgr_matrix_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    BfsOptions options() const {
        const BackendConfig& cfg = GetParam();
        BfsOptions opts;
        opts.engine = cfg.engine;
        opts.threads = cfg.threads;
        opts.topology = cfg.topology;
        opts.bitmap_double_check = cfg.double_check;
        // Small batches/rings exercise flush and spill paths.
        opts.batch_size = 8;
        opts.channel_capacity = 64;
        return opts;
    }

    /// Plain in-memory vs paged-plain vs paged-varint under the same
    /// engine config: identical levels/reachability, and the paged
    /// runs' trees must validate against the original graph.
    void check_backends_agree(const CsrGraph& g, vertex_t root) {
        const BfsResult plain = bfs(g, root, options());
        for (const PagedPayload kind :
             {PagedPayload::kPlainTargets, PagedPayload::kVarintBlob}) {
            SCOPED_TRACE(to_string(kind));
            PagedWriteOptions wopts;
            wopts.payload = kind;
            wopts.stripe_bytes = 1 << 12;
            const std::string file =
                (dir_ / (to_string(kind) + ".pgr")).string();
            const PagedGraph p = make_paged(g, file, wopts);
            const BfsResult paged = bfs(p, root, options());
            expect_equivalent(plain, paged);
            const ValidationReport report = validate_bfs_tree(g, root, paged);
            EXPECT_TRUE(report.ok) << report.error;
            p.prefetch_quiesce();
            EXPECT_LE(p.io_stats().prefetch_hits.load(),
                      p.io_stats().prefetch_issued.load());
        }
    }

    std::filesystem::path dir_;
};

TEST_P(PagedEngineMatrix, PathGraph) {
    check_backends_agree(test::path_graph(64), 0);
}

TEST_P(PagedEngineMatrix, StarGraph) {
    check_backends_agree(test::star_graph(257), 0);
}

TEST_P(PagedEngineMatrix, DisconnectedCliques) {
    check_backends_agree(test::two_cliques(13), 20);
}

TEST_P(PagedEngineMatrix, UniformRandomGraph) {
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 8;
    params.seed = 11;
    check_backends_agree(csr_from_edges(generate_uniform(params)), 5);
}

TEST_P(PagedEngineMatrix, RmatGraph) {
    RmatParams params;
    params.scale = 12;
    params.num_edges = 1 << 15;
    params.seed = 23;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 5);
    check_backends_agree(csr_from_edges(edges), 9);
}

// Rows suffixed _atomic turn the double-check off, so every visited
// claim is a locked RMW (the Figure 4/5 ablation). Rows named _2s_4t
// run on two emulated sockets: Algorithm 1, which claims with an
// unconditional CAS either way, and a global bitmap queue whose steal
// domain splits in two.
INSTANTIATE_TEST_SUITE_P(
    Backends, PagedEngineMatrix,
    ::testing::Values(
        BackendConfig{BfsEngine::kSerial, 1, Topology::emulate(1, 1, 1),
                      true, "serial"},
        BackendConfig{BfsEngine::kNaive, 4, Topology::emulate(1, 4, 1),
                      true, "naive_4t"},
        BackendConfig{BfsEngine::kNaive, 4, Topology::emulate(2, 2, 1),
                      false, "naive_2s_4t"},
        BackendConfig{BfsEngine::kBitmap, 4, Topology::emulate(1, 4, 1),
                      true, "bitmap_4t"},
        BackendConfig{BfsEngine::kBitmap, 4, Topology::emulate(1, 4, 1),
                      false, "bitmap_4t_atomic"},
        BackendConfig{BfsEngine::kBitmap, 4, Topology::emulate(2, 2, 1),
                      true, "bitmap_2s_4t"},
        BackendConfig{BfsEngine::kMultiSocket, 8, Topology::nehalem_ep(),
                      true, "multisocket_ep_8t"},
        BackendConfig{BfsEngine::kMultiSocket, 4, Topology::emulate(2, 2, 1),
                      false, "multisocket_2s_atomic"},
        BackendConfig{BfsEngine::kHybrid, 4, Topology::emulate(1, 4, 1),
                      true, "hybrid_4t"},
        BackendConfig{BfsEngine::kHybrid, 4, Topology::emulate(1, 4, 1),
                      false, "hybrid_4t_atomic"}),
    backend_config_name);

// The serial engine is deterministic, so the paged backend must
// reproduce the exact parent array, not just levels.
TEST_F(PagedGraphTest, SerialParentsBitIdentical) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 3;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    const BfsResult plain = bfs(g, 0, opts);
    for (const PagedPayload kind :
         {PagedPayload::kPlainTargets, PagedPayload::kVarintBlob}) {
        PagedWriteOptions wopts;
        wopts.payload = kind;
        const PagedGraph p =
            make_paged(g, path(to_string(kind).c_str()), wopts);
        const BfsResult paged = bfs(p, 0, opts);
        ASSERT_EQ(plain.parent.size(), paged.parent.size());
        for (std::size_t v = 0; v < plain.parent.size(); ++v)
            ASSERT_EQ(plain.parent[v], paged.parent[v])
                << to_string(kind) << " vertex " << v;
    }
}

TEST_F(PagedGraphTest, RunnerReusableAcrossPagedGraphs) {
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 4;
    opts.topology = Topology::emulate(2, 2, 1);
    BfsRunner runner(opts);

    const CsrGraph a = test::cycle_graph(101);
    const CsrGraph b = test::two_cliques(9);
    const PagedGraph pa = make_paged(a, path("a.pgr"));
    const PagedGraph pb = make_paged(b, path("b.pgr"));
    for (int round = 0; round < 2; ++round) {
        const BfsResult ra = runner.run(pa, 37);
        EXPECT_TRUE(validate_bfs_tree(a, 37, ra).ok);
        const BfsResult rb = runner.run(pb, 3);
        EXPECT_TRUE(validate_bfs_tree(b, 3, rb).ok);
    }
}

// ---------------------------------------------------------------------
// MS-BFS over the paged backend.
// ---------------------------------------------------------------------

TEST_F(PagedGraphTest, MsBfsLevelsMatchPlainBackend) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 6;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const PagedGraph p = make_paged(g, path("ms.pgr"));
    const std::vector<vertex_t> sources = {0, 17, 99, 1234};

    const auto run = [&](const auto& graph) {
        std::vector<std::vector<level_t>> levels(
            sources.size(),
            std::vector<level_t>(g.num_vertices(), kInvalidLevel));
        MsBfsOptions opts;
        opts.threads = 4;
        opts.topology = Topology::emulate(1, 4, 1);
        const std::uint32_t waves = multi_source_bfs(
            graph, sources,
            [&](int, level_t level, vertex_t v, std::uint64_t mask) {
                while (mask != 0) {
                    const int lane = std::countr_zero(mask);
                    mask &= mask - 1;
                    levels[static_cast<std::size_t>(lane)][v] = level;
                }
            },
            opts);
        return std::pair(waves, std::move(levels));
    };

    const auto [plain_waves, plain_levels] = run(g);
    const auto [paged_waves, paged_levels] = run(p);
    EXPECT_EQ(plain_waves, paged_waves);
    for (std::size_t lane = 0; lane < sources.size(); ++lane)
        for (vertex_t v = 0; v < g.num_vertices(); ++v)
            ASSERT_EQ(plain_levels[lane][v], paged_levels[lane][v])
                << "lane " << lane << " vertex " << v;
}

// ---------------------------------------------------------------------
// Observability: bytes_decoded on the paged backend counts payload
// bytes streamed from the mapping.
// ---------------------------------------------------------------------

using PagedGraphObs = PagedGraphTest;

TEST_F(PagedGraphObs, BytesStreamedMatchVisitedRowsExactly) {
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 8;
    params.seed = 13;
    const CsrGraph g = csr_from_edges(generate_uniform(params));

    for (const PagedPayload kind :
         {PagedPayload::kPlainTargets, PagedPayload::kVarintBlob}) {
        PagedWriteOptions wopts;
        wopts.payload = kind;
        const PagedGraph p =
            make_paged(g, path(to_string(kind).c_str()), wopts);

        BfsOptions opts;
        opts.engine = BfsEngine::kBitmap;
        opts.threads = 4;
        opts.topology = Topology::emulate(1, 4, 1);
        opts.collect_stats = true;
        const BfsResult r = bfs(p, 0, opts);

        std::uint64_t expected = 0;
        for (vertex_t v = 0; v < g.num_vertices(); ++v)
            if (r.parent[v] != kInvalidVertex) expected += p.row_bytes(v);
        std::uint64_t streamed = 0;
        for (const BfsLevelStats& s : r.level_stats)
            streamed += s.bytes_decoded;
        EXPECT_EQ(streamed, expected)
            << to_string(kind) << " byte accounting drifted";
    }
}

}  // namespace
}  // namespace sge
