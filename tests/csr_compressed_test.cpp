#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
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
#include "graph/io.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using test::expect_equivalent;

// ---------------------------------------------------------------------
// Varint codec.
// ---------------------------------------------------------------------

TEST(CompressedCsrCodec, VarintRoundTripBoundaries) {
    const std::uint64_t cases[] = {0,
                                   1,
                                   0x7f,
                                   0x80,
                                   0x3fff,
                                   0x4000,
                                   (std::uint64_t{1} << 21) - 1,
                                   std::uint64_t{1} << 21,
                                   (std::uint64_t{1} << 28) - 1,
                                   std::uint64_t{1} << 28,
                                   (std::uint64_t{1} << 35) - 1};
    for (const std::uint64_t v : cases) {
        std::uint8_t buf[varint::kMaxBytes];
        const std::size_t written = varint::encode_u64(v, buf);
        EXPECT_EQ(written, varint::encoded_size_u64(v)) << v;
        EXPECT_LE(written, varint::kMaxBytes) << v;
        std::uint64_t decoded = 0;
        const std::uint8_t* end = varint::decode_u64(buf, decoded);
        EXPECT_EQ(decoded, v);
        EXPECT_EQ(static_cast<std::size_t>(end - buf), written) << v;
    }
}

TEST(CompressedCsrCodec, VarintRoundTripRandom) {
    std::mt19937_64 rng(42);
    for (int i = 0; i < 2000; ++i) {
        // Mix magnitudes: pure uniform u64 over 35 bits plus small values.
        const std::uint64_t v =
            rng() & ((std::uint64_t{1} << (1 + rng() % 35)) - 1);
        std::uint8_t buf[varint::kMaxBytes];
        const std::size_t written = varint::encode_u64(v, buf);
        std::uint64_t decoded = 0;
        varint::decode_u64(buf, decoded);
        ASSERT_EQ(decoded, v);
        ASSERT_EQ(written, varint::encoded_size_u64(v));
    }
}

TEST(CompressedCsrCodec, ZigZagRoundTrip) {
    const std::int64_t cases[] = {0, -1, 1, -2, 2, 1000, -1000,
                                  static_cast<std::int64_t>(kInvalidVertex),
                                  -static_cast<std::int64_t>(kInvalidVertex)};
    for (const std::int64_t v : cases)
        EXPECT_EQ(varint::zigzag_decode(varint::zigzag_encode(v)), v);
    // The mapping interleaves signs by magnitude so small deltas of
    // either sign stay one byte.
    EXPECT_EQ(varint::zigzag_encode(0), 0u);
    EXPECT_EQ(varint::zigzag_encode(-1), 1u);
    EXPECT_EQ(varint::zigzag_encode(1), 2u);
    EXPECT_EQ(varint::zigzag_encode(-2), 3u);
}

// ---------------------------------------------------------------------
// Encode / decode round-trips.
// ---------------------------------------------------------------------

void expect_round_trip(const CsrGraph& g) {
    const CompressedCsrGraph z = csr_compress(g);
    ASSERT_TRUE(z.well_formed());
    EXPECT_EQ(z.num_vertices(), g.num_vertices());
    EXPECT_EQ(z.num_edges(), g.num_edges());
    for (vertex_t v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(z.degree(v), g.degree(v)) << "degree differs at " << v;
    EXPECT_TRUE(csr_decompress(z) == g);
}

TEST(CompressedCsrRoundTrip, EmptyGraph) {
    const CompressedCsrGraph z = csr_compress(csr_from_edges(EdgeList(0)));
    EXPECT_EQ(z.num_vertices(), 0u);
    EXPECT_EQ(z.num_edges(), 0u);
    EXPECT_EQ(z.bits_per_edge(), 0.0);
    EXPECT_TRUE(z.well_formed());
}

TEST(CompressedCsrRoundTrip, SingleVertexNoEdges) {
    expect_round_trip(csr_from_edges(EdgeList(1)));
}

TEST(CompressedCsrRoundTrip, IsolatedVerticesAmongEdges) {
    EdgeList edges(10);  // vertices 3..6 have no edges at all
    edges.add(0, 1);
    edges.add(1, 2);
    edges.add(7, 9);
    expect_round_trip(csr_from_edges(edges));
}

TEST(CompressedCsrRoundTrip, SelfLoopsKept) {
    // A self loop encodes a first delta of exactly 0 — the zig-zag zero.
    EdgeList edges(4);
    edges.add(0, 0);
    edges.add(1, 1);
    edges.add(1, 2);
    BuildOptions opts;
    opts.remove_self_loops = false;
    expect_round_trip(csr_from_edges(edges, opts));
}

TEST(CompressedCsrRoundTrip, DuplicateEdgesKept) {
    // Parallel edges survive a deduplicate=false build as gap-0 varints.
    EdgeList edges(3);
    edges.add(0, 1);
    edges.add(0, 1);
    edges.add(0, 2);
    edges.add(1, 2);
    edges.add(1, 2);
    BuildOptions opts;
    opts.deduplicate = false;
    const CsrGraph g = csr_from_edges(edges, opts);
    ASSERT_GT(g.num_edges(), csr_from_edges(edges).num_edges());
    expect_round_trip(g);
}

TEST(CompressedCsrRoundTrip, RandomizedFamilies) {
    for (const std::uint64_t seed : {1u, 7u, 19u}) {
        UniformParams up;
        up.num_vertices = 2048;
        up.degree = 6;
        up.seed = seed;
        expect_round_trip(csr_from_edges(generate_uniform(up)));

        RmatParams rp;
        rp.scale = 11;
        rp.num_edges = 1 << 14;
        rp.seed = seed;
        EdgeList edges = generate_rmat(rp);
        permute_vertices(edges, seed + 3);
        expect_round_trip(csr_from_edges(edges));
    }
}

TEST(CompressedCsrRoundTrip, NeighborsForEachMatchesPlainSpans) {
    UniformParams params;
    params.num_vertices = 512;
    params.degree = 5;
    params.seed = 9;
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    const CompressedCsrGraph z = csr_compress(g);

    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        std::vector<vertex_t> decoded;
        const std::size_t bytes =
            z.neighbors_for_each(v, [&](vertex_t w) { decoded.push_back(w); });
        EXPECT_EQ(bytes, z.row_bytes(v)) << "row bytes mismatch at " << v;
        const auto adj = g.neighbors(v);
        ASSERT_EQ(decoded.size(), adj.size()) << v;
        for (std::size_t i = 0; i < adj.size(); ++i)
            ASSERT_EQ(decoded[i], adj[i]) << "vertex " << v << " slot " << i;
    }
}

TEST(CompressedCsrRoundTrip, UntilStopsEarlyAndChargesFewerBytes) {
    const CsrGraph g = test::star_graph(100);
    const CompressedCsrGraph z = csr_compress(g);
    ASSERT_GT(z.degree(0), 1u);

    // Stop after the first neighbour: charged bytes must undercut the
    // full row (the early exit's whole point on the bottom-up probe).
    int calls = 0;
    const std::size_t stopped = z.neighbors_for_each(0, [&](vertex_t) {
        ++calls;
        return false;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_LT(stopped, z.row_bytes(0));

    // Never stopping walks the whole row.
    const std::size_t full =
        z.neighbors_for_each(0, [](vertex_t) { return true; });
    EXPECT_EQ(full, z.row_bytes(0));
}

// ---------------------------------------------------------------------
// Input validation and structural hardening.
// ---------------------------------------------------------------------

TEST(CompressedCsrValidation, CompressRejectsUnsortedAdjacency) {
    // Hand-build a CSR whose only row is descending — the trusting raw
    // constructor accepts it; csr_compress must not.
    AlignedBuffer<edge_offset_t> offsets(3);
    offsets[0] = 0;
    offsets[1] = 2;
    offsets[2] = 2;
    AlignedBuffer<vertex_t> targets(2);
    targets[0] = 2;
    targets[1] = 1;  // out of order
    const CsrGraph g(std::move(offsets), std::move(targets));
    try {
        (void)csr_compress(g);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        // The diagnostic names the offending vertex.
        EXPECT_NE(std::string(e.what()).find("vertex 0"), std::string::npos)
            << e.what();
    }
}

TEST(CompressedCsrValidation, WellFormedRejectsNonMonotoneOffsets) {
    const CompressedCsrGraph good = csr_compress(test::path_graph(8));
    AlignedBuffer<edge_offset_t> offsets(good.offsets().size());
    std::copy(good.offsets().begin(), good.offsets().end(), offsets.data());
    offsets[2] = offsets[1] + 1000;  // overshoots the blob
    AlignedBuffer<vertex_t> degrees(good.degrees().size());
    std::copy(good.degrees().begin(), good.degrees().end(), degrees.data());
    AlignedBuffer<std::uint8_t> blob(good.blob().size());
    std::copy(good.blob().begin(), good.blob().end(), blob.data());
    const CompressedCsrGraph bad(std::move(offsets), std::move(degrees),
                                 std::move(blob));
    EXPECT_FALSE(bad.well_formed());
}

TEST(CompressedCsrValidation, WellFormedRejectsCorruptBlob) {
    const CompressedCsrGraph good = csr_compress(test::path_graph(8));
    ASSERT_TRUE(good.well_formed());
    // Setting a continuation bit makes a run decode past its byte range;
    // the bounds-checked validation decode must notice, never overrun.
    for (std::size_t i = 0; i < good.blob().size(); ++i) {
        AlignedBuffer<edge_offset_t> offsets(good.offsets().size());
        std::copy(good.offsets().begin(), good.offsets().end(),
                  offsets.data());
        AlignedBuffer<vertex_t> degrees(good.degrees().size());
        std::copy(good.degrees().begin(), good.degrees().end(),
                  degrees.data());
        AlignedBuffer<std::uint8_t> blob(good.blob().size());
        std::copy(good.blob().begin(), good.blob().end(), blob.data());
        blob[i] |= 0x80u;
        const CompressedCsrGraph bad(std::move(offsets), std::move(degrees),
                                     std::move(blob));
        EXPECT_FALSE(bad.well_formed()) << "continuation bit at blob[" << i
                                        << "] accepted";
    }
    // Rows that end in place but hold a value longer than the codec's
    // kMaxBytes: one wraps a gap past 2^64, one carries bits above it.
    for (const auto& row : test::kHostileVarintRows)
        EXPECT_FALSE(test::hostile_varint_graph(row).well_formed())
            << row.size() << "-byte row accepted";
}

TEST(CompressedCsrValidation, WellFormedRejectsDegreeMismatch) {
    const CompressedCsrGraph good = csr_compress(test::path_graph(8));
    AlignedBuffer<edge_offset_t> offsets(good.offsets().size());
    std::copy(good.offsets().begin(), good.offsets().end(), offsets.data());
    AlignedBuffer<vertex_t> degrees(good.degrees().size());
    std::copy(good.degrees().begin(), good.degrees().end(), degrees.data());
    degrees[0] += 1;  // claims one more neighbour than the run encodes
    AlignedBuffer<std::uint8_t> blob(good.blob().size());
    std::copy(good.blob().begin(), good.blob().end(), blob.data());
    const CompressedCsrGraph bad(std::move(offsets), std::move(degrees),
                                 std::move(blob));
    EXPECT_FALSE(bad.well_formed());
}

// ---------------------------------------------------------------------
// Size accounting: the whole point of the backend.
// ---------------------------------------------------------------------

TEST(CompressedCsrSize, SkewedGraphCompressesUnder16BitsPerEdge) {
    // Natural (unpermuted) R-MAT order: ids cluster low, sorted gaps are
    // tiny, and the ISSUE's <= 16 bits/edge target must hold with the
    // offsets + degrees metadata included.
    RmatParams params;
    params.scale = 14;
    params.num_edges = std::uint64_t{16} << 14;
    params.seed = 1;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const CompressedCsrGraph z = csr_compress(g);
    EXPECT_LE(z.bits_per_edge(), 16.0);
    EXPECT_LT(z.memory_bytes(), g.memory_bytes());
    EXPECT_EQ(static_cast<double>(z.memory_bytes()) * 8.0 /
                  static_cast<double>(z.num_edges()),
              z.bits_per_edge());
}

TEST(CompressedCsrSize, BlobNeverBeatsOneByteMinimum) {
    // Every neighbour costs at least one blob byte, so blob >= m always.
    UniformParams params;
    params.num_vertices = 1024;
    params.degree = 4;
    params.seed = 2;
    const CompressedCsrGraph z =
        csr_compress(csr_from_edges(generate_uniform(params)));
    EXPECT_GE(z.blob().size(), z.num_edges());
}

// ---------------------------------------------------------------------
// Binary container ("SGEZSR01").
// ---------------------------------------------------------------------

class CompressedCsrIoTest : public ::testing::Test {
  protected:
    void SetUp() override {
        // Per-process dir: ctest -j runs each test in its own process,
        // and a sibling's TearDown must not delete this test's files.
        dir_ = std::filesystem::temp_directory_path() /
               ("sge_zsr_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    /// Overwrites 8 bytes at `offset`: n lives at 8, m at 16, blob_bytes
    /// at 24 (after the 8-byte magic).
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

TEST_F(CompressedCsrIoTest, RoundTrip) {
    RmatParams params;
    params.scale = 10;
    params.num_edges = 8192;
    const CompressedCsrGraph g =
        csr_compress(csr_from_edges(generate_rmat(params)));
    write_compressed_csr(g, path("g.zsr"));
    const CompressedCsrGraph loaded = read_compressed_csr(path("g.zsr"));
    EXPECT_TRUE(g == loaded);
    EXPECT_TRUE(loaded.well_formed());
}

TEST_F(CompressedCsrIoTest, RoundTripEmptyGraph) {
    const CompressedCsrGraph g = csr_compress(csr_from_edges(EdgeList(0)));
    write_compressed_csr(g, path("empty.zsr"));
    const CompressedCsrGraph loaded = read_compressed_csr(path("empty.zsr"));
    EXPECT_EQ(loaded.num_vertices(), 0u);
    EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(CompressedCsrIoTest, RejectsBadMagic) {
    std::ofstream out(path("bad.zsr"), std::ios::binary);
    out << "NOTAZSR0 garbage follows and then some";
    out.close();
    EXPECT_THROW(read_compressed_csr(path("bad.zsr")), std::runtime_error);
    // The plain-CSR magic must not pass either.
    const CsrGraph g = csr_from_edges(EdgeList(10));
    write_csr(g, path("plain.csr"));
    EXPECT_THROW(read_compressed_csr(path("plain.csr")), std::runtime_error);
}

TEST_F(CompressedCsrIoTest, RejectsMissingFile) {
    EXPECT_THROW(read_compressed_csr(path("nope.zsr")), std::runtime_error);
}

TEST_F(CompressedCsrIoTest, RejectsTruncatedHeaderAndPayload) {
    const CompressedCsrGraph g = csr_compress(test::path_graph(64));
    write_compressed_csr(g, path("t.zsr"));
    const auto full = std::filesystem::file_size(path("t.zsr"));
    std::filesystem::resize_file(path("t.zsr"), full - 5);
    EXPECT_THROW(read_compressed_csr(path("t.zsr")), std::runtime_error);
    std::filesystem::resize_file(path("t.zsr"), 20);  // cut mid-header
    EXPECT_THROW(read_compressed_csr(path("t.zsr")), std::runtime_error);
}

TEST_F(CompressedCsrIoTest, RejectsOversizedPayload) {
    const CompressedCsrGraph g = csr_compress(test::path_graph(16));
    write_compressed_csr(g, path("x.zsr"));
    std::ofstream out(path("x.zsr"), std::ios::binary | std::ios::app);
    out << "extra";
    out.close();
    EXPECT_THROW(read_compressed_csr(path("x.zsr")), std::runtime_error);
}

TEST_F(CompressedCsrIoTest, RejectsCorruptHeaderFieldsBeforeAllocation) {
    const CompressedCsrGraph g = csr_compress(test::path_graph(32));
    write_compressed_csr(g, path("h.zsr"));

    poke_u64(path("h.zsr"), 8, std::uint64_t{1} << 61);  // n: huge
    EXPECT_THROW(read_compressed_csr(path("h.zsr")), std::runtime_error);
    poke_u64(path("h.zsr"), 8, kInvalidVertex);  // n: the sentinel itself
    EXPECT_THROW(read_compressed_csr(path("h.zsr")), std::runtime_error);

    write_compressed_csr(g, path("h.zsr"));
    poke_u64(path("h.zsr"), 16, std::uint64_t{1} << 61);  // m: huge
    EXPECT_THROW(read_compressed_csr(path("h.zsr")), std::runtime_error);
    poke_u64(path("h.zsr"), 16, g.num_edges() + 1);  // m: degree-sum lies
    EXPECT_THROW(read_compressed_csr(path("h.zsr")), std::runtime_error);

    write_compressed_csr(g, path("h.zsr"));
    poke_u64(path("h.zsr"), 24, std::uint64_t{1} << 61);  // blob_bytes
    EXPECT_THROW(read_compressed_csr(path("h.zsr")), std::runtime_error);
}

TEST_F(CompressedCsrIoTest, RejectsCorruptBlobViaWellFormed) {
    const CompressedCsrGraph g = csr_compress(test::path_graph(32));
    write_compressed_csr(g, path("b.zsr"));
    // Flip a continuation bit in the last blob byte: sizes all check
    // out, only the full decode validation can catch it.
    const auto full = std::filesystem::file_size(path("b.zsr"));
    std::fstream f(path("b.zsr"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(full - 1));
    char last = 0;
    f.get(last);
    f.seekp(static_cast<std::streamoff>(full - 1));
    f.put(static_cast<char>(static_cast<unsigned char>(last) | 0x80u));
    f.close();
    EXPECT_THROW(read_compressed_csr(path("b.zsr")), std::runtime_error);
}

// ---------------------------------------------------------------------
// Traversal equivalence: every engine must produce bit-identical levels
// on the compressed backend, with and without the double-check.
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

class CompressedCsrEngineMatrix
    : public ::testing::TestWithParam<BackendConfig> {
  protected:
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

    /// Plain vs compressed under the same engine config: identical
    /// levels/reachability, and the compressed run's tree must validate
    /// against the original graph.
    void check_backends_agree(const CsrGraph& g, vertex_t root) {
        const CompressedCsrGraph z = csr_compress(g);
        const BfsResult plain = bfs(g, root, options());
        const BfsResult compressed = bfs(z, root, options());
        expect_equivalent(plain, compressed);
        const ValidationReport report = validate_bfs_tree(g, root, compressed);
        EXPECT_TRUE(report.ok) << report.error;
    }
};

TEST_P(CompressedCsrEngineMatrix, PathGraph) {
    check_backends_agree(test::path_graph(64), 0);
}

TEST_P(CompressedCsrEngineMatrix, StarGraph) {
    check_backends_agree(test::star_graph(257), 0);
}

TEST_P(CompressedCsrEngineMatrix, DisconnectedCliques) {
    check_backends_agree(test::two_cliques(13), 20);
}

TEST_P(CompressedCsrEngineMatrix, UniformRandomGraph) {
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 8;
    params.seed = 11;
    check_backends_agree(csr_from_edges(generate_uniform(params)), 5);
}

TEST_P(CompressedCsrEngineMatrix, RmatGraph) {
    RmatParams params;
    params.scale = 12;
    params.num_edges = 1 << 15;
    params.seed = 23;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 5);
    check_backends_agree(csr_from_edges(edges), 9);
}

// Rows suffixed _atomic turn the double-check off, so every visited
// claim is a locked RMW (the Figure 4/5 ablation; `static` in two labels
// names a retired schedule). Algorithm 1 claims with an unconditional
// CAS either way, so its _atomic row runs on two emulated sockets
// instead, as does bitmap_4t_stealing: a global queue whose steal
// domain splits in two.
INSTANTIATE_TEST_SUITE_P(
    Backends, CompressedCsrEngineMatrix,
    ::testing::Values(
        BackendConfig{BfsEngine::kSerial, 1, Topology::emulate(1, 1, 1),
                      true, "serial"},
        BackendConfig{BfsEngine::kNaive, 4, Topology::emulate(1, 4, 1),
                      true, "naive_4t"},
        BackendConfig{BfsEngine::kNaive, 4, Topology::emulate(2, 2, 1),
                      false, "naive_4t_atomic"},
        BackendConfig{BfsEngine::kBitmap, 4, Topology::emulate(1, 4, 1),
                      true, "bitmap_4t"},
        BackendConfig{BfsEngine::kBitmap, 4, Topology::emulate(1, 4, 1),
                      false, "bitmap_4t_static_atomic"},
        BackendConfig{BfsEngine::kBitmap, 4, Topology::emulate(2, 2, 1),
                      true, "bitmap_4t_stealing"},
        BackendConfig{BfsEngine::kMultiSocket, 8, Topology::nehalem_ep(),
                      true, "multisocket_ep_8t"},
        BackendConfig{BfsEngine::kMultiSocket, 4, Topology::emulate(2, 2, 1),
                      false, "multisocket_2s_static_atomic"},
        BackendConfig{BfsEngine::kHybrid, 4, Topology::emulate(1, 4, 1),
                      true, "hybrid_4t"},
        BackendConfig{BfsEngine::kHybrid, 4, Topology::emulate(1, 4, 1),
                      false, "hybrid_4t_atomic"}),
    backend_config_name);

// The serial engine is deterministic, so the compressed backend must
// reproduce not just levels but the exact parent array (neighbours
// decode in the same ascending order the plain spans store).
TEST(CompressedCsrBfs, SerialParentsBitIdentical) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 3;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const CompressedCsrGraph z = csr_compress(g);
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    const BfsResult plain = bfs(g, 0, opts);
    const BfsResult compressed = bfs(z, 0, opts);
    ASSERT_EQ(plain.parent.size(), compressed.parent.size());
    for (std::size_t v = 0; v < plain.parent.size(); ++v)
        ASSERT_EQ(plain.parent[v], compressed.parent[v]) << "vertex " << v;
}

TEST(CompressedCsrBfs, RunnerReusableAcrossCompressedGraphs) {
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 4;
    opts.topology = Topology::emulate(2, 2, 1);
    BfsRunner runner(opts);

    const CsrGraph a = test::cycle_graph(101);
    const CsrGraph b = test::two_cliques(9);
    const CompressedCsrGraph za = csr_compress(a);
    const CompressedCsrGraph zb = csr_compress(b);
    for (int round = 0; round < 2; ++round) {
        const BfsResult ra = runner.run(za, 37);
        EXPECT_TRUE(validate_bfs_tree(a, 37, ra).ok);
        const BfsResult rb = runner.run(zb, 3);
        EXPECT_TRUE(validate_bfs_tree(b, 3, rb).ok);
    }
}

// ---------------------------------------------------------------------
// MS-BFS over the compressed backend.
// ---------------------------------------------------------------------

TEST(CompressedCsrMsBfs, LevelsMatchPlainBackend) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    params.seed = 6;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    const CompressedCsrGraph z = csr_compress(g);
    const std::vector<vertex_t> sources = {0, 17, 99, 1234};

    const auto run = [&](const auto& graph) {
        // levels[lane][v]; kInvalidLevel = never discovered by that lane.
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
    const auto [z_waves, z_levels] = run(z);
    EXPECT_EQ(plain_waves, z_waves);
    for (std::size_t lane = 0; lane < sources.size(); ++lane)
        for (vertex_t v = 0; v < g.num_vertices(); ++v)
            ASSERT_EQ(plain_levels[lane][v], z_levels[lane][v])
                << "lane " << lane << " vertex " << v;
}

// ---------------------------------------------------------------------
// Observability: decode accounting.
// ---------------------------------------------------------------------

TEST(CompressedCsrObs, BytesDecodedMatchesVisitedRowsExactly) {
    // Top-down engines decode each visited vertex's row exactly once, so
    // summing bytes_decoded over levels must reproduce the row-byte sum
    // over reached vertices — exact, because bytes (unlike decode_ns)
    // are never sampled.
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 8;
    params.seed = 13;
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    const CompressedCsrGraph z = csr_compress(g);

    for (const BfsEngine engine :
         {BfsEngine::kSerial, BfsEngine::kNaive, BfsEngine::kBitmap,
          BfsEngine::kMultiSocket}) {
        BfsOptions opts;
        opts.engine = engine;
        opts.threads = engine == BfsEngine::kSerial ? 1 : 4;
        opts.topology = engine == BfsEngine::kMultiSocket
                            ? Topology::emulate(2, 2, 1)
                            : Topology::emulate(1, 4, 1);
        opts.collect_stats = true;
        const BfsResult r = bfs(z, 0, opts);

        std::uint64_t expected = 0;
        for (vertex_t v = 0; v < g.num_vertices(); ++v)
            if (r.parent[v] != kInvalidVertex) expected += z.row_bytes(v);
        std::uint64_t decoded = 0;
        for (const BfsLevelStats& s : r.level_stats) decoded += s.bytes_decoded;
        EXPECT_EQ(decoded, expected)
            << "engine " << to_string(engine) << " decode accounting drifted";
    }
}

TEST(CompressedCsrObs, HybridDecodesSomethingAndPlainDecodesNothing) {
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 8;
    params.seed = 17;
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    const CompressedCsrGraph z = csr_compress(g);

    BfsOptions opts;
    opts.engine = BfsEngine::kHybrid;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    opts.collect_stats = true;

    // The hybrid's bottom-up probes stop at the first frontier parent,
    // so its total is bounded by (but need not equal) the full-row sum.
    const BfsResult r = bfs(z, 0, opts);
    std::uint64_t decoded = 0;
    for (const BfsLevelStats& s : r.level_stats) decoded += s.bytes_decoded;
    EXPECT_GT(decoded, 0u);

    // The plain backend must report zero decode work.
    const BfsResult plain = bfs(g, 0, opts);
    for (const BfsLevelStats& s : plain.level_stats) {
        EXPECT_EQ(s.bytes_decoded, 0u);
        EXPECT_EQ(s.decode_ns, 0u);
    }
}

}  // namespace
}  // namespace sge
