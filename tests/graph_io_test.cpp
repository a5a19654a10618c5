#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/weighted.hpp"

namespace sge {
namespace {

class GraphIoTest : public ::testing::Test {
  protected:
    void SetUp() override {
        // Per-process dir: ctest -j runs each test in its own process,
        // and a sibling's TearDown must not delete this test's files.
        dir_ = std::filesystem::temp_directory_path() /
               ("sge_io_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    /// Overwrites 8 bytes at `offset` in an existing file — used to
    /// corrupt the n (offset 8) or m (offset 16) header field in place.
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

TEST_F(GraphIoTest, BinaryRoundTrip) {
    RmatParams params;
    params.scale = 10;
    params.num_edges = 8192;
    const CsrGraph g = csr_from_edges(generate_rmat(params));

    write_csr(g, path("g.csr"));
    const CsrGraph loaded = read_csr(path("g.csr"));
    EXPECT_TRUE(g == loaded);
}

TEST_F(GraphIoTest, BinaryRoundTripEmptyGraph) {
    const CsrGraph g = csr_from_edges(EdgeList(0));
    write_csr(g, path("empty.csr"));
    const CsrGraph loaded = read_csr(path("empty.csr"));
    EXPECT_EQ(loaded.num_vertices(), 0u);
    EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(GraphIoTest, ReadRejectsBadMagic) {
    std::ofstream out(path("bad.csr"), std::ios::binary);
    out << "NOTACSR0 garbage follows";
    out.close();
    EXPECT_THROW(read_csr(path("bad.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, ReadRejectsTruncatedFile) {
    const CsrGraph g = csr_from_edges(EdgeList(10));
    write_csr(g, path("trunc.csr"));
    std::filesystem::resize_file(path("trunc.csr"), 20);  // cut mid-header
    EXPECT_THROW(read_csr(path("trunc.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, ReadRejectsMissingFile) {
    EXPECT_THROW(read_csr(path("does_not_exist.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, TextEdgeListRoundTrip) {
    EdgeList edges(5);
    edges.add(0, 1);
    edges.add(3, 4);
    edges.add(2, 2);
    write_edge_list_text(edges, path("e.txt"));
    const EdgeList loaded = read_edge_list_text(path("e.txt"));
    ASSERT_EQ(loaded.num_edges(), 3u);
    EXPECT_EQ(loaded[0], (Edge{0, 1}));
    EXPECT_EQ(loaded[1], (Edge{3, 4}));
    EXPECT_EQ(loaded[2], (Edge{2, 2}));
    EXPECT_EQ(loaded.num_vertices(), 5u);
}

TEST_F(GraphIoTest, TextReaderSkipsComments) {
    std::ofstream out(path("c.txt"));
    out << "# comment\n% another style\n1 2\n\n3 4\n";
    out.close();
    const EdgeList loaded = read_edge_list_text(path("c.txt"));
    EXPECT_EQ(loaded.num_edges(), 2u);
}

TEST_F(GraphIoTest, TextReaderRejectsGarbageLine) {
    std::ofstream out(path("g.txt"));
    out << "1 2\nhello world\n";
    out.close();
    EXPECT_THROW(read_edge_list_text(path("g.txt")), std::runtime_error);
}

// ---------------------------------------------------------------------
// Hostile binary headers: a corrupt n/m must be rejected against the
// actual file size *before* allocation — a 16-byte edit must never
// demand a multi-GB buffer or feed garbage to the parser.
// ---------------------------------------------------------------------

TEST_F(GraphIoTest, ReadRejectsHugeClaimedEdgeCount) {
    const CsrGraph g = csr_from_edges(EdgeList(10));
    write_csr(g, path("m.csr"));
    poke_u64(path("m.csr"), 16, std::uint64_t{1} << 61);  // m field
    EXPECT_THROW(read_csr(path("m.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, ReadRejectsHugeClaimedVertexCount) {
    const CsrGraph g = csr_from_edges(EdgeList(10));
    write_csr(g, path("n.csr"));
    poke_u64(path("n.csr"), 8, std::uint64_t{1} << 61);  // n field
    EXPECT_THROW(read_csr(path("n.csr")), std::runtime_error);
    // n just under kInvalidVertex passes the range check but not the
    // file-size check.
    poke_u64(path("n.csr"), 8, kInvalidVertex - 1);
    EXPECT_THROW(read_csr(path("n.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, ReadRejectsTruncatedPayload) {
    RmatParams params;
    params.scale = 8;
    params.num_edges = 1024;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    write_csr(g, path("p.csr"));
    const auto full = std::filesystem::file_size(path("p.csr"));
    std::filesystem::resize_file(path("p.csr"), full - 7);
    EXPECT_THROW(read_csr(path("p.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, ReadRejectsOversizedPayload) {
    const CsrGraph g = csr_from_edges(EdgeList(10));
    write_csr(g, path("x.csr"));
    std::ofstream out(path("x.csr"), std::ios::binary | std::ios::app);
    out << "extra bytes";
    out.close();
    EXPECT_THROW(read_csr(path("x.csr")), std::runtime_error);
}

TEST_F(GraphIoTest, WeightedReadRejectsCorruptHeader) {
    EdgeList edges(4);
    edges.add(0, 1);
    edges.add(1, 2);
    edges.add(2, 3);
    const WeightedCsrGraph g =
        with_random_weights(csr_from_edges(std::move(edges)), 1, 9, 3);
    write_weighted_csr(g, path("w.csr"));

    const WeightedCsrGraph loaded = read_weighted_csr(path("w.csr"));
    EXPECT_EQ(loaded.num_edges(), g.num_edges());

    poke_u64(path("w.csr"), 16, std::uint64_t{1} << 60);  // m field
    EXPECT_THROW(read_weighted_csr(path("w.csr")), std::runtime_error);
    poke_u64(path("w.csr"), 8, std::uint64_t{1} << 60);  // n field
    EXPECT_THROW(read_weighted_csr(path("w.csr")), std::runtime_error);
}

// ---------------------------------------------------------------------
// Hostile text edge lists: negative ids, overflow, non-numeric tokens
// and trailing garbage must fail with a line-numbered error, not wrap
// silently into valid-looking vertex ids (sscanf "%llu" accepted all
// of them).
// ---------------------------------------------------------------------

TEST_F(GraphIoTest, TextReaderRejectsNegativeIds) {
    std::ofstream out(path("neg.txt"));
    out << "0 1\n-3 4\n";
    out.close();
    EXPECT_THROW(read_edge_list_text(path("neg.txt")), std::runtime_error);
}

TEST_F(GraphIoTest, TextReaderRejectsOutOfRangeIds) {
    std::ofstream out(path("big.txt"));
    out << "4294967295 1\n";  // == kInvalidVertex, the reserved sentinel
    out.close();
    EXPECT_THROW(read_edge_list_text(path("big.txt")), std::runtime_error);

    std::ofstream out2(path("huge.txt"));
    out2 << "1 99999999999999999999999999\n";  // overflows u64 (ERANGE)
    out2.close();
    EXPECT_THROW(read_edge_list_text(path("huge.txt")), std::runtime_error);
}

TEST_F(GraphIoTest, TextReaderRejectsTrailingGarbage) {
    std::ofstream out(path("t.txt"));
    out << "1 2 junk\n";
    out.close();
    EXPECT_THROW(read_edge_list_text(path("t.txt")), std::runtime_error);
}

TEST_F(GraphIoTest, TextReaderRejectsMissingSecondId) {
    std::ofstream out(path("one.txt"));
    out << "7\n";
    out.close();
    EXPECT_THROW(read_edge_list_text(path("one.txt")), std::runtime_error);
}

TEST_F(GraphIoTest, TextReaderErrorsNameTheLine) {
    std::ofstream out(path("line.txt"));
    out << "# header\n0 1\n1 bad\n";
    out.close();
    try {
        read_edge_list_text(path("line.txt"));
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos)
            << e.what();
    }
}

TEST_F(GraphIoTest, TextReaderAcceptsWindowsLineEndings) {
    std::ofstream out(path("crlf.txt"), std::ios::binary);
    out << "0 1\r\n2 3\r\n";
    out.close();
    const EdgeList loaded = read_edge_list_text(path("crlf.txt"));
    ASSERT_EQ(loaded.num_edges(), 2u);
    EXPECT_EQ(loaded[1], (Edge{2, 3}));
}

}  // namespace
}  // namespace sge
