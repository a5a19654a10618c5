#include "graph/csr_compressed.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sge {

namespace {

/// Bounds-checked decode for untrusted blobs: refuses to read past
/// `end`, refuses values wider than the 64-bit accumulator. Returns
/// nullptr on malformed input. The hot path uses the unchecked
/// varint::decode_u64 instead — this runs once, in well_formed().
const std::uint8_t* checked_decode_u64(const std::uint8_t* p,
                                       const std::uint8_t* end,
                                       std::uint64_t& value) noexcept {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p != end) {
        const std::uint8_t byte = *p++;
        if (shift >= 64 || (shift == 63 && (byte & 0x7eu) != 0)) {
            return nullptr;  // overflows 64 bits
        }
        v |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
        if ((byte & 0x80u) == 0) {
            value = v;
            return p;
        }
        shift += 7;
    }
    return nullptr;  // ran off the row without a terminating byte
}

}  // namespace

CompressedCsrGraph::CompressedCsrGraph(AlignedBuffer<edge_offset_t> byte_offsets,
                                       AlignedBuffer<vertex_t> degrees,
                                       AlignedBuffer<std::uint8_t> blob,
                                       bool symmetric)
    : byte_offsets_(std::move(byte_offsets)),
      degrees_(std::move(degrees)),
      blob_(std::move(blob)),
      symmetric_(symmetric) {
    for (const vertex_t d : degrees_) num_edges_ += d;
}

bool CompressedCsrGraph::well_formed() const noexcept {
    const vertex_t n = num_vertices();
    if (n == 0) {
        return byte_offsets_.size() <= 1 && blob_.empty() && num_edges_ == 0;
    }
    if (byte_offsets_.size() != static_cast<std::size_t>(n) + 1) return false;
    if (byte_offsets_[0] != 0) return false;
    if (byte_offsets_[n] != blob_.size()) return false;
    edge_offset_t degree_sum = 0;
    for (vertex_t v = 0; v < n; ++v) {
        if (byte_offsets_[v] > byte_offsets_[v + 1]) return false;
        degree_sum += degrees_[v];
    }
    if (degree_sum != num_edges_) return false;
    for (vertex_t v = 0; v < n; ++v) {
        const std::uint8_t* p = blob_.data() + byte_offsets_[v];
        const std::uint8_t* const end = blob_.data() + byte_offsets_[v + 1];
        const vertex_t deg = degrees_[v];
        if (deg == 0) {
            if (p != end) return false;
            continue;
        }
        std::uint64_t u = 0;
        p = checked_decode_u64(p, end, u);
        if (p == nullptr) return false;
        const std::int64_t first =
            static_cast<std::int64_t>(v) + varint::zigzag_decode(u);
        if (first < 0 || first >= static_cast<std::int64_t>(n)) return false;
        std::uint64_t prev = static_cast<std::uint64_t>(first);
        for (vertex_t i = 1; i < deg; ++i) {
            p = checked_decode_u64(p, end, u);
            if (p == nullptr) return false;
            prev += u;  // gaps are non-negative, so sortedness is implicit
            if (prev >= n) return false;
        }
        if (p != end) return false;  // row must consume exactly its bytes
    }
    return true;
}

bool operator==(const CompressedCsrGraph& a,
                const CompressedCsrGraph& b) noexcept {
    if (a.num_vertices() != b.num_vertices() ||
        a.num_edges_ != b.num_edges_ || a.blob_.size() != b.blob_.size()) {
        return false;
    }
    const vertex_t n = a.num_vertices();
    for (vertex_t v = 0; v < n; ++v) {
        if (a.degrees_[v] != b.degrees_[v]) return false;
        if (a.byte_offsets_[v] != b.byte_offsets_[v]) return false;
    }
    if (n != 0 && a.byte_offsets_[n] != b.byte_offsets_[n]) return false;
    for (std::size_t i = 0; i < a.blob_.size(); ++i) {
        if (a.blob_[i] != b.blob_[i]) return false;
    }
    return true;
}

CompressedCsrGraph csr_compress(const CsrGraph& g) {
    const vertex_t n = g.num_vertices();
    AlignedBuffer<edge_offset_t> byte_offsets(static_cast<std::size_t>(n) + 1);
    AlignedBuffer<vertex_t> degrees(n);

    // Pass 1: validate sortedness and measure each row's encoded size.
    byte_offsets[0] = 0;
    for (vertex_t v = 0; v < n; ++v) {
        const auto adj = g.neighbors(v);
        degrees[v] = static_cast<vertex_t>(adj.size());
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < adj.size(); ++i) {
            if (i == 0) {
                bytes += varint::encoded_size_u64(varint::zigzag_encode(
                    static_cast<std::int64_t>(adj[0]) -
                    static_cast<std::int64_t>(v)));
            } else if (adj[i] < adj[i - 1]) {
                throw std::invalid_argument(
                    "csr_compress: adjacency of vertex " + std::to_string(v) +
                    " is not sorted at position " + std::to_string(i) +
                    " (neighbor " + std::to_string(adj[i]) +
                    " after " + std::to_string(adj[i - 1]) +
                    "); build the CSR with BuildOptions::sort_neighbors");
            } else {
                bytes += varint::encoded_size_u64(adj[i] - adj[i - 1]);
            }
        }
        byte_offsets[v + 1] = byte_offsets[v] + bytes;
    }

    // Pass 2: encode into the exactly-sized blob.
    AlignedBuffer<std::uint8_t> blob(
        static_cast<std::size_t>(n == 0 ? 0 : byte_offsets[n]));
    for (vertex_t v = 0; v < n; ++v) {
        const auto adj = g.neighbors(v);
        std::uint8_t* out = blob.data() + byte_offsets[v];
        for (std::size_t i = 0; i < adj.size(); ++i) {
            const std::uint64_t u =
                i == 0 ? varint::zigzag_encode(
                             static_cast<std::int64_t>(adj[0]) -
                             static_cast<std::int64_t>(v))
                       : adj[i] - adj[i - 1];
            out += varint::encode_u64(u, out);
        }
    }
    return CompressedCsrGraph(std::move(byte_offsets), std::move(degrees),
                              std::move(blob), g.symmetric());
}

CsrGraph csr_decompress(const CompressedCsrGraph& g) {
    const vertex_t n = g.num_vertices();
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(n) + 1);
    AlignedBuffer<vertex_t> targets(static_cast<std::size_t>(g.num_edges()));
    offsets[0] = 0;
    for (vertex_t v = 0; v < n; ++v) {
        offsets[v + 1] = offsets[v] + g.degree(v);
        vertex_t* out = targets.data() + offsets[v];
        g.neighbors_for_each(v, [&](vertex_t w) { *out++ = w; });
    }
    return CsrGraph(std::move(offsets), std::move(targets), g.symmetric());
}

}  // namespace sge
