#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/prefetch.hpp"

namespace sge {

/// LEB128-style variable-length integers (7 payload bits per byte, high
/// bit = continuation), little-endian groups — the codec behind
/// CompressedCsrGraph. Kept header-inline: decode_u64 is the innermost
/// loop of every compressed adjacency scan.
namespace varint {

/// Worst case for one encoded value here: the zig-zagged first delta
/// spans 33 bits (vertex ids are 32-bit, the delta is signed), so
/// ceil(33 / 7) = 5 bytes; unsigned 32-bit gaps also need at most 5.
inline constexpr std::size_t kMaxBytes = 5;

/// Appends `value` at `out`; returns the bytes written (<= kMaxBytes
/// for values below 2^35).
inline std::size_t encode_u64(std::uint64_t value, std::uint8_t* out) noexcept {
    std::size_t i = 0;
    while (value >= 0x80) {
        out[i++] = static_cast<std::uint8_t>(value) | 0x80u;
        value >>= 7;
    }
    out[i++] = static_cast<std::uint8_t>(value);
    return i;
}

[[nodiscard]] inline std::size_t encoded_size_u64(std::uint64_t value) noexcept {
    std::size_t bytes = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++bytes;
    }
    return bytes;
}

/// Unchecked decode of one value; returns the advanced cursor. The
/// caller guarantees a complete value is present — csr_compress wrote
/// the blob, or well_formed() validated an untrusted file before any
/// engine scans it (mirrors plain CSR, where neighbors() indexes
/// unchecked after the reader's validation).
inline const std::uint8_t* decode_u64(const std::uint8_t* p,
                                      std::uint64_t& value) noexcept {
    std::uint8_t byte = *p++;
    std::uint64_t v = byte & 0x7fu;
    unsigned shift = 7;
    while (byte & 0x80u) {
        byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
        shift += 7;
    }
    value = v;
    return p;
}

/// Zig-zag mapping for the signed first delta: 0, -1, 1, -2, ... ->
/// 0, 1, 2, 3, ... so small magnitudes of either sign encode short.
[[nodiscard]] inline constexpr std::uint64_t zigzag_encode(
    std::int64_t v) noexcept {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline constexpr std::int64_t zigzag_decode(
    std::uint64_t u) noexcept {
    return static_cast<std::int64_t>(u >> 1) ^
           -static_cast<std::int64_t>(u & 1);
}

}  // namespace varint

/// Immutable delta + varint compressed CSR — the decode-on-scan backend.
///
/// Per vertex v the sorted adjacency is stored byte-aligned in a shared
/// blob: the first neighbour as the zig-zag varint of (first - v) (most
/// graphs have locality, so the signed delta is short), every later
/// neighbour as the varint of its gap to the predecessor (gap 0 is
/// legal — duplicate edges survive a deduplicate=false build). Sorted
/// gaps on skewed graphs are small, so the blob lands at 2-4x below the
/// plain 4 B/edge targets[] array — and BFS expansion is bandwidth-
/// bound on exactly that stream, which is the trade: varint ALU for
/// DRAM bytes (docs/ALGORITHMS.md "Compressed adjacency").
///
/// Alongside the blob: byte offsets[n+1] delimiting each vertex's run,
/// and a degree[n] array so degree() is O(1) — scheduler weights, the
/// hybrid heuristic and zero-degree bottom-up probes never decode.
///
/// Requires sorted adjacency (the builder default); csr_compress()
/// validates and throws on unsorted input.
class CompressedCsrGraph {
  public:
    CompressedCsrGraph() = default;

    /// Takes ownership of prebuilt arrays: `byte_offsets` has
    /// num_vertices+1 entries delimiting each vertex's encoded run in
    /// `blob`, `degrees` one entry per vertex. Trusts its inputs; use
    /// csr_compress() / read_compressed_csr() for checked construction.
    /// `symmetric` is the symmetry stamp (CsrGraph::symmetric()).
    CompressedCsrGraph(AlignedBuffer<edge_offset_t> byte_offsets,
                       AlignedBuffer<vertex_t> degrees,
                       AlignedBuffer<std::uint8_t> blob,
                       bool symmetric = false);

    CompressedCsrGraph(CompressedCsrGraph&&) noexcept = default;
    CompressedCsrGraph& operator=(CompressedCsrGraph&&) noexcept = default;

    /// GraphAccessor backend marker (CsrGraph carries the `false` side):
    /// engines branch `if constexpr` on it to pick span scans vs decode.
    static constexpr bool kCompressed = true;

    [[nodiscard]] vertex_t num_vertices() const noexcept {
        return degrees_.empty() ? 0 : static_cast<vertex_t>(degrees_.size());
    }

    [[nodiscard]] edge_offset_t num_edges() const noexcept {
        return num_edges_;
    }

    [[nodiscard]] edge_offset_t degree(vertex_t v) const noexcept {
        return degrees_[v];
    }

    /// Symmetry stamp, carried over from the encoded CsrGraph
    /// (CsrGraph::symmetric()); false after read_compressed_csr.
    [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }

    /// Encoded bytes of v's adjacency run.
    [[nodiscard]] std::size_t row_bytes(vertex_t v) const noexcept {
        return static_cast<std::size_t>(byte_offsets_[v + 1] -
                                        byte_offsets_[v]);
    }

    /// Decodes v's full adjacency, calling `fn(w)` per neighbour in
    /// storage (ascending) order. Returns the blob bytes consumed — the
    /// bytes_decoded observability feed.
    template <class Fn>
    std::size_t neighbors_for_each(vertex_t v, Fn&& fn) const noexcept {
        const vertex_t deg = degrees_[v];
        if (deg == 0) return 0;
        const std::uint8_t* p = blob_.data() + byte_offsets_[v];
        const std::uint8_t* const start = p;
        std::uint64_t u = 0;
        p = varint::decode_u64(p, u);
        auto prev = static_cast<vertex_t>(static_cast<std::int64_t>(v) +
                                          varint::zigzag_decode(u));
        fn(prev);
        for (vertex_t i = 1; i < deg; ++i) {
            p = varint::decode_u64(p, u);
            prev = static_cast<vertex_t>(prev + u);
            fn(prev);
        }
        return static_cast<std::size_t>(p - start);
    }

    /// Early-exit variant for the bottom-up probe: `fn(w)` returns true
    /// to continue, false to stop. Returns the bytes consumed up to and
    /// including the stopping neighbour — the early exit's savings show
    /// up as fewer bytes decoded, exactly like the plain backend's
    /// shorter span walk.
    template <class Fn>
    std::size_t neighbors_for_each_until(vertex_t v, Fn&& fn) const noexcept {
        const vertex_t deg = degrees_[v];
        if (deg == 0) return 0;
        const std::uint8_t* p = blob_.data() + byte_offsets_[v];
        const std::uint8_t* const start = p;
        std::uint64_t u = 0;
        p = varint::decode_u64(p, u);
        auto prev = static_cast<vertex_t>(static_cast<std::int64_t>(v) +
                                          varint::zigzag_decode(u));
        if (fn(prev)) {
            for (vertex_t i = 1; i < deg; ++i) {
                p = varint::decode_u64(p, u);
                prev = static_cast<vertex_t>(prev + u);
                if (!fn(prev)) break;
            }
        }
        return static_cast<std::size_t>(p - start);
    }

    /// Run-buffered iterator: each next_run() decodes up to one cache
    /// line of vertex_t ids (16) into an internal buffer and returns
    /// them as a span — for consumers that want slices instead of
    /// per-neighbour callbacks. An empty span means the adjacency is
    /// exhausted.
    class Cursor {
      public:
        static constexpr std::size_t kRunLength =
            kCacheLineSize / sizeof(vertex_t);

        Cursor(const CompressedCsrGraph& g, vertex_t v) noexcept
            : p_(g.blob().data() + g.offsets()[v]),
              remaining_(static_cast<vertex_t>(g.degree(v))),
              prev_(v),
              first_(true) {}

        [[nodiscard]] std::span<const vertex_t> next_run() noexcept {
            std::size_t k = 0;
            while (k < kRunLength && remaining_ != 0) {
                std::uint64_t u = 0;
                p_ = varint::decode_u64(p_, u);
                prev_ = first_
                            ? static_cast<vertex_t>(
                                  static_cast<std::int64_t>(prev_) +
                                  varint::zigzag_decode(u))
                            : static_cast<vertex_t>(prev_ + u);
                first_ = false;
                buf_[k++] = prev_;
                --remaining_;
            }
            return {buf_, k};
        }

      private:
        const std::uint8_t* p_;
        vertex_t remaining_;
        vertex_t prev_;
        bool first_;
        vertex_t buf_[kRunLength];
    };

    /// Prefetches the adjacency metadata a scan of `v` reads first —
    /// the CompressedCsrGraph counterpart of prefetching a plain CSR
    /// offsets entry.
    void prefetch_adjacency(vertex_t v) const noexcept {
        prefetch_read(&byte_offsets_[v]);
        prefetch_read(&degrees_[v]);
    }

    /// Byte offsets into blob(), n+1 entries (the workspace uses the
    /// array's address as this graph's identity tag, like plain CSR
    /// offsets).
    [[nodiscard]] std::span<const edge_offset_t> offsets() const noexcept {
        return byte_offsets_.span();
    }
    [[nodiscard]] std::span<const vertex_t> degrees() const noexcept {
        return degrees_.span();
    }
    [[nodiscard]] std::span<const std::uint8_t> blob() const noexcept {
        return blob_.span();
    }

    /// Heap bytes of the whole representation: byte offsets (8 B/vertex)
    /// + degrees (4 B/vertex) + varint blob.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return byte_offsets_.size() * sizeof(edge_offset_t) +
               degrees_.size() * sizeof(vertex_t) + blob_.size();
    }

    /// Storage cost per arc, metadata included: 8 * memory_bytes() / m.
    /// Plain CSR at mean degree d costs 32 + 96/d bits by the same
    /// accounting; skewed (R-MAT-like) graphs compress to <= 16 here.
    [[nodiscard]] double bits_per_edge() const noexcept {
        return num_edges_ == 0
                   ? 0.0
                   : 8.0 * static_cast<double>(memory_bytes()) /
                         static_cast<double>(num_edges_);
    }

    /// Structural checks on an untrusted instance (the binary reader's
    /// gate): monotone byte offsets bounded by the blob, degree sum ==
    /// num_edges(), and a full bounds-checked decode — every run must
    /// consume exactly its byte range and yield sorted in-range ids.
    /// After this returns true the unchecked hot-path decode is safe.
    [[nodiscard]] bool well_formed() const noexcept;

    /// Deep structural equality (same offsets, degrees and blob).
    friend bool operator==(const CompressedCsrGraph& a,
                           const CompressedCsrGraph& b) noexcept;

  private:
    AlignedBuffer<edge_offset_t> byte_offsets_;  // n+1 offsets into blob_
    AlignedBuffer<vertex_t> degrees_;            // n out-degrees
    AlignedBuffer<std::uint8_t> blob_;           // varint payload
    edge_offset_t num_edges_ = 0;                // sum of degrees_
    bool symmetric_ = false;
};

/// Encodes a plain CSR, keeping its symmetry stamp. Requires every
/// adjacency list sorted ascending (duplicates allowed) — the
/// BuildOptions::sort_neighbors default; throws std::invalid_argument
/// diagnosing the first offending (vertex, position) otherwise, because
/// an unsorted list would encode into garbage negative gaps silently.
[[nodiscard]] CompressedCsrGraph csr_compress(const CsrGraph& g);

/// Decodes back to a plain CSR (round-trip tests; materializing for a
/// plain-backend consumer), keeping the stamp.
/// csr_decompress(csr_compress(g)) == g.
[[nodiscard]] CsrGraph csr_decompress(const CompressedCsrGraph& g);

}  // namespace sge
