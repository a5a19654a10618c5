#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "graph/csr_compressed.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/prefetch.hpp"

namespace sge {

/// Thrown by the paged container on any I/O or validation failure:
/// missing/unreadable files, truncated stripes, offsets past EOF, a
/// corrupt manifest, or an injected SGE_FAULT_PAGED_READ failure. A
/// paged read problem is always this typed error, never UB or a wrong
/// traversal.
class PagedIoError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// What the striped payload holds: the plain 4 B/edge targets[] stream
/// or the PR 8 delta+varint blob ("SGEZSR01" encoding). Either way the
/// byte_offsets/degree metadata stays resident, so the choice only
/// changes what the scan streams from disk.
enum class PagedPayload : std::uint8_t {
    kPlainTargets = 0,
    kVarintBlob = 1,
};

[[nodiscard]] std::string to_string(PagedPayload payload);

struct PagedWriteOptions {
    PagedPayload payload = PagedPayload::kPlainTargets;

    /// Bytes per stripe file (rounded up to the page size; every stripe
    /// except the last is exactly this long). The FlashR SAFS default
    /// regime: big enough to amortise per-file overhead, small enough
    /// that prefetch granularity stays useful.
    std::size_t stripe_bytes = std::size_t{1} << 20;
};

struct PagedOpenOptions {
    /// Start the background prefetcher so prefetch_frontier() overlaps
    /// stripe I/O with the current level's discovery.
    bool prefetch = true;

    /// Run the full bounds-checked payload validation (well_formed) at
    /// open. Required for untrusted files — after it passes, the
    /// engines' unchecked hot-path scan is safe. A caller that spills
    /// a graph and maps it straight back may skip it (the payload was
    /// just written from a validated in-memory graph).
    bool validate_payload = true;

    /// Unlink the manifest and stripes when the graph is destroyed: a
    /// scratch spill that lives only as long as its PagedGraph.
    bool owns_files = false;
};

/// Always-on I/O counters of one PagedGraph (relaxed atomics; the
/// ablation bench and tests read them, obs compile gates do not apply
/// because nothing here sits on a traversal hot path).
struct PagedIoStats {
    /// Stripe-file segments the background prefetcher touched (one per
    /// stripe a coalesced page range overlaps).
    std::atomic<std::uint64_t> stripe_reads{0};
    /// Payload pages handed to the prefetcher.
    std::atomic<std::uint64_t> prefetch_issued{0};
    /// Subset of prefetch_issued already resident when the request was
    /// processed (always <= prefetch_issued).
    std::atomic<std::uint64_t> prefetch_hits{0};
    /// Bytes of payload address space mapped (page-rounded; a gauge,
    /// set once at open).
    std::atomic<std::uint64_t> bytes_mapped{0};
};

/// Semi-external CSR: adjacency payload memory-mapped from striped
/// on-disk files, metadata resident.
///
/// The working-set split (ROADMAP "Semi-external graphs"): the visited /
/// parent / frontier state plus byte_offsets[n+1] and degree[n] stay in
/// RAM — so degree(), scheduler weighting and the hybrid heuristic
/// never touch disk — while the payload (plain targets[] or the varint
/// blob) lives in `path`.s0000... stripe files, MAP_FIXED-mapped
/// contiguously into one reserved region so rows spanning stripe
/// boundaries decode transparently. Graphs whose payload exceeds RAM
/// traverse at page-cache speed plus the stripe faults the async
/// prefetcher (prefetch_frontier) hides behind the level barrier.
///
/// Plugs into the engines through the same accessor seam as
/// CompressedCsrGraph (kCompressed == true selects the callback-scan
/// path); on this backend bytes_decoded counts payload bytes streamed
/// from the mapping, whichever payload format backs it.
class PagedGraph {
  public:
    /// Accessor marker: engines scan via neighbors_for_each (the
    /// callback path), which is the only shape that works when the
    /// payload may be varint-encoded.
    static constexpr bool kCompressed = true;

    /// Marker for the frontier-ahead prefetch hook
    /// (detail::prefetch_next_frontier): the engines hand each freshly
    /// built next frontier to prefetch_frontier().
    static constexpr bool kPaged = true;

    PagedGraph();
    PagedGraph(PagedGraph&&) noexcept;
    PagedGraph& operator=(PagedGraph&&) noexcept;
    ~PagedGraph();

    [[nodiscard]] vertex_t num_vertices() const noexcept {
        return degrees_.empty() ? 0 : static_cast<vertex_t>(degrees_.size());
    }

    [[nodiscard]] edge_offset_t num_edges() const noexcept {
        return num_edges_;
    }

    [[nodiscard]] edge_offset_t degree(vertex_t v) const noexcept {
        return degrees_[v];
    }

    /// Symmetry stamp (CsrGraph::symmetric()): make_paged carries the
    /// source graph's; open_paged_graph, a file reader, leaves it false.
    [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }

    /// Process-unique identity (next_graph_id), drawn at construction
    /// and carried by moves: the key of every cache derived from it.
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

    /// Payload bytes of v's adjacency run (4 * degree for plain
    /// payload, the varint run length otherwise).
    [[nodiscard]] std::size_t row_bytes(vertex_t v) const noexcept {
        return static_cast<std::size_t>(byte_offsets_[v + 1] -
                                        byte_offsets_[v]);
    }

    /// Scans v's adjacency, `fn(w)` per neighbour in storage (ascending)
    /// order; an `fn` returning bool stops at its first false. Returns
    /// the payload bytes consumed up to the stop — the bytes_decoded
    /// feed, here literally "bytes from the mapping".
    template <class Fn>
    std::size_t neighbors_for_each(vertex_t v, Fn&& fn) const noexcept {
        const vertex_t deg = degrees_[v];
        if (deg == 0) return 0;
        const std::uint8_t* p = payload_ + byte_offsets_[v];
        if (payload_kind_ == PagedPayload::kVarintBlob)
            return varint::decode_row(p, v, deg, fn);
        const auto* adj = reinterpret_cast<const vertex_t*>(p);
        vertex_t i = 0;
        while (i < deg && detail::keep_scanning(fn, adj[i++])) {
        }
        return static_cast<std::size_t>(i) * sizeof(vertex_t);
    }

    /// Prefetches the *resident* adjacency metadata a scan of `v` reads
    /// first — never the payload (that is the async prefetcher's job).
    void prefetch_adjacency(vertex_t v) const noexcept {
        prefetch_read(&byte_offsets_[v]);
        prefetch_read(&degrees_[v]);
    }

    /// Byte offsets into the mapped payload, n+1 entries (resident).
    [[nodiscard]] std::span<const edge_offset_t> offsets() const noexcept {
        return byte_offsets_.span();
    }
    [[nodiscard]] std::span<const vertex_t> degrees() const noexcept {
        return degrees_.span();
    }

    [[nodiscard]] PagedPayload payload() const noexcept {
        return payload_kind_;
    }

    /// Total payload bytes backing the mapping (on disk, not resident).
    [[nodiscard]] std::size_t payload_bytes() const noexcept {
        return byte_offsets_.empty()
                   ? 0
                   : static_cast<std::size_t>(
                         byte_offsets_[byte_offsets_.size() - 1]);
    }

    /// RESIDENT bytes only — the backend's whole point is that this
    /// excludes the payload: byte offsets (8 B/vertex) + degrees
    /// (4 B/vertex).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return byte_offsets_.size() * sizeof(edge_offset_t) +
               degrees_.size() * sizeof(vertex_t);
    }

    /// Hands the next frontier to the background prefetcher: it
    /// coalesces the rows into page ranges, issues madvise(WILLNEED)
    /// and background-touches the non-resident pages, overlapping
    /// stripe I/O with the current level's scan. Advisory and
    /// non-blocking — a new request supersedes an unprocessed one, and
    /// a read failure (including SGE_FAULT_PAGED_READ) degrades to
    /// skipping the range. No-op when the prefetcher is off.
    void prefetch_frontier(const vertex_t* items, std::size_t count) const;

    [[nodiscard]] bool prefetch_enabled() const noexcept;

    /// Blocks until the prefetcher has drained every accepted request —
    /// deterministic counter reads for tests and the ablation bench.
    void prefetch_quiesce() const;

    /// Drops the payload from memory: MADV_DONTNEED over the mapping
    /// plus POSIX_FADV_DONTNEED on every stripe, so the next traversal
    /// re-reads from disk — root-free cold-run emulation
    /// (bench_util.hpp evict_paged).
    void evict() const noexcept;

    /// Payload bytes currently resident (mincore sweep, page-rounded).
    [[nodiscard]] std::size_t resident_payload_bytes() const;

    [[nodiscard]] const PagedIoStats& io_stats() const noexcept;

    /// Manifest path this graph was opened from (empty for a
    /// default-constructed instance).
    [[nodiscard]] const std::string& path() const noexcept;

    /// Structural checks on an untrusted instance: monotone offsets
    /// bounded by the payload, degree sum == num_edges(), per-row byte
    /// sizes consistent with the payload format, and for varint payload
    /// a full bounds-checked decode. After this returns true the
    /// unchecked hot-path scan is safe.
    [[nodiscard]] bool well_formed() const noexcept;

  private:
    friend PagedGraph open_paged_graph(const std::string&,
                                       const PagedOpenOptions&);
    friend PagedGraph make_paged(const CsrGraph&, const std::string&,
                                 const PagedWriteOptions&,
                                 const PagedOpenOptions&);

    struct Io;  // mapping, stripe fds, prefetcher (paged_graph.cpp)

    AlignedBuffer<edge_offset_t> byte_offsets_;  // n+1, resident
    AlignedBuffer<vertex_t> degrees_;            // n, resident
    const std::uint8_t* payload_ = nullptr;      // mapped, read-only
    edge_offset_t num_edges_ = 0;
    PagedPayload payload_kind_ = PagedPayload::kPlainTargets;
    bool symmetric_ = false;
    std::uint64_t id_ = next_graph_id();
    std::unique_ptr<Io> io_;
};

/// Writes the paged container for `g`: a manifest ("SGEPGR01": payload
/// kind, n, m, payload_bytes, stripe_bytes, num_stripes,
/// byte_offsets[n+1], degrees[n]) at `path` plus `path`.s0000...
/// stripe files of PagedWriteOptions::stripe_bytes each (page-rounded;
/// last stripe short). kVarintBlob encodes via csr_compress first.
void write_paged_graph(const CsrGraph& g, const std::string& path,
                       const PagedWriteOptions& options = {});

/// Same container from an already-encoded graph (payload kVarintBlob).
void write_paged_graph(const CompressedCsrGraph& g, const std::string& path,
                       const PagedWriteOptions& options = {});

/// Opens a paged container: validates the untrusted manifest against
/// its file size *before* any allocation (the read_csr size-gate
/// discipline), checks every stripe file's existence and exact size,
/// maps the stripes contiguously, and (by default) runs the full
/// payload validation. Throws PagedIoError on any problem.
[[nodiscard]] PagedGraph open_paged_graph(const std::string& path,
                                          const PagedOpenOptions& options = {});

/// write + open in one step (bench/test convenience); the opened graph
/// keeps `g`'s symmetry stamp.
[[nodiscard]] PagedGraph make_paged(const CsrGraph& g, const std::string& path,
                                    const PagedWriteOptions& write_options = {},
                                    const PagedOpenOptions& open_options = {});

/// Removes the manifest and every stripe file of a paged container.
/// Missing files are ignored.
void remove_paged_files(const std::string& path) noexcept;

}  // namespace sge
