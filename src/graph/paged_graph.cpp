#include "graph/paged_graph.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/fault.hpp"

namespace sge {

namespace {

constexpr char kPagedMagic[8] = {'S', 'G', 'E', 'P', 'G', 'R', '0', '1'};

/// magic + payload kind + n + m + payload_bytes + stripe_bytes +
/// num_stripes, all u64 except the magic.
constexpr std::uint64_t kManifestHeaderBytes =
    sizeof(kPagedMagic) + 6 * sizeof(std::uint64_t);

std::size_t page_bytes() noexcept {
    const long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : 4096;
}

std::string stripe_path(const std::string& path, std::size_t index) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".s%04zu", index);
    return path + suffix;
}

[[noreturn]] void fail(const char* who, const char* why,
                       const std::string& path) {
    throw PagedIoError(std::string(who) + ": " + why + ": " + path);
}

void write_raw(std::ofstream& out, const void* p, std::size_t bytes,
               const std::string& path) {
    out.write(static_cast<const char*>(p),
              static_cast<std::streamsize>(bytes));
    if (!out) fail("write_paged_graph", "short write", path);
}

void read_raw(std::ifstream& in, void* p, std::size_t bytes,
              const std::string& path) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in.gcount()) != bytes)
        fail("open_paged_graph", "truncated manifest", path);
}

/// Writes the manifest + stripe files for prebuilt arrays. The payload
/// kind only matters to readers; here it is an opaque byte stream.
void write_paged_container(const std::string& path, PagedPayload kind,
                           std::uint64_t n, std::uint64_t m,
                           const edge_offset_t* byte_offsets,
                           const vertex_t* degrees,
                           const std::uint8_t* payload,
                           std::uint64_t payload_bytes,
                           std::size_t stripe_bytes_opt) {
    const std::size_t page = page_bytes();
    std::size_t stripe_bytes = stripe_bytes_opt < page ? page : stripe_bytes_opt;
    stripe_bytes = (stripe_bytes + page - 1) / page * page;
    const std::uint64_t num_stripes =
        payload_bytes == 0 ? 0 : (payload_bytes + stripe_bytes - 1) / stripe_bytes;

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) fail("write_paged_graph", "cannot open manifest", path);
    const auto kind_raw = static_cast<std::uint64_t>(kind);
    const auto stripe_bytes64 = static_cast<std::uint64_t>(stripe_bytes);
    write_raw(out, kPagedMagic, sizeof(kPagedMagic), path);
    write_raw(out, &kind_raw, sizeof(kind_raw), path);
    write_raw(out, &n, sizeof(n), path);
    write_raw(out, &m, sizeof(m), path);
    write_raw(out, &payload_bytes, sizeof(payload_bytes), path);
    write_raw(out, &stripe_bytes64, sizeof(stripe_bytes64), path);
    write_raw(out, &num_stripes, sizeof(num_stripes), path);
    write_raw(out, byte_offsets, (n + 1) * sizeof(edge_offset_t), path);
    write_raw(out, degrees, n * sizeof(vertex_t), path);
    out.close();
    if (!out) fail("write_paged_graph", "short write", path);

    for (std::uint64_t i = 0; i < num_stripes; ++i) {
        const std::uint64_t begin = i * stripe_bytes;
        const std::uint64_t len =
            std::min<std::uint64_t>(stripe_bytes, payload_bytes - begin);
        const std::string spath = stripe_path(path, i);
        std::ofstream sout(spath, std::ios::binary | std::ios::trunc);
        if (!sout) fail("write_paged_graph", "cannot open stripe", spath);
        write_raw(sout, payload + begin, static_cast<std::size_t>(len), spath);
        sout.close();
        if (!sout) fail("write_paged_graph", "short write", spath);
    }
}

}  // namespace

std::string to_string(PagedPayload payload) {
    switch (payload) {
        case PagedPayload::kPlainTargets: return "plain_targets";
        case PagedPayload::kVarintBlob: return "varint_blob";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// Io: mapping, stripe fds and the async prefetcher.
// ---------------------------------------------------------------------

struct PagedGraph::Io {
    std::string manifest_path;
    std::vector<std::string> stripe_paths;
    std::vector<int> fds;
    std::uint8_t* base = nullptr;
    std::size_t map_len = 0;      // page-rounded reservation
    std::size_t payload_len = 0;  // exact payload bytes
    std::size_t stripe_len = 0;   // bytes per full stripe
    std::size_t page = 4096;
    bool owns_files = false;

    // Resident-metadata mirrors for the prefetcher thread; stable
    // across PagedGraph moves because AlignedBuffer storage never
    // relocates.
    const edge_offset_t* offsets = nullptr;
    const vertex_t* degrees = nullptr;
    std::size_t n = 0;

    mutable PagedIoStats stats;

    // ---- prefetcher state ----
    bool prefetch_on = false;
    // Background-touching pages is only a win when a hart is free to
    // absorb the stripe reads; on a single-CPU machine the toucher
    // would timeslice against the traversal itself, so the worker
    // stops at madvise(WILLNEED) and lets the kernel's async readahead
    // provide the only overlap available.
    bool touch_pages = true;
    // On a single-CPU machine a dedicated worker thread adds nothing
    // but wakeup/preemption churn to every level barrier; the batch is
    // processed inline instead (same counters, same WILLNEED batching,
    // no thread).
    bool inline_prefetch = false;
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    mutable std::vector<vertex_t> pending;  // latest unprocessed request
    mutable std::vector<std::uint64_t> wanted;  // worker's page bitmap
    mutable bool has_pending = false;
    mutable bool busy = false;
    bool stop = false;
    std::thread worker;

    ~Io() {
        if (worker.joinable()) {
            {
                std::lock_guard guard(mu);
                stop = true;
            }
            cv.notify_all();
            worker.join();
        }
        if (base != nullptr) ::munmap(base, map_len);
        for (const int fd : fds)
            if (fd >= 0) ::close(fd);
        if (owns_files) {
            ::unlink(manifest_path.c_str());
            for (const std::string& s : stripe_paths) ::unlink(s.c_str());
        }
    }

    void start_prefetcher() {
        prefetch_on = true;
        touch_pages = std::thread::hardware_concurrency() > 1;
        inline_prefetch = !touch_pages;
        if (inline_prefetch) return;
        pending.reserve(n);
        worker = std::thread([this] { prefetch_loop(); });
    }

    void prefetch_loop() {
        std::vector<vertex_t> working;
        working.reserve(n);
        std::unique_lock lock(mu);
        for (;;) {
            cv.wait(lock, [this] { return stop || has_pending; });
            if (stop) return;
            working.swap(pending);
            pending.clear();
            has_pending = false;
            busy = true;
            lock.unlock();
            process(working.data(), working.size());
            working.clear();
            lock.lock();
            busy = false;
            cv.notify_all();  // wake prefetch_quiesce waiters
        }
    }

    /// Coalesces the frontier's rows into merged page ranges, then per
    /// range: count resident pages (prefetch_hits), madvise(WILLNEED),
    /// and background-touch the non-resident pages so the stripe read
    /// happens on this thread, not under a worker's scan. A failure —
    /// including the SGE_FAULT_PAGED_READ site — degrades to skipping
    /// the range; the demand fault path still yields a correct scan.
    void process(const vertex_t* ids, std::size_t count) const {
        if (base == nullptr) return;
        const std::size_t num_pages = (payload_len + page - 1) / page;
        if (num_pages == 0) return;
        // Page bitmap instead of a sorted range list: marking is
        // O(frontier), the merge walk O(payload pages) — the worker
        // must stay cheap enough that stealing it a timeslice from the
        // traversal costs less than the faults it hides.
        wanted.assign((num_pages + 63) / 64, 0);
        bool any = false;
        for (const vertex_t v : std::span(ids, count)) {
            if (static_cast<std::size_t>(v) >= n || degrees[v] == 0) continue;
            const auto begin = static_cast<std::size_t>(offsets[v]);
            const auto end = static_cast<std::size_t>(offsets[v + 1]);
            const std::size_t p1 = (end - 1) / page;
            for (std::size_t p = begin / page; p <= p1; ++p)
                wanted[p >> 6] |= std::uint64_t{1} << (p & 63u);
            any = true;
        }
        if (!any) return;
        std::vector<unsigned char> residency;
        const auto flush = [&](std::size_t first, std::size_t last) {
            const std::size_t pages = last - first + 1;
            std::uint8_t* addr = base + first * page;
            std::size_t len = pages * page;
            if (first * page + len > map_len) len = map_len - first * page;
            stats.prefetch_issued.fetch_add(pages, std::memory_order_relaxed);
            residency.assign(pages, 0);
            if (::mincore(addr, len, residency.data()) == 0) {
                std::size_t hits = 0;
                for (const unsigned char r : residency) hits += r & 1u;
                stats.prefetch_hits.fetch_add(hits, std::memory_order_relaxed);
            }
            if (fault::should_fire(fault::Site::kPagedRead)) return;
            ::madvise(addr, len, MADV_WILLNEED);
            if (stripe_len > 0) {
                const std::size_t s0 = (first * page) / stripe_len;
                const std::size_t s1 = (first * page + len - 1) / stripe_len;
                stats.stripe_reads.fetch_add(s1 - s0 + 1,
                                             std::memory_order_relaxed);
            }
            if (!touch_pages) return;
            for (std::size_t i = 0; i < pages; ++i) {
                if (residency[i] & 1u) continue;
                const volatile std::uint8_t* touch = addr + i * page;
                (void)*touch;
            }
        };
        // Runs of set pages are exactly the merged intervals the old
        // sorted-range walk produced (adjacent rows share pages, a
        // clear page separates intervals).
        std::size_t run_first = 0;
        bool in_run = false;
        for (std::size_t p = 0; p < num_pages; ++p) {
            const bool set =
                (wanted[p >> 6] >> (p & 63u)) & std::uint64_t{1};
            if (set && !in_run) {
                run_first = p;
                in_run = true;
            } else if (!set && in_run) {
                flush(run_first, p - 1);
                in_run = false;
            }
        }
        if (in_run) flush(run_first, num_pages - 1);
    }
};

PagedGraph::PagedGraph() = default;
PagedGraph::PagedGraph(PagedGraph&&) noexcept = default;
PagedGraph& PagedGraph::operator=(PagedGraph&&) noexcept = default;
PagedGraph::~PagedGraph() = default;

void PagedGraph::prefetch_frontier(const vertex_t* items,
                                   std::size_t count) const {
    if (!io_ || !io_->prefetch_on || items == nullptr || count == 0) return;
    if (io_->inline_prefetch) {
        // Single-CPU machines: issue the WILLNEED batch from the
        // calling thread — a worker would only preempt the traversal.
        io_->process(items, count);
        return;
    }
    {
        std::lock_guard guard(io_->mu);
        // Append to an unprocessed request (the multisocket engine hands
        // over one per-socket queue at a time); once the worker picks a
        // batch up, the next call starts a fresh one.
        if (io_->has_pending) {
            io_->pending.insert(io_->pending.end(), items, items + count);
        } else {
            io_->pending.assign(items, items + count);
            io_->has_pending = true;
        }
    }
    io_->cv.notify_one();
}

bool PagedGraph::prefetch_enabled() const noexcept {
    return io_ != nullptr && io_->prefetch_on;
}

void PagedGraph::prefetch_quiesce() const {
    if (!io_ || !io_->prefetch_on) return;
    std::unique_lock lock(io_->mu);
    io_->cv.wait(lock, [this] { return !io_->has_pending && !io_->busy; });
}

void PagedGraph::evict() const noexcept {
    if (!io_ || io_->base == nullptr) return;
    ::madvise(io_->base, io_->map_len, MADV_DONTNEED);
    for (const int fd : io_->fds) {
        if (fd < 0) continue;
        // Freshly written stripes may still be dirty in the page cache,
        // and DONTNEED cannot drop dirty pages — flush them first so
        // eviction works right after a spill (the cold-run bench path).
        ::fdatasync(fd);
        ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    }
}

std::size_t PagedGraph::resident_payload_bytes() const {
    if (!io_ || io_->base == nullptr) return 0;
    const std::size_t pages = io_->map_len / io_->page;
    std::vector<unsigned char> residency(pages, 0);
    if (::mincore(io_->base, io_->map_len, residency.data()) != 0) return 0;
    std::size_t resident = 0;
    for (const unsigned char r : residency) resident += r & 1u;
    return std::min(resident * io_->page, io_->payload_len);
}

const PagedIoStats& PagedGraph::io_stats() const noexcept {
    static const PagedIoStats kZero{};
    return io_ ? io_->stats : kZero;
}

const std::string& PagedGraph::path() const noexcept {
    static const std::string kEmpty;
    return io_ ? io_->manifest_path : kEmpty;
}

bool PagedGraph::well_formed() const noexcept {
    const std::size_t n = degrees_.size();
    if (byte_offsets_.size() != (n == 0 ? 0 : n + 1)) return n == 0;
    if (n == 0) return true;
    if (byte_offsets_[0] != 0) return false;
    const std::size_t payload_len = io_ ? io_->payload_len : 0;
    std::uint64_t degree_sum = 0;
    for (std::size_t v = 0; v < n; ++v) {
        if (byte_offsets_[v + 1] < byte_offsets_[v]) return false;
        degree_sum += degrees_[v];
    }
    if (byte_offsets_[n] != payload_len) return false;
    if (degree_sum != num_edges_) return false;
    if (payload_len > 0 && payload_ == nullptr) return false;

    if (payload_kind_ == PagedPayload::kPlainTargets) {
        for (std::size_t v = 0; v < n; ++v) {
            const std::uint64_t bytes = byte_offsets_[v + 1] - byte_offsets_[v];
            if (bytes != static_cast<std::uint64_t>(degrees_[v]) *
                             sizeof(vertex_t))
                return false;
            const auto* adj = reinterpret_cast<const vertex_t*>(
                payload_ + byte_offsets_[v]);
            for (vertex_t i = 0; i < degrees_[v]; ++i)
                if (adj[i] >= n) return false;
        }
        return true;
    }

    // Varint payload: the codec's one bounds-checked row validation.
    for (std::size_t v = 0; v < n; ++v)
        if (!varint::row_well_formed(payload_ + byte_offsets_[v],
                                     payload_ + byte_offsets_[v + 1],
                                     static_cast<vertex_t>(v), degrees_[v],
                                     static_cast<vertex_t>(n)))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------

void write_paged_graph(const CsrGraph& g, const std::string& path,
                       const PagedWriteOptions& options) {
    if (options.payload == PagedPayload::kVarintBlob) {
        write_paged_graph(csr_compress(g), path, options);
        return;
    }
    const std::uint64_t n = g.num_vertices();
    const std::uint64_t m = g.num_edges();
    AlignedBuffer<edge_offset_t> byte_offsets(static_cast<std::size_t>(n) + 1);
    AlignedBuffer<vertex_t> degrees(static_cast<std::size_t>(n));
    for (std::uint64_t v = 0; v <= n; ++v)
        byte_offsets[v] = g.offsets()[v] * sizeof(vertex_t);
    for (std::uint64_t v = 0; v < n; ++v)
        degrees[v] = static_cast<vertex_t>(g.degree(static_cast<vertex_t>(v)));
    write_paged_container(
        path, PagedPayload::kPlainTargets, n, m, byte_offsets.data(),
        degrees.data(),
        reinterpret_cast<const std::uint8_t*>(g.targets().data()),
        m * sizeof(vertex_t), options.stripe_bytes);
}

void write_paged_graph(const CompressedCsrGraph& g, const std::string& path,
                       const PagedWriteOptions& options) {
    const std::uint64_t n = g.num_vertices();
    write_paged_container(path, PagedPayload::kVarintBlob, n, g.num_edges(),
                          g.offsets().data(), g.degrees().data(),
                          g.blob().data(), g.blob().size(),
                          options.stripe_bytes);
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

PagedGraph open_paged_graph(const std::string& path,
                            const PagedOpenOptions& options) {
    // Fault site paged_read: simulate an unreadable backing store with
    // the same typed error a real failure raises.
    if (fault::should_fire(fault::Site::kPagedRead))
        fail("open_paged_graph", "paged_read fault injected", path);

    std::ifstream in(path, std::ios::binary);
    if (!in) fail("open_paged_graph", "cannot open manifest", path);
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    if (size < 0) fail("open_paged_graph", "cannot stat manifest", path);
    const auto file_bytes = static_cast<std::uint64_t>(size);

    char magic[8];
    read_raw(in, magic, sizeof(magic), path);
    if (std::memcmp(magic, kPagedMagic, sizeof(kPagedMagic)) != 0)
        fail("open_paged_graph", "bad magic", path);

    std::uint64_t kind_raw = 0;
    std::uint64_t n = 0;
    std::uint64_t m = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t stripe_bytes = 0;
    std::uint64_t num_stripes = 0;
    read_raw(in, &kind_raw, sizeof(kind_raw), path);
    read_raw(in, &n, sizeof(n), path);
    read_raw(in, &m, sizeof(m), path);
    read_raw(in, &payload_bytes, sizeof(payload_bytes), path);
    read_raw(in, &stripe_bytes, sizeof(stripe_bytes), path);
    read_raw(in, &num_stripes, sizeof(num_stripes), path);

    // Size-gate every untrusted header field against the file before
    // any allocation (the read_csr discipline): a corrupt 56-byte
    // header must not demand a multi-GB buffer.
    const std::size_t page = page_bytes();
    if (kind_raw > static_cast<std::uint64_t>(PagedPayload::kVarintBlob))
        fail("open_paged_graph", "unknown payload kind", path);
    const auto kind = static_cast<PagedPayload>(kind_raw);
    if (n >= kInvalidVertex)
        fail("open_paged_graph", "vertex count out of range", path);
    if (file_bytes != kManifestHeaderBytes +
                          (n + 1) * sizeof(edge_offset_t) +
                          n * sizeof(vertex_t))
        fail("open_paged_graph", "manifest size does not match header", path);
    if (stripe_bytes == 0 || stripe_bytes % page != 0)
        fail("open_paged_graph", "stripe size not a page multiple", path);
    const std::uint64_t expected_stripes =
        payload_bytes == 0 ? 0
                           : (payload_bytes + stripe_bytes - 1) / stripe_bytes;
    if (num_stripes != expected_stripes)
        fail("open_paged_graph", "stripe count does not match payload", path);
    if (kind == PagedPayload::kPlainTargets) {
        if (payload_bytes != m * sizeof(vertex_t))
            fail("open_paged_graph", "payload size does not match edge count",
                 path);
    } else if (m > payload_bytes) {
        // Every encoded edge costs at least one payload byte.
        fail("open_paged_graph", "header claims more edges than the payload",
             path);
    }

    AlignedBuffer<edge_offset_t> byte_offsets(static_cast<std::size_t>(n) + 1);
    AlignedBuffer<vertex_t> degrees(static_cast<std::size_t>(n));
    read_raw(in, byte_offsets.data(),
             byte_offsets.size() * sizeof(edge_offset_t), path);
    read_raw(in, degrees.data(), degrees.size() * sizeof(vertex_t), path);
    in.close();

    auto io = std::make_unique<PagedGraph::Io>();
    io->manifest_path = path;
    io->payload_len = static_cast<std::size_t>(payload_bytes);
    io->stripe_len = static_cast<std::size_t>(stripe_bytes);
    io->page = page;
    io->owns_files = options.owns_files;
    io->offsets = byte_offsets.data();
    io->degrees = degrees.data();
    io->n = static_cast<std::size_t>(n);

    if (payload_bytes > 0) {
        io->map_len = (io->payload_len + page - 1) / page * page;
        void* base = ::mmap(nullptr, io->map_len, PROT_NONE,
                            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (base == MAP_FAILED) {
            io->map_len = 0;
            fail("open_paged_graph", "cannot reserve payload mapping", path);
        }
        io->base = static_cast<std::uint8_t*>(base);
        io->fds.reserve(static_cast<std::size_t>(num_stripes));
        io->stripe_paths.reserve(static_cast<std::size_t>(num_stripes));
        for (std::uint64_t i = 0; i < num_stripes; ++i) {
            const std::string spath = stripe_path(path, i);
            io->stripe_paths.push_back(spath);
            const std::uint64_t begin = i * stripe_bytes;
            const std::uint64_t expect =
                std::min<std::uint64_t>(stripe_bytes, payload_bytes - begin);
            if (fault::should_fire(fault::Site::kPagedRead))
                fail("open_paged_graph", "paged_read fault injected", spath);
            struct ::stat st {};
            if (::stat(spath.c_str(), &st) != 0)
                fail("open_paged_graph", "missing stripe", spath);
            if (static_cast<std::uint64_t>(st.st_size) != expect)
                fail("open_paged_graph", "stripe size mismatch", spath);
            const int fd = ::open(spath.c_str(), O_RDONLY);
            if (fd < 0) fail("open_paged_graph", "cannot open stripe", spath);
            io->fds.push_back(fd);
            void* mapped = ::mmap(io->base + begin,
                                  static_cast<std::size_t>(expect), PROT_READ,
                                  MAP_PRIVATE | MAP_FIXED, fd, 0);
            if (mapped == MAP_FAILED)
                fail("open_paged_graph", "cannot map stripe", spath);
        }
        io->stats.bytes_mapped.store(io->map_len, std::memory_order_relaxed);
    }

    PagedGraph g;
    g.byte_offsets_ = std::move(byte_offsets);
    g.degrees_ = std::move(degrees);
    g.payload_ = io->base;
    g.payload_kind_ = kind;
    g.io_ = std::move(io);

    // Structural validation over the resident metadata + (optionally)
    // the mapped payload. Offsets that overshoot the payload — "offset
    // past EOF" — die here as a typed error, never as a later SIGBUS.
    std::uint64_t degree_sum = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
        if (g.byte_offsets_[v + 1] < g.byte_offsets_[v])
            fail("open_paged_graph", "non-monotone byte offsets", path);
        degree_sum += g.degrees_[v];
    }
    if (n > 0 && (g.byte_offsets_[0] != 0 ||
                  g.byte_offsets_[n] != payload_bytes))
        fail("open_paged_graph", "byte offsets do not span the payload", path);
    if (degree_sum != m)
        fail("open_paged_graph", "degree sum does not match edge count", path);
    g.num_edges_ = m;

    if (options.validate_payload && !g.well_formed())
        fail("open_paged_graph", "payload failed validation", path);

    if (options.prefetch && payload_bytes > 0) g.io_->start_prefetcher();
    return g;
}

PagedGraph make_paged(const CsrGraph& g, const std::string& path,
                      const PagedWriteOptions& write_options,
                      const PagedOpenOptions& open_options) {
    write_paged_graph(g, path, write_options);
    PagedGraph paged = open_paged_graph(path, open_options);
    paged.symmetric_ = g.symmetric();  // the manifest carries no stamp
    return paged;
}

void remove_paged_files(const std::string& path) noexcept {
    std::ifstream in(path, std::ios::binary);
    std::uint64_t num_stripes = 0;
    if (in) {
        char magic[8];
        in.read(magic, sizeof(magic));
        if (in.gcount() == sizeof(magic) &&
            std::memcmp(magic, kPagedMagic, sizeof(kPagedMagic)) == 0) {
            in.seekg(static_cast<std::streamoff>(sizeof(kPagedMagic) +
                                                 5 * sizeof(std::uint64_t)));
            in.read(reinterpret_cast<char*>(&num_stripes),
                    sizeof(num_stripes));
            if (in.gcount() != sizeof(num_stripes)) num_stripes = 0;
        }
        in.close();
    }
    // Cap the sweep so a corrupt count cannot spin forever; fall back
    // to probing until the first missing stripe.
    if (num_stripes > (std::uint64_t{1} << 20)) num_stripes = 1 << 20;
    for (std::uint64_t i = 0; i < num_stripes; ++i)
        ::unlink(stripe_path(path, i).c_str());
    ::unlink(path.c_str());
}

}  // namespace sge
