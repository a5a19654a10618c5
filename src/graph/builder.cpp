#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "concurrency/thread_team.hpp"

namespace sge {

namespace {

/// Fewest input edges the default overload gives a part: below this, a
/// worker's start-up costs more than its share of the passes.
constexpr std::size_t kMinEdgesPerPart = std::size_t{1} << 16;

/// Where a build's parts run: one part on the calling thread, more on
/// `team`, one per worker.
struct Parts {
    ThreadTeam* team;
    int count;

    void run(const std::function<void(int)>& fn) const {
        if (count == 1)
            fn(0);
        else
            team->run(fn);
    }
};

/// The arcs an input yields before self-loops are dropped: an upper
/// bound on every pass's arc count.
std::size_t arc_bound(const EdgeList& edges, const BuildOptions& opts) {
    return edges.num_edges() * (opts.make_undirected ? 2 : 1);
}

/// Per-part cursors index the arc array: 32 bits while every arc index
/// fits, which halves the histograms.
bool narrow_cursors(std::size_t arcs) {
    return arcs <= std::numeric_limits<std::uint32_t>::max();
}

/// Rows of one counting-sort pass, in CSR form.
struct Rows {
    AlignedBuffer<edge_offset_t> offsets;
    AlignedBuffer<vertex_t> values;
};

/// Row bounds cutting `offsets` into `parts` ranges of about equal arc
/// count: part p owns rows [cut[p], cut[p + 1]). A row is never split.
std::vector<vertex_t> cut_rows(const AlignedBuffer<edge_offset_t>& offsets,
                               int parts) {
    const auto n = static_cast<vertex_t>(offsets.size() - 1);
    const edge_offset_t m = offsets[n];
    std::vector<vertex_t> cut(static_cast<std::size_t>(parts) + 1, n);
    for (int p = 0; p < parts; ++p)
        cut[static_cast<std::size_t>(p)] = static_cast<vertex_t>(
            std::lower_bound(offsets.begin(), offsets.begin() + n,
                             m * static_cast<edge_offset_t>(p) /
                                 static_cast<edge_offset_t>(parts)) -
            offsets.begin());
    return cut;
}

/// One stable counting-sort pass over n rows. `arcs(p, emit)` streams
/// part p's arcs to `emit(row, value)` and returns false at an endpoint
/// out of range; row r of the result holds the values emitted with r,
/// part 0's first, each part's in emission order. `hist` holds one n-row
/// histogram per part; the pass leaves its cursors there.
template <class Count, class Arcs>
Rows counting_sort(const Parts& parts, vertex_t n, AlignedBuffer<Count>& hist,
                   const Arcs& arcs) {
    const auto histogram = [&hist, n](int p) {
        return hist.data() + static_cast<std::size_t>(p) * n;
    };

    // Each part counts its arcs per row into its own histogram. The
    // endpoint check comes first, so no count lands out of range, and
    // the throw comes before any arc array exists.
    std::atomic<bool> out_of_range{false};
    parts.run([&](int p) {
        Count* const h = histogram(p);
        std::fill(h, h + n, Count{0});
        if (!arcs(p, [h](vertex_t row, vertex_t) { ++h[row]; }))
            out_of_range.store(true, std::memory_order_relaxed);
    });
    if (out_of_range.load(std::memory_order_relaxed))
        throw std::out_of_range("csr_from_edges: edge endpoint >= num_vertices");

    // Exclusive prefix sum, row-major and then in part order: part p's
    // cursor in row r starts after parts < p's arcs of that row, which
    // keeps each row in part (and so emission) order.
    Rows rows{AlignedBuffer<edge_offset_t>(static_cast<std::size_t>(n) + 1), {}};
    edge_offset_t sum = 0;
    for (vertex_t r = 0; r < n; ++r) {
        rows.offsets[r] = sum;
        for (int p = 0; p < parts.count; ++p) {
            Count& c = histogram(p)[r];
            const Count k = c;
            c = static_cast<Count>(sum);
            sum += k;
        }
    }
    rows.offsets[n] = sum;

    // Each part writes its arcs through its own cursors: disjoint slots.
    rows.values = AlignedBuffer<vertex_t>(static_cast<std::size_t>(sum));
    vertex_t* const out = rows.values.data();
    parts.run([&](int p) {
        Count* const cursor = histogram(p);
        arcs(p, [cursor, out](vertex_t row, vertex_t value) {
            out[cursor[row]++] = value;
        });
    });
    return rows;
}

/// Copies each row of `rows` into a right-sized array without adjacent
/// repeats; returns `rows` itself when it has none.
Rows deduplicate(const Parts& parts, Rows rows) {
    const auto n = static_cast<vertex_t>(rows.offsets.size() - 1);
    const std::vector<vertex_t> cut = cut_rows(rows.offsets, parts.count);
    const edge_offset_t* const from = rows.offsets.data();
    const vertex_t* const values = rows.values.data();

    // Each part counts the distinct values of its rows...
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(n) + 1);
    parts.run([&](int p) {
        for (vertex_t v = cut[static_cast<std::size_t>(p)];
             v < cut[static_cast<std::size_t>(p) + 1]; ++v) {
            edge_offset_t distinct = from[v + 1] > from[v] ? 1 : 0;
            for (edge_offset_t i = from[v] + 1; i < from[v + 1]; ++i)
                distinct += values[i] != values[i - 1] ? 1 : 0;
            offsets[v + 1] = distinct;
        }
    });
    offsets[0] = 0;
    for (vertex_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    if (offsets[n] == from[n]) return rows;

    // ...then copies them, comparing each value with its predecessor.
    AlignedBuffer<vertex_t> targets(static_cast<std::size_t>(offsets[n]));
    parts.run([&](int p) {
        for (vertex_t v = cut[static_cast<std::size_t>(p)];
             v < cut[static_cast<std::size_t>(p) + 1]; ++v) {
            vertex_t* out = targets.data() + offsets[v];
            for (edge_offset_t i = from[v]; i < from[v + 1]; ++i)
                if (i == from[v] || values[i] != values[i - 1]) *out++ = values[i];
        }
    });
    return {std::move(offsets), std::move(targets)};
}

template <class Count>
CsrGraph build(const EdgeList& edges, const BuildOptions& opts,
               const Parts& parts) {
    const vertex_t n = edges.num_vertices();
    const std::span<const Edge> input = edges.edges();
    const bool drop_loops = opts.remove_self_loops;
    const bool undirected = opts.make_undirected;
    const bool sorted = opts.sort_neighbors || opts.deduplicate;
    AlignedBuffer<Count> hist(static_cast<std::size_t>(parts.count) * n);

    // Pass 1 cuts the input evenly. Rows are keyed by source when it is
    // the only pass, by target when pass 2 follows.
    const auto edge_arcs = [input, n, drop_loops, undirected, sorted,
                            count = parts.count](int p, auto&& emit) {
        const std::size_t lo = input.size() * static_cast<std::size_t>(p) /
                               static_cast<std::size_t>(count);
        const std::size_t hi = input.size() * static_cast<std::size_t>(p + 1) /
                               static_cast<std::size_t>(count);
        for (std::size_t i = lo; i < hi; ++i) {
            const Edge e = input[i];
            if (e.src >= n || e.dst >= n) return false;
            if (drop_loops && e.src == e.dst) continue;
            const vertex_t key = sorted ? e.dst : e.src;
            const vertex_t value = sorted ? e.src : e.dst;
            emit(key, value);
            if (undirected) emit(value, key);
        }
        return true;
    };
    Rows first = counting_sort(parts, n, hist, edge_arcs);
    if (!sorted)
        return CsrGraph(std::move(first.offsets), std::move(first.values),
                        undirected);

    // Pass 2 cuts pass 1's rows by arc count. Walking target rows in
    // ascending order hands each source its targets in ascending order.
    const std::vector<vertex_t> cut = cut_rows(first.offsets, parts.count);
    const edge_offset_t* const offsets = first.offsets.data();
    const vertex_t* const sources = first.values.data();
    const auto transposed_arcs = [&cut, offsets, sources](int p, auto&& emit) {
        for (vertex_t w = cut[static_cast<std::size_t>(p)];
             w < cut[static_cast<std::size_t>(p) + 1]; ++w)
            for (edge_offset_t i = offsets[w]; i < offsets[w + 1]; ++i)
                emit(sources[i], w);
        return true;
    };
    Rows rows = counting_sort(parts, n, hist, transposed_arcs);
    first = {};
    hist = {};
    if (opts.deduplicate) rows = deduplicate(parts, std::move(rows));
    return CsrGraph(std::move(rows.offsets), std::move(rows.values), undirected);
}

CsrGraph build(const EdgeList& edges, const BuildOptions& opts,
               const Parts& parts) {
    if (narrow_cursors(arc_bound(edges, opts)))
        return build<std::uint32_t>(edges, opts, parts);
    return build<edge_offset_t>(edges, opts, parts);
}

/// The default overload's part count before the host's CPUs cap it.
std::size_t parts_for(const EdgeList& edges, const BuildOptions& opts) {
    const std::size_t arcs = arc_bound(edges, opts);
    std::size_t parts = edges.num_edges() / kMinEdgesPerPart;
    const std::size_t n = edges.num_vertices();
    if (n > 0) {
        const std::size_t cursor_bytes = narrow_cursors(arcs)
                                             ? sizeof(std::uint32_t)
                                             : sizeof(edge_offset_t);
        parts = std::min(parts, arcs * sizeof(vertex_t) / (n * cursor_bytes));
    }
    return parts;
}

}  // namespace

CsrGraph csr_from_edges(const EdgeList& edges, const BuildOptions& opts) {
    const std::size_t wanted = parts_for(edges, opts);
    if (wanted >= 2) {
        Topology topo = Topology::detect();
        const int parts = static_cast<int>(
            std::min<std::size_t>(wanted, static_cast<std::size_t>(topo.max_threads())));
        if (parts >= 2) {
            ThreadTeam team(parts, std::move(topo));
            return build(edges, opts, Parts{&team, parts});
        }
    }
    return build(edges, opts, Parts{nullptr, 1});
}

CsrGraph csr_from_edges(const EdgeList& edges, const BuildOptions& opts,
                        ThreadTeam& team) {
    return build(edges, opts, Parts{&team, team.size()});
}

EdgeList edges_from_csr(const CsrGraph& g) {
    EdgeList out(g.num_vertices());
    out.reserve(static_cast<std::size_t>(g.num_edges()));
    for (vertex_t v = 0; v < g.num_vertices(); ++v)
        for (vertex_t w : g.neighbors(v)) out.add(v, w);
    return out;
}

}  // namespace sge
