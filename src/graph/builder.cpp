#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace sge {

CsrGraph csr_from_edges(const EdgeList& edges, const BuildOptions& opts) {
    const vertex_t n = edges.num_vertices();

    // Validate ids up front: a malformed generator or input file must not
    // turn into out-of-bounds writes during the counting sort.
    for (const Edge& e : edges)
        if (e.src >= n || e.dst >= n)
            throw std::out_of_range("csr_from_edges: edge endpoint >= num_vertices");

    // Pass 1: out-degree histogram.
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(n) + 1,
                                         /*zeroed=*/true);
    for (const Edge& e : edges) {
        if (opts.remove_self_loops && e.src == e.dst) continue;
        ++offsets[e.src + 1];
        if (opts.make_undirected) ++offsets[e.dst + 1];
    }

    // Exclusive prefix sum -> provisional offsets.
    for (vertex_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    const edge_offset_t m = offsets[n];

    // Pass 2: scatter targets using a moving cursor per vertex.
    AlignedBuffer<vertex_t> targets(static_cast<std::size_t>(m));
    AlignedBuffer<edge_offset_t> cursor(static_cast<std::size_t>(n));
    for (vertex_t v = 0; v < n; ++v) cursor[v] = offsets[v];
    for (const Edge& e : edges) {
        if (opts.remove_self_loops && e.src == e.dst) continue;
        targets[cursor[e.src]++] = e.dst;
        if (opts.make_undirected) targets[cursor[e.dst]++] = e.src;
    }

    if (!opts.sort_neighbors && !opts.deduplicate)
        return CsrGraph(std::move(offsets), std::move(targets),
                        opts.make_undirected);

    // Pass 3: per-vertex sort (and optional dedup). Deduplication
    // compacts in place and rewrites offsets.
    if (!opts.deduplicate) {
        for (vertex_t v = 0; v < n; ++v)
            std::sort(targets.data() + offsets[v], targets.data() + offsets[v + 1]);
        return CsrGraph(std::move(offsets), std::move(targets),
                        opts.make_undirected);
    }

    edge_offset_t write = 0;
    edge_offset_t prev_begin = 0;
    for (vertex_t v = 0; v < n; ++v) {
        const edge_offset_t begin = prev_begin;
        const edge_offset_t end = offsets[v + 1];
        prev_begin = end;
        std::sort(targets.data() + begin, targets.data() + end);
        const edge_offset_t row_start = write;
        for (edge_offset_t e = begin; e < end; ++e) {
            if (e > begin && targets[e] == targets[e - 1]) continue;
            targets[write++] = targets[e];
        }
        offsets[v] = row_start;
    }
    offsets[n] = write;
    // Shift offsets down: offsets[v] currently holds row starts already.
    // (Row starts were written in increasing v, never clobbering unread
    // data because write <= begin at all times.)

    // Copy the compacted prefix into a right-sized buffer so the graph
    // does not pin the over-allocated storage for its lifetime.
    AlignedBuffer<vertex_t> compact(static_cast<std::size_t>(write));
    std::copy(targets.begin(), targets.begin() + write, compact.begin());
    return CsrGraph(std::move(offsets), std::move(compact), opts.make_undirected);
}

EdgeList edges_from_csr(const CsrGraph& g) {
    EdgeList out(g.num_vertices());
    out.reserve(static_cast<std::size_t>(g.num_edges()));
    for (vertex_t v = 0; v < g.num_vertices(); ++v)
        for (vertex_t w : g.neighbors(v)) out.add(v, w);
    return out;
}

}  // namespace sge
