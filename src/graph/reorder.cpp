#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sge {

std::vector<vertex_t> degree_descending_order(const CsrGraph& g) {
    const vertex_t n = g.num_vertices();
    std::vector<vertex_t> by_degree(n);
    std::iota(by_degree.begin(), by_degree.end(), vertex_t{0});
    // stable: equal-degree vertices keep id order (determinism).
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](vertex_t a, vertex_t b) {
                         return g.degree(a) > g.degree(b);
                     });
    std::vector<vertex_t> perm(n);
    for (vertex_t rank = 0; rank < n; ++rank) perm[by_degree[rank]] = rank;
    return perm;
}

std::vector<vertex_t> bfs_visit_order(const CsrGraph& g, vertex_t root) {
    const vertex_t n = g.num_vertices();
    if (root >= n) throw std::out_of_range("bfs_visit_order: root out of range");

    std::vector<vertex_t> perm(n, kInvalidVertex);
    std::vector<vertex_t> queue;
    queue.reserve(n);
    vertex_t next_id = 0;

    perm[root] = next_id++;
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        for (const vertex_t w : g.neighbors(queue[head])) {
            if (perm[w] != kInvalidVertex) continue;
            perm[w] = next_id++;
            queue.push_back(w);
        }
    }
    // Unreached vertices: append in original id order.
    for (vertex_t v = 0; v < n; ++v)
        if (perm[v] == kInvalidVertex) perm[v] = next_id++;
    return perm;
}

CsrGraph apply_vertex_permutation(const CsrGraph& g,
                                  std::span<const vertex_t> perm) {
    const vertex_t n = g.num_vertices();
    if (perm.size() != n)
        throw std::invalid_argument(
            "apply_vertex_permutation: permutation size != num_vertices");
    std::vector<bool> hit(n, false);
    for (const vertex_t p : perm) {
        if (p >= n || hit[p])
            throw std::invalid_argument(
                "apply_vertex_permutation: not a permutation of [0, n)");
        hit[p] = true;
    }

    // Row perm[v] is row v relabelled and sorted like the builder's rows.
    // Arcs are copied one-for-one, so multiplicity and the symmetry
    // stamp carry over.
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(n) + 1,
                                         /*zeroed=*/true);
    for (vertex_t v = 0; v < n; ++v) offsets[perm[v] + 1] = g.degree(v);
    for (vertex_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    AlignedBuffer<vertex_t> targets(static_cast<std::size_t>(g.num_edges()));
    for (vertex_t v = 0; v < n; ++v) {
        vertex_t* const row = targets.data() + offsets[perm[v]];
        vertex_t* end = row;
        for (const vertex_t w : g.neighbors(v)) *end++ = perm[w];
        std::sort(row, end);
    }
    return CsrGraph(std::move(offsets), std::move(targets), g.symmetric());
}

}  // namespace sge
