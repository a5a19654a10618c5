#include "graph/subgraph.hpp"

#include <algorithm>
#include <stdexcept>

namespace sge {

Subgraph induced_subgraph(const CsrGraph& g, std::span<const vertex_t> vertices) {
    const vertex_t n = g.num_vertices();

    Subgraph out;
    out.new_of.assign(n, kInvalidVertex);
    for (const vertex_t v : vertices) {
        if (v >= n)
            throw std::out_of_range("induced_subgraph: vertex id out of range");
        if (out.new_of[v] != kInvalidVertex) continue;  // deduplicate
        out.new_of[v] = static_cast<vertex_t>(out.original_of.size());
        out.original_of.push_back(v);
    }

    // Two passes over the kept rows (count, then fill and sort like the
    // builder). Arcs are copied one-for-one, so multiplicity is exact and
    // an induced subgraph of a symmetric graph is symmetric.
    const auto k = static_cast<vertex_t>(out.original_of.size());
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(k) + 1);
    offsets[0] = 0;
    for (vertex_t nv = 0; nv < k; ++nv) {
        edge_offset_t kept = 0;
        for (const vertex_t w : g.neighbors(out.original_of[nv]))
            kept += out.new_of[w] != kInvalidVertex;
        offsets[nv + 1] = offsets[nv] + kept;
    }
    AlignedBuffer<vertex_t> targets(static_cast<std::size_t>(offsets[k]));
    for (vertex_t nv = 0; nv < k; ++nv) {
        vertex_t* const row = targets.data() + offsets[nv];
        vertex_t* end = row;
        for (const vertex_t w : g.neighbors(out.original_of[nv]))
            if (out.new_of[w] != kInvalidVertex) *end++ = out.new_of[w];
        std::sort(row, end);
    }
    out.graph = CsrGraph(std::move(offsets), std::move(targets), g.symmetric());
    return out;
}

Subgraph largest_component_subgraph(const CsrGraph& g) {
    const vertex_t n = g.num_vertices();
    if (n == 0) return induced_subgraph(g, {});

    // Flood-fill component labelling (kept local so the graph layer does
    // not depend on analytics).
    constexpr std::uint32_t kUnassigned = ~0u;
    std::vector<std::uint32_t> component(n, kUnassigned);
    std::vector<std::uint64_t> sizes;
    std::vector<vertex_t> stack;
    for (vertex_t seed = 0; seed < n; ++seed) {
        if (component[seed] != kUnassigned) continue;
        const auto id = static_cast<std::uint32_t>(sizes.size());
        sizes.push_back(0);
        component[seed] = id;
        stack.push_back(seed);
        while (!stack.empty()) {
            const vertex_t u = stack.back();
            stack.pop_back();
            ++sizes[id];
            for (const vertex_t v : g.neighbors(u)) {
                if (component[v] != kUnassigned) continue;
                component[v] = id;
                stack.push_back(v);
            }
        }
    }

    std::uint32_t best = 0;
    for (std::uint32_t c = 1; c < sizes.size(); ++c)
        if (sizes[c] > sizes[best]) best = c;

    std::vector<vertex_t> members;
    members.reserve(static_cast<std::size_t>(sizes[best]));
    for (vertex_t v = 0; v < n; ++v)
        if (component[v] == best) members.push_back(v);
    return induced_subgraph(g, members);
}

}  // namespace sge
