#include "stream/dynamic_graph.hpp"

#include <algorithm>

#include "runtime/aligned_buffer.hpp"

namespace sge {

CsrGraph DynamicGraph::snapshot() const {
    const vertex_t n = num_vertices();
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(n) + 1);
    offsets[0] = 0;
    for (vertex_t v = 0; v < n; ++v)
        offsets[v + 1] = offsets[v] + adjacency_[v].size();

    // Dirty lists are sorted in place once (clearing their flag), so a
    // stream of snapshots pays sorting only for the vertices actually
    // touched between them; everything else is a straight copy. The
    // n == 0 path constructs a zero-count targets buffer (AlignedBuffer
    // allocates nothing) and a one-entry offsets array — a well-formed
    // empty CSR.
    AlignedBuffer<vertex_t> targets(static_cast<std::size_t>(offsets[n]));
    for (vertex_t v = 0; v < n; ++v) {
        auto& adj = adjacency_[v];
        if (!sorted_[v]) {
            std::sort(adj.begin(), adj.end());
            sorted_[v] = 1;
        }
        std::copy(adj.begin(), adj.end(), targets.data() + offsets[v]);
    }
    return CsrGraph(std::move(offsets), std::move(targets), symmetric_);
}

}  // namespace sge
