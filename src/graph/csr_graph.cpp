#include "graph/csr_graph.hpp"

#include <algorithm>

namespace sge {

bool CsrGraph::has_edge(vertex_t u, vertex_t v) const noexcept {
    if (u >= num_vertices()) return false;
    const auto adj = neighbors(u);
    return std::find(adj.begin(), adj.end(), v) != adj.end();
}

bool CsrGraph::well_formed() const noexcept {
    if (offsets_.empty()) return targets_.size() == 0;
    if (offsets_[0] != 0) return false;
    const vertex_t n = num_vertices();
    for (vertex_t v = 0; v < n; ++v)
        if (offsets_[v] > offsets_[v + 1]) return false;
    if (offsets_[n] != targets_.size()) return false;
    for (std::size_t e = 0; e < targets_.size(); ++e)
        if (targets_[e] >= n) return false;
    return true;
}

bool operator==(const CsrGraph& a, const CsrGraph& b) noexcept {
    return a.offsets_.size() == b.offsets_.size() &&
           a.targets_.size() == b.targets_.size() &&
           std::equal(a.offsets_.begin(), a.offsets_.end(), b.offsets_.begin()) &&
           std::equal(a.targets_.begin(), a.targets_.end(), b.targets_.begin());
}

}  // namespace sge
