#include "core/validate.hpp"

#include <sstream>
#include <vector>

namespace sge {

namespace {

std::string describe_vertex(vertex_t v) {
    std::ostringstream out;
    out << "vertex " << v;
    return out.str();
}

}  // namespace

ValidationReport validate_bfs_tree(const CsrGraph& g, vertex_t root,
                                   const BfsResult& result) {
    const vertex_t n = g.num_vertices();
    if (root >= n) return ValidationReport::failure("root out of range");
    if (result.parent.size() != n)
        return ValidationReport::failure("parent array size != num_vertices");
    const bool have_levels = !result.level.empty();
    if (have_levels && result.level.size() != n)
        return ValidationReport::failure("level array size != num_vertices");

    // Rule 1: root anchors the tree.
    if (result.parent[root] != root)
        return ValidationReport::failure("root is not its own parent");
    if (have_levels && result.level[root] != 0)
        return ValidationReport::failure("root level != 0");

    // One sweep of the rows. It marks every v whose parent owns a row
    // holding v, which is rule 2's tree edge, and notes rule 4's first
    // violation, reported only once rules 2, 3 and 5 hold. Rule 4: BFS
    // levels are shortest-path distances, so no graph edge may skip a
    // level; and on symmetric graphs the reached set is closed under
    // adjacency.
    const bool symmetric = g.symmetric();
    std::vector<bool> tree_edge(n);
    std::string edge_error;
    for (vertex_t u = 0; u < n; ++u) {
        const bool u_reached = result.parent[u] != kInvalidVertex;
        for (const vertex_t v : g.neighbors(u)) {
            if (result.parent[v] == u) tree_edge[v] = true;
            if (!have_levels || !u_reached || !edge_error.empty()) continue;
            const bool v_reached = result.parent[v] != kInvalidVertex;
            if (symmetric && !v_reached) {
                edge_error = "edge (" + std::to_string(u) + ", " +
                             std::to_string(v) + ") leaves the reached set";
            } else if (v_reached) {
                const auto lu = static_cast<std::int64_t>(result.level[u]);
                const auto lv = static_cast<std::int64_t>(result.level[v]);
                if (lv - lu > 1)
                    edge_error = "edge (" + std::to_string(u) + ", " +
                                 std::to_string(v) + ") skips a BFS level";
            }
        }
    }

    // Rules 2 + 3 + 5: per-vertex tree checks.
    std::uint64_t reached = 0;
    for (vertex_t v = 0; v < n; ++v) {
        const vertex_t p = result.parent[v];
        if (p == kInvalidVertex) {
            if (have_levels && result.level[v] != kInvalidLevel)
                return ValidationReport::failure(
                    describe_vertex(v) + " unreached but has a level");
            continue;
        }
        ++reached;
        if (v == root) continue;
        if (p >= n)
            return ValidationReport::failure(describe_vertex(v) +
                                             " has out-of-range parent");
        if (result.parent[p] == kInvalidVertex)
            return ValidationReport::failure(describe_vertex(v) +
                                             " has an unreached parent");
        if (!tree_edge[v])
            return ValidationReport::failure("tree edge (" + std::to_string(p) +
                                             ", " + std::to_string(v) +
                                             ") is not a graph edge");
        if (have_levels) {
            if (result.level[v] == kInvalidLevel)
                return ValidationReport::failure(describe_vertex(v) +
                                                 " reached but has no level");
            if (result.level[v] != result.level[p] + 1)
                return ValidationReport::failure(
                    describe_vertex(v) + " level != parent level + 1");
        }
    }

    if (reached != result.vertices_visited)
        return ValidationReport::failure(
            "vertices_visited (" + std::to_string(result.vertices_visited) +
            ") != reached parents (" + std::to_string(reached) + ")");

    if (!edge_error.empty()) return ValidationReport::failure(edge_error);
    return {};
}

}  // namespace sge
