#include "checker.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/bfs.hpp"
#include "gen/grid.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"

namespace sge::e2e {

namespace {

std::string at(const char* what, std::uint64_t v) {
    return std::string(what) + " (vertex " + std::to_string(v) + ")";
}

/// Keeps the violation with the smallest vertex id, so a parallel check
/// reports the same message on every run.
class FirstFailure {
  public:
    void offer(std::uint64_t v, std::string message) {
        std::lock_guard guard(mutex_);
        if (message_.empty() || v < vertex_) {
            vertex_ = v;
            message_ = std::move(message);
        }
    }
    [[nodiscard]] std::string take() {
        std::lock_guard guard(mutex_);
        return std::move(message_);
    }

  private:
    std::mutex mutex_;
    std::uint64_t vertex_ = 0;
    std::string message_;
};

}  // namespace

std::string check_summary(const CsrGraph& g, const Answer& a,
                          std::uint64_t* component_arcs) {
    const vertex_t n = g.num_vertices();
    if (a.level.size() != n) return "level array size != num_vertices";
    if (a.root >= n) return "root out of range";
    if (a.level[a.root] != 0) return at("root not at level 0", a.root);
    std::uint64_t reached = 0;
    level_t max_level = 0;
    for (vertex_t v = 0; v < n; ++v) {
        const level_t lv = a.level[v];
        if (lv == kInvalidLevel) continue;
        ++reached;
        max_level = std::max(max_level, lv);
    }
    if (component_arcs != nullptr) {
        *component_arcs = 0;
        for (vertex_t v = 0; v < n; ++v)
            if (a.level[v] != kInvalidLevel) *component_arcs += g.degree(v);
    }
    if (reached != a.visited) return "visited count != levelled vertices";
    if (a.num_levels != max_level + 1) return "num_levels != max level + 1";
    return {};
}

std::string check_full(const CsrGraph& g, std::span<const Edge> extra,
                       const Answer& a, int threads) {
    const vertex_t n = g.num_vertices();
    if (a.level.size() != n) return "level array size != num_vertices";
    if (a.root >= n) return "root out of range";
    const bool tree = !a.parent.empty();
    if (tree && a.parent.size() != n) return "parent array size != num_vertices";
    const auto level = a.level;
    const auto parent = a.parent;

    // Vertices whose level-up neighbour (or tree edge) must come from
    // `extra`: the snapshot rows alone did not supply it.
    std::vector<vertex_t> pending;
    std::mutex pending_mutex;
    FirstFailure failure;

    constexpr vertex_t kChunk = 4096;
    std::atomic<vertex_t> next{0};
    const auto worker = [&] {
        std::vector<vertex_t> local_pending;
        for (;;) {
            const vertex_t lo = next.fetch_add(kChunk, std::memory_order_relaxed);
            if (lo >= n) break;
            const vertex_t hi = std::min<vertex_t>(n, lo + kChunk);
            for (vertex_t v = lo; v < hi; ++v) {
                const level_t lv = level[v];
                if (lv == kInvalidLevel) {
                    if (tree && parent[v] != kInvalidVertex)
                        failure.offer(v, at("unreached vertex has a parent", v));
                    continue;
                }
                // The smallest and largest neighbour level decide all three
                // rules (kInvalidLevel, the unreached mark, is the largest
                // level_t): hi <= lv + 1 and lo >= lv - 1 bound every edge,
                // and lo == lv - 1 is the level-up neighbour.
                level_t lo = kInvalidLevel;
                level_t hi = 0;
                bool parent_seen = false;
                const vertex_t p = tree ? parent[v] : kInvalidVertex;
                g.neighbors_for_each(v, [&](vertex_t w) {
                    const level_t lw = level[w];
                    lo = std::min(lo, lw);
                    hi = std::max(hi, lw);
                    parent_seen |= w == p;
                });
                if (hi == kInvalidLevel)
                    failure.offer(v, at("edge between reached and unreached", v));
                else if (hi > lv + 1 || (g.degree(v) > 0 && lo + 1 < lv))
                    failure.offer(v, at("edge spans more than one level", v));
                const bool level_up = g.degree(v) > 0 && lo + 1 == lv;
                if (v == a.root) {
                    if (lv != 0) failure.offer(v, at("root not at level 0", v));
                    if (tree && p != v) failure.offer(v, at("root is not its own parent", v));
                    continue;
                }
                if (lv == 0) failure.offer(v, at("second vertex at level 0", v));
                if (tree) {
                    if (p >= n || level[p] == kInvalidLevel || level[p] + 1 != lv)
                        failure.offer(v, at("parent not one level up", v));
                }
                if (!level_up || (tree && !parent_seen)) local_pending.push_back(v);
            }
        }
        std::lock_guard guard(pending_mutex);
        pending.insert(pending.end(), local_pending.begin(), local_pending.end());
    };

    const int t = std::max(1, threads);
    if (t == 1) {
        worker();
    } else {
        std::vector<std::jthread> pool;
        pool.reserve(static_cast<std::size_t>(t));
        for (int i = 0; i < t; ++i) pool.emplace_back(worker);
    }

    for (const Edge& e : extra) {
        if (e.src >= n || e.dst >= n) return "extra edge out of range";
        const level_t ls = level[e.src];
        const level_t ld = level[e.dst];
        if ((ls == kInvalidLevel) != (ld == kInvalidLevel))
            failure.offer(e.src, at("extra edge between reached and unreached", e.src));
        else if (ls != kInvalidLevel && (ls > ld + 1 || ld > ls + 1))
            failure.offer(e.src, at("extra edge spans more than one level", e.src));
    }
    for (const vertex_t v : pending) {
        bool level_up = false;
        bool parent_seen = false;
        for (const Edge& e : extra) {
            const bool touches = e.src == v || e.dst == v;
            if (!touches) continue;
            const vertex_t w = e.src == v ? e.dst : e.src;
            if (level[w] + 1 == level[v]) level_up = true;
            if (tree && w == parent[v]) parent_seen = true;
        }
        // Re-test the row for whichever half the extra edges did not give.
        if (!level_up)
            g.neighbors_for_each(v, [&](vertex_t w) {
                if (level[w] + 1 == level[v]) level_up = true;
            });
        if (tree && !parent_seen)
            g.neighbors_for_each(v, [&](vertex_t w) {
                if (w == parent[v]) parent_seen = true;
            });
        if (!level_up) failure.offer(v, at("no neighbour one level up", v));
        if (tree && !parent_seen) failure.offer(v, at("parent is not a neighbour", v));
    }
    return failure.take();
}

// ---------------------------------------------------------------------
// --selftest: corrupted answers must be rejected.
// ---------------------------------------------------------------------

namespace {

struct Case {
    std::vector<level_t> level;
    std::vector<vertex_t> parent;
    std::uint64_t visited = 0;
    std::uint32_t num_levels = 0;
};

Case from_result(const BfsResult& r) {
    return {r.level, r.parent, r.vertices_visited, r.num_levels};
}

/// Recomputes visited/num_levels from the levels, so a corruption is
/// caught by the full rules and not just by the summary.
void resummarise(Case& c) {
    c.visited = 0;
    level_t max_level = 0;
    for (const level_t lv : c.level)
        if (lv != kInvalidLevel) {
            ++c.visited;
            max_level = std::max(max_level, lv);
        }
    c.num_levels = max_level + 1;
}

bool accepted(const CsrGraph& g, std::span<const Edge> extra, vertex_t root,
              const Case& c, bool with_tree) {
    Answer a;
    a.root = root;
    a.level = c.level;
    if (with_tree) a.parent = c.parent;
    a.visited = c.visited;
    a.num_levels = c.num_levels;
    return check_summary(g, a, nullptr).empty() && check_full(g, extra, a, 2).empty();
}

/// First vertex satisfying `pred`, or kInvalidVertex.
vertex_t find_vertex(const Case& c, vertex_t root,
                     const std::function<bool(vertex_t)>& pred) {
    for (vertex_t v = 0; v < c.level.size(); ++v)
        if (v != root && pred(v)) return v;
    return kInvalidVertex;
}

}  // namespace

int selftest() {
    RmatParams rp;
    rp.scale = 10;
    rp.num_edges = 8u << 10;
    rp.a = 0.57;
    rp.b = 0.19;
    rp.c = 0.19;
    rp.d = 0.05;
    rp.seed = 7;
    EdgeList edges = generate_rmat(rp);
    permute_vertices(edges, 8);
    const CsrGraph g = csr_from_edges(edges);

    BfsOptions bo;
    bo.threads = 2;
    BfsRunner runner(bo);
    vertex_t root = 0;
    while (g.degree(root) == 0) ++root;
    const BfsResult r = runner.run(g, root);
    const Case clean = from_result(r);

    int bad = 0;
    const auto expect = [&](const char* name, bool want_accept, bool got_accept) {
        const bool ok = want_accept == got_accept;
        std::printf("selftest %-44s %s\n", name,
                    ok ? (want_accept ? "accepted ok" : "rejected ok")
                       : "WRONG");
        if (!ok) ++bad;
    };
    const auto corrupt = [&](const char* name, const std::function<void(Case&)>& edit,
                             bool resum = true) {
        Case c = clean;
        edit(c);
        if (resum) resummarise(c);
        expect(name, false, accepted(g, {}, root, c, true));
    };

    const level_t deepest = static_cast<level_t>(clean.num_levels - 1);
    const vertex_t mid = find_vertex(clean, root, [&](vertex_t v) {
        return clean.level[v] >= 1 && clean.level[v] < deepest;
    });
    const vertex_t isolated = find_vertex(
        clean, root, [&](vertex_t v) { return clean.level[v] == kInvalidLevel; });
    const vertex_t leaf = find_vertex(
        clean, root, [&](vertex_t v) { return clean.level[v] == deepest; });

    expect("clean answer", true, accepted(g, {}, root, clean, true));
    expect("clean answer, levels only", true, accepted(g, {}, root, clean, false));
    corrupt("root not at level 0", [&](Case& c) { c.level[root] = 1; }, false);
    corrupt("visited count off by one", [&](Case& c) { ++c.visited; }, false);
    corrupt("num_levels off by one", [&](Case& c) { ++c.num_levels; }, false);
    corrupt("level array one short", [&](Case& c) { c.level.pop_back(); }, false);
    corrupt("vertex one level too deep", [&](Case& c) { ++c.level[mid]; });
    corrupt("vertex one level too shallow", [&](Case& c) { --c.level[mid]; });
    corrupt("deepest vertex one level deeper", [&](Case& c) { ++c.level[leaf]; });
    corrupt("reached vertex marked unreached", [&](Case& c) {
        c.level[mid] = kInvalidLevel;
        c.parent[mid] = kInvalidVertex;
    });
    corrupt("isolated vertex marked reached", [&](Case& c) {
        c.level[isolated] = 1;
        c.parent[isolated] = root;
    });
    corrupt("second vertex at level 0", [&](Case& c) {
        c.level[mid] = 0;
        c.parent[mid] = mid;
    });
    corrupt("parent not a neighbour", [&](Case& c) {
        const level_t want = c.level[mid] - 1;
        for (vertex_t w = 0; w < g.num_vertices(); ++w)
            if (c.level[w] == want && !g.has_edge(mid, w)) {
                c.parent[mid] = w;
                break;
            }
    });
    corrupt("parent two levels up", [&](Case& c) { c.parent[leaf] = root; });
    corrupt("levels swapped between two vertices", [&](Case& c) {
        std::swap(c.level[mid], c.level[leaf]);
    });

    // A live answer: levels of g plus a shortcut edge, which the checker
    // must accept only when told about the extra edge.
    const std::vector<Edge> shortcut{{root, leaf}};
    EdgeList plus = edges_from_csr(g);
    plus.add(root, leaf);
    const CsrGraph g2 = csr_from_edges(plus);
    Case live = from_result(runner.run(g2, root));
    expect("live answer with its extra edge", true,
           accepted(g, shortcut, root, live, false));
    expect("live answer without its extra edge", false,
           accepted(g, {}, root, live, false));

    // The high-diameter family the grid workload uses.
    GridParams gp;
    gp.width = 24;
    gp.height = 16;
    const CsrGraph grid = csr_from_edges(generate_grid(gp));
    const BfsResult gr = runner.run(grid, 5);
    Case gc = from_result(gr);
    expect("clean grid answer", true, accepted(grid, {}, 5, gc, true));
    std::swap(gc.level[6], gc.level[7 + 24]);
    expect("grid answer with two levels swapped", false,
           accepted(grid, {}, 5, gc, true));

    std::printf("selftest %s (%d wrong)\n", bad == 0 ? "passed" : "FAILED", bad);
    return bad;
}

}  // namespace sge::e2e
