#include "stream/versioned_store.hpp"

#include <algorithm>
#include <compare>
#include <span>
#include <stdexcept>
#include <utility>

namespace sge {

namespace {

/// Normalized undirected-edge key: orders edges by lower endpoint.
[[nodiscard]] std::uint64_t edge_key(vertex_t u, vertex_t v) noexcept {
    const vertex_t lo = u < v ? u : v;
    const vertex_t hi = u < v ? v : u;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// A batch's net effect on one arc: `net` copies of (row, w) added, or
/// -net copies removed. Sorts by row, then by w.
struct ArcDelta {
    vertex_t row;
    vertex_t w;
    std::int64_t net;
    auto operator<=>(const ArcDelta&) const = default;
};

/// Writes the ascending `row` with `deltas` (that row's, ascending by w,
/// never removing more copies than the row holds) applied to `out`;
/// returns the end of what it wrote.
vertex_t* merge_row(std::span<const vertex_t> row,
                    std::span<const ArcDelta> deltas, vertex_t* out) {
    auto it = row.begin();
    for (const ArcDelta& d : deltas) {
        const auto [lo, hi] = std::equal_range(it, row.end(), d.w);
        out = std::copy(it, lo, out);
        out = std::fill_n(out, (hi - lo) + d.net, d.w);
        it = hi;
    }
    return std::copy(it, row.end(), out);
}

/// `g` with `deltas` (ascending by row, then w) applied. Each run of
/// untouched rows is one block copy whose offsets shift by the arc
/// delta of the rows before it; only touched rows are merged. The two
/// buffers are the only allocations, made before anything is written.
CsrGraph build_next(const CsrGraph& g, std::span<const ArcDelta> deltas) {
    const vertex_t n = g.num_vertices();
    const auto src_offsets = g.offsets();
    const vertex_t* src = g.targets().data();
    edge_offset_t arcs = g.num_edges();
    for (const ArcDelta& d : deltas) arcs += static_cast<edge_offset_t>(d.net);
    AlignedBuffer<edge_offset_t> offsets(static_cast<std::size_t>(n) + 1);
    AlignedBuffer<vertex_t> targets(arcs);

    // Arcs the rows written so far gained. Unsigned on purpose: a net
    // loss wraps, and every offset + shift comes out exact mod 2^64.
    edge_offset_t shift = 0;
    vertex_t first = 0;  // first row not yet written
    const auto copy_rows = [&](vertex_t end) {
        std::copy(src + src_offsets[first], src + src_offsets[end],
                  targets.data() + (src_offsets[first] + shift));
        for (vertex_t v = first; v < end; ++v)
            offsets[v] = src_offsets[v] + shift;
    };
    for (std::size_t i = 0; i < deltas.size();) {
        const vertex_t row = deltas[i].row;
        std::size_t end = i;
        while (end < deltas.size() && deltas[end].row == row) ++end;
        copy_rows(row);
        offsets[row] = src_offsets[row] + shift;
        const vertex_t* row_end = merge_row(g.neighbors(row),
                                            deltas.subspan(i, end - i),
                                            targets.data() + offsets[row]);
        shift = static_cast<edge_offset_t>(row_end - targets.data()) -
                src_offsets[row + 1];
        first = row + 1;
        i = end;
    }
    copy_rows(n);
    offsets[n] = targets.size();
    return CsrGraph(std::move(offsets), std::move(targets), g.symmetric());
}

}  // namespace

VersionedGraphStore::VersionedGraphStore(const CsrGraph& initial)
    : num_vertices_(initial.num_vertices()) {
    const auto src_offsets = initial.offsets();
    AlignedBuffer<edge_offset_t> offsets(
        static_cast<std::size_t>(num_vertices_) + 1);
    AlignedBuffer<vertex_t> targets(initial.num_edges());
    offsets[0] = 0;  // also the whole array of a default-constructed graph
    std::copy(src_offsets.begin(), src_offsets.end(), offsets.data());
    std::copy(initial.targets().begin(), initial.targets().end(),
              targets.data());
    // Snapshot rows are ascending; a source built without sorting (or
    // read from a file) has its unsorted rows sorted, and only those.
    for (vertex_t v = 0; v < num_vertices_; ++v) {
        vertex_t* lo = targets.data() + offsets[v];
        vertex_t* hi = targets.data() + offsets[v + 1];
        if (!std::is_sorted(lo, hi)) std::sort(lo, hi);
    }
    auto first = std::make_unique<detail::GraphSnapshot>();
    first->graph = CsrGraph(std::move(offsets), std::move(targets),
                            initial.symmetric());
    std::lock_guard guard(writer_mutex_);
    publish_locked(std::move(first));
}

VersionedGraphStore::VersionedGraphStore(vertex_t num_vertices)
    : VersionedGraphStore(CsrGraph(
          AlignedBuffer<edge_offset_t>(
              static_cast<std::size_t>(num_vertices) + 1, /*zeroed=*/true),
          AlignedBuffer<vertex_t>(), /*symmetric=*/true)) {}

SnapshotRef VersionedGraphStore::acquire() const {
    std::lock_guard guard(pin_mutex_);
    // The bump can be relaxed: the mutex orders it against any publish,
    // and the matching release/acquire pair lives on the unpin side.
    current_->pins.fetch_add(1, std::memory_order_relaxed);
    return SnapshotRef(current_.get());
}

std::size_t VersionedGraphStore::live_snapshots() const {
    std::lock_guard guard(pin_mutex_);
    return (current_ ? 1 : 0) + retired_.size();
}

std::size_t VersionedGraphStore::reclaim() {
    std::lock_guard guard(pin_mutex_);
    return reclaim_pins_locked();
}

std::size_t VersionedGraphStore::reclaim_pins_locked() {
    // Safe sweep: a retired snapshot can never gain pins (acquire()
    // only pins current_, under this same mutex), so pins == 0 here is
    // final. The acquire load pairs with SnapshotRef::release()'s
    // fetch_sub(release): every reader access happens-before the free.
    const auto dead = std::remove_if(
        retired_.begin(), retired_.end(), [](const auto& snap) {
            return snap->pins.load(std::memory_order_acquire) == 0;
        });
    const auto freed = static_cast<std::size_t>(retired_.end() - dead);
    retired_.erase(dead, retired_.end());
    counters_.snapshots_reclaimed.fetch_add(freed, std::memory_order_relaxed);
    return freed;
}

void VersionedGraphStore::publish_locked(
    std::unique_ptr<detail::GraphSnapshot> next) noexcept {
    next->version = published_version_.load(std::memory_order_relaxed) + 1;
    {
        std::lock_guard guard(pin_mutex_);
        if (current_ != nullptr) {
            retired_.push_back(std::move(current_));
            counters_.snapshots_retired.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        current_ = std::move(next);
        // Version becomes visible before the pin lock drops, so a
        // reader can never acquire() a snapshot newer than version().
        published_version_.store(current_->version,
                                 std::memory_order_release);
        reclaim_pins_locked();
    }
    counters_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t VersionedGraphStore::apply(const MutationBatch& batch) {
    std::lock_guard guard(writer_mutex_);
    // The rules only ever relate ops on one undirected edge, so the
    // batch runs edge by edge, each edge's ops in batch order: `order`
    // sorts (edge key, op index) pairs.
    const auto& ops = batch.ops;
    std::vector<std::pair<std::uint64_t, std::size_t>> order;
    order.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].u >= num_vertices_ || ops[i].v >= num_vertices_)
            throw std::out_of_range(
                "VersionedGraphStore: edge op vertex out of range");
        order.emplace_back(edge_key(ops[i].u, ops[i].v), i);
    }
    std::sort(order.begin(), order.end());

    // current_ is replaced only under both mutexes and this thread holds
    // writer_mutex_, so reading it here races with nothing.
    const CsrGraph& g = current_->graph;
    const auto copies = [&](vertex_t u, vertex_t v) -> std::int64_t {
        const auto row = g.neighbors(u);
        const auto [lo, hi] = std::equal_range(row.begin(), row.end(), v);
        return hi - lo;
    };
    std::uint64_t noops = 0;
    std::uint64_t removed = 0;
    std::vector<char> cancelled(ops.size(), 0);
    std::vector<std::size_t> pending;
    std::vector<ArcDelta> deltas;
    for (std::size_t first = 0, last = 0; first < order.size(); first = last) {
        const std::uint64_t key = order[first].first;
        while (last < order.size() && order[last].first == key) ++last;
        const std::span edge_ops(&order[first], last - first);

        // Compact: a remove cancels the latest pending insert of its
        // edge (exact under multiset semantics — net copies are equal —
        // and it keeps cancelled churn out of the repair waves). A
        // remove with no pending insert stays: it targets a copy that
        // predates the batch.
        pending.clear();
        for (const auto& [k, i] : edge_ops) {
            if (ops[i].kind == EdgeOp::Kind::kInsert) {
                pending.push_back(i);
            } else if (!pending.empty()) {
                cancelled[pending.back()] = 1;
                cancelled[i] = 1;
                pending.pop_back();
                noops += 2;
            }
        }

        // The survivors in order, on the edge's two arcs (one for a
        // self-loop): an insert adds both; a remove of (u, v) succeeds
        // when row u holds v, and then also drops one (v, u) if row v
        // holds one.
        const auto a = static_cast<vertex_t>(key >> 32);
        const auto b = static_cast<vertex_t>(key);
        const std::int64_t ab0 = copies(a, b);
        const std::int64_t ba0 = a == b ? 0 : copies(b, a);
        std::int64_t ab = ab0;
        std::int64_t ba = ba0;
        for (const auto& [k, i] : edge_ops) {
            if (cancelled[i]) continue;
            if (ops[i].kind == EdgeOp::Kind::kInsert) {
                ++ab;
                if (a != b) ++ba;
                continue;
            }
            std::int64_t& held = ops[i].u == a ? ab : ba;
            std::int64_t& reverse = ops[i].u == a ? ba : ab;
            if (held == 0) {
                ++noops;
                continue;
            }
            --held;
            if (a != b && reverse > 0) --reverse;
            ++removed;
        }
        if (ab != ab0) deltas.push_back({a, b, ab - ab0});
        if (ba != ba0) deltas.push_back({b, a, ba - ba0});
    }
    std::vector<std::pair<vertex_t, vertex_t>> inserted;
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (!cancelled[i] && ops[i].kind == EdgeOp::Kind::kInsert)
            inserted.emplace_back(ops[i].u, ops[i].v);

    const std::uint64_t delta = inserted.size() + removed;
    if (delta == 0) {  // nothing changed: no new epoch
        if (!batch.ops.empty())
            counters_.batches_applied.fetch_add(1, std::memory_order_relaxed);
        counters_.noop_ops.fetch_add(noops, std::memory_order_relaxed);
        return version();
    }

    // Everything that can throw happens before the swap below: the next
    // version first, then the tracked roots, repaired (insert-only
    // batches: one multi-seed wave per root) or rebuilt (anything with
    // a delete: level increases are outside the decrease-only repair)
    // on copies.
    std::sort(deltas.begin(), deltas.end());
    auto next = std::make_unique<detail::GraphSnapshot>();
    next->graph = build_next(g, deltas);

    std::vector<IncrementalBfs> tracked;
    tracked.reserve(tracked_.size());
    std::uint64_t touched = 0;
    for (const IncrementalBfs& ibfs : tracked_) {
        if (removed > 0) {
            tracked.emplace_back(next->graph, ibfs.root());
        } else {
            tracked.push_back(ibfs);
            touched += tracked.back().on_edges_added(next->graph, inserted);
        }
    }
    {
        std::lock_guard pins(pin_mutex_);
        retired_.reserve(retired_.size() + 1);  // publish cannot throw
    }

    tracked_.swap(tracked);
    publish_locked(std::move(next));
    counters_.batches_applied.fetch_add(1, std::memory_order_relaxed);
    counters_.delta_edges.fetch_add(delta, std::memory_order_relaxed);
    counters_.noop_ops.fetch_add(noops, std::memory_order_relaxed);
    if (removed > 0)
        counters_.rebuilds.fetch_add(tracked_.size(),
                                     std::memory_order_relaxed);
    counters_.repair_touched.fetch_add(touched, std::memory_order_relaxed);
    return version();
}

void VersionedGraphStore::track(vertex_t root) {
    std::lock_guard guard(writer_mutex_);
    for (const IncrementalBfs& ibfs : tracked_)
        if (ibfs.root() == root) return;  // idempotent
    // Holding writer_mutex_ makes reading current_ race-free (see apply).
    tracked_.emplace_back(current_->graph, root);
}

void VersionedGraphStore::untrack(vertex_t root) {
    std::lock_guard guard(writer_mutex_);
    std::erase_if(tracked_, [root](const IncrementalBfs& ibfs) {
        return ibfs.root() == root;
    });
}

std::vector<level_t> VersionedGraphStore::tracked_levels(vertex_t root) const {
    std::lock_guard guard(writer_mutex_);
    for (const IncrementalBfs& ibfs : tracked_)
        if (ibfs.root() == root) return ibfs.levels();
    throw std::invalid_argument(
        "VersionedGraphStore: root is not tracked (call track() first)");
}

}  // namespace sge
