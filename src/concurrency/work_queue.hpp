#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/cacheline.hpp"

namespace sge {

/// Edge-aware chunked-claim scheduler over an indexed work list (a
/// frontier queue, or the vertex range [0, n) for bottom-up sweeps) —
/// the one way every parallel engine divides a level's work (see
/// docs/PERF_MODEL.md "Load balance").
///
/// One thread *plans* between barriers: it cuts [0, count) into chunks
/// balanced by a caller-supplied weight (out-degree + 1 for BFS
/// frontiers) and deals them into contiguous per-claimant ranges, one
/// cursor each. Every worker then *claims* after the next barrier
/// publishes the plan: it drains its own range, then round-robins over
/// the other claimants *on its own socket* and claims from their
/// cursors. Stealing is just claiming on the victim's cursor, so there
/// is no deque and no CAS loop, and a steal costs what an owned claim
/// does. It never crosses sockets: the paper's working-set hierarchy
/// keeps random accesses socket-local, and a cross-socket steal would
/// drag the victim's cache lines with it. Plans are cheap: two passes
/// over the work list reading degrees the CSR offsets already hold.
///
/// Thread safety: plan/reset_cursors are single-threaded (call from one
/// thread between barriers; the barrier publishes the plan). claim() is
/// safe from any registered claimant concurrently.
class WorkQueue {
  public:
    /// Outcome of one claim attempt.
    enum class Claim {
        kNone,    ///< nothing left this claimant may take
        kOwned,   ///< chunk came from the claimant's own range
        kStolen,  ///< chunk came from a same-socket sibling's range
    };

    WorkQueue() : WorkQueue(1, {0}) {}

    /// `socket_of[c]` is the logical socket of claimant `c`; stealing
    /// never crosses socket boundaries. Size fixes the claimant count.
    explicit WorkQueue(int claimants, std::vector<int> socket_of)
        : claimants_(claimants < 1 ? 1 : claimants),
          socket_of_(std::move(socket_of)) {
        socket_of_.resize(static_cast<std::size_t>(claimants_), 0);
        cursors_ = std::vector<CachePadded<std::atomic<std::size_t>>>(
            static_cast<std::size_t>(claimants_));
        ranges_.resize(static_cast<std::size_t>(claimants_));
        member_rank_.resize(static_cast<std::size_t>(claimants_), 0);
        int max_socket = 0;
        for (const int s : socket_of_) max_socket = s > max_socket ? s : max_socket;
        socket_members_.resize(static_cast<std::size_t>(max_socket) + 1);
        for (int c = 0; c < claimants_; ++c) {
            auto& members = socket_members_[static_cast<std::size_t>(
                socket_of_[static_cast<std::size_t>(c)])];
            member_rank_[static_cast<std::size_t>(c)] =
                static_cast<int>(members.size());
            members.push_back(c);
        }
    }

    WorkQueue(const WorkQueue&) = delete;
    WorkQueue& operator=(const WorkQueue&) = delete;

    // ---- planning (single-threaded, between barriers) ----

    /// Weight-balanced chunks over [0, count): cut so every chunk
    /// carries roughly total_weight / max_chunks, then dealt into
    /// near-equal contiguous per-claimant spans (chunks are
    /// weight-balanced, so equal counts ≈ equal edges). The cut rule:
    /// a chunk ends after item i once its weight reaches the target and
    /// i + 1 is a multiple of `granule`; the last chunk ends at count.
    /// With granule 1 no chunk runs more than one item past the target
    /// (a single over-heavy item — a hub — gets a chunk of its own; no
    /// cut can split an item); a coarser granule lets it run on to the
    /// next multiple. `weight(i)` must be >= 1 so zero-degree items
    /// still advance the cut.
    template <typename WeightFn>
    void plan(std::size_t count, std::size_t max_chunks, WeightFn&& weight,
              std::size_t granule = 1) {
        bounds_.clear();
        bounds_.push_back(0);
        if (count > 0) {
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < count; ++i) total += weight(i);
            std::size_t chunks = max_chunks < 1 ? 1 : max_chunks;
            if (chunks > count) chunks = count;
            const std::uint64_t target =
                (total + chunks - 1) / static_cast<std::uint64_t>(chunks);
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < count; ++i) {
                acc += weight(i);
                if (acc >= target && (i + 1) % granule == 0 && i + 1 < count) {
                    bounds_.push_back(i + 1);
                    acc = 0;
                }
            }
            bounds_.push_back(count);
        }
        const std::size_t chunks = num_chunks();
        const auto parts = static_cast<std::size_t>(claimants_);
        std::size_t at = 0;
        for (std::size_t c = 0; c < parts; ++c) {
            const std::size_t size =
                chunks / parts + (c < chunks % parts ? 1 : 0);
            ranges_[c] = {at, at + size};
            at += size;
        }
        reset_cursors();
    }

    /// Rewinds every cursor to the start of its range without replanning
    /// — reuse the same bounds for another pass (the hybrid engine's
    /// bottom-up sweeps re-scan the same [0, n) chunks every level).
    void reset_cursors() noexcept {
        for (int c = 0; c < claimants_; ++c)
            cursors_[static_cast<std::size_t>(c)].value.store(
                ranges_[static_cast<std::size_t>(c)].first,
                std::memory_order_relaxed);
    }

    // ---- claiming (any claimant, after a barrier published the plan) ----

    /// Claims the next chunk for `claimant`; on success [begin, end) is
    /// the item range. kNone means this claimant is done: its own range
    /// and every same-socket sibling's range are drained.
    Claim claim(int claimant, std::size_t& begin, std::size_t& end) noexcept {
        std::size_t idx = try_claim(claimant);
        Claim kind = Claim::kOwned;
        if (idx == kNoChunk) {
            // Own range drained: steal from same-socket siblings,
            // starting just past ourselves so concurrent thieves fan out
            // over different victims instead of convoying on one cursor.
            const auto c = static_cast<std::size_t>(claimant);
            const auto& members =
                socket_members_[static_cast<std::size_t>(socket_of_[c])];
            const std::size_t peers = members.size();
            const auto me = static_cast<std::size_t>(member_rank_[c]);
            for (std::size_t off = 1; idx == kNoChunk && off < peers; ++off)
                idx = try_claim(members[(me + off) % peers]);
            if (idx == kNoChunk) return Claim::kNone;
            kind = Claim::kStolen;
        }
        std::tie(begin, end) = chunk_bounds(idx);
        return kind;
    }

    // ---- introspection (tests, diagnostics) ----

    [[nodiscard]] std::size_t num_chunks() const noexcept {
        return bounds_.size() - 1;
    }
    [[nodiscard]] int claimants() const noexcept { return claimants_; }

    /// Item range of chunk `idx` (idx < num_chunks()).
    [[nodiscard]] std::pair<std::size_t, std::size_t> chunk_bounds(
        std::size_t idx) const noexcept {
        return {bounds_[idx], bounds_[idx + 1]};
    }

    /// Chunk-index range owned by `claimant` under the current plan.
    [[nodiscard]] std::pair<std::size_t, std::size_t> claimant_range(
        int claimant) const noexcept {
        const Range& r = ranges_[static_cast<std::size_t>(claimant)];
        return {r.first, r.last};
    }

  private:
    struct Range {
        std::size_t first = 0;
        std::size_t last = 0;
    };

    static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

    /// One fetch_add claim against `slot`'s cursor. The pre-check load
    /// keeps a drained cursor from advancing unboundedly under repeated
    /// steal probes; racing claimants may still each overshoot by one,
    /// which the range check absorbs.
    std::size_t try_claim(int slot) noexcept {
        const Range& r = ranges_[static_cast<std::size_t>(slot)];
        auto& cursor = cursors_[static_cast<std::size_t>(slot)].value;
        if (cursor.load(std::memory_order_relaxed) >= r.last) return kNoChunk;
        const std::size_t idx = cursor.fetch_add(1, std::memory_order_acq_rel);
        return idx < r.last ? idx : kNoChunk;
    }

    int claimants_ = 1;
    std::vector<int> socket_of_;
    std::vector<std::vector<int>> socket_members_;
    std::vector<int> member_rank_;
    std::vector<CachePadded<std::atomic<std::size_t>>> cursors_;
    std::vector<Range> ranges_;
    std::vector<std::size_t> bounds_{0};  // num_chunks()+1 cuts
};

}  // namespace sge
