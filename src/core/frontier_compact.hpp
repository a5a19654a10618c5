#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <vector>

#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/cacheline.hpp"

namespace sge {

/// Atomic-free next-queue (NQ) construction: count, prefix-sum, write.
///
/// Building NQ with atomic appends — each producer reserving queue slots
/// with a fetch_add — serializes frontier construction on the queue
/// cursor. The compactor removes every atomic from the construction
/// itself (the count -> exclusive prefix sum -> contiguous write scheme
/// of Tithi et al., arXiv 2209.08764):
///
///   1. during the scan, each claimant appends discoveries to its own
///      private buffer with plain stores and publishes the final count;
///   2. after the level barrier, each claimant computes its exclusive
///      prefix offset over the published counts and memcpy's its
///      segment into the queue at that offset — disjoint destinations,
///      zero atomics, no false sharing beyond segment edges;
///   3. one thread publishes the total as the queue size.
///
/// The prefix sum is the degenerate block-scan of a work-efficient
/// parallel exclusive scan: with one count per claimant there is
/// nothing to up-sweep, so each claimant independently sums the counts
/// before it (O(T) each, O(T^2) total — at most a few thousand adds for
/// T <= 64, far cheaper than the extra barrier a tree phase would add).
/// Counts are relaxed atomics: the level barrier between publish and
/// read provides the happens-before edge.
///
/// Claimants may be partitioned into groups with independent offset
/// spaces (the multisocket engine compacts into one queue per socket);
/// single-queue engines leave every claimant in group 0. All storage is
/// preallocated from the BfsWorkspace arena and reused across levels
/// and queries; see docs/ALGORITHMS.md ("Frontier generation").
class FrontierCompactor {
  public:
    FrontierCompactor() = default;

    /// Allocates per-claimant buffers and counts. `capacities[t]` bounds
    /// claimant t's discoveries per level (n, or its socket partition
    /// size). `group_of[t]` selects the claimant's offset space; empty
    /// means one shared group. Not thread-safe; call before the team runs.
    void configure(int claimants, const std::vector<std::size_t>& capacities,
                   std::vector<int> group_of = {}) {
        assert(claimants >= 0 &&
               capacities.size() == static_cast<std::size_t>(claimants));
        assert(group_of.empty() ||
               group_of.size() == static_cast<std::size_t>(claimants));
        claimants_ = claimants;
        group_of_ = std::move(group_of);
        counts_ = AlignedBuffer<CachePadded<std::atomic<std::uint64_t>>>(
            static_cast<std::size_t>(claimants), /*zeroed=*/true);
        buffers_.clear();
        buffers_.reserve(static_cast<std::size_t>(claimants));
        for (int t = 0; t < claimants; ++t)
            buffers_.emplace_back(capacities[static_cast<std::size_t>(t)]);
    }

    /// Convenience: uniform capacity, optional grouping.
    void configure(int claimants, std::size_t capacity,
                   std::vector<int> group_of = {}) {
        configure(claimants,
                  std::vector<std::size_t>(static_cast<std::size_t>(
                                               claimants < 0 ? 0 : claimants),
                                           capacity),
                  std::move(group_of));
    }

    /// Releases all storage (a workspace switching engines).
    void clear() {
        claimants_ = 0;
        group_of_.clear();
        counts_ = {};
        buffers_.clear();
    }

    [[nodiscard]] int claimants() const noexcept { return claimants_; }

    /// Claimant t's private discovery buffer (plain stores only).
    [[nodiscard]] vertex_t* buffer(int tid) noexcept {
        return buffers_[static_cast<std::size_t>(tid)].data();
    }
    [[nodiscard]] std::size_t buffer_capacity(int tid) const noexcept {
        return buffers_[static_cast<std::size_t>(tid)].size();
    }

    /// Publishes claimant t's discovery count for this level. Relaxed:
    /// the level barrier orders it before any offset computation.
    void publish(int tid, std::size_t count) noexcept {
        assert(count <= buffer_capacity(tid));
        counts_[static_cast<std::size_t>(tid)]->store(
            count, std::memory_order_relaxed);
    }

    [[nodiscard]] std::size_t count(int tid) const noexcept {
        return counts_[static_cast<std::size_t>(tid)]->load(
            std::memory_order_relaxed);
    }

    /// Exclusive prefix of claimant t's group: the sum of the published
    /// counts of every earlier claimant in the same group. Call only
    /// after the barrier that follows the publishes.
    [[nodiscard]] std::size_t offset_of(int tid) const noexcept {
        const int mine = group(tid);
        std::size_t sum = 0;
        for (int t = 0; t < tid; ++t)
            if (group(t) == mine) sum += count(t);
        return sum;
    }

    /// Total published discoveries in `grp` (a compacted queue's size).
    [[nodiscard]] std::size_t group_total(int grp) const noexcept {
        std::size_t sum = 0;
        for (int t = 0; t < claimants_; ++t)
            if (group(t) == grp) sum += count(t);
        return sum;
    }

    /// Total published discoveries across all groups.
    [[nodiscard]] std::size_t total() const noexcept {
        std::size_t sum = 0;
        for (int t = 0; t < claimants_; ++t) sum += count(t);
        return sum;
    }

    /// Copies claimant t's segment into `dst` (its group's queue slots)
    /// at the claimant's exclusive offset; returns the count copied.
    std::size_t copy_out(int tid, vertex_t* dst) const noexcept {
        const std::size_t cnt = count(tid);
        if (cnt != 0)
            std::memcpy(dst + offset_of(tid),
                        buffers_[static_cast<std::size_t>(tid)].data(),
                        cnt * sizeof(vertex_t));
        return cnt;
    }

    /// First-touches claimant t's buffer from the thread that will fill
    /// it, so the pages land on that thread's NUMA node.
    void first_touch(int tid) noexcept {
        auto& buf = buffers_[static_cast<std::size_t>(tid)];
        if (!buf.empty())
            std::memset(buf.data(), 0, buf.size() * sizeof(vertex_t));
        counts_[static_cast<std::size_t>(tid)]->store(
            0, std::memory_order_relaxed);
    }

    /// Zeroes all published counts (query-reset hygiene; every level
    /// republishes before reading, so this is belt-and-braces).
    void reset() noexcept {
        for (int t = 0; t < claimants_; ++t)
            counts_[static_cast<std::size_t>(t)]->store(
                0, std::memory_order_relaxed);
    }

  private:
    [[nodiscard]] int group(int tid) const noexcept {
        return group_of_.empty() ? 0
                                 : group_of_[static_cast<std::size_t>(tid)];
    }

    int claimants_ = 0;
    std::vector<int> group_of_;
    AlignedBuffer<CachePadded<std::atomic<std::uint64_t>>> counts_;
    std::vector<AlignedBuffer<vertex_t>> buffers_;
};

}  // namespace sge
