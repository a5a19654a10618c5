#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

namespace sge {

/// Vertex identifier. 32 bits cover the paper's largest instance
/// (200 M vertices / 1 B edges) at half the memory traffic of 64-bit
/// ids — and memory traffic is the whole game in BFS.
using vertex_t = std::uint32_t;

/// Index into the CSR target array; 64 bits because edge counts exceed
/// 2^32 in the paper's workloads.
using edge_offset_t = std::uint64_t;

/// Sentinel for "no vertex": unreached parent entries, empty queue
/// slots, etc. Graphs may therefore hold at most 2^32 - 1 vertices.
inline constexpr vertex_t kInvalidVertex =
    std::numeric_limits<vertex_t>::max();

/// BFS level (hop distance from the root).
using level_t = std::uint32_t;

/// Sentinel level for unreached vertices.
inline constexpr level_t kInvalidLevel = std::numeric_limits<level_t>::max();

/// Packs a (child, parent) tuple for the inter-socket channels; the
/// all-ones pattern is reserved as the channel's Empty slot marker,
/// which is unreachable because child == kInvalidVertex never ships.
inline constexpr std::uint64_t pack_visit(vertex_t child, vertex_t parent) noexcept {
    return (static_cast<std::uint64_t>(parent) << 32) | child;
}

inline constexpr vertex_t visit_child(std::uint64_t packed) noexcept {
    return static_cast<vertex_t>(packed & 0xffffffffULL);
}

inline constexpr vertex_t visit_parent(std::uint64_t packed) noexcept {
    return static_cast<vertex_t>(packed >> 32);
}

/// The channels' Empty marker (see SpscRing).
inline constexpr std::uint64_t kEmptyVisit = ~0ULL;

/// A process-unique graph id (never 0), drawn by every graph backend at
/// construction; moves carry it. Caches of a graph's derived state key
/// on it, so a new graph can never pass for a freed one that happened to
/// land at the same addresses with the same shape.
inline std::uint64_t next_graph_id() noexcept {
    static std::atomic<std::uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace sge
