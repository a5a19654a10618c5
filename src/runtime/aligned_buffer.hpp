#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

#include "runtime/cacheline.hpp"
#include "runtime/fault.hpp"

namespace sge {

/// Process-wide count of AlignedBuffer heap allocations (Channel spill
/// vectors are by-design untracked overflow). Relaxed: a monotonic
/// diagnostic counter, not a fence.
inline std::atomic<std::uint64_t>& aligned_alloc_count() noexcept {
    static std::atomic<std::uint64_t> count{0};
    return count;
}

/// The calling thread's share of aligned_alloc_count(). The BFS level
/// driver compares each worker's count before and after a traversal to
/// assert that a prepared workspace makes it allocation-free; unlike the
/// process-wide count, it cannot see another thread's allocations (a
/// second runner preparing, a service worker).
inline std::uint64_t& thread_aligned_alloc_count() noexcept {
    thread_local std::uint64_t count = 0;
    return count;
}

/// Fixed-size, cache-line-aligned, heap-allocated array.
///
/// The paper's data layout discipline requires that the big flat arrays
/// (CSR offsets/targets, parent array, visited bitmap, queues) start on a
/// cache-line boundary so that per-socket partitions of the same array do
/// not share lines across the partition cut. std::vector cannot guarantee
/// alignment pre-C++17-allocator gymnastics, so we keep a tiny RAII type.
///
/// Elements are default-initialised only when `zeroed` construction is
/// requested; otherwise the memory is left uninitialised, which matters
/// for multi-gigabyte arrays the owning threads will first-touch later.
template <typename T>
class AlignedBuffer {
    static_assert(std::is_trivially_destructible_v<T>,
                  "AlignedBuffer skips destructor calls; only trivially "
                  "destructible element types are supported");

  public:
    AlignedBuffer() = default;

    /// Allocates `count` elements. If `zeroed`, zero-fills the storage.
    explicit AlignedBuffer(std::size_t count, bool zeroed = false)
        : size_(count) {
        if (count == 0) return;
        // Fault site `alloc`: simulate allocation failure with the same
        // exception a real exhaustion would raise.
        if (fault::should_fire(fault::Site::kAlloc)) throw std::bad_alloc{};
        const std::size_t bytes = round_up_to_cacheline(count * sizeof(T));
        void* p = std::aligned_alloc(kCacheLineSize, bytes);
        if (p == nullptr) throw std::bad_alloc{};
        aligned_alloc_count().fetch_add(1, std::memory_order_relaxed);
        ++thread_aligned_alloc_count();
        if (zeroed) std::memset(p, 0, bytes);
        data_.reset(static_cast<T*>(p));
    }

    AlignedBuffer(AlignedBuffer&&) noexcept = default;
    AlignedBuffer& operator=(AlignedBuffer&&) noexcept = default;
    AlignedBuffer(const AlignedBuffer&) = delete;
    AlignedBuffer& operator=(const AlignedBuffer&) = delete;

    [[nodiscard]] T* data() noexcept { return data_.get(); }
    [[nodiscard]] const T* data() const noexcept { return data_.get(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    T& operator[](std::size_t i) noexcept { return data_.get()[i]; }
    const T& operator[](std::size_t i) const noexcept { return data_.get()[i]; }

    [[nodiscard]] T* begin() noexcept { return data_.get(); }
    [[nodiscard]] T* end() noexcept { return data_.get() + size_; }
    [[nodiscard]] const T* begin() const noexcept { return data_.get(); }
    [[nodiscard]] const T* end() const noexcept { return data_.get() + size_; }

    [[nodiscard]] std::span<T> span() noexcept { return {data_.get(), size_}; }
    [[nodiscard]] std::span<const T> span() const noexcept {
        return {data_.get(), size_};
    }

  private:
    struct FreeDeleter {
        void operator()(T* p) const noexcept { std::free(p); }
    };
    std::unique_ptr<T, FreeDeleter> data_;
    std::size_t size_ = 0;
};

}  // namespace sge
