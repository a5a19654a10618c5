#pragma once

// Word-at-a-time scans for frontier generation (docs/ALGORITHMS.md
// "Frontier generation"). The portable baseline tests one 64-bit word
// per step — a whole-word compare filters 64 vertices (AtomicBitmap)
// or one 64-lane mask (MS-BFS) with a single load — and iterates the
// survivors with ctz. The optional AVX2 path, selected once per process
// by runtime CPUID dispatch, vector-skips runs of four uninteresting
// words at a time; every *interesting* word is then re-examined by the
// same scalar code, so both paths report bit-identical (index, mask)
// sequences. The scans take the level as an argument, which is how the
// equality tests compare both on one host.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SGE_SIMD_X86 1
#else
#define SGE_SIMD_X86 0
#endif

namespace sge::simd {

/// Instruction-set level a scan runs at. kScalar is always available;
/// kAvx2 only on x86 hosts whose CPUID reports AVX2.
enum class IsaLevel { kScalar, kAvx2 };

[[nodiscard]] inline const char* to_string(IsaLevel level) noexcept {
    return level == IsaLevel::kAvx2 ? "avx2" : "scalar";
}

/// True when this build + CPU can run the AVX2 kernels at all.
[[nodiscard]] inline bool avx2_supported() noexcept {
#if SGE_SIMD_X86
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/// The process-wide dispatch decision, made once: AVX2 when supported,
/// scalar otherwise. Engines read this once per run, not per word.
[[nodiscard]] inline IsaLevel active_level() {
    static const IsaLevel level =
        avx2_supported() ? IsaLevel::kAvx2 : IsaLevel::kScalar;
    return level;
}

/// Iterates the set bits of `mask`, lowest first: fn(bit_index).
template <typename Fn>
inline void for_each_bit(std::uint64_t mask, Fn&& fn) {
    while (mask != 0) {
        fn(static_cast<unsigned>(std::countr_zero(mask)));
        mask &= mask - 1;
    }
}

#if SGE_SIMD_X86
namespace detail {

/// Advances `i` past words equal to `skip` (4 at a time); returns the
/// first index in [i, hi) whose word differs, or >= hi - 3 when the
/// remaining tail is too short for a vector — the caller finishes it
/// scalar. The compare is exact, so the skip never drops a word the
/// scalar path would report.
__attribute__((target("avx2"))) inline std::size_t skip_equal_u64_avx2(
    const std::uint64_t* words, std::size_t i, std::size_t hi,
    std::uint64_t skip) noexcept {
    const __m256i pattern = _mm256_set1_epi64x(static_cast<long long>(skip));
    for (; i + 4 <= hi; i += 4) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + i));
        if (_mm256_movemask_epi8(_mm256_cmpeq_epi64(w, pattern)) != -1) break;
    }
    return i;
}

/// Advances `i` past all-zero words (4 at a time).
__attribute__((target("avx2"))) inline std::size_t skip_zero_u64_avx2(
    const std::uint64_t* words, std::size_t i, std::size_t hi) noexcept {
    for (; i + 4 <= hi; i += 4) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + i));
        if (!_mm256_testz_si256(w, w)) break;
    }
    return i;
}

}  // namespace detail
#endif  // SGE_SIMD_X86

/// Calls fn(word_index, ~word) for every AtomicBitmap word in
/// [wlo, whi) with at least one clear slot. `words_scanned` accrues
/// whi - wlo (vector-skipped words count — they were examined).
///
/// Safe under the bottom-up sweep's concurrency: no thread writes the
/// visited words until every worker's sweep is done (the level publishes
/// its discoveries behind a barrier), so the AVX2 path's plain vector
/// loads race with nothing.
template <typename Fn>
inline void for_each_unvisited_word(const std::atomic<std::uint64_t>* words,
                                    std::size_t wlo, std::size_t whi,
                                    IsaLevel level,
                                    std::uint64_t& words_scanned, Fn&& fn) {
    if (wlo >= whi) return;
    words_scanned += whi - wlo;
    const auto scalar_word = [&](std::size_t i) {
        const std::uint64_t m = ~words[i].load(std::memory_order_relaxed);
        if (m != 0) fn(i, m);
    };
#if SGE_SIMD_X86
    if (level == IsaLevel::kAvx2) {
        const auto* raw = reinterpret_cast<const std::uint64_t*>(words);
        std::size_t i = wlo;
        while (i < whi) {
            i = detail::skip_equal_u64_avx2(raw, i, whi, ~std::uint64_t{0});
            if (i >= whi) break;
            scalar_word(i);
            ++i;
        }
        return;
    }
#endif
    (void)level;
    for (std::size_t i = wlo; i < whi; ++i) scalar_word(i);
}

/// Calls fn(index, value) for every nonzero word in [lo, hi): the
/// MS-BFS lane-mask scans. Quiescent-only over the scanned array.
template <typename Fn>
inline void for_each_nonzero_u64(const std::uint64_t* words, std::size_t lo,
                                 std::size_t hi, IsaLevel level,
                                 std::uint64_t& words_scanned, Fn&& fn) {
    if (lo >= hi) return;
    words_scanned += hi - lo;
#if SGE_SIMD_X86
    if (level == IsaLevel::kAvx2) {
        std::size_t i = lo;
        while (i < hi) {
            i = detail::skip_zero_u64_avx2(words, i, hi);
            if (i >= hi) break;
            if (words[i] != 0) fn(i, words[i]);
            ++i;
        }
        return;
    }
#endif
    (void)level;
    for (std::size_t i = lo; i < hi; ++i)
        if (words[i] != 0) fn(i, words[i]);
}

}  // namespace sge::simd
