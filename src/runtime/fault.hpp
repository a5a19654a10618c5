#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

// Deterministic fault injection.
//
// A handful of *named sites* are compiled into failure-prone spots of
// the library (aligned allocation, thread pinning, channel push/pop,
// barrier arrival). Each site is a single inline check of one relaxed
// atomic mask — unmeasurable when nothing is armed — and can be armed
// either programmatically (tests) or from the environment:
//
//   SGE_FAULT_INJECTION=1            master switch for env-driven arming
//   SGE_FAULT_SEED=<u64>             PRNG seed (default 42)
//   SGE_FAULT_ALLOC=p=0.001          fire with probability per hit, or
//   SGE_FAULT_BARRIER=nth=17         fire exactly once, on the 17th hit
//   (likewise SGE_FAULT_PIN, SGE_FAULT_CHANNEL_PUSH,
//    SGE_FAULT_CHANNEL_POP, SGE_FAULT_SERVICE_SUBMIT,
//    SGE_FAULT_SERVICE_FLUSH, SGE_FAULT_SERVICE_WORKER,
//    SGE_FAULT_PAGED_READ)
//
// See docs/ROBUSTNESS.md for site semantics.

namespace sge::fault {

/// Named injection sites. Keep in sync with site_name()/site_env_name().
enum class Site : unsigned {
    kAlloc = 0,     ///< AlignedBuffer allocation -> std::bad_alloc
    kPin,           ///< pin_current_thread -> reported failure
    kChannelPush,   ///< Channel::push_batch -> forced ring-full spill
    kChannelPop,    ///< Channel::pop_batch -> drain throttled to 1 item
    kBarrier,       ///< SpinBarrier::arrive_and_wait -> FaultInjected
    kServiceSubmit, ///< GraphService::submit admission path -> FaultInjected
    kServiceFlush,  ///< service batcher flush (wave assembly) -> FaultInjected
    kServiceWorker, ///< service worker dispatch loop -> FaultInjected
    kPagedRead,     ///< paged-graph stripe open/read -> PagedIoError / skip
    kSiteCount,
};

inline constexpr unsigned kSiteCount = static_cast<unsigned>(Site::kSiteCount);

/// How an armed site decides to fire. Exactly one mode is active:
/// `nth > 0` fires once, on the Nth hit of the site (deterministic
/// regardless of thread interleaving); otherwise each hit fires with
/// `probability` (seeded xoshiro, reproducible for a fixed seed and
/// fixed hit order).
struct Trigger {
    double probability = 0.0;
    std::uint64_t nth = 0;
};

/// Thrown by sites whose failure mode is an exception (barrier arrival;
/// also available to future sites). Alloc fires std::bad_alloc instead,
/// matching the failure it simulates.
class FaultInjected : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// Short lowercase site name ("alloc", "pin", "channel_push", ...).
[[nodiscard]] const char* site_name(Site s) noexcept;

/// Arms `site` with `trigger` (resets the site's hit/fired counters).
void arm(Site site, Trigger trigger) noexcept;

/// Disarms one site / all sites. Counters are preserved until re-armed.
void disarm(Site site) noexcept;
void disarm_all() noexcept;

/// Reseeds the probability PRNG (also re-applied by disarm_all()).
void reseed(std::uint64_t seed) noexcept;

/// The trigger a site is currently armed with, if any.
[[nodiscard]] std::optional<Trigger> armed_trigger(Site site) noexcept;

/// Times the site was evaluated / actually fired since it was last
/// armed.
[[nodiscard]] std::uint64_t hits(Site site) noexcept;
[[nodiscard]] std::uint64_t fired(Site site) noexcept;

/// (Re)reads the SGE_FAULT_* environment. Called once automatically at
/// process start; exposed so tests can exercise the parsing. Does
/// nothing unless SGE_FAULT_INJECTION is truthy.
void load_from_env();

namespace detail {
/// Bitmask of armed sites; the only thing the fast path reads.
extern std::atomic<unsigned> g_armed_mask;
/// Cold path: counts the hit and applies the trigger.
[[nodiscard]] bool fire_slow(Site site) noexcept;
}  // namespace detail

/// Hot-path check: one relaxed load and a predicted-not-taken branch
/// when the site is not armed.
[[nodiscard]] inline bool should_fire(Site site) noexcept {
    const unsigned mask = detail::g_armed_mask.load(std::memory_order_relaxed);
    if ((mask & (1U << static_cast<unsigned>(site))) == 0) [[likely]]
        return false;
    return detail::fire_slow(site);
}

/// Convenience: throws FaultInjected("<site> fault injected") when the
/// site fires.
inline void maybe_throw(Site site) {
    if (should_fire(site))
        throw FaultInjected(std::string(site_name(site)) + " fault injected");
}

}  // namespace sge::fault
