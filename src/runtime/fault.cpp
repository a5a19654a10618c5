#include "runtime/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "runtime/env.hpp"
#include "runtime/prng.hpp"

namespace sge::fault {

namespace {

constexpr const char* kSiteNames[kSiteCount] = {
    "alloc",          "pin",           "channel_push",   "channel_pop",
    "barrier",        "service_submit", "service_flush", "service_worker",
    "paged_read",
};

}  // namespace

const char* site_name(Site s) noexcept {
    const auto i = static_cast<unsigned>(s);
    return i < kSiteCount ? kSiteNames[i] : "unknown";
}

namespace detail {
std::atomic<unsigned> g_armed_mask{0};
}  // namespace detail

namespace {

constexpr std::uint64_t kDefaultSeed = 42;

constexpr const char* kSiteEnvNames[kSiteCount] = {
    "SGE_FAULT_ALLOC",          "SGE_FAULT_PIN",
    "SGE_FAULT_CHANNEL_PUSH",   "SGE_FAULT_CHANNEL_POP",
    "SGE_FAULT_BARRIER",        "SGE_FAULT_SERVICE_SUBMIT",
    "SGE_FAULT_SERVICE_FLUSH",  "SGE_FAULT_SERVICE_WORKER",
    "SGE_FAULT_PAGED_READ",
};

/// Parses "p=<double>" or "nth=<u64>". Returns nullopt on garbage —
/// a misspelled spec must not silently arm nothing *or* something.
std::optional<Trigger> parse_trigger(const std::string& spec) {
    Trigger t;
    const char* s = spec.c_str();
    char* end = nullptr;
    if (std::strncmp(s, "p=", 2) == 0) {
        t.probability = std::strtod(s + 2, &end);
        if (end == s + 2 || *end != '\0') return std::nullopt;
        if (t.probability < 0.0 || t.probability > 1.0) return std::nullopt;
        return t;
    }
    if (std::strncmp(s, "nth=", 4) == 0) {
        t.nth = std::strtoull(s + 4, &end, 10);
        if (end == s + 4 || *end != '\0' || t.nth == 0) return std::nullopt;
        return t;
    }
    return std::nullopt;
}

/// Per-site armed state. Triggers change only while the site is
/// disarmed (arm() clears the mask bit first), so fire_slow reads them
/// without locking; counters are atomics.
struct SiteState {
    Trigger trigger;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fired{0};
};

SiteState g_sites[kSiteCount];

/// PRNG for probability triggers, shared across sites and threads. The
/// lock is cold: only armed probability sites reach it.
std::mutex g_prng_mutex;
Xoshiro256 g_prng{kDefaultSeed};

/// Applies the SGE_FAULT_* environment once, at load time. A bad spec
/// is reported and ignored rather than terminating the process.
struct EnvLoader {
    EnvLoader() {
        try {
            load_from_env();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "sge: fault injection disabled: %s\n",
                         e.what());
        }
    }
} g_env_loader;

}  // namespace

namespace detail {

bool fire_slow(Site site) noexcept {
    SiteState& st = g_sites[static_cast<unsigned>(site)];
    const std::uint64_t hit =
        st.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    if (st.trigger.nth > 0) {
        fire = hit == st.trigger.nth;
    } else if (st.trigger.probability > 0.0) {
        std::lock_guard guard(g_prng_mutex);
        fire = g_prng.next_double() < st.trigger.probability;
    }
    if (fire) st.fired.fetch_add(1, std::memory_order_relaxed);
    return fire;
}

}  // namespace detail

void arm(Site site, Trigger trigger) noexcept {
    const auto i = static_cast<unsigned>(site);
    if (i >= kSiteCount) return;
    detail::g_armed_mask.fetch_and(~(1U << i), std::memory_order_acq_rel);
    g_sites[i].trigger = trigger;
    g_sites[i].hits.store(0, std::memory_order_relaxed);
    g_sites[i].fired.store(0, std::memory_order_relaxed);
    if (trigger.nth > 0 || trigger.probability > 0.0)
        detail::g_armed_mask.fetch_or(1U << i, std::memory_order_acq_rel);
}

void disarm(Site site) noexcept {
    const auto i = static_cast<unsigned>(site);
    if (i >= kSiteCount) return;
    detail::g_armed_mask.fetch_and(~(1U << i), std::memory_order_acq_rel);
}

void disarm_all() noexcept {
    detail::g_armed_mask.store(0, std::memory_order_release);
    reseed(static_cast<std::uint64_t>(
        env_int("SGE_FAULT_SEED", static_cast<std::int64_t>(kDefaultSeed))));
}

void reseed(std::uint64_t seed) noexcept {
    std::lock_guard guard(g_prng_mutex);
    g_prng = Xoshiro256(seed);
}

std::optional<Trigger> armed_trigger(Site site) noexcept {
    const auto i = static_cast<unsigned>(site);
    if (i >= kSiteCount) return std::nullopt;
    const unsigned mask = detail::g_armed_mask.load(std::memory_order_acquire);
    if ((mask & (1U << i)) == 0) return std::nullopt;
    return g_sites[i].trigger;
}

std::uint64_t hits(Site site) noexcept {
    const auto i = static_cast<unsigned>(site);
    return i < kSiteCount ? g_sites[i].hits.load(std::memory_order_relaxed) : 0;
}

std::uint64_t fired(Site site) noexcept {
    const auto i = static_cast<unsigned>(site);
    return i < kSiteCount ? g_sites[i].fired.load(std::memory_order_relaxed) : 0;
}

void load_from_env() {
    if (!env_bool("SGE_FAULT_INJECTION", false)) return;
    reseed(static_cast<std::uint64_t>(
        env_int("SGE_FAULT_SEED", static_cast<std::int64_t>(kDefaultSeed))));
    for (unsigned i = 0; i < kSiteCount; ++i) {
        const auto spec = env_string(kSiteEnvNames[i]);
        if (!spec) continue;
        const auto trigger = parse_trigger(*spec);
        if (!trigger)
            throw std::invalid_argument(std::string(kSiteEnvNames[i]) +
                                        ": bad trigger spec '" + *spec +
                                        "' (want p=<0..1> or nth=<N>)");
        arm(static_cast<Site>(i), *trigger);
    }
}

}  // namespace sge::fault
