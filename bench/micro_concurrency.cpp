// google-benchmark microbenchmarks for the concurrency substrate: the
// costs the paper quotes (20 ns FastForward enqueue/dequeue, ~30 ns
// normalized per-vertex channel insertion with batching) are directly
// measurable here.

#include <benchmark/benchmark.h>

#include <atomic>

#include "concurrency/channel.hpp"
#include "concurrency/spin_barrier.hpp"
#include "concurrency/spsc_ring.hpp"
#include "concurrency/ticket_lock.hpp"
#include "concurrency/atomic_bitmap.hpp"

namespace {

constexpr std::uint64_t kEmpty = ~0ULL;

void BM_TicketLockUncontended(benchmark::State& state) {
    sge::TicketLock lock;
    for (auto _ : state) {
        lock.lock();
        lock.unlock();
    }
}
BENCHMARK(BM_TicketLockUncontended);

void BM_SpscRingPushPop(benchmark::State& state) {
    sge::SpscRing<std::uint64_t, kEmpty> ring(1 << 12);
    std::uint64_t v = 0;
    for (auto _ : state) {
        ring.try_push(v++);
        benchmark::DoNotOptimize(ring.try_pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingBulkTransfer(benchmark::State& state) {
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    sge::SpscRing<std::uint64_t, kEmpty> ring(1 << 12);
    std::vector<std::uint64_t> out(batch);
    std::uint64_t v = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i) ring.try_push(v++);
        benchmark::DoNotOptimize(ring.pop_bulk(out.data(), batch));
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpscRingBulkTransfer)->Arg(8)->Arg(64)->Arg(256);

void BM_ChannelBatchedRoundTrip(benchmark::State& state) {
    // The paper's ~30 ns/vertex claim: batched push+pop through the
    // ticket-locked FastForward channel, normalized per item.
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    sge::Channel<std::uint64_t, kEmpty> channel(1 << 12);
    std::vector<std::uint64_t> in(batch, 7);
    std::vector<std::uint64_t> out(batch);
    for (auto _ : state) {
        channel.push_batch(in.data(), batch);
        std::size_t drained = 0;
        while (drained < batch)
            drained += channel.pop_batch(out.data(), batch - drained);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ChannelBatchedRoundTrip)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_BitmapTest(benchmark::State& state) {
    sge::AtomicBitmap bitmap(1 << 20);
    for (std::size_t i = 0; i < (1u << 20); i += 2) bitmap.test_and_set(i);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bitmap.test(i));
        i = (i + 1) & ((1u << 20) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapTest);

void BM_BitmapTestAndSet(benchmark::State& state) {
    sge::AtomicBitmap bitmap(1 << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bitmap.test_and_set(i));
        i = (i + 1) & ((1u << 20) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapTestAndSet);

void BM_BitmapDoubleCheckedVisited(benchmark::State& state) {
    // The hot path of Algorithm 2 on an already-visited vertex: the
    // double check makes this a plain load.
    sge::AtomicBitmap bitmap(1 << 16);
    for (std::size_t i = 0; i < (1u << 16); ++i) bitmap.test_and_set(i);
    std::size_t i = 0;
    for (auto _ : state) {
        bool discovered = false;
        if (!bitmap.test(i)) discovered = !bitmap.test_and_set(i);
        benchmark::DoNotOptimize(discovered);
        i = (i + 1) & ((1u << 16) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapDoubleCheckedVisited);

void BM_BarrierSingleParty(benchmark::State& state) {
    sge::SpinBarrier barrier(1);
    for (auto _ : state) barrier.arrive_and_wait();
}
BENCHMARK(BM_BarrierSingleParty);

}  // namespace

BENCHMARK_MAIN();
