/**
 * @file
 * google-benchmark microbenchmarks of the burst-sampling substrate:
 * synthetic stream generation, cache-model access rate, and branch
 * predictor throughput, each in scalar and batched form. These bound
 * how much simulated time the experiment harnesses can afford.
 *
 * All cache/BP inputs are pregenerated outside the timed loops so
 * the numbers measure the structures, not the Rng; the *Fill/&Batch
 * variants exercise the batched pipeline CpuCore::beginRunBurst uses
 * (AddressStream::fill -> Cache::accessBatch, BranchStream::fill ->
 * BranchPredictor::predictBatch). The batch and scalar variants run
 * the same inputs, so their items/s ratio is the batching win.
 *
 * Replaying one pregenerated sequence lets the host's branch
 * predictor learn its hit/miss pattern, and the default profiles'
 * spans are all powers of two. The BM_Fresh* rows therefore use real
 * PARSEC profiles (parsec::params) and never repeat a short sample:
 * fills and bursts draw from live streams, and the cache row cycles
 * through a ring of fresh bursts far longer than any predictor
 * history. Event-queue throughput lives in microbench_event_queue.cc.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "iommu/iommu.h"
#include "mem/address_stream.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "os/kernel.h"
#include "sim/random.h"
#include "workloads/parsec.h"

namespace {

/** Burst-shaped sample sizes (cpu/core.h drives 96 accesses and 48
 *  branches per user burst) plus a large batch for peak throughput. */
constexpr std::size_t kBurstAccesses = 96;
constexpr std::size_t kBurstBranches = 48;

/** Addresses with the locality bursts actually drive (default
 *  MemoryProfile: 256 KiB working set, 8 KiB hot set, 80 % hot). */
std::vector<hiss::Addr>
pregeneratedAddresses(std::size_t n)
{
    hiss::AddressStream stream(hiss::MemoryProfile{}, 0x10000000, 42);
    std::vector<hiss::Addr> addrs(n);
    stream.fill(addrs.data(), n);
    return addrs;
}

/** Branch outcomes with per-site bias, as bursts drive them. */
std::vector<hiss::BranchOutcome>
pregeneratedBranches(std::size_t n)
{
    hiss::BranchStream stream(hiss::BranchProfile{}, 0x40000, 42);
    std::vector<hiss::BranchOutcome> outs(n);
    stream.fill(outs.data(), n);
    return outs;
}

void
BM_CacheAccess(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    const auto addrs = pregeneratedAddresses(n);
    for (auto _ : state) {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < n; ++i)
            hits += static_cast<std::uint64_t>(cache.access(addrs[i]));
        benchmark::DoNotOptimize(hits);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(kBurstAccesses)->Arg(4096);

void
BM_CacheAccessBatch(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    const auto addrs = pregeneratedAddresses(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.accessBatch(addrs.data(), n));
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_CacheAccessBatch)->Arg(kBurstAccesses)->Arg(4096);

/** 8-way geometry: the widest vector-probe special case (one AVX2
 *  quad-compare pair per set). */
void
BM_CacheAccessBatch8Way(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::Cache cache(hiss::CacheParams{32 * 1024, 8, 64});
    const auto addrs = pregeneratedAddresses(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.accessBatch(addrs.data(), n));
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_CacheAccessBatch8Way)->Arg(4096);

/** Same batch with the probe kernel pinned to portable scalar — the
 *  non-x86 / HISS_SIMD=OFF floor, and the denominator of the SIMD
 *  speedup. */
void
BM_CacheAccessBatchPortable(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    const auto addrs = pregeneratedAddresses(n);
    hiss::Cache::setKernel(hiss::CacheKernel::Portable);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.accessBatch(addrs.data(), n));
    hiss::Cache::setKernel(hiss::Cache::bestKernel());
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_CacheAccessBatchPortable)->Arg(4096);

void
BM_BranchPredict(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::BranchPredictor bp(hiss::BranchPredictorParams{12, 12});
    const auto outs = pregeneratedBranches(n);
    for (auto _ : state) {
        std::uint64_t correct = 0;
        for (std::size_t i = 0; i < n; ++i)
            correct += static_cast<std::uint64_t>(
                bp.predictAndUpdate(outs[i].pc, outs[i].taken));
        benchmark::DoNotOptimize(correct);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_BranchPredict)->Arg(kBurstBranches)->Arg(4096);

void
BM_BranchPredictBatch(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::BranchPredictor bp(hiss::BranchPredictorParams{12, 12});
    const auto outs = pregeneratedBranches(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(bp.predictBatch(outs.data(), n));
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_BranchPredictBatch)->Arg(kBurstBranches)->Arg(4096);

void
BM_AddressStreamNext(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::AddressStream stream(hiss::MemoryProfile{}, 0x10000000, 42);
    std::vector<hiss::Addr> buf(n);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            buf[i] = stream.next();
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_AddressStreamNext)->Arg(kBurstAccesses);

void
BM_AddressStreamFill(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::AddressStream stream(hiss::MemoryProfile{}, 0x10000000, 42);
    std::vector<hiss::Addr> buf(n);
    for (auto _ : state) {
        stream.fill(buf.data(), n);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_AddressStreamFill)->Arg(kBurstAccesses);

void
BM_BranchStreamNext(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::BranchStream stream(hiss::BranchProfile{}, 0x40000, 42);
    std::vector<hiss::BranchOutcome> buf(n);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            buf[i] = stream.next();
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_BranchStreamNext)->Arg(kBurstBranches);

void
BM_BranchStreamFill(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    hiss::BranchStream stream(hiss::BranchProfile{}, 0x40000, 42);
    std::vector<hiss::BranchOutcome> buf(n);
    for (auto _ : state) {
        stream.fill(buf.data(), n);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n)
                            * state.iterations());
}
BENCHMARK(BM_BranchStreamFill)->Arg(kBurstBranches);

/**
 * End-to-end burst sample, the shape CpuCore::beginRunBurst runs per
 * user burst: generate 96 addresses + 48 branches from live streams
 * and drive them through the L1D and predictor. Items = one whole
 * burst sample. Scalar variant is the seed's structure (interleaved
 * next()/access() calls); batch is the current pipeline.
 */
void
BM_BurstSampleScalar(benchmark::State &state)
{
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    hiss::BranchPredictor bp(hiss::BranchPredictorParams{12, 12});
    hiss::AddressStream astream(hiss::MemoryProfile{}, 0x10000000, 42);
    hiss::BranchStream bstream(hiss::BranchProfile{}, 0x40000, 43);
    for (auto _ : state) {
        std::uint64_t events = 0;
        for (std::size_t i = 0; i < kBurstAccesses; ++i)
            events += static_cast<std::uint64_t>(
                cache.access(astream.next()));
        for (std::size_t i = 0; i < kBurstBranches; ++i) {
            const auto out = bstream.next();
            events += static_cast<std::uint64_t>(
                bp.predictAndUpdate(out.pc, out.taken));
        }
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BurstSampleScalar);

void
BM_BurstSampleBatch(benchmark::State &state)
{
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    hiss::BranchPredictor bp(hiss::BranchPredictorParams{12, 12});
    hiss::AddressStream astream(hiss::MemoryProfile{}, 0x10000000, 42);
    hiss::BranchStream bstream(hiss::BranchProfile{}, 0x40000, 43);
    std::vector<hiss::Addr> addrs(kBurstAccesses);
    std::vector<hiss::BranchOutcome> outs(kBurstBranches);
    for (auto _ : state) {
        astream.fill(addrs.data(), kBurstAccesses);
        std::uint64_t events =
            cache.accessBatch(addrs.data(), kBurstAccesses);
        bstream.fill(outs.data(), kBurstBranches);
        events += bp.predictBatch(outs.data(), kBurstBranches);
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BurstSampleBatch);

/** Live streams with one PARSEC app's locality profiles. */
struct FreshStreams
{
    explicit FreshStreams(const char *app)
        : params(hiss::parsec::params(app)),
          astream(params.mem, 0x10000000, 42),
          bstream(params.branch, 0x40000, 43)
    {
    }

    hiss::CpuAppParams params;
    hiss::AddressStream astream;
    hiss::BranchStream bstream;
};

void
BM_FreshAddressFill(benchmark::State &state, const char *app)
{
    FreshStreams fresh(app);
    std::vector<hiss::Addr> buf(kBurstAccesses);
    for (auto _ : state) {
        fresh.astream.fill(buf.data(), kBurstAccesses);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kBurstAccesses)
                            * state.iterations());
}
BENCHMARK_CAPTURE(BM_FreshAddressFill, canneal, "canneal");
BENCHMARK_CAPTURE(BM_FreshAddressFill, x264, "x264");

void
BM_FreshBranchFill(benchmark::State &state, const char *app)
{
    FreshStreams fresh(app);
    std::vector<hiss::BranchOutcome> buf(kBurstBranches);
    for (auto _ : state) {
        fresh.bstream.fill(buf.data(), kBurstBranches);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kBurstBranches)
                            * state.iterations());
}
BENCHMARK_CAPTURE(BM_FreshBranchFill, canneal, "canneal");
BENCHMARK_CAPTURE(BM_FreshBranchFill, x264, "x264");

/** The L1D probe alone on fresh bursts: 1024 pregenerated bursts
 *  (98 304 accesses) cycled in order, so no sample repeats within a
 *  predictor's reach and the timed loop holds no Rng work. */
void
BM_FreshCacheAccessBatch(benchmark::State &state, const char *app)
{
    constexpr std::size_t kBursts = 1024;
    FreshStreams fresh(app);
    std::vector<hiss::Addr> ring(kBursts * kBurstAccesses);
    fresh.astream.fill(ring.data(), ring.size());
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    std::size_t burst = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            ring.data() + burst * kBurstAccesses, kBurstAccesses));
        burst = (burst + 1) % kBursts;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kBurstAccesses)
                            * state.iterations());
}
BENCHMARK_CAPTURE(BM_FreshCacheAccessBatch, canneal, "canneal");
BENCHMARK_CAPTURE(BM_FreshCacheAccessBatch, x264, "x264");

/** BM_BurstSampleBatch with a PARSEC app's profiles. Items = one
 *  whole burst sample. */
void
BM_FreshBurstSampleBatch(benchmark::State &state, const char *app)
{
    FreshStreams fresh(app);
    hiss::Cache cache(hiss::CacheParams{16 * 1024, 4, 64});
    hiss::BranchPredictor bp(hiss::BranchPredictorParams{12, 12});
    std::vector<hiss::Addr> addrs(kBurstAccesses);
    std::vector<hiss::BranchOutcome> outs(kBurstBranches);
    for (auto _ : state) {
        fresh.astream.fill(addrs.data(), kBurstAccesses);
        std::uint64_t events =
            cache.accessBatch(addrs.data(), kBurstAccesses);
        fresh.bstream.fill(outs.data(), kBurstBranches);
        events += bp.predictBatch(outs.data(), kBurstBranches);
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_FreshBurstSampleBatch, canneal, "canneal");
BENCHMARK_CAPTURE(BM_FreshBurstSampleBatch, x264, "x264");

/** Counts the translations the IOMMU hands back. */
struct CountingClient : hiss::TranslateClient
{
    void
    translated(const hiss::snap::Token &, hiss::TranslateResult) override
    {
        ++done;
    }
    std::uint64_t done = 0;
};

/** Completion token of every benchmark translation (device 0). */
constexpr hiss::snap::Token kBenchToken{"bench.xlate"};

/**
 * IOTLB-hit translate throughput through the event queue. The IOTLB
 * is pre-warmed with every probed VPN, so the numbers measure the
 * flat probe table plus event scheduling. Items = translations
 * completed.
 */
class IommuBench
{
  public:
    IommuBench()
        : ctx_{events_, stats_, 42},
          kernel_([this] {
              hiss::KernelParams kparams;
              kparams.housekeeping_period = 0;
              return hiss::Kernel(ctx_, 1, hiss::CpuCoreParams{},
                                  kparams);
          }()),
          iommu_(ctx_, kernel_, hiss::IommuParams{})
    {
        iommu_.attachClient(0, client_);
        for (hiss::Vpn v = 0; v < kVpns; ++v)
            kernel_.gpuPageTable().map(v, v + 100);
        // Warm: one walk per VPN installs it in the IOTLB.
        for (hiss::Vpn v = 0; v < kVpns; ++v) {
            iommu_.translate(v, kBenchToken);
            events_.runUntil(events_.now() + hiss::usToTicks(2));
        }
    }

    static constexpr hiss::Vpn kVpns = 64;

    hiss::Iommu &iommu() { return iommu_; }
    hiss::EventQueue &events() { return events_; }
    std::uint64_t done() const { return client_.done; }

  private:
    hiss::EventQueue events_;
    hiss::StatRegistry stats_;
    hiss::SimContext ctx_;
    hiss::Kernel kernel_;
    hiss::Iommu iommu_;
    CountingClient client_;
};

void
BM_IommuTranslateScalar(benchmark::State &state)
{
    IommuBench bench;
    for (auto _ : state) {
        for (hiss::Vpn v = 0; v < IommuBench::kVpns; ++v)
            bench.iommu().translate(v, kBenchToken);
        bench.events().runUntil(bench.events().now()
                                + hiss::usToTicks(2));
    }
    benchmark::DoNotOptimize(bench.done());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(IommuBench::kVpns)
        * state.iterations());
}
BENCHMARK(BM_IommuTranslateScalar);

/**
 * The pinned GPU streaming pattern: every translate is a fresh,
 * sequential VPN (allow_fault = false, as in the no-SSR baselines),
 * and the IOTLB starts full, so each one misses, walks, and evicts
 * the FIFO head. Measures probe + insert + backward-shift erase plus
 * event scheduling. Not gated. Items = translations completed.
 */
void
BM_IommuTranslateStreaming(benchmark::State &state)
{
    IommuBench bench;
    hiss::Vpn next = hiss::Vpn{1} << 20;
    for (auto _ : state) {
        for (hiss::Vpn v = 0; v < IommuBench::kVpns; ++v)
            bench.iommu().translate(next++, kBenchToken,
                                    /*allow_fault=*/false);
        bench.events().runUntil(bench.events().now()
                                + hiss::usToTicks(2));
    }
    benchmark::DoNotOptimize(bench.done());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(IommuBench::kVpns)
        * state.iterations());
}
BENCHMARK(BM_IommuTranslateStreaming);

} // namespace

BENCHMARK_MAIN();
