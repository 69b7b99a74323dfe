/**
 * @file
 * google-benchmark micro-benchmarks of the substrates themselves
 * (real wall time, not modelled time): functional attention kernels
 * over the three KV layouts, the buddy allocator, the page table, the
 * VMM driver fast paths, the KV allocator and the vAttention step.
 * These guard against performance regressions in the simulator itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "attn/kernels.hh"
#include "bench_util.hh"
#include "common/rng.hh"
#include "core/vattention.hh"
#include "cuvmm/driver.hh"
#include "gpu/buddy_allocator.hh"
#include "paged/paged_kv_cache.hh"
#include "perf/model_spec.hh"

namespace vattn
{
namespace
{

gpu::GpuDevice::Config
benchDeviceConfig()
{
    gpu::GpuDevice::Config config;
    config.mem_bytes = 1 * GiB;
    return config;
}

void
BM_FlashPrefillContiguous(benchmark::State &state)
{
    const auto len = static_cast<i64>(state.range(0));
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    Addr k_ptr = 0;
    Addr v_ptr = 0;
    const u64 size = static_cast<u64>(len) * 4 * 32 * 2;
    driver.cudaMalloc(&k_ptr, size);
    driver.cudaMalloc(&v_ptr, size);
    tensor::Shape shape{len, 4, 32};
    attn::TensorKvView kv(
        tensor::VirtualTensor(&device, k_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16),
        tensor::VirtualTensor(&device, v_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16));
    Rng rng(1);
    tensor::HostTensor q(tensor::Shape{len, 8, 32});
    tensor::HostTensor out(q.shape());
    q.fillRandom(rng);
    std::vector<float> row(32, 0.5f);
    for (i64 t = 0; t < len; ++t) {
        for (int h = 0; h < 4; ++h) {
            kv.storeK(t, h, row.data());
            kv.storeV(t, h, row.data());
        }
    }
    attn::AttnConfig config{8, 4, 32, true, 0.0f};
    for (auto _ : state) {
        attn::flashPrefill(config, q, kv, len, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_FlashPrefillContiguous)->Arg(64)->Arg(128)->Arg(256);

void
BM_FlashDecodePagedVsContiguous(benchmark::State &state)
{
    const bool paged = state.range(0) != 0;
    const i64 len = 512;
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);

    paged::PagedKvCache::Config cache_config;
    cache_config.num_layers = 1;
    cache_config.num_kv_heads = 4;
    cache_config.head_dim = 32;
    cache_config.block_size = 16;
    cache_config.num_blocks = 64;
    paged::PagedKvCache cache(driver, cache_config);
    paged::RequestBlocks blocks(&cache.blockManager());
    blocks.ensureTokens(len).expectOk("bench blocks");
    auto paged_view = cache.view(blocks.blocks(), 0);

    Addr k_ptr = 0;
    Addr v_ptr = 0;
    const u64 size = static_cast<u64>(len) * 4 * 32 * 2;
    driver.cudaMalloc(&k_ptr, size);
    driver.cudaMalloc(&v_ptr, size);
    tensor::Shape shape{len, 4, 32};
    attn::TensorKvView flat_view(
        tensor::VirtualTensor(&device, k_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16),
        tensor::VirtualTensor(&device, v_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16));

    std::vector<float> row(32, 0.25f);
    for (i64 t = 0; t < len; ++t) {
        for (int h = 0; h < 4; ++h) {
            paged_view.storeK(t, h, row.data());
            paged_view.storeV(t, h, row.data());
            flat_view.storeK(t, h, row.data());
            flat_view.storeV(t, h, row.data());
        }
    }

    Rng rng(2);
    tensor::HostTensor q(tensor::Shape{8, 32});
    tensor::HostTensor out(q.shape());
    q.fillRandom(rng);
    attn::AttnConfig config{8, 4, 32, true, 0.0f};
    const attn::KvView &kv =
        paged ? static_cast<const attn::KvView &>(paged_view)
              : static_cast<const attn::KvView &>(flat_view);
    for (auto _ : state) {
        attn::flashDecode(config, q, kv, len, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(paged ? "paged" : "contiguous");
}
BENCHMARK(BM_FlashDecodePagedVsContiguous)->Arg(0)->Arg(1);

void
BM_BuddyAllocFree(benchmark::State &state)
{
    const u64 block = static_cast<u64>(state.range(0));
    gpu::BuddyAllocator buddy(1 * GiB);
    for (auto _ : state) {
        auto addr = buddy.alloc(block);
        benchmark::DoNotOptimize(addr);
        buddy.free(addr.value(), block).expectOk("bench free");
    }
}
BENCHMARK(BM_BuddyAllocFree)->Arg(64 * KiB)->Arg(2 * MiB);

void
BM_DriverMapUnmap64KB(benchmark::State &state)
{
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    Addr va = 0;
    driver.vMemReserve(&va, 64 * KiB);
    for (auto _ : state) {
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        driver.vMemCreate(&handle, PageGroup::k64KB);
        driver.vMemMap(va, handle);
        driver.vMemRelease(handle);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriverMapUnmap64KB);

/** Live extents per device at the offline_longctx peak. */
constexpr u64 kPeakExtents = 30000;

/** Fill the page table with kPeakExtents aliased 2MB mappings. */
void
preloadPeakExtents(cuvmm::Driver &driver)
{
    Addr base = 0;
    driver.cuMemAddressReserve(&base, kPeakExtents * 2 * MiB);
    cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
    driver.cuMemCreate(&handle, 2 * MiB);
    for (u64 i = 0; i < kPeakExtents; ++i) {
        driver.cuMemMap(base + i * 2 * MiB, 2 * MiB, 0, handle);
        driver.cuMemSetAccess(base + i * 2 * MiB, 2 * MiB);
    }
}

void
BM_CuMapAccessUnmap2MBAtPeak(benchmark::State &state)
{
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    preloadPeakExtents(driver);
    Addr va = 0;
    driver.cuMemAddressReserve(&va, 2 * MiB);
    cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
    driver.cuMemCreate(&handle, 2 * MiB);
    for (auto _ : state) {
        driver.cuMemMap(va, 2 * MiB, 0, handle);
        driver.cuMemSetAccess(va, 2 * MiB);
        driver.cuMemUnmap(va, 2 * MiB);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuMapAccessUnmap2MBAtPeak);

void
BM_VMemCreateMapRelease64KBAtPeak(benchmark::State &state)
{
    // vMemRelease frees the handle, so each iteration creates one.
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    preloadPeakExtents(driver);
    Addr va = 0;
    driver.vMemReserve(&va, 64 * KiB);
    for (auto _ : state) {
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        driver.vMemCreate(&handle, PageGroup::k64KB);
        driver.vMemMap(va, handle);
        driver.vMemRelease(handle);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VMemCreateMapRelease64KBAtPeak);

void
BM_PageTableTranslate(benchmark::State &state)
{
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    // 256 scattered 64KB mappings.
    std::vector<Addr> vas;
    for (int i = 0; i < 256; ++i) {
        Addr va = 0;
        driver.vMemReserve(&va, 64 * KiB);
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        driver.vMemCreate(&handle, PageGroup::k64KB);
        driver.vMemMap(va, handle);
        vas.push_back(va);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr va = vas[i++ & 255] + 1234;
        benchmark::DoNotOptimize(device.pageTable().translate(va));
    }
}
BENCHMARK(BM_PageTableTranslate);

/** Yi-6B on one worker (32 layers: 64 buffers, 1KB per token per
 *  buffer, so 64 tokens per 64KB group) with 400 request slots. */
core::Config
yi6BConfig()
{
    const perf::ModelSpec model = perf::ModelSpec::yi6B();
    core::Config config;
    config.num_layers = model.num_layers;
    config.num_kv_heads = model.kvHeadsPerWorker(1);
    config.head_dim = model.head_dim;
    config.bytes_per_elem = 2;
    config.max_batch_size = 400;
    config.max_context_len = model.max_context_len;
    config.page_group = PageGroup::k64KB;
    config.use_driver_extension = true;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    // One group per buffer for every slot, plus slack.
    config.phys_budget_bytes = 2 * GiB;
    return config;
}

void
BM_VAttentionStepSteadyDecode(benchmark::State &state)
{
    // Every slot active and decoding inside its first page-group: each
    // step() is the per-slot readiness check alone, no mapping.
    gpu::GpuDevice device;
    cuvmm::Driver driver(device);
    const core::Config config = yi6BConfig();
    core::VAttention vattn(driver, config);
    const i64 tpg = vattn.geometry().tokensPerGroup();
    std::vector<i64> lens(static_cast<std::size_t>(config.max_batch_size));
    for (int slot = 0; slot < config.max_batch_size; ++slot) {
        vattn.allocReqId().value();
        lens[static_cast<std::size_t>(slot)] = 1 + slot % tpg;
    }
    vattn.step(lens).status.expectOk("bench warm step");
    for (auto _ : state) {
        // Advance one token, wrapping inside the group: [1, tpg].
        for (i64 &len : lens) {
            len = len % tpg + 1;
        }
        benchmark::DoNotOptimize(vattn.step(lens).handles_mapped);
    }
    state.SetItemsProcessed(state.iterations() * config.max_batch_size);
}
BENCHMARK(BM_VAttentionStepSteadyDecode);

void
BM_KvAllocatorEnsureAcrossBoundary(benchmark::State &state)
{
    // One group row (a group on each of the 64 buffers) per
    // ensureTokens; the untimed shrinkTail puts the row back.
    gpu::GpuDevice device;
    cuvmm::Driver driver(device);
    core::Config config = yi6BConfig();
    config.max_batch_size = 1;
    config.phys_budget_bytes = 64 * MiB;
    core::PagePool pool(driver, config.page_group,
                        config.phys_budget_bytes);
    core::KvAllocator allocator(driver, config, pool);
    const i64 tpg = allocator.geometry().tokensPerGroup();
    allocator.ensureTokens(0, tpg).expectOk("bench first group");
    for (auto _ : state) {
        allocator.ensureTokens(0, tpg + 1).expectOk("bench grow");
        state.PauseTiming();
        allocator.shrinkTail(0).expectOk("bench shrink");
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvAllocatorEnsureAcrossBoundary);

/** Console output as usual, plus each run's wall ns/op for the JSON. */
class WallCapture : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
                ns_per_op.emplace_back(
                    run.benchmark_name(),
                    run.GetAdjustedRealTime() * 1e9 /
                        benchmark::GetTimeUnitMultiplier(run.time_unit));
            }
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<std::pair<std::string, double>> ns_per_op;
};

} // namespace
} // namespace vattn

int
main(int argc, char **argv)
{
    // Manual BENCHMARK_MAIN so the run also emits the machine-readable
    // report every bench binary writes: one `<benchmark>_ns_wall` key
    // per run (host-dependent, so the JSON diff skips them).
    vattn::bench::JsonReport json("micro_substrate");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    vattn::WallCapture reporter;
    json.metric("benchmarks_run",
                static_cast<vattn::i64>(
                    benchmark::RunSpecifiedBenchmarks(&reporter)));
    for (auto [name, ns] : reporter.ns_per_op) {
        std::replace(name.begin(), name.end(), '/', '_');
        json.metric(name + "_ns_wall", ns);
    }
    benchmark::Shutdown();
    return 0;
}
