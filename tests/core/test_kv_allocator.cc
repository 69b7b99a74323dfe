#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hh"
#include "core/kv_allocator.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** Small model so tests run fast: 2 layers, 2 heads, dim 8, fp16.
 *  Token bytes per buffer = 2*8*2 = 32B; 64KB group = 2048 tokens. */
Config
smallConfig(PageGroup group = PageGroup::k64KB, bool slicing = false)
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 2;
    config.head_dim = 8;
    config.bytes_per_elem = 2;
    config.max_batch_size = 4;
    config.max_context_len = 8192; // 4 groups per buffer at 64KB
    config.page_group = group;
    config.use_driver_extension = group != PageGroup::k2MB;
    config.tensor_slicing = slicing;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    return config;
}

class KvAllocatorTest : public ::testing::Test
{
  protected:
    KvAllocatorTest() : device_(makeConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_F(KvAllocatorTest, ReservesVirtualBuffersUpFront)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    // 2N = 4 buffers; each B * S_aligned.
    const auto &geom = allocator.geometry();
    EXPECT_EQ(geom.numBuffers(), 4);
    EXPECT_EQ(device_.vaSpace().numReservations(), 4u);
    EXPECT_EQ(device_.vaSpace().reservedBytes(),
              4 * geom.bufferBytes());
    // No physical memory mapped into the KV tensors yet.
    EXPECT_EQ(allocator.totalHandlesMapped(), 0);
    EXPECT_EQ(allocator.layerTensors().size(), 2u);
}

TEST_F(KvAllocatorTest, GrowMapsLockstepAcrossBuffers)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    ASSERT_TRUE(allocator.growTo(0, 2).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 2);
    // 2 groups x 4 buffers = 8 handles.
    EXPECT_EQ(allocator.totalHandlesMapped(), 8);
    EXPECT_EQ(pool.groupsInUse(), 8);
    EXPECT_EQ(allocator.physBytesMapped(), 8 * 64 * KiB);
    EXPECT_TRUE(allocator.checkInvariants());

    // Growing to a smaller target is a no-op.
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 2);
}

TEST_F(KvAllocatorTest, MappedRegionIsReadableWritable)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(1, 1).isOk());

    // Token 100 of slot 1 at layer 0 is inside the first group.
    auto k = allocator.kView(0, 1);
    k.writeElem({100, 1, 3}, 2.5f);
    EXPECT_FLOAT_EQ(k.readElem({100, 1, 3}), 2.5f);
    // The same cell through the full-batch tensor.
    EXPECT_FLOAT_EQ(
        allocator.layerTensors()[0].k.readElem({1, 100, 1, 3}), 2.5f);
}

TEST_F(KvAllocatorTest, UnbackedRegionStillFaults)
{
    test::ScopedThrowErrors guard;
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk()); // 2048 tokens backed

    auto k = allocator.kView(0, 0);
    EXPECT_NO_THROW(k.writeElem({2047, 0, 0}, 1.0f));
    EXPECT_THROW(k.writeElem({2048, 0, 0}, 1.0f), SimError);
    // Slot 1 has nothing mapped at all.
    auto other = allocator.kView(0, 1);
    EXPECT_THROW(other.readElem({0, 0, 0}), SimError);
}

TEST_F(KvAllocatorTest, ShrinkTailReturnsGroups)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 3).isOk());
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 2);
    EXPECT_EQ(pool.groupsInUse(), 8);
    EXPECT_TRUE(allocator.checkInvariants());
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    EXPECT_EQ(allocator.groupsMapped(0), 0);
    EXPECT_FALSE(allocator.shrinkTail(0).isOk()); // nothing left
    EXPECT_EQ(pool.groupsInUse(), 0);
}

TEST_F(KvAllocatorTest, OomRollsBackPartialGroup)
{
    auto config = smallConfig();
    // Budget of 6 groups; a full group row needs 4 (one per buffer).
    PagePool pool(driver_, config.page_group, 6 * 64 * KiB);
    KvAllocator allocator(driver_, config, pool);

    ASSERT_TRUE(allocator.growTo(0, 1).isOk()); // uses 4
    const auto status = allocator.growTo(0, 2); // needs 4, only 2 left
    EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
    // The failed group must be fully rolled back: group counts stay
    // consistent across buffers and the 2 remaining handles returned.
    EXPECT_EQ(allocator.groupsMapped(0), 1);
    EXPECT_EQ(pool.groupsInUse(), 4);
    EXPECT_EQ(pool.availableGroups(), 2);
    EXPECT_TRUE(allocator.checkInvariants());
}

TEST_F(KvAllocatorTest, SlotsAreIsolated)
{
    auto config = smallConfig();
    PagePool pool(driver_, config.page_group, 16 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    ASSERT_TRUE(allocator.growTo(2, 2).isOk());

    auto k0 = allocator.kView(0, 0);
    auto k2 = allocator.kView(0, 2);
    k0.writeElem({0, 0, 0}, 1.0f);
    k2.writeElem({0, 0, 0}, 2.0f);
    EXPECT_FLOAT_EQ(k0.readElem({0, 0, 0}), 1.0f);
    EXPECT_FLOAT_EQ(k2.readElem({0, 0, 0}), 2.0f);
    allocator.releaseAll(0);
    // Slot 2 untouched by slot 0's release.
    EXPECT_FLOAT_EQ(k2.readElem({0, 0, 0}), 2.0f);
    EXPECT_EQ(allocator.groupsMapped(2), 2);
}

TEST_F(KvAllocatorTest, CuPathUsesMapPlusSetAccess)
{
    auto config = smallConfig(PageGroup::k2MB);
    config.max_context_len = 128 * 1024; // 2 groups of 64K tokens
    PagePool pool(driver_, config.page_group, 32 * MiB);
    KvAllocator allocator(driver_, config, pool);

    const u64 maps_before = driver_.counters().map;
    const u64 access_before = driver_.counters().set_access;
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    // Stock CUDA path: one cuMemMap + one cuMemSetAccess per buffer.
    EXPECT_EQ(driver_.counters().map - maps_before, 4u);
    EXPECT_EQ(driver_.counters().set_access - access_before, 4u);

    // And unmap path: cuMemUnmap, handle kept pooled (no release).
    const u64 unmap_before = driver_.counters().unmap;
    const i64 available_before = pool.availableGroups();
    ASSERT_TRUE(allocator.shrinkTail(0).isOk());
    EXPECT_EQ(driver_.counters().unmap - unmap_before, 4u);
    EXPECT_EQ(pool.availableGroups(), available_before + 4);
}

TEST_F(KvAllocatorTest, ExtensionPathUsesFusedCalls)
{
    auto config = smallConfig(PageGroup::k64KB);
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    const u64 access_before = driver_.counters().set_access;
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    // vMemMap fuses the access grant: no cuMemSetAccess calls.
    EXPECT_EQ(driver_.counters().set_access, access_before);
    EXPECT_TRUE(device_.pageTable().isAccessible(
        allocator.kView(0, 0).baseVa(), 64 * KiB));
}

TEST_F(KvAllocatorTest, TensorSlicingLayout)
{
    auto config = smallConfig(PageGroup::k64KB, /*slicing=*/true);
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);

    const auto &geom = allocator.geometry();
    EXPECT_EQ(geom.numBuffers(), 2); // one K + one V tensor
    // Token bytes per buffer now include all layers: 2*2*8*2 = 64B.
    EXPECT_EQ(geom.tokenBytesPerBuffer(), 64u);
    EXPECT_EQ(geom.tokensPerGroup(), 1024);

    ASSERT_TRUE(allocator.growTo(0, 1).isOk());
    // One group backs the first 1024 tokens of BOTH layers.
    auto k_layer0 = allocator.kView(0, 0);
    auto k_layer1 = allocator.kView(1, 0);
    k_layer0.writeElem({5, 1, 2}, 1.5f);
    k_layer1.writeElem({5, 1, 2}, -1.5f);
    EXPECT_FLOAT_EQ(k_layer0.readElem({5, 1, 2}), 1.5f);
    EXPECT_FLOAT_EQ(k_layer1.readElem({5, 1, 2}), -1.5f);
    EXPECT_EQ(allocator.totalHandlesMapped(), 2); // K + V only
    EXPECT_TRUE(allocator.checkInvariants());
}

TEST_F(KvAllocatorTest, SlicedLayerViewsInterleaveInMemory)
{
    auto config = smallConfig(PageGroup::k64KB, /*slicing=*/true);
    PagePool pool(driver_, config.page_group, 8 * MiB);
    KvAllocator allocator(driver_, config, pool);
    ASSERT_TRUE(allocator.growTo(0, 1).isOk());

    // [B, L, N, H, D]: consecutive layers of one token are adjacent;
    // the distance between token t and t+1 of one layer is N*H*D.
    auto k_layer0 = allocator.kView(0, 0);
    const Addr t0 = k_layer0.elemVa({0, 0, 0});
    const Addr t1 = k_layer0.elemVa({1, 0, 0});
    EXPECT_EQ(t1 - t0, 2u * 2 * 8 * 2); // N*H*D*P bytes
    auto k_layer1 = allocator.kView(1, 0);
    EXPECT_EQ(k_layer1.elemVa({0, 0, 0}) - t0, 2u * 8 * 2); // H*D*P
}

// ---- Cached readiness thresholds vs the per-buffer scans -------------

/** needsGrowthForTokens as a scan: some buffer's end is below the
 *  layer's frontier groupsForTokens(layer, tokens). */
bool
scanNeedsGrowth(const KvAllocator &allocator, int slot, i64 tokens)
{
    const KvGeometry &geom = allocator.geometry();
    for (int b = 0; b < geom.numBuffers(); ++b) {
        if (allocator.bufferEnd(slot, b) <
            geom.groupsForTokens(geom.layerOfBuffer(b), tokens)) {
            return true;
        }
    }
    return false;
}

/** needsEnsureTokens as a scan: growth, or a lead group the window
 *  has left behind (lead < min(deadLeadGroups, end)). */
bool
scanNeedsEnsure(const KvAllocator &allocator, int slot, i64 tokens)
{
    const KvGeometry &geom = allocator.geometry();
    for (int b = 0; b < geom.numBuffers(); ++b) {
        const int layer = geom.layerOfBuffer(b);
        const i64 lead = allocator.bufferLead(slot, b);
        const i64 end = allocator.bufferEnd(slot, b);
        if (end < geom.groupsForTokens(layer, tokens) ||
            lead < std::min(geom.deadLeadGroups(layer, tokens), end)) {
            return true;
        }
    }
    return false;
}

i64
scanMappedHandles(const KvAllocator &allocator, int slot)
{
    i64 mapped = 0;
    for (int b = 0; b < allocator.geometry().numBuffers(); ++b) {
        mapped += allocator.bufferEnd(slot, b) -
                  allocator.bufferLead(slot, b);
    }
    return mapped;
}

/** Context lengths where a threshold can flip: 0, every group
 *  boundary and every window edge of every layer (each ±1), and the
 *  maximum context. */
std::vector<i64>
readinessSweep(const KvGeometry &geom, i64 max_context)
{
    std::set<i64> tokens = {-1, 0, 1, max_context - 1, max_context,
                            max_context + 1};
    const auto around = [&](i64 edge) {
        for (i64 d = -1; d <= 1; ++d) {
            tokens.insert(edge + d);
        }
    };
    for (int b = 0; b < geom.numBuffers(); ++b) {
        const int layer = geom.layerOfBuffer(b);
        const u64 token_bytes = geom.tokenBytesPerBuffer(layer);
        const i64 tpg = geom.tokensPerGroup(layer);
        for (i64 g = 0; g <= geom.maxGroupsPerRequest(layer); ++g) {
            around(static_cast<i64>(static_cast<u64>(g) *
                                    geom.groupBytes() / token_bytes));
            around(g * tpg);
        }
        const i64 window = geom.windowTokens(layer);
        for (i64 edge = window; window > 0 && edge <= max_context + 1;
             edge += tpg) {
            around(edge);
        }
    }
    return {tokens.begin(), tokens.end()};
}

void
expectReadinessMatchesScan(const KvAllocator &allocator,
                           const std::vector<i64> &sweep, int slots)
{
    for (int slot = 0; slot < slots; ++slot) {
        ASSERT_EQ(allocator.mappedHandles(slot),
                  scanMappedHandles(allocator, slot))
            << "slot " << slot;
        for (const i64 tokens : sweep) {
            ASSERT_EQ(allocator.needsGrowthForTokens(slot, tokens),
                      scanNeedsGrowth(allocator, slot, tokens))
                << "slot " << slot << " tokens " << tokens;
            ASSERT_EQ(allocator.needsEnsureTokens(slot, tokens),
                      scanNeedsEnsure(allocator, slot, tokens))
                << "slot " << slot << " tokens " << tokens;
        }
    }
    ASSERT_TRUE(allocator.checkInvariants());
}

struct ReadinessCase
{
    std::string name;
    Config config;
};

/** Uniform, mixed (heterogeneous footprints, two group-unaligned
 *  windows, page-groups that hold a non-integral number of tokens)
 *  and tensor-slicing configs at one page-group size. */
std::vector<ReadinessCase>
readinessCases(PageGroup group)
{
    // Three 32B-token groups plus a ragged tail.
    const i64 max_context =
        3 * static_cast<i64>(bytes(group) / 32) + 123;
    std::vector<ReadinessCase> cases;

    Config uniform = smallConfig(group);
    uniform.max_context_len = max_context;
    cases.push_back({"uniform", uniform});

    Config mixed = smallConfig(group);
    mixed.num_layers = 4;
    mixed.max_context_len = max_context;
    mixed.layers.assign(4, LayerKvSpec{});
    mixed.layers[1].kind = AttentionKind::kSlidingWindow;
    mixed.layers[1].window_tokens = 3 * max_context / 7;
    mixed.layers[1].kv_heads = 3; // 48B: non-integral tokens per group
    mixed.layers[2].kv_heads = 1; // 16B
    mixed.layers[3].kind = AttentionKind::kSlidingWindow;
    mixed.layers[3].window_tokens = max_context / 9;
    cases.push_back({"mixed", mixed});

    Config sliced = smallConfig(group, /*slicing=*/true);
    sliced.num_layers = 3; // 96B per token per buffer
    sliced.max_context_len = max_context;
    cases.push_back({"sliced", sliced});
    return cases;
}

TEST_F(KvAllocatorTest, ReadinessCacheMatchesPerBufferScan)
{
    for (const PageGroup group : {PageGroup::k2MB, PageGroup::k64KB}) {
        for (const ReadinessCase &c : readinessCases(group)) {
            SCOPED_TRACE(c.name + (group == PageGroup::k2MB ? " 2MB"
                                                            : " 64KB"));
            const Config &config = c.config;
            ASSERT_TRUE(config.validate().isOk());
            gpu::GpuDevice::Config device_config;
            device_config.mem_bytes = 512 * MiB;
            gpu::GpuDevice device(device_config);
            cuvmm::Driver driver(device);
            const KvGeometry geom(config);
            const i64 max_context = config.max_context_len;
            // Half again one full-context slot: growth across four
            // slots exhausts it and rolls back regularly.
            const i64 budget_groups =
                geom.frontierHandlesForTokens(max_context) * 3 / 2;
            PagePool pool(driver, group,
                          static_cast<u64>(budget_groups) *
                              geom.groupBytes());
            KvAllocator allocator(driver, config, pool);
            const int slots = config.max_batch_size;
            const std::vector<i64> sweep =
                readinessSweep(geom, max_context);
            i64 uniform_max_groups = max_context;
            for (int b = 0; b < geom.numBuffers(); ++b) {
                uniform_max_groups = std::min(
                    uniform_max_groups,
                    geom.maxGroupsPerRequest(geom.layerOfBuffer(b)));
            }

            Rng rng(0x5eedULL + static_cast<u64>(group));
            const auto randomTokens = [&]() {
                return rng.uniformInt(0, 1) == 0
                           ? rng.uniformInt(0, max_context)
                           : std::clamp<i64>(
                                 sweep[static_cast<std::size_t>(
                                     rng.uniformInt(
                                         0, static_cast<i64>(
                                                sweep.size()) -
                                                1))],
                                 0, max_context);
            };
            int ooms = 0;
            int aliases = 0;
            int layouts = 0;
            for (int op = 0; op < 400; ++op) {
                const int slot =
                    static_cast<int>(rng.uniformInt(0, slots - 1));
                const int other = static_cast<int>(
                    (slot + rng.uniformInt(1, slots - 1)) % slots);
                Status status;
                switch (rng.uniformInt(0, 10)) {
                  case 0:
                  case 1:
                    status = allocator.ensureTokens(slot,
                                                    randomTokens());
                    break;
                  case 2:
                    status = allocator.growOneRowForTokens(
                        slot, randomTokens());
                    break;
                  case 3:
                    status = allocator.growTo(
                        slot, rng.uniformInt(0, uniform_max_groups));
                    break;
                  case 4:
                    if (allocator.mappedHandles(slot) > 0) {
                        status = allocator.shrinkTail(slot);
                    }
                    break;
                  case 5: {
                    const i64 prefix =
                        allocator.prefixGroupsMapped(other);
                    if (prefix == 0) {
                        break;
                    }
                    allocator.releaseAll(slot);
                    status = allocator.aliasFrom(
                        slot, other, rng.uniformInt(1, prefix));
                    aliases += status.isOk() ? 1 : 0;
                    break;
                  }
                  case 6:
                    allocator.privatizeFrom(slot,
                                            rng.uniformInt(0, 3));
                    break;
                  case 7:
                    allocator.resetWindowTrimmed(slot);
                    break;
                  case 8:
                    allocator.releaseAll(slot);
                    break;
                  case 9:
                  case 10: {
                    // Swap-in shape: the canonical layout for a
                    // context, onto an emptied slot; on exhaustion
                    // free another slot and resume the partial
                    // layout.
                    const i64 tokens = randomTokens();
                    std::vector<i64> leads;
                    std::vector<i64> ends;
                    for (int b = 0; b < geom.numBuffers(); ++b) {
                        const int layer = geom.layerOfBuffer(b);
                        leads.push_back(
                            geom.deadLeadGroups(layer, tokens));
                        ends.push_back(
                            geom.groupsForTokens(layer, tokens));
                    }
                    allocator.releaseAll(slot);
                    status = allocator.growToLayout(slot, leads, ends);
                    if (!status.isOk()) {
                        ++ooms;
                        ASSERT_NO_FATAL_FAILURE(
                            expectReadinessMatchesScan(allocator,
                                                       sweep, slots));
                        allocator.releaseAll(other);
                        status =
                            allocator.growToLayout(slot, leads, ends);
                    }
                    layouts += status.isOk() ? 1 : 0;
                    break;
                  }
                }
                if (!status.isOk()) {
                    ASSERT_EQ(status.code(), ErrorCode::kOutOfMemory)
                        << status.message();
                    ++ooms;
                }
                ASSERT_NO_FATAL_FAILURE(
                    expectReadinessMatchesScan(allocator, sweep, slots))
                    << "after op " << op;
            }
            // The sequence reached the rollback, alias and layout
            // paths, not just plain growth.
            EXPECT_GT(ooms, 0);
            EXPECT_GT(aliases, 0);
            EXPECT_GT(layouts, 0);
        }
    }
}

} // namespace
} // namespace vattn::core
