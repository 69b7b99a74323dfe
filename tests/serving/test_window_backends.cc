/**
 * @file
 * Per-layer heterogeneous geometries at the serving-backend level:
 * layer-grouped block pools on the paged backend, window-aware
 * slotPhysBytes on both backends (regression tests pinning the
 * heterogeneous values the old uniform arithmetic got wrong), swap
 * round-trips of windowed slots, the paged prefix-caching
 * incompatibility, and paged TP shards (1/tp bytes, same blocks).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/audit.hh"
#include "serving/paged_backend.hh"
#include "serving/vattn_backend.hh"
#include "test_util.hh"

namespace vattn::serving
{
namespace
{

constexpr i64 kWindow = 4096;

perf::ModelSpec
interleaved()
{
    return perf::ModelSpec::yi6B().withSlidingWindowInterleave(kWindow);
}

TEST(PagedWindowBackend, GroupsLayersByWindowClass)
{
    PagedBackend uniform(perf::ModelSpec::yi6B(), 1, 16, 1 * GiB);
    EXPECT_EQ(uniform.numLayerGroups(), 1);
    EXPECT_EQ(uniform.groupWindowTokens(0), 0);

    PagedBackend backend(interleaved(), 1, 16, 8 * GiB);
    ASSERT_EQ(backend.numLayerGroups(), 2);
    EXPECT_EQ(backend.groupWindowTokens(0), 0);
    EXPECT_EQ(backend.groupWindowTokens(1), kWindow);
    // The 1:1 interleave splits the budget pro rata: equal block
    // counts in both class pools.
    EXPECT_EQ(backend.groupManager(0).numBlocks(),
              backend.groupManager(1).numBlocks());
}

TEST(PagedWindowBackend, EnsureFreesDeadLeadingBlocks)
{
    // Yi-6B interleaved: each 16-layer class stores 32KiB/token, so a
    // 16-token block is 512KiB per class.
    PagedBackend backend(interleaved(), 1, 16, 48ULL * GiB);
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 64 * 1024}}).isOk());

    // Full class: 4096 blocks. Sliding class: the window kills
    // floor((65536 - 4096) / 16) = 3840 leading blocks, 256 live.
    const u64 block_bytes = 512 * KiB;
    EXPECT_EQ(backend.slotPhysBytes(slot),
              (4096 + 256) * block_bytes);
    EXPECT_EQ(backend.bytesInUse(), (4096 + 256) * block_bytes);

    // Growth keeps trimming: one more block of context advances the
    // dead lead by one block.
    ASSERT_TRUE(backend.ensure({{slot, 64 * 1024 + 16}}).isOk());
    EXPECT_EQ(backend.slotPhysBytes(slot),
              (4097 + 256) * block_bytes);

    audit::AuditReport report;
    backend.auditInto(report);
    EXPECT_TRUE(report.ok()) << report.toString();
    backend.freeSlot(slot);
    EXPECT_EQ(backend.bytesInUse(), 0u);
}

TEST(PagedWindowBackend, SwapRoundTripsTheLiveWindow)
{
    PagedBackend backend(interleaved(), 1, 16, 48ULL * GiB,
                         /*enable_prefix_caching=*/false,
                         /*host_swap_bytes=*/8ULL * GiB);
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 64 * 1024}}).isOk());
    const u64 resident = backend.slotPhysBytes(slot);

    ASSERT_TRUE(backend.canSwapOut(slot));
    const auto out = backend.swapOut(slot);
    ASSERT_TRUE(out.isOk());
    // Only the live blocks cross PCIe — the dead lead was never
    // resident.
    EXPECT_EQ(out.value().bytes, resident);
    EXPECT_EQ(backend.slotPhysBytes(slot), 0u);

    const auto in = backend.swapIn(slot);
    ASSERT_TRUE(in.isOk());
    EXPECT_EQ(in.value().bytes, resident);
    EXPECT_EQ(backend.slotPhysBytes(slot), resident);
    // The request keeps growing from exactly where it stopped.
    ASSERT_TRUE(backend.ensure({{slot, 64 * 1024 + 16}}).isOk());

    audit::AuditReport report;
    backend.auditInto(report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(PagedWindowBackend, PrefixCachingRefusesSlidingLayers)
{
    // vLLM's hash-block prefix cache keys on immutable full blocks;
    // window eviction breaks that contract, so the combination is a
    // configuration error.
    test::ScopedThrowErrors guard;
    EXPECT_THROW(PagedBackend(interleaved(), 1, 16, 1 * GiB,
                              /*enable_prefix_caching=*/true),
                 SimError);
}

TEST(PagedTpBackend, ShardBytesScaleInverselyWithTp)
{
    // One block pool per replica sized for a num_kv_heads/tp shard:
    // with the per-worker budget cut by tp, a TP-n backend holds the
    // same blocks as TP-1, each 1/tp the bytes.
    for (const perf::ModelSpec &model :
         {perf::ModelSpec::yi6B(), interleaved()}) {
        constexpr i64 kTokens = 16 * 1024 + 5;
        PagedBackend one(model, 1, 16, 4ULL * GiB);
        const int s1 = one.allocSlot().value();
        ASSERT_TRUE(one.ensure({{s1, kTokens}}).isOk());
        ASSERT_GT(one.bytesInUse(), 0u);
        for (const int tp : {2, 4}) {
            SCOPED_TRACE(model.name + " TP-" + std::to_string(tp));
            const auto utp = static_cast<u64>(tp);
            PagedBackend sharded(model, tp, 16, 4ULL * GiB / utp);
            ASSERT_EQ(sharded.numLayerGroups(), one.numLayerGroups());
            for (int g = 0; g < one.numLayerGroups(); ++g) {
                EXPECT_EQ(sharded.groupManager(g).numBlocks(),
                          one.groupManager(g).numBlocks());
            }
            const int slot = sharded.allocSlot().value();
            ASSERT_TRUE(sharded.ensure({{slot, kTokens}}).isOk());
            EXPECT_EQ(sharded.blocksHeld(slot), one.blocksHeld(s1));
            EXPECT_EQ(sharded.slotPhysBytes(slot) * utp,
                      one.slotPhysBytes(s1));
            EXPECT_EQ(sharded.bytesInUse() * utp, one.bytesInUse());
            EXPECT_EQ(sharded.budgetBytes() * utp, one.budgetBytes());

            audit::AuditReport report;
            sharded.auditInto(report);
            EXPECT_TRUE(report.ok()) << report.toString();
            sharded.freeSlot(slot);
            EXPECT_EQ(sharded.bytesInUse(), 0u);
        }
    }
}

TEST(PagedTpBackend, MigrationRoundTripCarriesOneShard)
{
    // Swap-out -> export -> import -> swap-in at TP-2: the image and
    // both PCIe copies carry one worker's shard (half the TP-1 bytes),
    // priced as one worker's copy since the shards move concurrently.
    const perf::PcieSpec pcie = perf::PcieSpec::gen4x16();
    auto make = [&](int tp) {
        return PagedBackend(interleaved(), tp, 16,
                            8ULL * GiB / static_cast<u64>(tp),
                            /*enable_prefix_caching=*/false,
                            /*host_swap_bytes=*/8ULL * GiB, pcie);
    };
    constexpr i64 kTokens = 12 * 1024 + 3;
    PagedBackend one = make(1);
    const int s1 = one.allocSlot().value();
    ASSERT_TRUE(one.ensure({{s1, kTokens}}).isOk());
    const u64 full_bytes = one.slotPhysBytes(s1);

    PagedBackend donor = make(2);
    PagedBackend target = make(2);
    const int slot = donor.allocSlot().value();
    ASSERT_TRUE(donor.ensure({{slot, kTokens}}).isOk());
    const u64 shard = donor.slotPhysBytes(slot);
    EXPECT_EQ(2 * shard, full_bytes);

    const auto out = donor.swapOut(slot);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out.value().bytes, shard);
    EXPECT_EQ(out.value().stall_ns, pcie.dtohNs(shard));
    auto image = donor.exportSwapped(slot);
    ASSERT_TRUE(image.isOk());
    EXPECT_EQ(image.value().bytes, shard);
    ASSERT_EQ(image.value().group_blocks.size(), 2u);
    // The sliding class's dead lead travels with the image.
    EXPECT_EQ(image.value().group_leads[0], 0);
    EXPECT_EQ(image.value().group_leads[1], (kTokens - kWindow) / 16);
    EXPECT_EQ(donor.bytesInUse(), 0u);

    ASSERT_TRUE(target.canImportSwapped(image.value()));
    auto imported = target.importSwapped(image.value());
    ASSERT_TRUE(imported.isOk());
    const auto in = target.swapIn(imported.value());
    ASSERT_TRUE(in.isOk());
    EXPECT_EQ(in.value().bytes, shard);
    EXPECT_EQ(in.value().stall_ns, pcie.htodNs(shard));
    EXPECT_EQ(target.slotPhysBytes(imported.value()), shard);
    EXPECT_EQ(target.blocksHeld(imported.value()), one.blocksHeld(s1));
    // The adopted request keeps growing from where the donor stopped.
    ASSERT_TRUE(target.ensure({{imported.value(), kTokens + 16}}).isOk());

    for (const PagedBackend *backend : {&donor, &target}) {
        audit::AuditReport report;
        backend->auditInto(report);
        EXPECT_TRUE(report.ok()) << report.toString();
    }
}

TEST(VAttnWindowBackend, SlotPhysBytesCountsPerLayerMappings)
{
    // Regression for the uniformity bug: slotPhysBytes used to charge
    // frontier-groups x numBuffers x groupBytes, overbilling windowed
    // slots whose leading groups are unmapped.
    VAttentionBackend backend(interleaved(), 1, 8ULL * GiB);
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 16 * 1024}}).isOk());

    // 2MB groups hold 2048 tokens of one layer's K or V (1KiB/token).
    // Full-layer buffers (32 of 64) map 8 groups each; sliding-layer
    // buffers map only the live 2 (dead lead = (16384-4096)/2048 = 6).
    const u64 group_bytes = 2 * MiB;
    EXPECT_EQ(backend.slotPhysBytes(slot),
              (32 * 8 + 32 * 2) * group_bytes);
    // The old arithmetic would have said 64 x 8 groups:
    EXPECT_NE(backend.slotPhysBytes(slot), 64 * 8 * group_bytes);

    audit::AuditReport report;
    backend.auditInto(report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(VAttnWindowBackend, UniformModelsKeepTheHistoricalBilling)
{
    VAttentionBackend backend(perf::ModelSpec::yi6B(), 1, 4ULL * GiB);
    const int slot = backend.allocSlot().value();
    ASSERT_TRUE(backend.ensure({{slot, 4096}}).isOk());
    // 2 groups per buffer x 64 buffers.
    EXPECT_EQ(backend.slotPhysBytes(slot),
              static_cast<u64>(64 * 2) * 2 * MiB);
}

} // namespace
} // namespace vattn::serving
