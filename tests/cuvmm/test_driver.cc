#include <gtest/gtest.h>

#include "cuvmm/driver.hh"
#include "test_util.hh"

namespace vattn::cuvmm
{
namespace
{

class DriverTest : public ::testing::Test
{
  protected:
    DriverTest()
        : device_(makeConfig()), driver_(device_)
    {
    }

    static gpu::GpuDevice::Config
    makeConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    Driver driver_;
};

TEST_F(DriverTest, ReserveCreateMapAccessLifecycle)
{
    Addr va = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&va, 4 * MiB),
              CuResult::kSuccess);
    ASSERT_NE(va, 0u);

    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&handle, 2 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.handleSize(handle), 2 * MiB);
    EXPECT_FALSE(driver_.isMapped(handle));

    ASSERT_EQ(driver_.cuMemMap(va, 2 * MiB, 0, handle),
              CuResult::kSuccess);
    EXPECT_TRUE(driver_.isMapped(handle));
    // Mapped but not accessible until cuMemSetAccess.
    EXPECT_FALSE(device_.pageTable().isAccessible(va, 2 * MiB));
    ASSERT_EQ(driver_.cuMemSetAccess(va, 2 * MiB), CuResult::kSuccess);
    EXPECT_TRUE(device_.pageTable().isAccessible(va, 2 * MiB));

    ASSERT_EQ(driver_.cuMemUnmap(va, 2 * MiB), CuResult::kSuccess);
    EXPECT_FALSE(driver_.isMapped(handle));
    ASSERT_EQ(driver_.cuMemRelease(handle), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemAddressFree(va, 4 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
    EXPECT_EQ(driver_.numLiveHandles(), 0u);
}

TEST_F(DriverTest, CuApisRequire2MbMultiples)
{
    Addr va = 0;
    EXPECT_EQ(driver_.cuMemAddressReserve(&va, 64 * KiB),
              CuResult::kErrorInvalidValue);
    MemHandle handle = kInvalidHandle;
    EXPECT_EQ(driver_.cuMemCreate(&handle, 64 * KiB),
              CuResult::kErrorInvalidValue);
    EXPECT_EQ(driver_.cuMemCreate(&handle, 0),
              CuResult::kErrorInvalidValue);
}

TEST_F(DriverTest, MapOutsideReservationRejected)
{
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&handle, 2 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemMap(0x700000000000ULL, 2 * MiB, 0, handle),
              CuResult::kErrorNotReserved);
}

TEST_F(DriverTest, MapSizeMustMatchHandle)
{
    Addr va = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&va, 8 * MiB),
              CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&handle, 4 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemMap(va, 2 * MiB, 0, handle),
              CuResult::kErrorInvalidValue);
    EXPECT_EQ(driver_.cuMemMap(va, 4 * MiB, 2 * MiB, handle),
              CuResult::kErrorInvalidValue); // nonzero offset
}

TEST_F(DriverTest, AliasingBadHandlesAndReleaseRules)
{
    Addr va = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&va, 8 * MiB),
              CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&handle, 2 * MiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemMap(va, 2 * MiB, 0, handle),
              CuResult::kSuccess);
    // Mapping the same handle at a second VA is ALLOWED — physical
    // aliasing is how KV prefix sharing works (§8.1).
    EXPECT_EQ(driver_.cuMemMap(va + 2 * MiB, 2 * MiB, 0, handle),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 2u);
    // Mapping over an already-mapped VA is still rejected.
    EXPECT_EQ(driver_.cuMemMap(va, 2 * MiB, 0, handle),
              CuResult::kErrorAlreadyMapped);
    EXPECT_EQ(driver_.cuMemMap(va + 4 * MiB, 2 * MiB, 0, 9999),
              CuResult::kErrorInvalidHandle);
    EXPECT_EQ(driver_.cuMemRelease(9999), CuResult::kErrorInvalidHandle);
    // Releasing while any mapping is live is refused.
    EXPECT_EQ(driver_.cuMemRelease(handle),
              CuResult::kErrorAlreadyMapped);
    EXPECT_EQ(driver_.cuMemUnmap(va, 2 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemRelease(handle),
              CuResult::kErrorAlreadyMapped);
    EXPECT_EQ(driver_.cuMemUnmap(va + 2 * MiB, 2 * MiB),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemRelease(handle), CuResult::kSuccess);
}

TEST_F(DriverTest, AliasedMappingsShareData)
{
    // KV de-duplication at driver level: two virtual views of one
    // physical page-group observe each other's writes.
    Addr va1 = 0;
    Addr va2 = 0;
    ASSERT_EQ(driver_.vMemReserve(&va1, 64 * KiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemReserve(&va2, 64 * KiB), CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va1, handle), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va2, handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 2u);
    // Only one page-group of physical memory backs both.
    EXPECT_EQ(driver_.physBytesInUse(), 64 * KiB);

    const u64 value = 0xfeedface12345678ULL;
    device_.writeVa(va1 + 100, &value, sizeof(value));
    u64 out = 0;
    device_.readVa(va2 + 100, &out, sizeof(out));
    EXPECT_EQ(out, value);

    // vMemRelease tears down every alias.
    ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    EXPECT_FALSE(device_.pageTable().isAccessible(va1, 64 * KiB));
    EXPECT_FALSE(device_.pageTable().isAccessible(va2, 64 * KiB));
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
}

TEST_F(DriverTest, AddressFreeRequiresUnmapped)
{
    Addr va = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&va, 2 * MiB),
              CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&handle, 2 * MiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemMap(va, 2 * MiB, 0, handle),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemAddressFree(va, 2 * MiB),
              CuResult::kErrorAlreadyMapped);
    ASSERT_EQ(driver_.cuMemUnmap(va, 2 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemAddressFree(va, 2 * MiB), CuResult::kSuccess);
    driver_.cuMemRelease(handle);
}

TEST_F(DriverTest, TerabyteReservationFreeSeesSparseMappings)
{
    // vAttention reserves terabytes per KV buffer (§5.1.3); freeing one
    // must find the few mapped extents without walking every frame.
    Addr neighbour = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&neighbour, 2 * MiB),
              CuResult::kSuccess);
    MemHandle outside = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&outside, 2 * MiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemMap(neighbour, 2 * MiB, 0, outside),
              CuResult::kSuccess);

    Addr va = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&va, 1 * TiB),
              CuResult::kSuccess);
    const Addr offsets[] = {0, 512 * GiB, 1 * TiB - 2 * MiB};
    std::vector<MemHandle> handles;
    for (const Addr off : offsets) {
        MemHandle handle = kInvalidHandle;
        ASSERT_EQ(driver_.cuMemCreate(&handle, 2 * MiB),
                  CuResult::kSuccess);
        ASSERT_EQ(driver_.cuMemMap(va + off, 2 * MiB, 0, handle),
                  CuResult::kSuccess);
        handles.push_back(handle);
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
        EXPECT_EQ(driver_.cuMemAddressFree(va, 1 * TiB),
                  CuResult::kErrorAlreadyMapped);
        ASSERT_EQ(driver_.cuMemUnmap(va + offsets[i], 2 * MiB),
                  CuResult::kSuccess);
        ASSERT_EQ(driver_.cuMemRelease(handles[i]), CuResult::kSuccess);
    }
    // Only the neighbouring reservation's mapping is left.
    EXPECT_EQ(driver_.cuMemAddressFree(va, 1 * TiB), CuResult::kSuccess);

    // Same check on the vMem path with a 64KB page-group.
    ASSERT_EQ(driver_.vMemReserve(&va, 2 * TiB), CuResult::kSuccess);
    MemHandle small = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&small, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va + 2 * TiB - 64 * KiB, small),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.vMemFree(va, 2 * TiB),
              CuResult::kErrorAlreadyMapped);
    ASSERT_EQ(driver_.vMemRelease(small), CuResult::kSuccess);
    EXPECT_EQ(driver_.vMemFree(va, 2 * TiB), CuResult::kSuccess);

    ASSERT_EQ(driver_.cuMemUnmap(neighbour, 2 * MiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemRelease(outside), CuResult::kSuccess);
    EXPECT_EQ(driver_.cuMemAddressFree(neighbour, 2 * MiB),
              CuResult::kSuccess);
}

TEST_F(DriverTest, PhysicalExhaustionReturnsOom)
{
    // Device has 64MB; create handles until it refuses.
    std::vector<MemHandle> handles;
    while (true) {
        MemHandle handle = kInvalidHandle;
        const auto r = driver_.cuMemCreate(&handle, 2 * MiB);
        if (r != CuResult::kSuccess) {
            EXPECT_EQ(r, CuResult::kErrorOutOfMemory);
            break;
        }
        handles.push_back(handle);
    }
    EXPECT_EQ(handles.size(), 32u);
    for (MemHandle handle : handles) {
        EXPECT_EQ(driver_.cuMemRelease(handle), CuResult::kSuccess);
    }
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
}

TEST_F(DriverTest, VMemExtensionLifecycle)
{
    Addr va = 0;
    ASSERT_EQ(driver_.vMemReserve(&va, 1 * MiB), CuResult::kSuccess);

    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.handleSize(handle), 64 * KiB);

    // vMemMap fuses map + access grant.
    ASSERT_EQ(driver_.vMemMap(va, handle), CuResult::kSuccess);
    EXPECT_TRUE(device_.pageTable().isAccessible(va, 64 * KiB));

    // vMemRelease fuses unmap + free.
    ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    EXPECT_FALSE(device_.pageTable().isAccessible(va, 64 * KiB));
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
    EXPECT_EQ(driver_.vMemFree(va, 1 * MiB), CuResult::kSuccess);
}

TEST_F(DriverTest, VMemSupportsAllPageGroups)
{
    Addr va = 0;
    ASSERT_EQ(driver_.vMemReserve(&va, 16 * MiB, 2 * MiB),
              CuResult::kSuccess);
    Addr cursor = va;
    for (PageGroup group : kAllPageGroups) {
        // Hardware pages must be mapped at naturally aligned VAs.
        cursor = roundUp(cursor, bytes(group));
        MemHandle handle = kInvalidHandle;
        ASSERT_EQ(driver_.vMemCreate(&handle, group), CuResult::kSuccess)
            << toString(group);
        ASSERT_EQ(driver_.vMemMap(cursor, handle), CuResult::kSuccess);
        EXPECT_TRUE(
            device_.pageTable().isAccessible(cursor, bytes(group)));
        cursor += bytes(group);
        ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    }
}

TEST_F(DriverTest, SmallGroupsBackedBy64KbPages)
{
    Addr va = 0;
    ASSERT_EQ(driver_.vMemReserve(&va, 1 * MiB), CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k256KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va, handle), CuResult::kSuccess);
    auto t = device_.pageTable().translate(va);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().page, PageSize::k64KB);
    driver_.vMemRelease(handle);
}

TEST_F(DriverTest, CudaMallocCommitsEverything)
{
    Addr ptr = 0;
    ASSERT_EQ(driver_.cudaMalloc(&ptr, 3 * MiB), CuResult::kSuccess);
    // Rounded to 2MB multiple, fully accessible immediately: the
    // reservation-based model the paper contrasts against.
    EXPECT_TRUE(device_.pageTable().isAccessible(ptr, 3 * MiB));
    EXPECT_EQ(driver_.physBytesInUse(), 4 * MiB);
    ASSERT_EQ(driver_.cudaFree(ptr), CuResult::kSuccess);
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
    EXPECT_EQ(driver_.cudaFree(ptr), CuResult::kErrorInvalidValue);
}

TEST_F(DriverTest, LatencyLedgerChargesTable3Costs)
{
    driver_.consumeElapsedNs();
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    // Table 3: vMemCreate(64KB) = 1.7us.
    EXPECT_EQ(driver_.consumeElapsedNs(), 1700u);

    Addr va = 0;
    ASSERT_EQ(driver_.vMemReserve(&va, 64 * KiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.consumeElapsedNs(), 18000u); // 18us

    ASSERT_EQ(driver_.vMemMap(va, handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.consumeElapsedNs(), 8000u); // 8us

    ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.consumeElapsedNs(), 2000u); // 2us

    // The ledger drains: nothing pending now.
    EXPECT_EQ(driver_.consumeElapsedNs(), 0u);
    EXPECT_GT(driver_.totalNs(), 0u);
}

TEST_F(DriverTest, CountersTrackCalls)
{
    Addr va = 0;
    driver_.cuMemAddressReserve(&va, 2 * MiB);
    MemHandle handle = kInvalidHandle;
    driver_.cuMemCreate(&handle, 2 * MiB);
    driver_.cuMemMap(va, 2 * MiB, 0, handle);
    driver_.cuMemSetAccess(va, 2 * MiB);
    driver_.cuMemUnmap(va, 2 * MiB);
    driver_.cuMemRelease(handle);
    driver_.cuMemAddressFree(va, 2 * MiB);
    const auto &counters = driver_.counters();
    EXPECT_EQ(counters.reserve, 1u);
    EXPECT_EQ(counters.create, 1u);
    EXPECT_EQ(counters.map, 1u);
    EXPECT_EQ(counters.set_access, 1u);
    EXPECT_EQ(counters.unmap, 1u);
    EXPECT_EQ(counters.release, 1u);
    EXPECT_EQ(counters.address_free, 1u);
    EXPECT_EQ(counters.total(), 7u);
}

TEST_F(DriverTest, FunctionalDataThroughVmmMapping)
{
    // End to end: reserve, create, map, write through VA, remap
    // elsewhere, confirm the data lives in physical memory.
    Addr va1 = 0;
    ASSERT_EQ(driver_.vMemReserve(&va1, 128 * KiB), CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va1, handle), CuResult::kSuccess);

    const u32 value = 0xcafef00d;
    device_.writeVa(va1 + 500, &value, sizeof(value));

    // Unmap (keeping physical) is only possible via the cu path; use
    // a second mapping address to show handle identity instead:
    // release destroys content, so re-create and check zeros.
    ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    MemHandle handle2 = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle2, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va1, handle2), CuResult::kSuccess);
    u32 out = 0xffffffff;
    device_.readVa(va1 + 500, &out, sizeof(out));
    // Physical frame may be recycled; the mapping itself must work.
    device_.writeVa(va1 + 500, &value, sizeof(value));
    device_.readVa(va1 + 500, &out, sizeof(out));
    EXPECT_EQ(out, value);
    driver_.vMemRelease(handle2);
}

// ---- Aliased handles (one handle mapped at several VAs, §8.1) -------

TEST_F(DriverTest, CuAliasedUnmapOneVaKeepsPhysicalMemory)
{
    Addr va1 = 0;
    Addr va2 = 0;
    ASSERT_EQ(driver_.cuMemAddressReserve(&va1, 2 * MiB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemAddressReserve(&va2, 2 * MiB),
              CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&handle, 2 * MiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemMap(va1, 2 * MiB, 0, handle),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemMap(va2, 2 * MiB, 0, handle),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 2u);
    EXPECT_EQ(driver_.physBytesInUse(), 2 * MiB);

    // Unmapping one VA must not release the physical memory: the
    // other request's mapping still resolves.
    ASSERT_EQ(driver_.cuMemUnmap(va1, 2 * MiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 1u);
    EXPECT_TRUE(driver_.isMapped(handle));
    EXPECT_EQ(driver_.physBytesInUse(), 2 * MiB);

    // Release with a live mapping is refused (vAttention's protocol
    // unmaps first); after the last unmap the release frees exactly
    // once.
    EXPECT_EQ(driver_.cuMemRelease(handle),
              CuResult::kErrorAlreadyMapped);
    ASSERT_EQ(driver_.cuMemUnmap(va2, 2 * MiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.cuMemRelease(handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
}

TEST_F(DriverTest, VMemUnmapRemovesOneMappingOnly)
{
    Addr va1 = 0;
    Addr va2 = 0;
    ASSERT_EQ(driver_.vMemReserve(&va1, 64 * KiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemReserve(&va2, 64 * KiB), CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va1, handle), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va2, handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 2u);

    ASSERT_EQ(driver_.vMemUnmap(va1), CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 1u);
    EXPECT_EQ(driver_.physBytesInUse(), 64 * KiB);
    // The surviving mapping is still accessible.
    EXPECT_TRUE(device_.pageTable().isAccessible(va2, 64 * KiB));
    // Unmapping an unmapped VA reports kErrorNotMapped.
    EXPECT_EQ(driver_.vMemUnmap(va1), CuResult::kErrorNotMapped);

    ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.physBytesInUse(), 0u);
}

TEST_F(DriverTest, VMemReleaseOnAliasedHandleUnmapsAllAndFreesOnce)
{
    Addr va1 = 0;
    Addr va2 = 0;
    ASSERT_EQ(driver_.vMemReserve(&va1, 64 * KiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemReserve(&va2, 64 * KiB), CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va1, handle), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va2, handle), CuResult::kSuccess);
    const u64 phys_before = driver_.physBytesInUse();

    ASSERT_EQ(driver_.vMemRelease(handle), CuResult::kSuccess);
    EXPECT_EQ(driver_.numMappings(handle), 0u);
    EXPECT_EQ(driver_.physBytesInUse(), phys_before - 64 * KiB);
    EXPECT_FALSE(device_.pageTable().isAccessible(va1, 64 * KiB));
    EXPECT_FALSE(device_.pageTable().isAccessible(va2, 64 * KiB));
    // Both reservations are mapping-free and can be returned.
    EXPECT_EQ(driver_.vMemFree(va1, 64 * KiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.vMemFree(va2, 64 * KiB), CuResult::kSuccess);
}

TEST_F(DriverTest, AliasedVasTranslateToTheSamePhysAddr)
{
    Addr va1 = 0;
    Addr va2 = 0;
    ASSERT_EQ(driver_.vMemReserve(&va1, 64 * KiB), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemReserve(&va2, 64 * KiB), CuResult::kSuccess);
    MemHandle handle = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&handle, PageGroup::k64KB),
              CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va1, handle), CuResult::kSuccess);
    ASSERT_EQ(driver_.vMemMap(va2, handle), CuResult::kSuccess);

    // Page-table + TLB path: both virtual addresses resolve to one
    // physical page (the de-duplicated KV bytes exist once).
    const PhysAddr p1 = device_.translateTouched(va1 + 4096);
    const PhysAddr p2 = device_.translateTouched(va2 + 4096);
    EXPECT_EQ(p1, p2);

    // Writes through one alias are visible through the other.
    const u32 value = 0x5eedf00d;
    device_.writeVa(va1 + 128, &value, sizeof(value));
    u32 out = 0;
    device_.readVa(va2 + 128, &out, sizeof(out));
    EXPECT_EQ(out, value);

    driver_.vMemRelease(handle);
}

TEST_F(DriverTest, HostAllocCopyReleaseLifecycle)
{
    // Host allocations live beside device handles with their own
    // accounting; copies price the PCIe link and hit the same ledger.
    MemHandle host = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemHostCreate(&host, 64 * KiB),
              CuResult::kSuccess);
    EXPECT_EQ(driver_.hostBytesInUse(), 64 * KiB);
    EXPECT_EQ(driver_.numLiveHostHandles(), 1u);
    EXPECT_EQ(driver_.physBytesInUse(), 0u); // not device memory

    MemHandle dev = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&dev, PageGroup::k64KB),
              CuResult::kSuccess);
    driver_.consumeElapsedNs();

    ASSERT_EQ(driver_.cuMemcpyDtoH(host, dev), CuResult::kSuccess);
    const TimeNs dtoh = driver_.consumeElapsedNs();
    EXPECT_GE(dtoh, driver_.latency().copyModel().launch_ns);
    ASSERT_EQ(driver_.cuMemcpyHtoD(dev, host), CuResult::kSuccess);
    EXPECT_GT(driver_.consumeElapsedNs(), 0u);
    EXPECT_EQ(driver_.counters().copy_dtoh, 1u);
    EXPECT_EQ(driver_.counters().copy_htod, 1u);

    ASSERT_EQ(driver_.cuMemHostRelease(host), CuResult::kSuccess);
    EXPECT_EQ(driver_.hostBytesInUse(), 0u);
    EXPECT_EQ(driver_.numLiveHostHandles(), 0u);
    driver_.vMemRelease(dev);
}

TEST_F(DriverTest, HostCopyRejectsBadHandlesAndSizeMismatch)
{
    MemHandle host = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemHostCreate(&host, 128 * KiB),
              CuResult::kSuccess);
    MemHandle dev = kInvalidHandle;
    ASSERT_EQ(driver_.vMemCreate(&dev, PageGroup::k64KB),
              CuResult::kSuccess);
    // Sizes must match exactly (page-group granular swap).
    EXPECT_EQ(driver_.cuMemcpyDtoH(host, dev),
              CuResult::kErrorInvalidValue);
    // Host/device namespaces do not mix.
    EXPECT_EQ(driver_.cuMemcpyDtoH(dev, dev),
              CuResult::kErrorInvalidHandle);
    EXPECT_EQ(driver_.cuMemcpyHtoD(host, host),
              CuResult::kErrorInvalidHandle);
    EXPECT_EQ(driver_.cuMemHostRelease(dev),
              CuResult::kErrorInvalidHandle);
    // A host handle cannot be mapped into the GPU VA space.
    Addr va = 0;
    ASSERT_EQ(driver_.vMemReserve(&va, 128 * KiB), CuResult::kSuccess);
    EXPECT_EQ(driver_.vMemMap(va, host),
              CuResult::kErrorInvalidHandle);
    driver_.cuMemHostRelease(host);
    driver_.vMemRelease(dev);
}

TEST_F(DriverTest, CopyCostsFollowTheInstalledPcieModel)
{
    LatencyModel::CopyModel slow;
    slow.d2h_bytes_per_s = 1e9;
    slow.h2d_bytes_per_s = 2e9;
    slow.launch_ns = 1000;
    driver_.latency().setCopyModel(slow);
    MemHandle host = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemHostCreate(&host, 2 * MiB),
              CuResult::kSuccess);
    MemHandle dev = kInvalidHandle;
    ASSERT_EQ(driver_.cuMemCreate(&dev, 2 * MiB), CuResult::kSuccess);
    driver_.consumeElapsedNs();

    ASSERT_EQ(driver_.cuMemcpyDtoH(host, dev), CuResult::kSuccess);
    // 2 MiB at 1 GB/s ~= 2.097 ms plus launch.
    EXPECT_NEAR(static_cast<double>(driver_.consumeElapsedNs()),
                1000.0 + 2.0 * MiB / 1e9 * 1e9, 1e3);
    ASSERT_EQ(driver_.cuMemcpyHtoD(dev, host), CuResult::kSuccess);
    EXPECT_NEAR(static_cast<double>(driver_.consumeElapsedNs()),
                1000.0 + 2.0 * MiB / 2e9 * 1e9, 1e3);
    driver_.cuMemHostRelease(host);
    driver_.cuMemRelease(dev);
}

} // namespace
} // namespace vattn::cuvmm
