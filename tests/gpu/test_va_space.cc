#include <gtest/gtest.h>

#include "gpu/va_space.hh"

namespace vattn::gpu
{
namespace
{

TEST(VaSpace, ReserveIsAligned)
{
    VaSpace space;
    auto r = space.reserve(10 * MiB, 2 * MiB);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value() % (2 * MiB), 0u);
    EXPECT_TRUE(space.isReserved(r.value(), 10 * MiB));
    EXPECT_EQ(space.reservationSize(r.value()), 10 * MiB);
}

TEST(VaSpace, ReservationsAreDisjoint)
{
    VaSpace space;
    auto a = space.reserve(1 * MiB, 4 * KiB);
    auto b = space.reserve(1 * MiB, 4 * KiB);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    const bool disjoint = a.value() + 1 * MiB <= b.value() ||
                          b.value() + 1 * MiB <= a.value();
    EXPECT_TRUE(disjoint);
    EXPECT_EQ(space.reservedBytes(), 2 * MiB);
}

TEST(VaSpace, TerabyteScaleReservations)
{
    // §5.1.3: Yi-34B needs 120 buffers of 100GB each (12TB total);
    // virtual memory must shrug this off.
    VaSpace space;
    std::vector<Addr> buffers;
    for (int i = 0; i < 120; ++i) {
        auto r = space.reserve(100 * GiB, 2 * MiB);
        ASSERT_TRUE(r.isOk()) << "buffer " << i;
        buffers.push_back(r.value());
    }
    EXPECT_EQ(space.reservedBytes(), 120ull * 100 * GiB);
    for (Addr addr : buffers) {
        EXPECT_TRUE(space.release(addr).isOk());
    }
    EXPECT_EQ(space.reservedBytes(), 0u);
}

TEST(VaSpace, ReleaseCoalescesFreeSpace)
{
    VaSpace space(0x1000, 64 * KiB);
    auto a = space.reserve(16 * KiB, 4 * KiB);
    auto b = space.reserve(16 * KiB, 4 * KiB);
    auto c = space.reserve(32 * KiB, 4 * KiB);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    ASSERT_TRUE(c.isOk());
    EXPECT_FALSE(space.reserve(4 * KiB, 4 * KiB).isOk()); // full
    // Free middle then neighbours; the whole space must coalesce.
    ASSERT_TRUE(space.release(b.value()).isOk());
    ASSERT_TRUE(space.release(a.value()).isOk());
    ASSERT_TRUE(space.release(c.value()).isOk());
    auto whole = space.reserve(64 * KiB, 4 * KiB);
    EXPECT_TRUE(whole.isOk());
}

TEST(VaSpace, FixedAddressReservation)
{
    VaSpace space(0x10000, 1 * MiB);
    auto r = space.reserve(64 * KiB, 4 * KiB, 0x20000);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value(), 0x20000u);
    // Conflicting fixed reservation fails.
    EXPECT_FALSE(space.reserve(4 * KiB, 4 * KiB, 0x20000).isOk());
    // Around it works.
    auto before = space.reserve(64 * KiB, 4 * KiB, 0x10000);
    EXPECT_TRUE(before.isOk());
}

TEST(VaSpace, InvalidArguments)
{
    VaSpace space;
    EXPECT_EQ(space.reserve(0, 4 * KiB).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(space.reserve(4 * KiB, 3).code(),
              ErrorCode::kInvalidArgument); // non-pow2 alignment
    EXPECT_EQ(space.release(0xdead).code(), ErrorCode::kNotFound);
}

TEST(VaSpace, ExhaustionReported)
{
    VaSpace space(0x1000, 16 * KiB);
    ASSERT_TRUE(space.reserve(16 * KiB, 4 * KiB).isOk());
    EXPECT_EQ(space.reserve(4 * KiB, 4 * KiB).code(),
              ErrorCode::kOutOfMemory);
}

TEST(VaSpace, IsReservedChecksWholeRange)
{
    VaSpace space;
    auto r = space.reserve(8 * KiB, 4 * KiB);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(space.isReserved(r.value(), 8 * KiB));
    EXPECT_TRUE(space.isReserved(r.value() + 4 * KiB, 4 * KiB));
    EXPECT_FALSE(space.isReserved(r.value(), 16 * KiB));
    EXPECT_FALSE(space.isReserved(r.value() + 8 * KiB, 1));
}

TEST(VaSpace, LookupsOutsideAndInsideReservations)
{
    VaSpace space(0x10000, 1 * MiB);
    EXPECT_FALSE(space.isReserved(0x10000, 1)); // nothing reserved yet
    auto a = space.reserve(64 * KiB, 4 * KiB, 0x20000);
    auto b = space.reserve(64 * KiB, 4 * KiB, 0x40000);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(space.numReservations(), 2u);
    EXPECT_FALSE(space.isReserved(0x1F000, 4 * KiB)); // below the first
    EXPECT_FALSE(space.isReserved(0x30000, 4 * KiB)); // between them
    EXPECT_TRUE(space.isReserved(0x40000 + 60 * KiB, 4 * KiB));
    // Size and release need the exact start, not an inner address.
    EXPECT_EQ(space.reservationSize(0x20000 + 4 * KiB), 0u);
    EXPECT_EQ(space.release(0x20000 + 4 * KiB).code(),
              ErrorCode::kNotFound);
    ASSERT_TRUE(space.release(0x20000).isOk());
    EXPECT_EQ(space.release(0x20000).code(), ErrorCode::kNotFound);
    EXPECT_FALSE(space.isReserved(0x20000, 4 * KiB));
    EXPECT_EQ(space.reservationSize(0x20000), 0u);
    EXPECT_EQ(space.numReservations(), 1u);
    EXPECT_EQ(space.reservedBytes(), 64 * KiB);
}

} // namespace
} // namespace vattn::gpu
