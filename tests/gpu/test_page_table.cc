#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "gpu/page_table.hh"

namespace vattn::gpu
{
namespace
{

constexpr Addr kVa = 0x10'0000'0000ULL;

TEST(PageTable, MapTranslateUnmap)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0x10000, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    auto t = table.translate(kVa + 100);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().phys, 0x10000u + 100);
    EXPECT_EQ(t.value().page, PageSize::k64KB);
    EXPECT_EQ(t.value().access, Access::kReadWrite);
    EXPECT_EQ(t.value().extent_start, kVa);
    EXPECT_EQ(t.value().extent_end, kVa + 64 * KiB);

    ASSERT_TRUE(table.unmap(kVa, 64 * KiB).isOk());
    EXPECT_FALSE(table.translate(kVa).isOk());
}

TEST(PageTable, AlignmentEnforced)
{
    PageTable table;
    EXPECT_FALSE(table
                     .map(kVa + 1, 0, 64 * KiB, PageSize::k64KB,
                          Access::kReadWrite)
                     .isOk());
    EXPECT_FALSE(table
                     .map(kVa, 4096, 64 * KiB, PageSize::k64KB,
                          Access::kReadWrite)
                     .isOk()); // phys unaligned
    EXPECT_FALSE(table
                     .map(kVa, 0, 60 * KiB, PageSize::k64KB,
                          Access::kReadWrite)
                     .isOk()); // size not multiple
}

TEST(PageTable, DoubleMapRejected)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 2 * MiB, PageSize::k2MB,
                         Access::kReadWrite)
                    .isOk());
    EXPECT_EQ(table
                  .map(kVa + 64 * KiB, 0, 64 * KiB, PageSize::k64KB,
                       Access::kReadWrite)
                  .code(),
              ErrorCode::kAlreadyExists);
}

TEST(PageTable, CudaMapThenSetAccessSemantics)
{
    // cuMemMap leaves the range inaccessible until cuMemSetAccess.
    PageTable table;
    ASSERT_TRUE(
        table.map(kVa, 0, 2 * MiB, PageSize::k2MB, Access::kNone)
            .isOk());
    EXPECT_FALSE(table.isAccessible(kVa, 2 * MiB));
    auto t = table.translate(kVa);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().access, Access::kNone);

    ASSERT_TRUE(
        table.setAccess(kVa, 2 * MiB, Access::kReadWrite).isOk());
    EXPECT_TRUE(table.isAccessible(kVa, 2 * MiB));
}

TEST(PageTable, SetAccessRequiresWholeExtents)
{
    PageTable table;
    ASSERT_TRUE(
        table.map(kVa, 0, 2 * MiB, PageSize::k2MB, Access::kNone)
            .isOk());
    // Partial extent.
    EXPECT_FALSE(
        table.setAccess(kVa, 1 * MiB, Access::kReadWrite).isOk());
    // Range with a gap.
    EXPECT_FALSE(
        table.setAccess(kVa, 4 * MiB, Access::kReadWrite).isOk());
}

TEST(PageTable, UnmapRequiresExactExtentDecomposition)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 64 * KiB, 64 * KiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    // Partial unmap of one extent: rejected.
    EXPECT_FALSE(table.unmap(kVa, 32 * KiB).isOk());
    // Unmap spanning both extents exactly: fine.
    EXPECT_TRUE(table.unmap(kVa, 128 * KiB).isOk());
    EXPECT_EQ(table.numExtents(), 0u);
}

TEST(PageTable, UnmapWithGapRejectedAtomically)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 128 * KiB, 64 * KiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    EXPECT_FALSE(table.unmap(kVa, 192 * KiB).isOk());
    // Nothing was removed.
    EXPECT_EQ(table.numExtents(), 2u);
    EXPECT_TRUE(table.translate(kVa).isOk());
    EXPECT_TRUE(table.translate(kVa + 128 * KiB).isOk());
}

TEST(PageTable, MixedPageSizes)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 2 * MiB, PageSize::k2MB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 2 * MiB, 2 * MiB, 64 * KiB,
                         PageSize::k64KB, Access::kReadWrite)
                    .isOk());
    EXPECT_EQ(table.translate(kVa).value().page, PageSize::k2MB);
    EXPECT_EQ(table.translate(kVa + 2 * MiB).value().page,
              PageSize::k64KB);
    EXPECT_EQ(table.mappedBytes(), 2 * MiB + 64 * KiB);
}

TEST(PageTable, TranslationOffsetsWithinExtent)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0x100000, 256 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    const u64 offsets[] = {0, 1, 64 * KiB + 5, 256 * KiB - 1};
    for (u64 off : offsets) {
        auto t = table.translate(kVa + off);
        ASSERT_TRUE(t.isOk()) << off;
        EXPECT_EQ(t.value().phys, 0x100000 + off);
    }
    EXPECT_FALSE(table.translate(kVa + 256 * KiB).isOk());
}

TEST(PageTable, IsAccessibleAcrossExtents)
{
    PageTable table;
    ASSERT_TRUE(table
                    .map(kVa, 0, 64 * KiB, PageSize::k64KB,
                         Access::kReadWrite)
                    .isOk());
    ASSERT_TRUE(table
                    .map(kVa + 64 * KiB, 64 * KiB, 64 * KiB,
                         PageSize::k64KB, Access::kNone)
                    .isOk());
    EXPECT_TRUE(table.isAccessible(kVa, 64 * KiB));
    EXPECT_FALSE(table.isAccessible(kVa, 128 * KiB)); // second is kNone
    EXPECT_FALSE(table.isAccessible(kVa + 200 * KiB, 1)); // unmapped
}

TEST(PageTable, ExtentsSpanningFrames)
{
    // A 64KB-page extent straddling a 2MB boundary, and a multi-MB
    // cudaMalloc-style extent covering several whole frames.
    PageTable table;
    const Addr straddle = kVa + 2 * MiB - 64 * KiB;
    ASSERT_TRUE(table
                    .map(straddle, 0x40000, 192 * KiB, PageSize::k64KB,
                         Access::kNone)
                    .isOk());
    const Addr big = kVa + 8 * MiB;
    ASSERT_TRUE(table
                    .map(big, 64 * MiB, 6 * MiB, PageSize::k2MB,
                         Access::kNone)
                    .isOk());
    EXPECT_EQ(table.numExtents(), 2u);
    EXPECT_EQ(table.mappedBytes(), 192 * KiB + 6 * MiB);

    // Both frames of the straddling extent see it.
    EXPECT_EQ(table.translate(straddle).value().extent_start, straddle);
    EXPECT_EQ(table.translate(kVa + 2 * MiB + 100).value().phys,
              0x40000u + 64 * KiB + 100);
    // Overlaps are caught from either frame and in the middle frame.
    EXPECT_EQ(table
                  .map(kVa + 2 * MiB, 0, 64 * KiB, PageSize::k64KB,
                       Access::kNone)
                  .code(),
              ErrorCode::kAlreadyExists);
    EXPECT_EQ(table
                  .map(big + 2 * MiB, 0, 2 * MiB, PageSize::k2MB,
                       Access::kNone)
                  .code(),
              ErrorCode::kAlreadyExists);
    EXPECT_EQ(table
                  .map(big - 2 * MiB, 0, 4 * MiB, PageSize::k2MB,
                       Access::kNone)
                  .code(),
              ErrorCode::kAlreadyExists);

    // Access changes reach every frame's copy.
    ASSERT_TRUE(
        table.setAccess(big, 6 * MiB, Access::kReadWrite).isOk());
    EXPECT_TRUE(table.isAccessible(big, 6 * MiB));
    EXPECT_EQ(table.translate(big + 5 * MiB).value().access,
              Access::kReadWrite);
    ASSERT_TRUE(table
                    .setAccess(straddle, 192 * KiB, Access::kReadWrite)
                    .isOk());
    EXPECT_TRUE(table.isAccessible(straddle, 192 * KiB));

    // Each extent is visited once, in address order.
    std::vector<Addr> starts;
    table.forEachExtent(kVa, 64 * MiB,
                        [&](Addr start, Addr, PhysAddr, PageSize,
                            Access) { starts.push_back(start); });
    EXPECT_EQ(starts, (std::vector<Addr>{straddle, big}));
    EXPECT_TRUE(table.anyMapped(big + 4 * MiB, 1));
    EXPECT_FALSE(table.anyMapped(big + 6 * MiB, 2 * MiB));

    // Partial unmaps fail without side effects; whole ones succeed.
    EXPECT_FALSE(table.unmap(big, 2 * MiB).isOk());
    EXPECT_FALSE(table.unmap(straddle + 64 * KiB, 128 * KiB).isOk());
    EXPECT_EQ(table.numExtents(), 2u);
    ASSERT_TRUE(table.unmap(big, 6 * MiB).isOk());
    ASSERT_TRUE(table.unmap(straddle, 192 * KiB).isOk());
    EXPECT_EQ(table.numExtents(), 0u);
    EXPECT_EQ(table.mappedBytes(), 0u);
    EXPECT_FALSE(table.translate(big + 5 * MiB).isOk());
    EXPECT_FALSE(table.anyMapped(kVa, 64 * MiB));
}

/**
 * Ordered-map model of the page table's contract, kept deliberately
 * naive so the differential test below can trust it.
 */
class ReferenceTable
{
  public:
    struct Extent
    {
        Addr end;
        PhysAddr phys;
        PageSize page;
        Access access;
    };
    using Visit = std::tuple<Addr, Addr, PhysAddr, PageSize, Access>;

    ErrorCode
    map(Addr va, PhysAddr pa, u64 size, PageSize page, Access access)
    {
        const u64 psize = bytes(page);
        if (size == 0 || size % psize != 0 || va % psize != 0 ||
            pa % psize != 0) {
            return ErrorCode::kInvalidArgument;
        }
        if (!visit(va, size).empty()) {
            return ErrorCode::kAlreadyExists;
        }
        extents_[va] = Extent{va + size, pa, page, access};
        return ErrorCode::kOk;
    }

    ErrorCode
    setAccess(Addr va, u64 size, Access access)
    {
        if (size == 0) {
            return ErrorCode::kInvalidArgument;
        }
        if (!coversWholeExtents(va, size)) {
            return ErrorCode::kFailedPrecondition;
        }
        for (auto it = extents_.find(va); it != extents_.end() &&
                                          it->first < va + size;
             ++it) {
            it->second.access = access;
        }
        return ErrorCode::kOk;
    }

    ErrorCode
    unmap(Addr va, u64 size)
    {
        if (size == 0) {
            return ErrorCode::kInvalidArgument;
        }
        if (!coversWholeExtents(va, size)) {
            return ErrorCode::kFailedPrecondition;
        }
        extents_.erase(extents_.find(va), extents_.lower_bound(va + size));
        return ErrorCode::kOk;
    }

    /** Extent containing @p va, or end(). */
    std::map<Addr, Extent>::const_iterator
    containing(Addr va) const
    {
        auto it = extents_.upper_bound(va);
        if (it == extents_.begin()) {
            return extents_.end();
        }
        --it;
        return va < it->second.end ? it : extents_.end();
    }

    bool
    isAccessible(Addr va, u64 size) const
    {
        for (Addr cursor = va; cursor < va + size;) {
            auto it = containing(cursor);
            if (it == extents_.end() ||
                it->second.access != Access::kReadWrite) {
                return false;
            }
            cursor = it->second.end;
        }
        return true;
    }

    std::vector<Visit>
    visit(Addr va, u64 size) const
    {
        std::vector<Visit> out;
        for (const auto &[start, e] : extents_) {
            if (start < va + size && e.end > va) {
                out.emplace_back(start, e.end, e.phys, e.page, e.access);
            }
        }
        return out;
    }

    u64
    mappedBytes() const
    {
        u64 total = 0;
        for (const auto &[start, e] : extents_) {
            total += e.end - start;
        }
        return total;
    }

    const std::map<Addr, Extent> &extents() const { return extents_; }

  private:
    bool
    coversWholeExtents(Addr va, u64 size) const
    {
        for (Addr cursor = va; cursor != va + size;) {
            auto it = extents_.find(cursor);
            if (it == extents_.end() || it->second.end > va + size) {
                return false;
            }
            cursor = it->second.end;
        }
        return true;
    }

    std::map<Addr, Extent> extents_;
};

std::vector<ReferenceTable::Visit>
visitAll(const PageTable &table, Addr va, u64 size)
{
    std::vector<ReferenceTable::Visit> out;
    table.forEachExtent(va, size,
                        [&](Addr start, Addr end, PhysAddr phys,
                            PageSize page, Access access) {
                            out.emplace_back(start, end, phys, page,
                                             access);
                        });
    return out;
}

TEST(PageTable, DifferentialAgainstOrderedModel)
{
    // A dense window of 8 frames where extents share and straddle
    // frames, then a sparse area of 2048 frames that grows the frame
    // index through several rehashes and makes its probes collide.
    constexpr u64 kWindow = 16 * MiB;
    constexpr u64 kSparseFrames = 2048;
    constexpr u64 kSpan = kWindow + kSparseFrames * 2 * MiB;
    constexpr int kOps = 20000;
    PageTable table;
    ReferenceTable ref;
    Rng rng(20240917);

    auto pick = [&](i64 lo, i64 hi) {
        return static_cast<u64>(rng.uniformInt(lo, hi));
    };
    auto randomPage = [&] {
        const u64 r = pick(0, 9);
        return r < 3 ? PageSize::k4KB
                     : (r < 8 ? PageSize::k64KB : PageSize::k2MB);
    };
    auto randomAccess = [&] {
        return pick(0, 1) ? Access::kReadWrite : Access::kNone;
    };
    // A page-aligned VA in the window, often just below a 2MB frame
    // boundary so multi-page extents straddle it.
    auto randomVa = [&](u64 psize) {
        if (pick(0, 2) == 0) {
            return kVa + kWindow + pick(0, kSparseFrames - 1) * 2 * MiB +
                   pick(0, 2 * MiB / psize - 1) * psize;
        }
        if (psize < 2 * MiB && pick(0, 2) == 0) {
            return kVa + pick(1, 7) * 2 * MiB - pick(1, 3) * psize;
        }
        return kVa + pick(0, kWindow / psize - 1) * psize;
    };
    // A run of 1-3 live extents (possibly with gaps) or a random range.
    auto randomRange = [&]() -> std::pair<Addr, u64> {
        const auto &extents = ref.extents();
        if (!extents.empty() && pick(0, 4) != 0) {
            auto it = std::next(extents.begin(),
                                static_cast<std::ptrdiff_t>(
                                    pick(0, extents.size() - 1)));
            const Addr start = it->first;
            Addr end = it->second.end;
            for (u64 k = pick(0, 2); k > 0; --k) {
                if (++it == extents.end()) {
                    break;
                }
                end = it->second.end;
            }
            if (pick(0, 9) == 0) {
                end -= 4 * KiB; // partial last extent
            }
            return {start, end - start};
        }
        return {kVa + pick(0, kWindow / (4 * KiB) - 1) * 4 * KiB,
                pick(0, 1024) * 4 * KiB};
    };

    std::size_t maps = 0;
    std::size_t failures = 0;
    std::size_t peak_extents = 0;
    for (int op = 0; op < kOps; ++op) {
        const u64 kind = pick(0, 9);
        if (kind < 4) {
            const PageSize page = randomPage();
            const u64 psize = bytes(page);
            Addr va = randomVa(psize);
            PhysAddr pa = pick(0, 1023) * psize;
            u64 size = psize * (page == PageSize::k2MB
                                    ? pick(1, 3)
                                    : (pick(0, 7) == 0 ? pick(1, 48)
                                                       : pick(1, 4)));
            switch (pick(0, 19)) {
            case 0: va += 4 * KiB; break;           // misaligned VA
            case 1: pa += 4 * KiB; break;           // misaligned PA
            case 2: size += 4 * KiB; break;         // ragged size
            case 3: size = 0; break;
            default: break;
            }
            const Access access = randomAccess();
            const ErrorCode want = ref.map(va, pa, size, page, access);
            ASSERT_EQ(table.map(va, pa, size, page, access).code(), want)
                << "map op " << op;
            maps += want == ErrorCode::kOk;
            failures += want != ErrorCode::kOk;
        } else if (kind < 5) {
            const auto [va, size] = randomRange();
            const Access access = randomAccess();
            const ErrorCode want = ref.setAccess(va, size, access);
            ASSERT_EQ(table.setAccess(va, size, access).code(), want)
                << "setAccess op " << op;
            failures += want != ErrorCode::kOk;
        } else if (kind < 7) {
            const auto [va, size] = randomRange();
            const ErrorCode want = ref.unmap(va, size);
            ASSERT_EQ(table.unmap(va, size).code(), want)
                << "unmap op " << op;
            failures += want != ErrorCode::kOk;
        } else if (kind < 8) {
            const Addr va = pick(0, 1) ? kVa + pick(0, kWindow - 1)
                                       : randomVa(4 * KiB) + pick(0, 4095);
            auto got = table.translate(va);
            auto it = ref.containing(va);
            ASSERT_EQ(got.isOk(), it != ref.extents().end())
                << "translate op " << op;
            if (got.isOk()) {
                const Translation &t = got.value();
                EXPECT_EQ(t.phys, it->second.phys + (va - it->first));
                EXPECT_EQ(t.extent_start, it->first);
                EXPECT_EQ(t.extent_end, it->second.end);
                EXPECT_EQ(t.page, it->second.page);
                EXPECT_EQ(t.access, it->second.access);
            }
        } else if (kind < 9) {
            const auto [va, size] = randomRange();
            ASSERT_EQ(table.isAccessible(va, size),
                      ref.isAccessible(va, size))
                << "isAccessible op " << op;
        } else {
            auto [va, size] = randomRange();
            if (pick(0, 9) == 0) {
                // Far wider than the index: exercises the table scan.
                va = 0;
                size = 4 * TiB;
            }
            ASSERT_EQ(visitAll(table, va, size), ref.visit(va, size))
                << "forEachExtent op " << op;
            ASSERT_EQ(table.anyMapped(va, size),
                      !ref.visit(va, size).empty())
                << "anyMapped op " << op;
        }
        ASSERT_EQ(table.numExtents(), ref.extents().size()) << op;
        peak_extents = std::max(peak_extents, ref.extents().size());
        ASSERT_EQ(table.mappedBytes(), ref.mappedBytes()) << op;
        if (op % 256 == 0) {
            ASSERT_EQ(visitAll(table, kVa, kSpan), ref.visit(kVa, kSpan))
                << "full state after op " << op;
        }
    }
    // The mix must actually have exercised both outcomes.
    EXPECT_GT(maps, 1000u);
    EXPECT_GT(failures, 1000u);
    EXPECT_GT(peak_extents, 500u);

    // Draining everything leaves an empty table.
    while (!ref.extents().empty()) {
        const auto it = ref.extents().begin();
        const Addr va = it->first;
        const u64 size = it->second.end - va;
        ASSERT_EQ(table.unmap(va, size).code(), ref.unmap(va, size));
    }
    EXPECT_EQ(table.numExtents(), 0u);
    EXPECT_EQ(table.mappedBytes(), 0u);
    EXPECT_FALSE(table.anyMapped(0, 4 * TiB));
}

} // namespace
} // namespace vattn::gpu
