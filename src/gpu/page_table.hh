/**
 * @file
 * Per-device page table. Mappings are created at page-group granularity
 * (one driver call = one physically contiguous range), so the table
 * stores variable-size extents rather than fixed 4KB PTEs; translation
 * also reports the hardware page size backing the extent, which the TLB
 * model consumes.
 *
 * CUDA semantics honoured here: cuMemMap creates a mapping with *no*
 * access rights; cuMemSetAccess grants RW. The paper's vMemMap fuses the
 * two (§6.2), which the driver expresses by mapping with kReadWrite
 * directly.
 *
 * Layout: a flat index keyed by 2MB VA frame. An open-addressing hash
 * table maps each frame that holds mappings to a chain of the extents
 * overlapping it, sorted by start address. Chain entries live in one
 * node array with a free list; an extent spanning k frames owns k
 * identical nodes, one per chain. vAttention grows and shrinks KV one
 * page-group at a time (2MB, or 64KB-256KB with the driver extension),
 * so almost every map/setAccess/unmap touches one frame: one probe
 * validates the call and one applies it, independent of how many
 * extents are live. An ordered tree paid several O(log n) walks per
 * call, which dominated the simulator's host time.
 */

#ifndef VATTN_GPU_PAGE_TABLE_HH
#define VATTN_GPU_PAGE_TABLE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace vattn::gpu
{

/** Access rights on a mapped extent. */
enum class Access : u8
{
    kNone = 0,   ///< mapped but not accessible (cuMemMap w/o SetAccess)
    kReadWrite,  ///< fully accessible
};

/** Result of a successful translation. */
struct Translation
{
    PhysAddr phys;     ///< physical address for the queried VA
    Addr extent_start; ///< VA where this mapping begins
    Addr extent_end;   ///< VA where this mapping ends (exclusive)
    PageSize page;     ///< hardware page size backing the extent
    Access access;
};

/** Anonymous mmap/munmap of @p bytes (throws std::bad_alloc). */
void *mapAnonymous(std::size_t bytes);
void unmapAnonymous(void *p, std::size_t bytes);

/**
 * Allocator for the page table's arrays. Blocks of 64KB and up come
 * straight from mmap, so growing and freeing them neither fragments
 * the heap nor raises glibc's dynamic mmap threshold for the rest of
 * the process. On the heap, the doubling arrays of a long run's
 * successive devices raised peak RSS by megabytes.
 */
template <typename T>
struct MappedAllocator
{
    using value_type = T;
    static constexpr std::size_t kMinMappedBytes = 64 * KiB;

    MappedAllocator() = default;
    template <typename U>
    MappedAllocator(const MappedAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n * sizeof(T) < kMinMappedBytes) {
            return std::allocator<T>{}.allocate(n);
        }
        return static_cast<T *>(mapAnonymous(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n * sizeof(T) < kMinMappedBytes) {
            std::allocator<T>{}.deallocate(p, n);
        } else {
            unmapAnonymous(p, n * sizeof(T));
        }
    }

    friend bool
    operator==(const MappedAllocator &, const MappedAllocator &)
    {
        return true;
    }
};

/** Variable-extent page table with exact-range map/unmap. */
class PageTable
{
  public:
    PageTable();

    /**
     * Map [va, va+size) -> [pa, pa+size). Both addresses must be
     * aligned to @p page and @p size must be a multiple of it.
     */
    Status map(Addr va, PhysAddr pa, u64 size, PageSize page,
               Access access);

    /**
     * Change access on mapped extents fully covering [va, va+size).
     * Fails without side effects if any byte of the range is unmapped.
     */
    Status setAccess(Addr va, u64 size, Access access);

    /**
     * Remove mappings covering exactly [va, va+size). The range must
     * decompose into whole previously-mapped extents.
     */
    Status unmap(Addr va, u64 size);

    /** Translate one VA; fails if unmapped. Access is NOT enforced
     *  here — the device read/write path checks it. */
    Result<Translation> translate(Addr va) const;

    /** True iff every byte of [va, va+size) is mapped with RW access. */
    bool isAccessible(Addr va, u64 size) const;

    /**
     * Does any extent intersect [va, va+size)? Costs at most one probe
     * per frame of the range or one pass over the index, whichever is
     * smaller, so it is cheap on terabyte reservations.
     */
    bool anyMapped(Addr va, u64 size) const;

    u64 mappedBytes() const { return mapped_bytes_; }
    std::size_t numExtents() const { return num_extents_; }

    /**
     * Visit extents intersecting [va, va+size) in address order. Costs
     * O(extents visited) probes, bounded like anyMapped().
     */
    template <typename Fn>
    void forEachExtent(Addr va, u64 size, Fn &&fn) const;

  private:
    static constexpr unsigned kFrameShift = 21; ///< 2MB VA frames
    static constexpr u32 kNil = ~u32{0};
    static constexpr u64 kEmptyFrame = ~u64{0};

    /** One extent's entry in one frame's chain. */
    struct Node
    {
        Addr start;
        Addr end; ///< exclusive
        PhysAddr phys;
        PageSize page;
        u32 next; ///< next node in the chain or the free list
        Access access;
    };

    /** Hash slot: frame -> head of its chain. */
    struct Slot
    {
        u64 frame;
        u32 head;
    };

    static u64 frameOf(Addr va) { return va >> kFrameShift; }

    std::size_t
    home(u64 frame) const
    {
        return static_cast<std::size_t>(
            (frame * 0x9E37'79B9'7F4A'7C15ULL) >> hash_shift_);
    }

    static constexpr std::size_t kNoSlot = ~std::size_t{0};
    /** Index of @p frame's slot, or kNoSlot. */
    std::size_t findSlot(u64 frame) const;
    /** Slot for @p frame, created (with an empty chain) if absent. */
    Slot &slotFor(u64 frame);
    void eraseSlot(std::size_t index);
    void rehash(std::size_t capacity);

    u32
    chainHead(u64 frame) const
    {
        const std::size_t slot = findSlot(frame);
        return slot == kNoSlot ? kNil : slots_[slot].head;
    }

    /** Node in @p frame's chain of the extent starting at @p start. */
    u32 findIn(u64 frame, Addr start) const;
    /** Node of the extent containing @p va. */
    u32 findContaining(Addr va) const;
    /** Unlink and free the node of the extent starting at @p start
     *  from @p frame's chain; returns that extent's end. */
    Addr unlinkFrom(u64 frame, Addr start);

    u32 allocNode();

    /** Do whole extents tile [va, end) exactly? */
    bool coversWholeExtents(Addr va, Addr end) const;

    std::vector<Node, MappedAllocator<Node>> nodes_;
    u32 free_node_ = kNil;
    /** Power-of-two size, linear probing. */
    std::vector<Slot, MappedAllocator<Slot>> slots_;
    unsigned hash_shift_ = 0;
    std::size_t live_frames_ = 0;
    std::size_t num_extents_ = 0;
    u64 mapped_bytes_ = 0;
};

template <typename Fn>
void
PageTable::forEachExtent(Addr va, u64 size, Fn &&fn) const
{
    const Addr end = va + size;
    if (num_extents_ == 0 || end <= va) {
        return;
    }
    // Extents ending at or before `done` were visited (or precede the
    // range); it skips the extra chain copies of multi-frame extents.
    Addr done = va;
    auto visit = [&](u64 frame) {
        for (u32 i = chainHead(frame); i != kNil; i = nodes_[i].next) {
            const Node &n = nodes_[i];
            if (n.start >= end) {
                break;
            }
            if (n.end > done) {
                fn(n.start, n.end, n.phys, n.page, n.access);
                done = n.end;
            }
        }
    };
    const u64 first = frameOf(va);
    const u64 last = frameOf(end - 1);
    if (last - first < slots_.size()) {
        for (u64 f = first; f <= last;) {
            visit(f);
            // Frames wholly inside the last visited extent hold nothing
            // else; resume at the frame holding its final byte.
            f = done > va ? std::max(f + 1, frameOf(done - 1)) : f + 1;
        }
        return;
    }
    // The range is wider than the index: scan the index instead.
    std::vector<u64> frames;
    for (const Slot &slot : slots_) {
        if (slot.frame != kEmptyFrame && slot.frame >= first &&
            slot.frame <= last) {
            frames.push_back(slot.frame);
        }
    }
    std::sort(frames.begin(), frames.end());
    for (const u64 f : frames) {
        visit(f);
    }
}

} // namespace vattn::gpu

#endif // VATTN_GPU_PAGE_TABLE_HH
