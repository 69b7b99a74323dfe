#include "gpu/page_table.hh"

#include <sys/mman.h>

#include <bit>
#include <new>

#include "common/logging.hh"

namespace vattn::gpu
{

namespace
{

constexpr std::size_t kInitialSlots = 64;

} // namespace

void *
mapAnonymous(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        throw std::bad_alloc();
    }
    return p;
}

void
unmapAnonymous(void *p, std::size_t bytes)
{
    munmap(p, bytes);
}

PageTable::PageTable()
{
    rehash(kInitialSlots);
}

// --------------------------------------------------------------------
// Frame index: open addressing with linear probing and backward-shift
// deletion (no tombstones), kept at most half full.
// --------------------------------------------------------------------

std::size_t
PageTable::findSlot(u64 frame) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(frame);; i = (i + 1) & mask) {
        if (slots_[i].frame == frame) {
            return i;
        }
        if (slots_[i].frame == kEmptyFrame) {
            return kNoSlot;
        }
    }
}

PageTable::Slot &
PageTable::slotFor(u64 frame)
{
    if ((live_frames_ + 1) * 2 > slots_.size()) {
        rehash(slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(frame);; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.frame == frame) {
            return slot;
        }
        if (slot.frame == kEmptyFrame) {
            slot = Slot{frame, kNil};
            ++live_frames_;
            return slot;
        }
    }
}

void
PageTable::eraseSlot(std::size_t index)
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (index + 1) & mask;
         slots_[j].frame != kEmptyFrame; j = (j + 1) & mask) {
        // Pull a later entry back into the hole unless that would put
        // it before its home slot.
        const std::size_t from_home = (j - home(slots_[j].frame)) & mask;
        if (from_home >= ((j - index) & mask)) {
            slots_[index] = slots_[j];
            index = j;
        }
    }
    slots_[index].frame = kEmptyFrame;
    --live_frames_;
}

void
PageTable::rehash(std::size_t capacity)
{
    decltype(slots_) old(capacity, Slot{kEmptyFrame, kNil});
    old.swap(slots_);
    hash_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    const std::size_t mask = capacity - 1;
    for (const Slot &slot : old) {
        if (slot.frame == kEmptyFrame) {
            continue;
        }
        std::size_t i = home(slot.frame);
        while (slots_[i].frame != kEmptyFrame) {
            i = (i + 1) & mask;
        }
        slots_[i] = slot;
    }
}

// --------------------------------------------------------------------
// Chains
// --------------------------------------------------------------------

u32
PageTable::findIn(u64 frame, Addr start) const
{
    for (u32 i = chainHead(frame); i != kNil; i = nodes_[i].next) {
        if (nodes_[i].start >= start) {
            return nodes_[i].start == start ? i : kNil;
        }
    }
    return kNil;
}

u32
PageTable::findContaining(Addr va) const
{
    for (u32 i = chainHead(frameOf(va)); i != kNil; i = nodes_[i].next) {
        if (nodes_[i].start > va) {
            break;
        }
        if (va < nodes_[i].end) {
            return i;
        }
    }
    return kNil;
}

Addr
PageTable::unlinkFrom(u64 frame, Addr start)
{
    const std::size_t slot = findSlot(frame);
    panic_if(slot == kNoSlot, "page table frame vanished during unmap");
    u32 *link = &slots_[slot].head;
    while (*link != kNil && nodes_[*link].start != start) {
        link = &nodes_[*link].next;
    }
    panic_if(*link == kNil, "extent vanished during unmap");
    const u32 i = *link;
    *link = nodes_[i].next;
    nodes_[i].next = free_node_;
    free_node_ = i;
    if (slots_[slot].head == kNil) {
        eraseSlot(slot);
    }
    return nodes_[i].end;
}

u32
PageTable::allocNode()
{
    if (free_node_ == kNil) {
        nodes_.emplace_back();
        return static_cast<u32>(nodes_.size() - 1);
    }
    const u32 i = free_node_;
    free_node_ = nodes_[i].next;
    return i;
}

bool
PageTable::coversWholeExtents(Addr va, Addr end) const
{
    for (Addr cursor = va; cursor != end;) {
        const u32 i = findIn(frameOf(cursor), cursor);
        if (i == kNil || nodes_[i].end > end) {
            return false; // gap or extent crossing the range boundary
        }
        cursor = nodes_[i].end;
    }
    return true;
}

// --------------------------------------------------------------------
// Public API
// --------------------------------------------------------------------

Status
PageTable::map(Addr va, PhysAddr pa, u64 size, PageSize page,
               Access access)
{
    const u64 psize = bytes(page);
    if (size == 0 || size % psize != 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "size not a multiple of the page size");
    }
    if (va % psize != 0 || pa % psize != 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "addresses not page aligned");
    }
    const Addr end = va + size;
    if (end <= va) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "range wraps the address space");
    }
    if (anyMapped(va, size)) {
        return errorStatus(ErrorCode::kAlreadyExists,
                           "range overlaps an existing mapping");
    }
    // One node per frame the extent touches, each linked in start order.
    for (u64 f = frameOf(va); f <= frameOf(end - 1); ++f) {
        const u32 added = allocNode();
        u32 *link = &slotFor(f).head;
        while (*link != kNil && nodes_[*link].start < va) {
            link = &nodes_[*link].next;
        }
        nodes_[added] = Node{va, end, pa, page, *link, access};
        *link = added;
    }
    ++num_extents_;
    mapped_bytes_ += size;
    return Status::ok();
}

Status
PageTable::setAccess(Addr va, u64 size, Access access)
{
    if (size == 0) {
        return errorStatus(ErrorCode::kInvalidArgument, "zero size");
    }
    // Verify the range decomposes into whole extents first (no partial
    // side effects on failure, and access never leaks outside [va, size)).
    const Addr end = va + size;
    if (end <= va || !coversWholeExtents(va, end)) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "range not fully mapped as whole extents");
    }
    // Validated: the extents tile [va, end) exactly, so each one starts
    // where the previous ended. Update every frame's copy.
    for (Addr cursor = va; cursor != end;) {
        const Addr start = cursor;
        u64 f = frameOf(start);
        do {
            const u32 i = findIn(f, start);
            panic_if(i == kNil, "extent vanished during setAccess");
            nodes_[i].access = access;
            cursor = nodes_[i].end;
        } while (++f <= frameOf(cursor - 1));
    }
    return Status::ok();
}

Status
PageTable::unmap(Addr va, u64 size)
{
    if (size == 0) {
        return errorStatus(ErrorCode::kInvalidArgument, "zero size");
    }
    // The range must decompose into whole extents with no gaps and no
    // partial overlap at either boundary.
    const Addr end = va + size;
    if (end <= va || !coversWholeExtents(va, end)) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "range does not match mapped extents");
    }
    for (Addr cursor = va; cursor != end;) {
        const Addr start = cursor;
        u64 f = frameOf(start);
        do {
            cursor = unlinkFrom(f, start);
        } while (++f <= frameOf(cursor - 1));
        --num_extents_;
        mapped_bytes_ -= cursor - start;
    }
    return Status::ok();
}

Result<Translation>
PageTable::translate(Addr va) const
{
    const u32 i = findContaining(va);
    if (i == kNil) {
        return Result<Translation>(ErrorCode::kNotFound,
                                   "address not mapped");
    }
    const Node &n = nodes_[i];
    return Translation{n.phys + (va - n.start), n.start, n.end, n.page,
                       n.access};
}

bool
PageTable::isAccessible(Addr va, u64 size) const
{
    const Addr end = va + size;
    if (end < va) {
        return false;
    }
    for (Addr cursor = va; cursor < end;) {
        const u32 i = findContaining(cursor);
        if (i == kNil || nodes_[i].access != Access::kReadWrite) {
            return false;
        }
        cursor = nodes_[i].end;
    }
    return true;
}

bool
PageTable::anyMapped(Addr va, u64 size) const
{
    const Addr end = va + size;
    if (num_extents_ == 0 || end <= va) {
        return false;
    }
    auto hits = [&](u32 head) {
        for (u32 i = head; i != kNil; i = nodes_[i].next) {
            if (nodes_[i].start >= end) {
                return false;
            }
            if (nodes_[i].end > va) {
                return true;
            }
        }
        return false;
    };
    const u64 first = frameOf(va);
    const u64 last = frameOf(end - 1);
    if (last - first < slots_.size()) {
        for (u64 f = first; f <= last; ++f) {
            if (hits(chainHead(f))) {
                return true;
            }
        }
        return false;
    }
    for (const Slot &slot : slots_) {
        if (slot.frame != kEmptyFrame && slot.frame >= first &&
            slot.frame <= last && hits(slot.head)) {
            return true;
        }
    }
    return false;
}

} // namespace vattn::gpu
