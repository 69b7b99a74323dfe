#include "gpu/va_space.hh"

#include "common/logging.hh"

namespace vattn::gpu
{

VaSpace::VaSpace(Addr base, u64 size)
    : base_(base), size_(size)
{
    fatal_if(size_ == 0, "VaSpace with zero size");
    fatal_if(base_ + size_ < base_, "VaSpace wraps the address space");
    free_.emplace(base_, size_);
}

void
VaSpace::insertFree(Addr start, u64 len)
{
    if (len == 0) {
        return;
    }
    auto it = free_.emplace(start, len).first;
    // Coalesce with successor.
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        free_.erase(next);
    }
    // Coalesce with predecessor.
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_.erase(it);
        }
    }
}

void
VaSpace::insertReserved(Addr start, u64 len)
{
    const bool inserted = reserved_.emplace(start, start + len).second;
    panic_if(!inserted, "VaSpace bookkeeping: reservation at ", start,
             " already exists");
}

Result<Addr>
VaSpace::reserve(u64 size, u64 alignment, Addr fixed)
{
    if (size == 0) {
        return Result<Addr>(ErrorCode::kInvalidArgument, "zero size");
    }
    if (alignment == 0) {
        alignment = 1;
    }
    if (!isPow2(alignment)) {
        return Result<Addr>(ErrorCode::kInvalidArgument,
                            "alignment must be a power of two");
    }

    if (fixed != 0) {
        if (fixed % alignment != 0) {
            return Result<Addr>(ErrorCode::kInvalidArgument,
                                "fixed address not aligned");
        }
        // Find the free range containing [fixed, fixed + size).
        auto it = free_.upper_bound(fixed);
        if (it == free_.begin()) {
            return Result<Addr>(ErrorCode::kOutOfMemory,
                                "fixed range unavailable");
        }
        --it;
        const Addr fstart = it->first;
        const u64 flen = it->second;
        if (fixed < fstart || fixed + size > fstart + flen) {
            return Result<Addr>(ErrorCode::kOutOfMemory,
                                "fixed range unavailable");
        }
        free_.erase(it);
        insertFree(fstart, fixed - fstart);
        insertFree(fixed + size, (fstart + flen) - (fixed + size));
        insertReserved(fixed, size);
        return fixed;
    }

    // First fit with alignment.
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        const Addr fstart = it->first;
        const u64 flen = it->second;
        const Addr aligned = roundUp(fstart, alignment);
        if (aligned + size > fstart + flen || aligned < fstart) {
            continue;
        }
        free_.erase(it);
        insertFree(fstart, aligned - fstart);
        insertFree(aligned + size, (fstart + flen) - (aligned + size));
        insertReserved(aligned, size);
        return aligned;
    }
    return Result<Addr>(ErrorCode::kOutOfMemory, "virtual space exhausted");
}

Status
VaSpace::release(Addr addr)
{
    auto it = reserved_.find(addr);
    if (it == reserved_.end()) {
        return errorStatus(ErrorCode::kNotFound,
                           "no reservation starts at this address");
    }
    insertFree(it->first, it->second - it->first);
    reserved_.erase(it);
    return Status::ok();
}

u64
VaSpace::reservationSize(Addr addr) const
{
    auto it = reserved_.find(addr);
    return it == reserved_.end() ? 0 : it->second - it->first;
}

bool
VaSpace::isReserved(Addr addr, u64 size) const
{
    // The reservation containing addr is the last one starting at or
    // before it.
    auto it = reserved_.upper_bound(addr);
    if (it == reserved_.begin()) {
        return false;
    }
    --it;
    return addr < it->second && addr + size <= it->second;
}

u64
VaSpace::reservedBytes() const
{
    u64 total = 0;
    for (const auto &[start, end] : reserved_) {
        total += end - start;
    }
    return total;
}

} // namespace vattn::gpu
