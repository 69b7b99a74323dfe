#include "serving/paged_backend.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace vattn::serving
{

PagedBackend::PagedBackend(const perf::ModelSpec &model, int tp,
                           i64 block_size, u64 budget_bytes,
                           bool enable_prefix_caching,
                           u64 host_swap_bytes, perf::PcieSpec pcie)
    : budget_bytes_(budget_bytes), pcie_(std::move(pcie))
{
    fatal_if(tp <= 0, "PagedBackend needs tp >= 1");
    fatal_if(model.hasSlidingLayers() && enable_prefix_caching,
             "paged prefix caching hashes whole-model blocks and is "
             "not supported with sliding-window layers (vLLM's "
             "hash-block scheme has the same restriction); disable "
             "one of the two");
    const auto classes = model.windowClasses();
    groups_.reserve(classes.size());
    for (const perf::ModelSpec::WindowClass &cls : classes) {
        // Per-token bytes of this class's layers on one worker; the
        // uniform single class reproduces kvBytesPerTokenPerWorker
        // (including its integer division) exactly.
        const u64 class_token_bytes =
            2ULL * static_cast<u64>(cls.layers) *
            static_cast<u64>(model.num_kv_heads) *
            static_cast<u64>(model.head_dim) *
            static_cast<u64>(model.bytes_per_elem) /
            static_cast<u64>(tp);
        const u64 bytes_per_block =
            class_token_bytes * static_cast<u64>(block_size);
        const u64 budget_share = budget_bytes *
                                 static_cast<u64>(cls.layers) /
                                 static_cast<u64>(model.num_layers);
        const u64 host_share = host_swap_bytes *
                               static_cast<u64>(cls.layers) /
                               static_cast<u64>(model.num_layers);
        groups_.push_back(LayerGroup{
            cls.window_tokens, cls.layers, bytes_per_block,
            paged::BlockManager(
                static_cast<i64>(budget_share / bytes_per_block),
                block_size, enable_prefix_caching,
                static_cast<i64>(host_share / bytes_per_block))});
    }
}

i64
PagedBackend::deadLeadBlocks(const LayerGroup &group, i64 tokens)
{
    if (group.window_tokens <= 0 || tokens <= group.window_tokens) {
        return 0;
    }
    // Only blocks fully behind the window die; the straddled block
    // stays (floor division).
    return (tokens - group.window_tokens) / group.manager.blockSize();
}

bool
PagedBackend::canAdmit(i64 uncached_tokens) const
{
    // Reserve one block of headroom per running request so the next
    // decode iteration cannot immediately OOM (vLLM's watermark).
    // Evictable cached blocks count as capacity: allocation reclaims
    // them transparently. Every window class must fit: a sliding
    // group only ever holds the live window of blocks.
    for (const LayerGroup &group : groups_) {
        const i64 need = group.manager.blocksFor(uncached_tokens) -
                         deadLeadBlocks(group, uncached_tokens) +
                         static_cast<i64>(slots_.size());
        if (group.manager.numAllocatable() < need) {
            return false;
        }
    }
    return true;
}

Result<int>
PagedBackend::allocSlot()
{
    const int slot = next_slot_++;
    Slot state;
    state.blocks.reserve(groups_.size());
    for (LayerGroup &group : groups_) {
        state.blocks.emplace_back(&group.manager);
    }
    state.cpu_blocks.resize(groups_.size());
    state.swap_leads.assign(groups_.size(), 0);
    slots_.emplace(slot, std::move(state));
    return slot;
}

i64
PagedBackend::matchPrefix(const PrefixKey &key) const
{
    const paged::BlockManager &manager = groups_[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return 0;
    }
    const auto hashes = key.chunkHashes(manager.blockSize());
    i64 matched = 0;
    for (u64 hash : hashes) {
        if (manager.lookupHash(hash) < 0) {
            break;
        }
        ++matched;
    }
    return matched * manager.blockSize();
}

Result<SlotLease>
PagedBackend::allocSlot(const PrefixKey &key, i64 max_cached)
{
    const int slot = allocSlot().value();
    SlotLease lease{slot, 0, 0};
    paged::BlockManager &manager = groups_[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return lease;
    }
    Slot &state = slots_.at(slot);
    const i64 bs = manager.blockSize();
    auto hashes = key.chunkHashes(bs);
    const auto shareable = static_cast<std::size_t>(
        std::min<i64>(static_cast<i64>(hashes.size()), max_cached / bs));
    for (std::size_t i = 0; i < shareable; ++i) {
        const i32 block = manager.lookupHash(hashes[i]);
        if (block < 0) {
            break;
        }
        manager.refSharedBlock(block).expectOk("prefix block ref");
        state.blocks[0].adoptBlock(block);
        state.hashes.push_back(hashes[i]);
        state.chain = hashes[i];
        lease.cached_tokens += bs;
        prefix_.aliased_bytes += groups_[0].bytes_per_block;
    }
    // Sharing is refcount bookkeeping over the up-front committed
    // pool: no driver latency (the CPU cost rides the overhead model).
    return lease;
}

void
PagedBackend::registerPrefix(int slot, const PrefixKey &key, i64 tokens)
{
    paged::BlockManager &manager = groups_[0].manager;
    if (!manager.prefixCacheEnabled() || key.empty()) {
        return;
    }
    auto it = slots_.find(slot);
    panic_if(it == slots_.end(), "registerPrefix on unknown slot ",
             slot);
    Slot &state = it->second;
    const auto &blocks = state.blocks[0].blocks();
    const i64 bs = manager.blockSize();
    const i64 full = std::min(tokens, key.size) / bs;
    while (static_cast<i64>(state.hashes.size()) < full) {
        const i64 index = static_cast<i64>(state.hashes.size());
        panic_if(index >= static_cast<i64>(blocks.size()),
                 "registerPrefix beyond the slot's blocks");
        const u64 prev =
            state.hashes.empty() ? kPrefixHashSeed : state.chain;
        const u64 hash = key.rangeHash(prev, index * bs, bs);
        manager.setBlockHash(blocks[static_cast<std::size_t>(index)],
                             hash);
        state.hashes.push_back(hash);
        state.chain = hash;
    }
}

void
PagedBackend::freeSlot(int slot)
{
    auto it = slots_.find(slot);
    panic_if(it == slots_.end(), "freeSlot on unknown slot ", slot);
    // A slot freed while swapped out abandons its CPU blocks.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        for (const i32 cpu_block : it->second.cpu_blocks[g]) {
            groups_[g].manager.freeCpuBlock(cpu_block).expectOk(
                "free CPU block");
        }
    }
    // RequestBlocks dtor drops the references; hashed refcount-0
    // blocks park on the evictable LRU (the prefix cache), the rest
    // return to the free list.
    slots_.erase(it);
}

Result<TimeNs>
PagedBackend::ensure(const ActiveLens &active)
{
    for (const auto &[slot, len] : active) {
        auto it = slots_.find(slot);
        panic_if(it == slots_.end(), "ensure on unknown slot ", slot);
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            // Free dead leading blocks before growing so a tight pool
            // benefits from the reclaimed blocks in the same call.
            if (groups_[g].window_tokens > 0) {
                it->second.blocks[g].advanceLeadTo(
                    deadLeadBlocks(groups_[g], len));
            }
            auto status = it->second.blocks[g].ensureTokens(len);
            if (!status.isOk()) {
                return Result<TimeNs>(status);
            }
        }
    }
    // Block allocation is CPU-side list manipulation over memory that
    // was committed at startup: no driver latency on this path.
    return TimeNs{0};
}

void
PagedBackend::computeWindow(TimeNs window_ns)
{
    (void)window_ns; // nothing to overlap
}

bool
PagedBackend::supportsSwap() const
{
    return groups_[0].manager.numCpuBlocks() > 0;
}

bool
PagedBackend::canSwapOut(int slot) const
{
    auto it = slots_.find(slot);
    if (it == slots_.end() || it->second.swapped()) {
        return false;
    }
    i64 live_total = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const auto &list = it->second.blocks[g];
        live_total += list.liveBlockCount();
        if (list.liveBlockCount() > groups_[g].manager.numCpuFree()) {
            return false;
        }
        for (const i32 block : list.blocks()) {
            if (block == paged::RequestBlocks::kNoBlock) {
                continue;
            }
            if (groups_[g].manager.refCount(block) != 1) {
                return false; // shared: stays resident
            }
        }
    }
    return live_total > 0;
}

bool
PagedBackend::canSwapIn(int slot) const
{
    auto it = slots_.find(slot);
    if (it == slots_.end() || !it->second.swapped()) {
        return false;
    }
    // Mirror canAdmit's watermark: keep one block of headroom per
    // resident request so the next decode iteration cannot OOM.
    i64 resident = 0;
    for (const auto &[id, state] : slots_) {
        resident += state.swapped() ? 0 : 1;
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].manager.numAllocatable() <
            static_cast<i64>(it->second.cpu_blocks[g].size()) +
                resident) {
            return false;
        }
    }
    return true;
}

Result<SwapResult>
PagedBackend::swapOut(int slot)
{
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
        return Result<SwapResult>(ErrorCode::kInvalidArgument,
                                  "unknown slot");
    }
    Slot &state = it->second;
    if (state.swapped()) {
        return Result<SwapResult>(ErrorCode::kFailedPrecondition,
                                  "slot already swapped out");
    }
    i64 live_total = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        live_total += state.blocks[g].liveBlockCount();
        for (const i32 block : state.blocks[g].blocks()) {
            if (block == paged::RequestBlocks::kNoBlock) {
                continue;
            }
            if (groups_[g].manager.refCount(block) != 1) {
                return Result<SwapResult>(
                    ErrorCode::kFailedPrecondition,
                    "block shared with another request");
            }
        }
        if (state.blocks[g].liveBlockCount() >
            groups_[g].manager.numCpuFree()) {
            return Result<SwapResult>(ErrorCode::kOutOfMemory,
                                      "CPU block pool full");
        }
    }
    if (live_total == 0) {
        return Result<SwapResult>(ErrorCode::kFailedPrecondition,
                                  "slot holds no blocks");
    }
    u64 swapped_bytes = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        state.swap_leads[g] = state.blocks[g].lead();
        const std::vector<i32> blocks =
            state.blocks[g].releaseForSwap();
        state.cpu_blocks[g].reserve(blocks.size());
        for (const i32 block : blocks) {
            if (block == paged::RequestBlocks::kNoBlock) {
                continue;
            }
            auto cpu_block = groups_[g].manager.swapOutBlock(block);
            cpu_block.status().expectOk("swapOutBlock after checks");
            state.cpu_blocks[g].push_back(cpu_block.value());
        }
        swapped_bytes += static_cast<u64>(state.cpu_blocks[g].size()) *
                         groups_[g].bytes_per_block;
    }
    // Swapping invalidates the slot's registered hashes (the manager
    // dropped them with the device blocks); prefill re-registers from
    // scratch if the request is ever re-run through registerPrefix.
    state.hashes.clear();
    state.chain = 0;
    // Each worker copies its own shard concurrently, so the swap
    // latency is one shard's.
    return SwapResult{swapped_bytes, pcie_.dtohNs(swapped_bytes)};
}

Result<SwapResult>
PagedBackend::swapIn(int slot)
{
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
        return Result<SwapResult>(ErrorCode::kInvalidArgument,
                                  "unknown slot");
    }
    Slot &state = it->second;
    if (!state.swapped()) {
        return Result<SwapResult>(ErrorCode::kFailedPrecondition,
                                  "slot not swapped out");
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].manager.numAllocatable() <
            static_cast<i64>(state.cpu_blocks[g].size())) {
            return Result<SwapResult>(ErrorCode::kOutOfMemory,
                                      "device block pool full");
        }
    }
    u64 swapped_bytes = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        // Restore the dead-lead boundary first so the revived table
        // keeps absolute indexing for the window layers.
        state.blocks[g].advanceLeadTo(state.swap_leads[g]);
        for (const i32 cpu_block : state.cpu_blocks[g]) {
            auto block = groups_[g].manager.swapInBlock(cpu_block);
            block.status().expectOk("swapInBlock after capacity check");
            state.blocks[g].adoptBlock(block.value());
        }
        swapped_bytes += static_cast<u64>(state.cpu_blocks[g].size()) *
                         groups_[g].bytes_per_block;
        state.cpu_blocks[g].clear();
        state.swap_leads[g] = 0;
    }
    return SwapResult{swapped_bytes, pcie_.htodNs(swapped_bytes)};
}

u64
PagedBackend::slotPhysBytes(int slot) const
{
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
        return 0;
    }
    u64 bytes = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        bytes += static_cast<u64>(it->second.blocks[g].liveBlockCount()) *
                 groups_[g].bytes_per_block;
    }
    return bytes;
}

Result<SwappedKvImage>
PagedBackend::exportSwapped(int slot)
{
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
        return Result<SwappedKvImage>(ErrorCode::kInvalidArgument,
                                      "unknown slot");
    }
    const Slot &state = it->second;
    if (!state.swapped()) {
        return Result<SwappedKvImage>(
            ErrorCode::kFailedPrecondition,
            "only swapped-out slots can export");
    }
    // The image carries the per-group block counts, dead-lead
    // boundaries and one worker's shard bytes (the SwapResult::bytes
    // convention); the CPU blocks themselves return to this pool —
    // logically their payload moves to the adopter's host pool (same
    // node, modeled zero-copy).
    SwappedKvImage image;
    image.group_blocks.assign(groups_.size(), 0);
    image.group_leads.assign(groups_.size(), 0);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        image.group_blocks[g] =
            static_cast<i64>(state.cpu_blocks[g].size());
        image.group_leads[g] = state.swap_leads[g];
        image.bytes += static_cast<u64>(state.cpu_blocks[g].size()) *
                       groups_[g].bytes_per_block;
    }
    // freeSlot releases the CPU blocks and drops the (empty, already
    // released at swap-out) device block lists.
    freeSlot(slot);
    return image;
}

bool
PagedBackend::canImportSwapped(const SwappedKvImage &image) const
{
    // A group-count mismatch is a geometry mismatch: different window
    // classes.
    if (!supportsSwap() || image.group_blocks.empty() ||
        image.group_blocks.size() != groups_.size()) {
        return false;
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].manager.numCpuFree() < image.group_blocks[g]) {
            return false;
        }
    }
    return true;
}

Result<int>
PagedBackend::importSwapped(const SwappedKvImage &image)
{
    if (image.group_blocks.empty()) {
        return Result<int>(ErrorCode::kInvalidArgument,
                           "not a paged-backend image");
    }
    if (!canImportSwapped(image)) {
        return Result<int>(ErrorCode::kOutOfMemory,
                           "host pool cannot hold the imported image");
    }
    const int slot = allocSlot().value();
    Slot &state = slots_.at(slot);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        state.swap_leads[g] = image.group_leads[g];
        state.cpu_blocks[g].reserve(
            static_cast<std::size_t>(image.group_blocks[g]));
        for (i64 b = 0; b < image.group_blocks[g]; ++b) {
            auto cpu_block = groups_[g].manager.acquireCpuBlock();
            cpu_block.status().expectOk(
                "acquireCpuBlock after capacity check");
            state.cpu_blocks[g].push_back(cpu_block.value());
        }
    }
    // The slot is born swapped-out: the regular swapIn path revives
    // it (advanceLeadTo restores the window boundary, adoptBlock the
    // device residency).
    return slot;
}

void
PagedBackend::auditInto(audit::AuditReport &report) const
{
    for (const LayerGroup &group : groups_) {
        group.manager.auditInto(report);
    }
    report.check(bytesInUse() <= budgetBytes(), "paged_backend: ",
                 bytesInUse(), " bytes in use exceed the ",
                 budgetBytes(), "-byte budget");
    // Slot-side cross-checks: the slots are the only block holders, so
    // the references they hold must account for every refcount in each
    // group's manager, and swapped slots must own every CPU block in
    // use.
    std::vector<i64> held(groups_.size(), 0);
    std::vector<i64> cpu_held(groups_.size(), 0);
    for (const auto &[slot, state] : slots_) {
        i64 live_total = 0;
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            const auto &list = state.blocks[g];
            for (std::size_t i = 0; i < list.blocks().size(); ++i) {
                const i32 block = list.blocks()[i];
                if (block == paged::RequestBlocks::kNoBlock) {
                    if (static_cast<i64>(i) >= list.lead()) {
                        report.fail("paged_backend: slot ", slot,
                                    " group ", g,
                                    " has a hole at live index ", i,
                                    " (kNoBlock past the lead)");
                    }
                    continue;
                }
                if (static_cast<i64>(i) < list.lead()) {
                    report.fail(
                        "paged_backend: slot ", slot, " group ", g,
                        " still holds block ", block,
                        " inside the dead window lead [0, ",
                        list.lead(),
                        ") — a rogue window-tail block survived "
                        "eviction");
                }
                if (groups_[g].manager.refCount(block) < 1) {
                    report.fail("paged_backend: slot ", slot,
                                " holds block ", block,
                                " with refcount ",
                                groups_[g].manager.refCount(block),
                                " (freed while still held)");
                }
                ++held[g];
                ++live_total;
            }
            cpu_held[g] +=
                static_cast<i64>(state.cpu_blocks[g].size());
        }
        if (state.swapped() && live_total > 0) {
            report.fail("paged_backend: swapped slot ", slot,
                        " still holds ", live_total, " device blocks");
        }
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        report.check(held[g] == groups_[g].manager.totalRefCount(),
                     "paged_backend: group ", g, " slots hold ",
                     held[g],
                     " device-block references but the manager "
                     "counts ",
                     groups_[g].manager.totalRefCount(),
                     " (a reference leaked outside the slots)");
        report.check(cpu_held[g] == groups_[g].manager.numCpuInUse(),
                     "paged_backend: group ", g, " slots own ",
                     cpu_held[g], " CPU blocks but the manager has ",
                     groups_[g].manager.numCpuInUse(), " in use");
    }
}

u64
PagedBackend::bytesInUse() const
{
    // One worker's shard bytes: the engine's budget and admission math
    // are per worker throughout. Evictable cached blocks are
    // reclaimable capacity, not live use.
    u64 bytes = 0;
    for (const LayerGroup &group : groups_) {
        bytes += static_cast<u64>(group.manager.numLive()) *
                 group.bytes_per_block;
    }
    return bytes;
}

u64
PagedBackend::budgetBytes() const
{
    return budget_bytes_;
}

i64
PagedBackend::blocksHeld(int slot) const
{
    auto it = slots_.find(slot);
    panic_if(it == slots_.end(), "blocksHeld on unknown slot ", slot);
    i64 held = 0;
    for (const auto &list : it->second.blocks) {
        held += list.liveBlockCount();
    }
    return held;
}

} // namespace vattn::serving
