/**
 * @file
 * PagedAttention memory backend: block-granular user-space accounting
 * over an up-front committed pool, as in vLLM. Block (de)allocation is
 * pure CPU bookkeeping (its cost lives in perf::OverheadModel); the
 * fragmentation behaviour — at most block_size-1 wasted tokens per
 * request — is what Figure 15 compares against page-group rounding.
 *
 * With prefix caching enabled the backend runs vLLM's hash-block
 * scheme on top of paged::BlockManager: full blocks are tagged with
 * chained content hashes as prefill completes them, refcount-0 blocks
 * park on an LRU evictable list instead of freeing, and a new request
 * whose prompt prefix matches a stored chain adopts the blocks by
 * reference (sharing is CPU-side bookkeeping — no data moves).
 *
 * Per-layer heterogeneous geometries: layers are grouped by attention
 * window class (full vs each sliding-window width), one BlockManager
 * per group with the budget split pro rata by layer count. Sliding
 * groups free a request's dead leading blocks as its window advances;
 * a uniform model collapses to the single historical manager with
 * bit-identical arithmetic.
 *
 * Tensor parallelism: one block pool per replica, as in vLLM's
 * centralized KV cache manager (PagedAttention §4.6), whose block
 * table every TP worker shares. Each worker holds a num_kv_heads/tp
 * shard of every block, so the pool is sized for one worker's shard:
 * block counts are TP-invariant and every byte figure is per worker.
 */

#ifndef VATTN_SERVING_PAGED_BACKEND_HH
#define VATTN_SERVING_PAGED_BACKEND_HH

#include <unordered_map>
#include <vector>

#include "paged/block_manager.hh"
#include "perf/model_spec.hh"
#include "perf/pcie_spec.hh"
#include "serving/memory_backend.hh"

namespace vattn::serving
{

/** Block-managed KV backend (the baseline systems). */
class PagedBackend : public MemoryBackend
{
  public:
    /**
     * @param model model architecture (for per-token KV bytes)
     * @param tp tensor-parallel degree: each block holds one
     *        worker's num_kv_heads/tp shard
     * @param block_size tokens per KV block
     * @param budget_bytes per-worker KV pool bytes
     * @param enable_prefix_caching hash-block prefix cache (§8.1)
     * @param host_swap_bytes per-worker CPU block pool for
     *        preempt-by-swap, the vLLM --swap-space model (0 disables
     *        the tier)
     * @param pcie link pricing the swap copies (block sharing itself
     *        stays free; only swap traffic crosses PCIe)
     */
    PagedBackend(const perf::ModelSpec &model, int tp, i64 block_size,
                 u64 budget_bytes, bool enable_prefix_caching = false,
                 u64 host_swap_bytes = 0,
                 perf::PcieSpec pcie = perf::PcieSpec::gen4x16());

    bool canAdmit(i64 uncached_tokens) const override;
    Result<int> allocSlot() override;
    bool prefixCachingEnabled() const override
    {
        return groups_[0].manager.prefixCacheEnabled();
    }
    i64 matchPrefix(const PrefixKey &key) const override;
    Result<SlotLease> allocSlot(const PrefixKey &key,
                                i64 max_cached) override;
    void registerPrefix(int slot, const PrefixKey &key,
                        i64 tokens) override;
    BackendPrefixStats prefixStats() const override
    {
        return prefix_;
    }
    void freeSlot(int slot) override;
    Result<TimeNs> ensure(const ActiveLens &active) override;
    void computeWindow(TimeNs window_ns) override;
    u64 bytesInUse() const override;
    u64 budgetBytes() const override;
    /** Block-manager self-audits + slot/manager cross-checks. */
    void auditInto(audit::AuditReport &report) const override;

    bool supportsSwap() const override;
    bool canSwapOut(int slot) const override;
    bool canSwapIn(int slot) const override;
    Result<SwapResult> swapOut(int slot) override;
    Result<SwapResult> swapIn(int slot) override;
    u64 slotPhysBytes(int slot) const override;

    bool supportsKvExport() const override { return supportsSwap(); }
    Result<SwappedKvImage> exportSwapped(int slot) override;
    bool canImportSwapped(const SwappedKvImage &image) const override;
    Result<int> importSwapped(const SwappedKvImage &image) override;

    /** The full-attention manager (the only group on uniform models
     *  — the historical accessor for tests and benches). */
    paged::BlockManager &blockManager() { return groups_[0].manager; }
    i64 blockSize() const { return groups_[0].manager.blockSize(); }

    /** Number of window classes (1 for uniform models). */
    int numLayerGroups() const
    {
        return static_cast<int>(groups_.size());
    }
    /** The manager of window class @p group. */
    paged::BlockManager &groupManager(int group)
    {
        return groups_[static_cast<std::size_t>(group)].manager;
    }
    /** Window width of class @p group (0 = full attention). */
    i64 groupWindowTokens(int group) const
    {
        return groups_[static_cast<std::size_t>(group)].window_tokens;
    }

    /** Blocks held by one slot across all groups (overhead-model
     *  inputs; dead window leads excluded). */
    i64 blocksHeld(int slot) const;

  private:
    /** One window class: the layers sharing an attention window and
     *  their dedicated block pool. */
    struct LayerGroup
    {
        i64 window_tokens;   ///< 0 = full attention
        int layers;          ///< layers in this class
        u64 bytes_per_block; ///< 2 * layers * H_kv/tp * D * P * bs
        paged::BlockManager manager;
    };

    struct Slot
    {
        /** One block list per layer group, parallel to groups. */
        std::vector<paged::RequestBlocks> blocks;
        /** Chained hash per full prompt block already registered
         *  (prefix caching is uniform-only: group 0). */
        std::vector<u64> hashes;
        /** Running chain value after hashes.back(). */
        u64 chain = 0;
        /** Per-group CPU blocks while swapped out (all empty =
         *  resident). */
        std::vector<std::vector<i32>> cpu_blocks;
        /** Per-group dead-lead boundary at swap-out time. */
        std::vector<i64> swap_leads;

        bool
        swapped() const
        {
            for (const auto &group : cpu_blocks) {
                if (!group.empty()) {
                    return true;
                }
            }
            return false;
        }
    };

    /** Blocks of @p group wholly behind the window at @p tokens. */
    static i64 deadLeadBlocks(const LayerGroup &group, i64 tokens);

    u64 budget_bytes_;
    perf::PcieSpec pcie_;
    std::vector<LayerGroup> groups_;
    std::unordered_map<int, Slot> slots_;
    int next_slot_ = 0;
    BackendPrefixStats prefix_;
};

} // namespace vattn::serving

#endif // VATTN_SERVING_PAGED_BACKEND_HH
