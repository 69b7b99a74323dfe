/**
 * @file
 * All of the paper's KV-cache size arithmetic in one place (§5.1.3,
 * Table 8, Table 10): buffer sizes, per-request sub-tensor strides,
 * tokens per page-group ("block size"), and page-group counts for a
 * given context length.
 *
 * Since the per-layer geometry refactor this class is the per-layer
 * authority: every quantity exists in a (layer) overload, and
 * sliding-window layers additionally expose the dead/live split of a
 * request's leading page-groups. The historical zero-argument
 * accessors remain valid whenever the per-token footprint is uniform
 * across layers (the default, and any windows-only spec list); they
 * panic on truly heterogeneous footprints so stale call sites fail
 * loudly instead of silently using layer 0's shape.
 */

#ifndef VATTN_CORE_KV_GEOMETRY_HH
#define VATTN_CORE_KV_GEOMETRY_HH

#include <vector>

#include "common/types.hh"
#include "core/config.hh"

namespace vattn::core
{

/** Derived size/layout quantities for one worker's KV cache. */
class KvGeometry
{
  public:
    /** One layer's per-token quantities, resolved once at
     *  construction; buffer(b) repeats them per virtual buffer so the
     *  allocator's per-buffer loops do no spec arithmetic. */
    struct BufferGeometry
    {
        int layer = 0;           ///< layer whose KV the buffer holds
        u64 token_bytes = 0;     ///< tokenBytesPerBuffer(layer)
        i64 tokens_per_group = 0; ///< tokensPerGroup(layer)
        i64 window_tokens = 0;   ///< windowTokens(layer); 0 = full
        i64 max_groups = 0;      ///< maxGroupsPerRequest(layer)
    };

    explicit KvGeometry(const Config &config);

    /** Number of virtual buffers: 2N per-layer tensors, or 2 in the
     *  tensor-slicing layout (§8.2). */
    int numBuffers() const
    {
        return static_cast<int>(buffers_.size());
    }

    /** The layer whose KV lives in buffer @p buffer (K buffers are
     *  0..N-1, V buffers N..2N-1; slicing folds everything into
     *  layer 0's shape). */
    int layerOfBuffer(int buffer) const
    {
        return this->buffer(buffer).layer;
    }

    /** Resolved geometry of virtual buffer @p buffer. */
    const BufferGeometry &buffer(int buffer) const
    {
        return buffers_[static_cast<std::size_t>(buffer)];
    }

    /** Any sliding-window layer in the spec list? */
    bool hasWindows() const;

    /** Same per-token footprint on every layer? (Windows allowed —
     *  only kv_heads/head_dim/bytes_per_elem must match.) */
    bool uniformFootprint() const;

    /** Sliding-window width of @p layer; 0 for full attention. */
    i64 windowTokens(int layer) const
    {
        return layerGeometry(layer).window_tokens;
    }

    // ---- Per-layer quantities (the authority) ------------------------

    /** Bytes one token contributes to ONE buffer of @p layer. */
    u64 tokenBytesPerBuffer(int layer) const
    {
        return layerGeometry(layer).token_bytes;
    }

    /** Tokens covered by one page-group in one buffer of @p layer. */
    i64 tokensPerGroup(int layer) const
    {
        return layerGeometry(layer).tokens_per_group;
    }

    /** Page-groups (per buffer) of @p layer needed to reach a context
     *  of @p tokens tokens — the frontier, dead groups included. */
    i64 groupsForTokens(int layer, i64 tokens) const;

    /**
     * Leading page-groups of @p layer that are fully behind the
     * sliding window at context @p tokens and may be unmapped. The
     * division floors: a group the window straddles stays mapped.
     * Always 0 for full-attention layers.
     */
    i64 deadLeadGroups(int layer, i64 tokens) const;

    /** Page-groups of @p layer actually mapped at context @p tokens:
     *  groupsForTokens minus the dead lead. */
    i64 liveGroupsForTokens(int layer, i64 tokens) const;

    /** One request's maximum share of one buffer of @p layer. */
    u64 perRequestBytes(int layer) const;

    /** perRequestBytes(layer) rounded up to the page-group. */
    u64 perRequestBytesAligned(int layer) const;

    /** Total size of virtual buffer @p buffer (B requests). */
    u64 bufferBytesFor(int buffer) const;

    /** Max page-groups per buffer of @p layer (context = L). */
    i64 maxGroupsPerRequest(int layer) const;

    // ---- Cross-layer sums --------------------------------------------

    /** Live page-group mappings summed over every buffer at context
     *  @p tokens (the handle-count a fresh request of that length
     *  occupies). */
    i64 handlesForTokens(i64 tokens) const;

    /** Frontier page-group count summed over every buffer (dead lead
     *  included) — the virtual-range high-water mark. */
    i64 frontierHandlesForTokens(i64 tokens) const;

    // ---- Uniform-model wrappers --------------------------------------
    // Valid whenever the footprint is uniform across layers; they
    // panic otherwise.

    /**
     * Bytes one token contributes to ONE buffer: H*D*P for per-layer
     * tensors, N*H*D*P when slicing (the token's KV of all layers
     * lives in one tensor).
     */
    u64 tokenBytesPerBuffer() const;

    /** Bytes one token contributes across the whole KV cache
     *  (2*N*H*D*P — §4's 64KB/128KB/240KB per-token figures). */
    u64 tokenBytesTotal() const;

    /** S: one request's maximum share of one buffer (L tokens). */
    u64 perRequestBytes() const;

    /** S rounded up to the page-group so requests never share one. */
    u64 perRequestBytesAligned() const;

    /** BS = B * S_aligned: total size of one virtual buffer. */
    u64 bufferBytes() const;

    /** Total virtual memory reserved across all buffers. */
    u64 totalVirtualBytes() const;

    /** Tokens covered by one page-group in one buffer — the paper's
     *  "block size" (Tables 8 and 10). */
    i64 tokensPerGroup() const;

    /** Page-groups (per buffer) needed to back @p tokens tokens. */
    i64 groupsForTokens(i64 tokens) const;

    /** Max page-groups per buffer per request (context = L). */
    i64 maxGroupsPerRequest() const;

    /** Physical bytes mapped for a request of @p tokens tokens across
     *  all buffers, including page-group rounding waste. Dead leading
     *  groups of sliding-window layers are excluded — they are
     *  unmapped by the runtime. */
    u64 physBytesForTokens(i64 tokens) const;

    /** Internal fragmentation for a request of @p tokens tokens
     *  (mapped bytes minus live-token payload). */
    u64 wasteBytesForTokens(i64 tokens) const;

    u64 groupBytes() const { return group_bytes_; }

  private:
    /** Panic unless the per-token footprint is layer-uniform. */
    void requireUniformFootprint(const char *accessor) const;

    /** Layer @p layer's entry: buffer @p layer is its K buffer (layer
     *  0's when slicing folds the model into one logical layer). */
    const BufferGeometry &layerGeometry(int layer) const
    {
        return buffers_[static_cast<std::size_t>(layer)];
    }

    Config config_;
    u64 group_bytes_;
    /** One entry per virtual buffer (numBuffers()). */
    std::vector<BufferGeometry> buffers_;
    bool has_windows_ = false;
    bool uniform_footprint_ = true;
};

} // namespace vattn::core

#endif // VATTN_CORE_KV_GEOMETRY_HH
