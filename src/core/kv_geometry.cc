#include "core/kv_geometry.hh"

#include "common/logging.hh"

namespace vattn::core
{

KvGeometry::KvGeometry(const Config &config)
    : config_(config), group_bytes_(bytes(config.page_group))
{
    // Resolved per-layer specs; one when slicing folds the model into
    // one logical layer.
    const int layers = config_.tensor_slicing ? 1 : config_.num_layers;
    std::vector<LayerKvSpec> specs;
    specs.reserve(static_cast<std::size_t>(layers));
    for (int layer = 0; layer < layers; ++layer) {
        specs.push_back(config_.layerSpec(layer));
    }
    const LayerKvSpec &first = specs.front();
    for (const LayerKvSpec &spec : specs) {
        if (spec.kind == AttentionKind::kSlidingWindow) {
            has_windows_ = true;
        }
        if (spec.kv_heads != first.kv_heads ||
            spec.head_dim != first.head_dim ||
            spec.bytes_per_elem != first.bytes_per_elem) {
            uniform_footprint_ = false;
        }
    }

    // K buffers 0..N-1 then V buffers N..2N-1 (slicing: one K and one
    // V buffer, both holding the single folded layer).
    const int nbuf = 2 * layers;
    buffers_.reserve(static_cast<std::size_t>(nbuf));
    for (int buffer = 0; buffer < nbuf; ++buffer) {
        const int layer = buffer < layers ? buffer : buffer - layers;
        const LayerKvSpec &spec =
            specs[static_cast<std::size_t>(layer)];
        BufferGeometry geo;
        geo.layer = layer;
        geo.token_bytes = static_cast<u64>(spec.kv_heads) *
                          static_cast<u64>(spec.head_dim) *
                          static_cast<u64>(spec.bytes_per_elem);
        if (config_.tensor_slicing) {
            geo.token_bytes *= static_cast<u64>(config_.num_layers);
        }
        // Guarded so an invalid spec still constructs; validate()
        // reports it as tokensPerGroup < 1.
        geo.tokens_per_group =
            geo.token_bytes == 0
                ? 0
                : static_cast<i64>(group_bytes_ / geo.token_bytes);
        geo.window_tokens = spec.kind == AttentionKind::kSlidingWindow
                                ? spec.window_tokens
                                : 0;
        geo.max_groups = static_cast<i64>(ceilDiv(
            static_cast<u64>(config_.max_context_len) * geo.token_bytes,
            group_bytes_));
        buffers_.push_back(geo);
    }
}

bool
KvGeometry::hasWindows() const
{
    return has_windows_;
}

bool
KvGeometry::uniformFootprint() const
{
    return uniform_footprint_;
}

i64
KvGeometry::groupsForTokens(int layer, i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    const u64 bytes_needed =
        static_cast<u64>(tokens) * tokenBytesPerBuffer(layer);
    return static_cast<i64>(ceilDiv(bytes_needed, group_bytes_));
}

i64
KvGeometry::deadLeadGroups(int layer, i64 tokens) const
{
    const i64 window = windowTokens(layer);
    if (window <= 0 || tokens <= window) {
        return 0;
    }
    // Tokens [0, tokens - window) are behind the window; only groups
    // entirely inside that range are dead (floor keeps the straddled
    // group mapped).
    return (tokens - window) / tokensPerGroup(layer);
}

i64
KvGeometry::liveGroupsForTokens(int layer, i64 tokens) const
{
    return groupsForTokens(layer, tokens) -
           deadLeadGroups(layer, tokens);
}

u64
KvGeometry::perRequestBytes(int layer) const
{
    return static_cast<u64>(config_.max_context_len) *
           tokenBytesPerBuffer(layer);
}

u64
KvGeometry::perRequestBytesAligned(int layer) const
{
    return roundUp(perRequestBytes(layer), groupBytes());
}

u64
KvGeometry::bufferBytesFor(int buffer) const
{
    return static_cast<u64>(config_.max_batch_size) *
           perRequestBytesAligned(layerOfBuffer(buffer));
}

i64
KvGeometry::maxGroupsPerRequest(int layer) const
{
    return layerGeometry(layer).max_groups;
}

i64
KvGeometry::handlesForTokens(i64 tokens) const
{
    i64 handles = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        handles += liveGroupsForTokens(layerOfBuffer(buffer), tokens);
    }
    return handles;
}

i64
KvGeometry::frontierHandlesForTokens(i64 tokens) const
{
    i64 handles = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        handles += groupsForTokens(layerOfBuffer(buffer), tokens);
    }
    return handles;
}

void
KvGeometry::requireUniformFootprint(const char *accessor) const
{
    panic_if(!uniform_footprint_,
             "KvGeometry::", accessor,
             " is only meaningful with a layer-uniform per-token "
             "footprint; use the (layer) overload");
}

u64
KvGeometry::tokenBytesPerBuffer() const
{
    requireUniformFootprint("tokenBytesPerBuffer");
    return tokenBytesPerBuffer(0);
}

u64
KvGeometry::tokenBytesTotal() const
{
    requireUniformFootprint("tokenBytesTotal");
    u64 total = 0;
    for (const BufferGeometry &geo : buffers_) {
        total += geo.token_bytes;
    }
    return total;
}

u64
KvGeometry::perRequestBytes() const
{
    requireUniformFootprint("perRequestBytes");
    return perRequestBytes(0);
}

u64
KvGeometry::perRequestBytesAligned() const
{
    requireUniformFootprint("perRequestBytesAligned");
    return perRequestBytesAligned(0);
}

u64
KvGeometry::bufferBytes() const
{
    requireUniformFootprint("bufferBytes");
    return static_cast<u64>(config_.max_batch_size) *
           perRequestBytesAligned(0);
}

u64
KvGeometry::totalVirtualBytes() const
{
    u64 total = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        total += bufferBytesFor(buffer);
    }
    return total;
}

i64
KvGeometry::tokensPerGroup() const
{
    requireUniformFootprint("tokensPerGroup");
    return tokensPerGroup(0);
}

i64
KvGeometry::groupsForTokens(i64 tokens) const
{
    requireUniformFootprint("groupsForTokens");
    return groupsForTokens(0, tokens);
}

i64
KvGeometry::maxGroupsPerRequest() const
{
    requireUniformFootprint("maxGroupsPerRequest");
    return groupsForTokens(0, config_.max_context_len);
}

u64
KvGeometry::physBytesForTokens(i64 tokens) const
{
    u64 total = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        total += static_cast<u64>(liveGroupsForTokens(
                     layerOfBuffer(buffer), tokens)) *
                 groupBytes();
    }
    return total;
}

u64
KvGeometry::wasteBytesForTokens(i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    // Live payload: every buffer holds min(tokens, window) useful
    // tokens plus whatever dead prefix the straddled group retains —
    // only the in-window tokens count as useful here.
    u64 useful = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        const int layer = layerOfBuffer(buffer);
        const i64 window = windowTokens(layer);
        const i64 live =
            window > 0 && tokens > window ? window : tokens;
        useful += static_cast<u64>(live) * tokenBytesPerBuffer(layer);
    }
    return physBytesForTokens(tokens) - useful;
}

} // namespace vattn::core
