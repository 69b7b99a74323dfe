#include "perf/model_spec.hh"

#include "common/logging.hh"

namespace vattn::perf
{

ModelSpec
ModelSpec::yi6B()
{
    return ModelSpec{
        .name = "Yi-6B",
        .num_layers = 32,
        .num_q_heads = 32,
        .num_kv_heads = 4,
        .head_dim = 128,
        .hidden_size = 4096,
        .intermediate_size = 11008,
        .vocab_size = 64000,
        .max_context_len = 200 * 1024,
        .bytes_per_elem = 2,
        .layer_window_tokens = {},
    };
}

ModelSpec
ModelSpec::llama3_8B()
{
    return ModelSpec{
        .name = "Llama-3-8B",
        .num_layers = 32,
        .num_q_heads = 32,
        .num_kv_heads = 8,
        .head_dim = 128,
        .hidden_size = 4096,
        .intermediate_size = 14336,
        .vocab_size = 128256,
        .max_context_len = 200 * 1024,
        .bytes_per_elem = 2,
        .layer_window_tokens = {},
    };
}

ModelSpec
ModelSpec::yi34B()
{
    return ModelSpec{
        .name = "Yi-34B",
        .num_layers = 60,
        .num_q_heads = 56,
        .num_kv_heads = 8,
        .head_dim = 128,
        .hidden_size = 7168,
        .intermediate_size = 20480,
        .vocab_size = 64000,
        .max_context_len = 200 * 1024,
        .bytes_per_elem = 2,
        .layer_window_tokens = {},
    };
}

ModelSpec
ModelSpec::llama3_70B()
{
    return ModelSpec{
        .name = "Llama-3-70B",
        .num_layers = 80,
        .num_q_heads = 64,
        .num_kv_heads = 8,
        .head_dim = 128,
        .hidden_size = 8192,
        .intermediate_size = 28672,
        .vocab_size = 128256,
        .max_context_len = 128 * 1024,
        .bytes_per_elem = 2,
        .layer_window_tokens = {},
    };
}

ModelSpec
ModelSpec::gpt3_175B()
{
    // GPT-3 uses multi-head attention (96 KV heads), hidden 12288 and
    // a 2-matrix GELU MLP of width 4h; numParams() assumes a 3-matrix
    // SwiGLU MLP, so we record the parameter-equivalent width 8h/3.
    return ModelSpec{
        .name = "GPT-3-175B",
        .num_layers = 96,
        .num_q_heads = 96,
        .num_kv_heads = 96,
        .head_dim = 128,
        .hidden_size = 12288,
        .intermediate_size = 32768,
        .vocab_size = 50257,
        .max_context_len = 16 * 1024,
        .bytes_per_elem = 2,
        .layer_window_tokens = {},
    };
}

const std::vector<ModelSpec> &
ModelSpec::evaluationModels()
{
    static const std::vector<ModelSpec> models = {
        yi6B(), llama3_8B(), yi34B(),
    };
    return models;
}

ModelSpec
ModelSpec::withSlidingWindowInterleave(i64 window_tokens,
                                       int period) const
{
    fatal_if(window_tokens <= 0,
             "sliding-window interleave needs window_tokens > 0");
    fatal_if(period < 2, "interleave period must be at least 2 (a "
                         "period of 1 would leave no full layer)");
    ModelSpec spec = *this;
    spec.name += "-swa" + std::to_string(window_tokens);
    spec.layer_window_tokens.assign(
        static_cast<std::size_t>(num_layers), 0);
    for (int layer = 0; layer < num_layers; ++layer) {
        if (layer % period != 0) {
            spec.layer_window_tokens[static_cast<std::size_t>(layer)] =
                window_tokens;
        }
    }
    return spec;
}

bool
ModelSpec::hasSlidingLayers() const
{
    for (i64 window : layer_window_tokens) {
        if (window > 0) {
            return true;
        }
    }
    return false;
}

i64
ModelSpec::windowTokensOf(int layer) const
{
    if (layer_window_tokens.empty()) {
        return 0;
    }
    fatal_if(layer < 0 ||
                 static_cast<std::size_t>(layer) >=
                     layer_window_tokens.size(),
             "layer ", layer, " out of range for the ",
             layer_window_tokens.size(), "-entry window list");
    return layer_window_tokens[static_cast<std::size_t>(layer)];
}

std::vector<ModelSpec::WindowClass>
ModelSpec::windowClasses() const
{
    std::vector<WindowClass> classes;
    for (int layer = 0; layer < num_layers; ++layer) {
        const i64 window = windowTokensOf(layer);
        bool found = false;
        for (WindowClass &cls : classes) {
            if (cls.window_tokens == window) {
                ++cls.layers;
                found = true;
                break;
            }
        }
        if (!found) {
            classes.push_back(WindowClass{window, 1});
        }
    }
    // Full attention first for stable reporting order.
    for (std::size_t i = 1; i < classes.size(); ++i) {
        if (classes[i].window_tokens == 0) {
            std::swap(classes[0], classes[i]);
            break;
        }
    }
    return classes;
}

double
ModelSpec::numParams() const
{
    const double h = hidden_size;
    const double q_dim = static_cast<double>(num_q_heads) * head_dim;
    const double kv_dim = static_cast<double>(num_kv_heads) * head_dim;
    // Attention: Wq, Wo (h x q_dim each) + Wk, Wv (h x kv_dim each).
    const double attn = 2.0 * h * q_dim + 2.0 * h * kv_dim;
    // SwiGLU MLP: gate, up, down.
    const double mlp = 3.0 * h * intermediate_size;
    const double per_layer = attn + mlp;
    // Input embedding + output head.
    const double embed = 2.0 * static_cast<double>(vocab_size) * h;
    return per_layer * num_layers + embed;
}

u64
ModelSpec::weightBytesPerWorker(int tp) const
{
    return static_cast<u64>(numParams() * bytes_per_elem /
                            static_cast<double>(tp));
}

int
ModelSpec::kvHeadsPerWorker(int tp) const
{
    fatal_if(num_kv_heads % tp != 0,
             "KV heads (", num_kv_heads, ") not divisible by TP ", tp);
    return num_kv_heads / tp;
}

int
ModelSpec::qHeadsPerWorker(int tp) const
{
    fatal_if(num_q_heads % tp != 0,
             "Q heads (", num_q_heads, ") not divisible by TP ", tp);
    return num_q_heads / tp;
}

u64
ModelSpec::kvBytesPerToken() const
{
    return 2ULL * static_cast<u64>(num_layers) *
           static_cast<u64>(num_kv_heads) * static_cast<u64>(head_dim) *
           static_cast<u64>(bytes_per_elem);
}

u64
ModelSpec::kvBytesPerTokenPerWorker(int tp) const
{
    // Via the head count, not kvBytesPerToken()/tp: a non-divisible
    // TP degree must fail loudly, never round.
    return 2ULL * static_cast<u64>(num_layers) *
           static_cast<u64>(kvHeadsPerWorker(tp)) *
           static_cast<u64>(head_dim) * static_cast<u64>(bytes_per_elem);
}

} // namespace vattn::perf
