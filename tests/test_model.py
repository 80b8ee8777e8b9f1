import hashlib
import json
import weakref

import numpy as np
import pytest

from archsearch import model as model_mod
from archsearch.costs import CostLine, HardwareProfile, Scenario, kv_bytes_per_sequence
from archsearch.kvquant import (
    QuantScales, calibrate_scales, forward_with_quantized_kv, quantize_roundtrip,
)
from archsearch.library import ExpertRanking, LayerRanking, assemble, parent_spec, prune_layer
from archsearch.metrics import RunRecord, build_frontier
from archsearch.model import (
    AttentionVariant,
    ConfigError,
    KvCache,
    MismatchError,
    ModelConfig,
    ParamsManifest,
    count_params,
    final_hidden,
    first_mask_difference,
    forward_batch,
    generate_batch,
    global_attention,
    init_model,
    load_params,
    param_items,
    parse_json,
    route_tokens,
    save_params,
    to_json,
    toy_config,
    window_attention,
    write_atomic,
)
from archsearch.scoring import ScoreRow, ScoreTable
from archsearch.search import KvBudget

# frozen from the first verified build; init uses a counter-based generator
# keyed by (seed, parameter name), so this is platform independent
TOY_SEED11_CHECKSUM = "ef58a50f24ebfe4a48c339a14b42f214843f922a80ee6a1f23e03f359276e7a3"


def saved_sha256(params, path):
    """The sha256 of the weight blob save_params writes for `params` at `path`."""
    save_params(params, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# attention variants and config validation


def test_attention_variant_ids_and_windows():
    g = global_attention()
    w = window_attention(128)
    assert g.variant_id == "attn:global"
    assert w.variant_id == "attn:window:128"
    assert g.effective_window(1000) == 1000
    assert w.effective_window(1000) == 128
    assert w.effective_window(50) == 50  # shorter sequence occupies fewer slots
    assert AttentionVariant.from_json(to_json(w)) == w
    assert AttentionVariant.from_json(to_json(g)) == g


def test_attention_variant_validation():
    with pytest.raises(ConfigError):
        AttentionVariant("window", 0)
    with pytest.raises(ConfigError):
        AttentionVariant("window", None)
    with pytest.raises(ConfigError):
        AttentionVariant("global", 4)
    with pytest.raises(ConfigError):
        AttentionVariant("local", 4)


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="n_kv_heads"):
        toy_config(n_kv_heads=3)  # does not divide n_heads=4
    with pytest.raises(ConfigError, match="head_dim"):
        toy_config(head_dim=7)  # rotary needs an even head_dim
    with pytest.raises(ConfigError, match="top_k"):
        toy_config(top_k=0)
    with pytest.raises(ConfigError, match="top_k"):
        toy_config(top_k=17)  # more than n_experts
    with pytest.raises(ConfigError, match="attn_pattern"):
        toy_config(attn_pattern=(global_attention(),))  # wrong length
    with pytest.raises(ConfigError, match="d_model"):
        toy_config(d_model=True)  # a bool is not an int
    with pytest.raises(ConfigError, match="rope_base"):
        toy_config(rope_base="1e4")
    with pytest.raises(ConfigError, match="bogus"):
        toy_config(bogus=1)


def test_toy_config_pattern_alternates():
    cfg = toy_config()
    for i, attn in enumerate(cfg.attn_pattern):
        if i % 2 == 0:
            assert attn == window_attention(4)
        else:
            assert attn == global_attention()


def test_config_json_roundtrip(toy_cfg):
    assert ModelConfig.from_json(to_json(toy_cfg)) == toy_cfg


def test_config_from_json_rejects_unknown_and_missing_fields(toy_cfg):
    with pytest.raises(ConfigError, match="bogus is not a model config field"):
        ModelConfig.from_json({**to_json(toy_cfg), "bogus": 1})
    obj = to_json(toy_cfg)
    del obj["top_k"], obj["attn_pattern"]
    with pytest.raises(ConfigError, match="missing fields: attn_pattern, top_k"):
        ModelConfig.from_json(obj)
    del obj["rope_base"]  # a field with a default may be left out
    obj.update(top_k=2, attn_pattern=to_json(toy_cfg)["attn_pattern"])
    assert ModelConfig.from_json(obj) == toy_cfg


SCENARIO = {"name": "s", "isl": 4, "osl": 4, "batch": 2}
HARDWARE = {"mem_bandwidth_bytes_per_s": 1e9, "compute_flops_per_s": 1e12}
RECORD = {"model": "m", "kv_precision": "bf16", "effort": "high",
          "throughput_tokens_per_s": 4000.0, "avg_tokens_per_request": 100.0}
SCALES = {"mode": "unit", "k_scales": [1.0], "v_scales": [1.0], "k_raw": [1.0], "v_raw": [1.0]}
SCORE = {"layer": 1, "variant": "attn:global", "signal": "activation_mse",
         "value": 0.5}
WINDOW = {"kind": "window", "window_size": 4}
TOY = to_json(toy_config())


@pytest.mark.parametrize("cls, obj, message", [
    (Scenario, {**SCENARIO, "isl": 2.5}, "isl must be an integer, got 2.5"),
    (Scenario, {**SCENARIO, "osl": "3"}, "osl must be an integer, got '3'"),
    (Scenario, {**SCENARIO, "batch": True}, "batch must be an integer, got True"),
    (HardwareProfile, {**HARDWARE, "mem_bandwidth_bytes_per_s": "1e9"},
     "mem_bandwidth_bytes_per_s must be a number, got '1e9'"),
    (HardwareProfile, {**HARDWARE, "n_devices": 1.5}, "n_devices must be an integer, got 1.5"),
    (KvBudget, {"length": 2.5, "max_bytes_per_seq": 7}, "length must be an integer, got 2.5"),
    (KvBudget, {"length": 2, "max_bytes_per_seq": 7.9},
     "max_bytes_per_seq must be an integer, got 7.9"),
    (KvBudget, {"length": 2, "max_bytes_per_seq": 7, "precision": "fp4"},
     "precision must be one of ['bf16', 'fp8'], got 'fp4'"),
    (RunRecord, {**RECORD, "avg_tokens_per_request": True},
     "avg_tokens_per_request must be a number, got True"),
    (RunRecord, {**RECORD, "throughput_tokens_per_s": "4000"},
     "throughput_tokens_per_s must be a number, got '4000'"),
    (RunRecord, {**RECORD, "bogus": 1}, "bogus is not a run record field"),
    (ScoreRow, {**SCORE, "layer": 1.9}, "layer must be an integer, got 1.9"),
    (QuantScales, {**SCALES, "k_scales": ["1"]}, "k_scales[0] must be a number, got '1'"),
    (Scenario, [SCENARIO], "scenario must be a JSON object"),
    (Scenario, {"name": "s", "isl": 4}, "scenario missing fields: batch, osl"),
    (AttentionVariant, {**WINDOW, "bogus": 1}, "bogus is not an attention variant field"),
    (AttentionVariant, {**WINDOW, "window_size": 4.0}, "window_size must be an integer, got 4.0"),
    (AttentionVariant, {"kind": "local"}, "kind must be 'global' or 'window', got 'local'"),
    (AttentionVariant, {"kind": "global", "window_size": 4},
     "window_size must be null for global attention, got 4"),
    (ModelConfig, {**TOY, "attn_pattern": [WINDOW] * 7 + [{**WINDOW, "bogus": 1}]},
     "attn_pattern[7].bogus is not an attention variant field"),
    (ModelConfig, {**TOY, "attn_pattern": [WINDOW] * 7 + [5]},
     "attn_pattern[7] must be a JSON object"),
], ids=[
    "isl-float", "osl-string", "batch-bool", "bandwidth-string", "n-devices-float",
    "kv-length-float", "kv-bytes-float", "kv-precision-unknown", "avg-tokens-bool",
    "throughput-string", "record-unknown-key", "score-layer-float", "scale-string",
    "not-an-object", "missing-fields", "attention-unknown-key", "window-float", "kind-unknown",
    "global-with-window", "pattern-entry-unknown-key", "pattern-entry-not-object",
])
def test_json_records_take_only_their_declared_fields_and_types(cls, obj, message):
    with pytest.raises(ConfigError) as exc:
        parse_json(cls, obj)
    assert str(exc.value) == message
    with pytest.raises(ConfigError) as exc:
        parse_json(cls, obj, "where")
    assert str(exc.value).startswith("where")


def test_json_records_store_declared_types_and_take_defaults():
    record = parse_json(RunRecord, {**RECORD, "throughput_tokens_per_s": 4000, "accuracy": None})
    assert record.throughput_tokens_per_s == 4000.0
    assert isinstance(record.throughput_tokens_per_s, float)
    assert record.accuracy is None and record.suite == ""
    assert parse_json(QuantScales, SCALES) == QuantScales.unit(1)  # lists become tuples
    assert parse_json(KvBudget, {"length": 8, "max_bytes_per_seq": 0}).precision == "bf16"
    with pytest.raises(ConfigError, match="^kv_budget.length must be positive, got 0$"):
        parse_json(KvBudget, {"length": 0, "max_bytes_per_seq": 0}, "kv_budget")


def test_every_written_record_reads_back_as_itself(toy_cfg, toy_params, toy_arch, tmp_path):
    """parse_json of to_json(record) is the record, for every record class
    the pipeline writes; a field whose default is None is left out while it
    is None, so global attention stays {"kind": "global"}."""
    assert to_json(global_attention()) == {"kind": "global"}
    assert "accuracy" not in to_json(RunRecord(**RECORD))
    point, = build_frontier([RunRecord(**RECORD)], "m", "bf16")
    assert to_json(point)["accuracy"] is None  # declared with no default: kept
    save_params(toy_params, tmp_path / "p.bin")
    text = (tmp_path / "p.bin.json").read_text()
    manifest = parse_json(ParamsManifest, json.loads(text))
    assert text == json.dumps(to_json(manifest), indent=2, sort_keys=True) + "\n"
    arch = toy_arch.with_layer(1, attention=window_attention(16), expert_keep_set=(0, 3, 5))
    ranking = ExpertRanking((LayerRanking((2, 0, 1), (0.5, 0.25, 0.0)),))
    records = [
        global_attention(), window_attention(4), toy_cfg, arch.layers[1], arch, ranking,
        QuantScales("calibrated", (0.5,), (2.0,), (0.375,), (1.5,)),
        RunRecord(**RECORD), RunRecord(**RECORD, accuracy=61.5, suite="s"), point,
        CostLine(1, "attn:global", "s", 7), ScoreRow(**SCORE), manifest.entries[0], manifest,
    ]
    for record in records:
        assert parse_json(type(record), json.loads(json.dumps(to_json(record)))) == record


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic_and_seed_sensitive(toy_cfg, tmp_path):
    a = init_model(toy_cfg, seed=11)
    b = init_model(toy_cfg, seed=11)
    c = init_model(toy_cfg, seed=12)
    assert (saved_sha256(a, tmp_path / "a.bin") == saved_sha256(b, tmp_path / "b.bin")
            == TOY_SEED11_CHECKSUM)
    assert saved_sha256(c, tmp_path / "c.bin") != TOY_SEED11_CHECKSUM


def test_param_count_matches_arithmetic(toy_cfg, toy_params):
    c = toy_cfg
    per_layer = (
        c.d_model  # attn norm
        + c.d_model * c.n_heads * c.head_dim  # wq
        + 2 * c.d_model * c.n_kv_heads * c.head_dim  # wk, wv
        + c.n_heads * c.head_dim * c.d_model  # wo
        + c.d_model  # ffn norm
        + c.n_experts * c.d_model  # router
        + c.n_experts * 2 * c.d_model * c.expert_hidden  # experts
    )
    total = (
        c.vocab_size * c.d_model  # embedding
        + c.n_layers * per_layer
        + c.d_model  # final norm
        + c.d_model * c.vocab_size  # lm head
    )
    assert count_params(toy_params) == total


def test_param_items_order_is_stable(toy_params):
    names = [name for name, _ in param_items(toy_params)]
    assert names[0] == "embedding"
    assert names[-2:] == ["final_norm", "lm_head"]
    assert names.index("layers.0.wq") < names.index("layers.1.wq")


# ---------------------------------------------------------------------------
# forward pass against a from-scratch reference implementation


def _naive_forward(params, arch, tokens):
    """Loop-based reference: same math, none of the shared buffers or batching."""
    c = params.config
    tokens = np.asarray(tokens)
    B, T = tokens.shape
    half = c.head_dim // 2
    inv_freq = c.rope_base ** (-np.arange(half) * 2.0 / c.head_dim)
    angles = np.arange(T)[:, None] * inv_freq[None, :] / c.rope_scale_factor
    cos = np.cos(angles).astype(np.float32)
    sin = np.sin(angles).astype(np.float32)

    def rms(x, gain):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * gain

    def rope_one(vec, t):  # vec: [head_dim]
        out = np.empty_like(vec)
        out[0::2] = vec[0::2] * cos[t] - vec[1::2] * sin[t]
        out[1::2] = vec[0::2] * sin[t] + vec[1::2] * cos[t]
        return out

    hidden = params.embedding[tokens].astype(np.float32)
    group = c.n_heads // c.n_kv_heads
    for layer, spec in zip(params.layers, arch.layers):
        x = rms(hidden, layer.attn_norm)
        attn_out = np.zeros((B, T, c.n_heads * c.head_dim), dtype=np.float32)
        for b in range(B):
            q = (x[b] @ layer.wq).reshape(T, c.n_heads, c.head_dim)
            k = (x[b] @ layer.wk).reshape(T, c.n_kv_heads, c.head_dim)
            v = (x[b] @ layer.wv).reshape(T, c.n_kv_heads, c.head_dim)
            for t in range(T):
                for h in range(c.n_heads):
                    qr = rope_one(q[t, h], t)
                    lo = 0
                    if spec.attention.kind == "window":
                        lo = max(0, t - spec.attention.window_size + 1)
                    keys = np.stack(
                        [rope_one(k[s, h // group], s) for s in range(lo, t + 1)]
                    )
                    scores = keys @ qr / np.sqrt(c.head_dim)
                    w = np.exp(scores - scores.max())
                    w /= w.sum()
                    ctx = w @ v[lo : t + 1, h // group]
                    attn_out[b, t, h * c.head_dim : (h + 1) * c.head_dim] = ctx
        hidden = hidden + attn_out @ layer.wo

        x = rms(hidden, layer.ffn_norm)
        keep = set(spec.expert_keep_set)
        moe = np.zeros_like(x)
        for b in range(B):
            for t in range(T):
                logits = layer.router @ x[b, t]
                masked = [
                    (logits[e] if layer.expert_ids[e] in keep else -np.inf, e)
                    for e in range(len(layer.expert_ids))
                ]
                chosen = sorted(masked, key=lambda p: (-p[0], p[1]))[: c.top_k]
                sel = np.array([l for l, _ in chosen])
                w = np.exp(sel - sel.max())
                w /= w.sum()
                for wi, (_, e) in zip(w, chosen):
                    h1 = x[b, t] @ layer.w_in[e]
                    h1 = h1 / (1 + np.exp(-h1))
                    moe[b, t] += wi * (h1 @ layer.w_out[e])
        hidden = hidden + moe
    final = rms(hidden, params.final_norm)
    return final @ params.lm_head


def test_forward_matches_naive_reference():
    cfg = toy_config(n_layers=2, max_seq_len=64,
                     attn_pattern=(window_attention(3), global_attention()))
    params = init_model(cfg, seed=3)
    arch = parent_spec(cfg)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 10), dtype=np.int64)
    got = forward_batch(params, arch, tokens).logits
    want = _naive_forward(params, arch, tokens)
    np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-5)


def test_forward_matches_naive_reference_with_pruning():
    cfg = toy_config(n_layers=2, max_seq_len=64,
                     attn_pattern=(window_attention(3), global_attention()))
    params = init_model(cfg, seed=4)
    arch = parent_spec(cfg).with_layer(0, expert_keep_set=tuple(range(0, 16, 2)))
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 8), dtype=np.int64)
    got = forward_batch(params, arch, tokens).logits
    want = _naive_forward(params, arch, tokens)
    np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-5)


def test_forward_is_deterministic(toy_params, toy_arch):
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, 256, size=(3, 40), dtype=np.int64)
    a = forward_batch(toy_params, toy_arch, tokens).logits
    b = forward_batch(toy_params, toy_arch, tokens).logits
    np.testing.assert_array_equal(a, b)


def test_window_at_least_length_equals_global(toy_params, toy_arch):
    rng = np.random.default_rng(6)
    tokens = rng.integers(0, 256, size=(2, 48), dtype=np.int64)
    base = forward_batch(toy_params, toy_arch, tokens).logits
    widened = toy_arch
    for i, spec in enumerate(toy_arch.layers):
        if spec.attention.kind == "global":
            widened = widened.with_layer(i, attention=window_attention(48))
    got = forward_batch(toy_params, widened, tokens).logits
    np.testing.assert_array_equal(got, base)  # identical mask -> identical floats


def test_forward_input_validation(toy_params, toy_arch):
    with pytest.raises(MismatchError, match="batch, length"):
        forward_batch(toy_params, toy_arch, np.zeros(5, dtype=np.int64))
    with pytest.raises(MismatchError, match="max_seq_len"):
        forward_batch(toy_params, toy_arch, np.zeros((1, 513), dtype=np.int64))
    with pytest.raises(MismatchError, match="integers"):
        forward_batch(toy_params, toy_arch, np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(MismatchError, match="vocab"):
        forward_batch(toy_params, toy_arch, np.full((1, 4), 256, dtype=np.int64))


def _pruned_window_arch(arch):
    # the toy's window-4 layers, one global layer narrowed to window 16, and
    # strict expert subsets on three layers
    return (
        arch.with_layer(3, attention=window_attention(16))
        .with_layer(0, expert_keep_set=tuple(range(0, 16, 2)))
        .with_layer(3, expert_keep_set=(1, 4, 5, 9))
        .with_layer(6, expert_keep_set=tuple(range(8)))
    )


def test_forward_rejects_empty_tokens(toy_params, toy_arch):
    for shape in ((0, 4), (2, 0)):
        with pytest.raises(MismatchError, match="at least one"):
            forward_batch(toy_params, toy_arch, np.zeros(shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# attention in query blocks against the masked full matrix


def _masked_layer_step(params, i, spec, hidden, run, first=0):
    """A decoder layer whose attention scores every query against every key
    and masks the keys a query may not see to -inf: the reference for the
    query blocks of model._layer_step. Every other step is the model's own."""
    assert first == 0
    c = params.config
    layer = params.layers[i]
    batch, length = hidden.shape[:2]
    group = c.n_heads // c.n_kv_heads

    def heads(x, n):
        x = x.reshape(batch, length, n, c.head_dim)
        return model_mod._apply_rope(x, run.cos, run.sin).transpose(0, 2, 1, 3)

    att_in = model_mod._rms_norm(hidden, layer.attn_norm)
    q = heads(model_mod._dense(att_in, layer.wq), c.n_heads)
    k = heads(model_mod._dense(att_in, layer.wk), c.n_kv_heads)
    v = model_mod._dense(att_in, layer.wv).reshape(batch, length, c.n_kv_heads, c.head_dim)
    v = v.transpose(0, 2, 1, 3)
    key_pos = run.query_pos
    if run.cache is not None:
        k, v, key_pos = run.cache.update(i, k, v, run.start)
    grouped = q.reshape(batch, c.n_kv_heads, group * length, c.head_dim) @ k.transpose(0, 1, 3, 2)
    scores = grouped.reshape(batch, c.n_heads, length, k.shape[2])
    scores *= np.float32(1.0 / np.sqrt(c.head_dim))
    scores += model_mod._attention_mask(spec.attention, run.query_pos, key_pos)
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.sum(scores, axis=-1, keepdims=True)
    ctx = (grouped @ v).reshape(batch, c.n_heads, length, c.head_dim).transpose(0, 2, 1, 3)
    hidden = hidden + model_mod._dense(ctx.reshape(batch, length, -1), layer.wo)
    ffn_in = model_mod._rms_norm(hidden, layer.ffn_norm)
    allowed = model_mod._expert_allowed_mask(layer, spec.expert_keep_set, c.top_k)
    return hidden + model_mod._moe_layer(ffn_in, layer, allowed, c.top_k), ffn_in


@pytest.mark.parametrize("window", [None, 4, 16, 64])
def test_query_blocks_match_the_masked_full_matrix(window, monkeypatch):
    attn = global_attention() if window is None else window_attention(window)
    cfg = toy_config(n_layers=2, attn_pattern=(attn, attn))
    params = init_model(cfg, seed=5)
    arch = parent_spec(cfg)
    tokens = np.random.default_rng(13).integers(0, 256, size=(2, 256), dtype=np.int64)
    # below, at and past each window and each 32-query block; up to 128 keys
    # a row sums its terms in the same order either way
    exact = (3, 4, 5, 15, 16, 17, 31, 32, 33, 40, 63, 64, 65, 100, 128)
    blocked = {n: forward_batch(params, arch, tokens[:, :n]).logits for n in exact + (256,)}
    cache = KvCache(cfg, arch, batch=2, length=100)
    prefill = forward_batch(params, arch, tokens[:, :100], cache=cache).logits
    monkeypatch.setattr(model_mod, "_layer_step", _masked_layer_step)
    for n in exact:
        np.testing.assert_array_equal(blocked[n], forward_batch(params, arch, tokens[:, :n]).logits)
    np.testing.assert_array_equal(prefill, blocked[100])
    # past 128 keys NumPy splits a row's pairwise sum by the row's length
    np.testing.assert_allclose(blocked[256], forward_batch(params, arch, tokens).logits,
                               rtol=1e-5, atol=1e-5)


def test_query_blocks_read_only_the_keys_a_block_can_see():
    blocks = model_mod._query_blocks(window_attention(16), 100, 100)
    assert blocks == [(0, 32, 0, 32), (32, 64, 16, 64), (64, 96, 48, 96), (96, 100, 80, 100)]
    assert model_mod._query_blocks(global_attention(), 40, 40) == [(0, 32, 0, 32), (32, 40, 0, 40)]
    # queries after held slots: one block over every slot
    assert model_mod._query_blocks(window_attention(4), 1, 5) == [(0, 1, 0, 5)]


# ---------------------------------------------------------------------------
# the last position alone


@pytest.mark.parametrize("precision", [None, "bf16", "fp8"])
@pytest.mark.parametrize("batch, length", [(1, 20), (3, 40), (2, 96)])
def test_last_position_forward_equals_the_full_forwards_last(toy_params, toy_arch, precision,
                                                            batch, length):
    arch = _pruned_window_arch(toy_arch)
    cfg = toy_params.config
    tokens = np.random.default_rng(length).integers(0, 256, size=(batch, length), dtype=np.int64)
    scales = calibrate_scales(toy_params, arch, tokens) if precision == "fp8" else None

    def run(last_only):
        cache = None if precision is None else KvCache(cfg, arch, batch, length, scales=scales)
        return forward_batch(toy_params, arch, tokens, cache=cache, last_only=last_only), cache

    (full, full_cache), (last, last_cache) = run(False), run(True)
    assert last.logits.shape == (batch, 1, cfg.vocab_size)
    np.testing.assert_array_equal(last.logits, full.logits[:, -1:])
    np.testing.assert_array_equal(last.final_hidden, full.final_hidden[:, -1:])
    if precision is not None:
        assert last_cache.positions == full_cache.positions == length
        for a, b in zip(full_cache._layers, last_cache._layers):
            for name, x in vars(a).items():
                y = getattr(b, name)
                assert (x is None and y is None) or np.array_equal(x, y), name


# ---------------------------------------------------------------------------
# resuming a forward from the residual entering one layer


def _same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _resumed(params, arch, layer, first, entering, last_only=False):
    """Every item of the one layer loop resumed at `layer` from position
    `first`, on the residuals `entering` each layer."""
    run = model_mod._Pass.new(params.config, entering[layer].shape[1])
    return list(model_mod._layer_walk(params, arch, run, entering[layer], layer, first,
                                      entering, last_only=last_only))


def _check_resumed(params, arch, tokens, firsts):
    """At every layer and each of `firsts`, with and without last_only, the
    resumed loop yields rows first.. of the full walk's items, and its last
    leaving residual gives those rows of forward_batch's trace, bit for bit."""
    full = forward_batch(params, arch, tokens)
    walked = list(model_mod._token_walk(params, arch, tokens))
    entering = [hidden for hidden, _, _ in walked]
    for layer in range(len(walked)):
        for first in firsts:
            items = _resumed(params, arch, layer, first, entering)
            assert len(items) == len(walked) - layer
            for (hidden, ffn_in, leaving), (want, want_ffn, want_leaving) in zip(
                items, walked[layer:]
            ):
                _same_bytes(hidden, want)
                _same_bytes(ffn_in, want_ffn[:, first:])
                _same_bytes(leaving, want_leaving[:, first:])
            resumed = model_mod._finish(params, leaving)
            _same_bytes(resumed.final_hidden, full.final_hidden[:, first:])
            _same_bytes(resumed.logits, full.logits[:, first:])
            *_, (_, _, last) = _resumed(params, arch, layer, first, entering, last_only=True)
            _same_bytes(final_hidden(params, last), full.final_hidden[:, -1:])
            _same_bytes(model_mod._finish(params, last).logits, full.logits[:, -1:])


def test_resumed_forward_equals_the_full_forward_at_every_layer(toy_params, toy_arch):
    tokens = np.random.default_rng(10).integers(0, 256, size=(3, 40), dtype=np.int64)
    _check_resumed(toy_params, _pruned_window_arch(toy_arch), tokens, firsts=(0,))


@pytest.mark.parametrize("length", [40, 200])
def test_resumed_forward_from_a_position_equals_the_full_forwards_rows(toy_params, toy_arch,
                                                                      length):
    # window-4, window-16 and global layers; positions below, at and past a
    # multiple of 8 and a 32-query block; at 200 positions the last blocks
    # read past 128 keys
    tokens = np.random.default_rng(length).integers(0, 256, size=(2, length), dtype=np.int64)
    _check_resumed(toy_params, _pruned_window_arch(toy_arch), tokens,
                   firsts=(1, 7, 8, 31, 32, 33, length - 1))


def test_walk_residuals_equal_those_of_the_full_forward(toy_params, toy_arch, monkeypatch):
    arch = _pruned_window_arch(toy_arch)
    tokens = np.random.default_rng(11).integers(0, 256, size=(2, 24), dtype=np.int64)
    entering, ffn_inputs, leaving_layer = {}, {}, {}
    step = model_mod._layer_step

    def recording_step(params, i, spec, hidden, run, first=0):
        entering[i] = hidden.copy()
        leaving, ffn_in = step(params, i, spec, hidden, run, first)
        ffn_inputs[i], leaving_layer[i] = ffn_in.copy(), leaving.copy()
        return leaving, ffn_in

    monkeypatch.setattr(model_mod, "_layer_step", recording_step)
    forward_batch(toy_params, arch, tokens)
    monkeypatch.undo()
    walked = list(model_mod._token_walk(toy_params, arch, tokens))
    assert sorted(entering) == list(range(len(walked)))
    for i, (hidden, ffn_in, leaving) in enumerate(walked):
        np.testing.assert_array_equal(hidden, entering[i])
        np.testing.assert_array_equal(ffn_in, ffn_inputs[i])
        np.testing.assert_array_equal(leaving, leaving_layer[i])
    # last_only runs the last layer at the last position alone
    walked = list(model_mod._token_walk(toy_params, arch, tokens, last_only=True))
    assert len(walked) == len(entering)
    for i, (hidden, _, _) in enumerate(walked):
        _same_bytes(hidden, entering[i])
    _, ffn_in, leaving = walked[-1]
    last = len(walked) - 1
    _same_bytes(ffn_in, ffn_inputs[last][:, -1:])
    _same_bytes(leaving, leaving_layer[last][:, -1:])


def test_a_walk_run_to_its_end_holds_no_earlier_layers_arrays(toy_params, toy_arch,
                                                             monkeypatch):
    # While a layer runs, of the arrays earlier layers made only its input is
    # alive: not the FFN input of the layer before, nor, in a walk resumed
    # from a position, that layer's rows before the parent's were joined on.
    arch = _pruned_window_arch(toy_arch)
    tokens = np.random.default_rng(12).integers(0, 256, size=(2, 40), dtype=np.int64)
    entering = [hidden for hidden, _, _ in model_mod._token_walk(toy_params, arch, tokens)]
    step, earlier, ran = model_mod._layer_step, [], []

    def watched_step(params, i, spec, hidden, run, first=0):
        assert all(ref() is None or ref() is hidden for ref in earlier), i
        leaving, ffn_in = step(params, i, spec, hidden, run, first)
        earlier[:] = [weakref.ref(ffn_in), weakref.ref(leaving)]
        ran.append(i)
        return leaving, ffn_in

    monkeypatch.setattr(model_mod, "_layer_step", watched_step)
    full = forward_batch(toy_params, arch, tokens)
    forward_batch(toy_params, arch, tokens, cache=KvCache(toy_params.config, arch, 2, 40))
    run = model_mod._Pass.new(toy_params.config, 40)
    walk = model_mod._layer_walk(toy_params, arch, run, entering[2], 2, 16, entering)
    _same_bytes(final_hidden(toy_params, model_mod._last_leaving(walk)),
                full.final_hidden[:, 16:])
    assert ran == [*range(8), *range(8), *range(2, 8)]


def test_walk_runs_a_layer_only_when_its_item_is_asked_for(toy_params, toy_arch, monkeypatch):
    tokens = np.full((1, 8), 5, dtype=np.int64)
    ran = []
    step = model_mod._layer_step

    def counting_step(params, i, spec, hidden, run, first=0):
        ran.append(i)
        return step(params, i, spec, hidden, run, first)

    monkeypatch.setattr(model_mod, "_layer_step", counting_step)
    walk = model_mod._token_walk(toy_params, toy_arch, tokens)
    assert ran == []
    next(walk)
    assert ran == [0]
    next(walk)
    assert ran == [0, 1]


# ---------------------------------------------------------------------------
# the first position a changed attention can change


@pytest.mark.parametrize("parent, variant, rule", [
    (global_attention(), window_attention(4), 4),
    (global_attention(), window_attention(16), 16),
    (global_attention(), window_attention(64), 64),
    (window_attention(16), window_attention(4), 4),
])
def test_a_changed_attention_keeps_the_rows_before_its_first_mask_difference(
    toy_params, toy_arch, parent, variant, rule
):
    assert first_mask_difference(parent, variant) == first_mask_difference(variant, parent) == rule
    assert first_mask_difference(parent, parent) is None
    length = 100
    pos = np.arange(length)
    masks = [model_mod._attention_mask(v, pos, pos) for v in (parent, variant)]
    _same_bytes(masks[0][:rule], masks[1][:rule])
    assert not np.array_equal(masks[0][rule], masks[1][rule])
    tokens = np.random.default_rng(rule).integers(0, 256, size=(2, length), dtype=np.int64)
    before = toy_arch.with_layer(3, attention=parent)
    want = forward_batch(toy_params, before, tokens).final_hidden
    got = forward_batch(toy_params, before.with_layer(3, attention=variant), tokens).final_hidden
    _same_bytes(got[:, :rule], want[:, :rule])
    assert not np.array_equal(got[:, rule], want[:, rule])


def test_a_window_as_long_as_the_sequence_changes_nothing(toy_params, toy_arch):
    length = 100
    tokens = np.random.default_rng(4).integers(0, 256, size=(2, length), dtype=np.int64)
    want = forward_batch(toy_params, toy_arch, tokens).final_hidden
    for window in (length, length + 37):
        assert first_mask_difference(global_attention(), window_attention(window)) >= length
        wide = toy_arch.with_layer(3, attention=window_attention(window))
        _same_bytes(forward_batch(toy_params, wide, tokens).final_hidden, want)


# ---------------------------------------------------------------------------
# whole-array kernels against the forms they replace


def test_row_max_equals_numpys_max():
    rng = np.random.default_rng(3)
    values = np.array([-np.inf, np.nan, 0.0, -0.0, 1.5, -2.0, 3e38, -1e-40], dtype=np.float32)
    for n in range(1, 131):
        x = rng.choice(values, size=(2, 3, 4, n), p=[0.25, 0.02, 0.2, 0.2, 0.1, 0.1, 0.08, 0.05])
        x[0, 0, 0] = -0.0  # rows of one zero sign each, and of both
        x[0, 0, 1] = 0.0
        x[0, 0, 2, ::2] = -0.0
        x[0, 0, 2, 1::2] = 0.0
        x[0, 0, 3] = -np.inf
        want = np.max(x, axis=-1, keepdims=True)
        got = model_mod._row_max(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        # Bit for bit, but for the sign of a zero max tied between +0 and -0,
        # which follows the order of the comparisons. Subtracting either zero
        # gives values that exp maps to the same bits.
        zero = want == 0.0
        assert got[~zero].tobytes() == want[~zero].tobytes()
        assert np.all(got[zero] == 0.0)
        with np.errstate(invalid="ignore"):
            assert np.exp(x - got).tobytes() == np.exp(x - want).tobytes()


@pytest.mark.parametrize("shape", [(24, 96, 4, 16), (4, 1, 4, 16)])
def test_rope_equals_the_pairwise_rotation(shape):
    cfg = toy_config(rope_base=500.0, rope_scale_factor=3.0)
    start = 7

    def reference_tables(positions):  # [positions, head_dim / 2] each
        half = cfg.head_dim // 2
        inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
        angles = positions[:, None] * inv_freq[None, :] / cfg.rope_scale_factor
        return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)

    def reference(x, cos, sin):
        pairs = x.reshape(x.shape[:-1] + (-1, 2))
        xe, xo = pairs[..., 0], pairs[..., 1]
        cos, sin = cos[:, None], sin[:, None]
        return np.stack([xe * cos - xo * sin, xe * sin + xo * cos], axis=-1).reshape(x.shape)

    x = np.random.default_rng(shape[0]).standard_normal(shape).astype(np.float32)
    cos, sin = model_mod._rope_tables(cfg, start, shape[1])
    got = model_mod._apply_rope(x, cos, sin)
    assert got.flags.c_contiguous
    want = reference(x, *reference_tables(np.arange(start, start + shape[1], dtype=np.float64)))
    _same_bytes(got, want)


# ---------------------------------------------------------------------------
# MoE dispatch


def _moe_reference(x, layer, allowed, top_k):
    """Scan every token for every present expert, in ascending expert order.
    Its products follow the model's rule for one-row and one-position products
    (model._dense, model._matmul), so only the dispatch is compared."""
    logits = model_mod._dense(x, np.ascontiguousarray(layer.router.T))
    idx, weights = route_tokens(logits, allowed, top_k)
    out = np.zeros_like(x)
    flat_x = x.reshape(-1, x.shape[-1])
    flat_idx = idx.reshape(-1, top_k)
    flat_w = weights.reshape(-1, top_k)
    flat_out = out.reshape(-1, x.shape[-1])
    for e in range(len(layer.expert_ids)):
        sel = flat_idx == e
        rows = np.nonzero(sel.any(axis=-1))[0]
        if rows.size == 0:
            continue
        w = (flat_w[rows] * sel[rows]).sum(axis=-1, dtype=np.float32)
        y = model_mod._matmul(model_mod._silu(model_mod._matmul(flat_x[rows], layer.w_in[e])),
                              layer.w_out[e])
        flat_out[rows] += w[:, None] * y
    return out


@pytest.mark.parametrize("shape, keep", [
    ((24, 96), tuple(range(16))),  # a scoring batch
    ((16, 1), tuple(range(16))),  # one decode step: every expert runs on every row
    ((6, 20), (2, 3, 7, 11, 12)),  # a pruned layer: a strict subset is allowed
    ((1, 1), tuple(range(16))),  # a lone row
    ((4, 1), tuple(range(16))),
    ((48, 1), tuple(range(16))),  # a retrieval batch's last position
    ((6, 1), (2, 3, 7, 11, 12)),
])
def test_moe_dispatch_is_bit_identical_to_the_per_expert_scan(toy_params, shape, keep):
    layer = toy_params.layers[3]
    top_k = toy_params.config.top_k
    x = np.random.default_rng(12).standard_normal(shape + (64,)).astype(np.float32)
    allowed = model_mod._expert_allowed_mask(layer, keep, top_k)
    got = model_mod._moe_layer(x, layer, allowed, top_k)
    assert got.tobytes() == _moe_reference(x, layer, allowed, top_k).tobytes()


@pytest.mark.parametrize("top_k", [2, 3])  # from 3 slots on, the order of adds shows
@pytest.mark.parametrize("shape", [(6, 20), (6, 1)])
def test_moe_dispatch_on_a_layer_with_experts_pruned_away(toy_params, shape, top_k):
    # 8 present experts, 5 of them allowed
    layer = prune_layer(toy_params.layers[3], (1, 2, 3, 5, 7, 11, 12, 14))
    x = np.random.default_rng(13).standard_normal(shape + (64,)).astype(np.float32)
    allowed = model_mod._expert_allowed_mask(layer, (2, 3, 7, 11, 12), top_k)
    got = model_mod._moe_layer(x, layer, allowed, top_k)
    assert got.tobytes() == _moe_reference(x, layer, allowed, top_k).tobytes()


@pytest.mark.parametrize("k, n", [(64, 32), (32, 64), (64, 16), (64, 8)],
                         ids=["expert-in", "expert-out", "router", "pruned-router"])
def test_blas_gemm_rows_depend_on_neither_row_count_nor_stacking(k, n):
    """Bit-identity of the forward rests on the BLAS: a row of a C-order GEMM
    must come out the same whichever rows share the product (at least 2), and
    as one slice of a stacked product. The one-position MoE runs all rows
    where the prefill loop runs an expert's rows alone, and _dense runs a
    decode step's rows as one GEMM over the batch. model._matmul puts a lone
    row in a GEMM; that is checked here too."""
    rng = np.random.default_rng(k * n)
    x = rng.standard_normal((400, k)).astype(np.float32)
    w = rng.standard_normal((16, k, n)).astype(np.float32)
    full = x @ w[0]
    for m in range(2, 400):
        rows = rng.choice(400, size=m, replace=False)
        assert np.array_equal(x[rows] @ w[0], full[rows]), (
            f"this BLAS sums a [{m}, {k}] @ [{k}, {n}] GEMM's rows differently than "
            f"the same rows among 400: the forward is no longer bit-identical to itself"
        )
    for i in (0, 17, 399):
        assert np.array_equal(model_mod._matmul(x[i:i + 1], w[0])[0], full[i]), (
            f"model._matmul sums a lone [1, {k}] @ [{k}, {n}] row differently than a GEMM"
        )
    for m in (1, 2, 3, 4, 8, 16, 48, 399):
        stacked = model_mod._matmul(x[None, :m], w)
        for e in range(len(w)):
            assert np.array_equal(stacked[e], model_mod._matmul(x[:m], w[e])), (
                f"this BLAS sums slice {e} of a stacked [{m}, {k}] @ [16, {k}, {n}] product "
                f"differently than the same product alone"
            )


# ---------------------------------------------------------------------------
# routing


def test_route_tokens_renormalizes_over_selection():
    logits = np.array([[1.0, 3.0, 2.0, -1.0]], dtype=np.float32)
    idx, w = route_tokens(logits, np.array([True, True, True, True]), top_k=2)
    assert idx.tolist() == [[1, 2]]
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-6)
    # weights are the softmax of the two selected logits only
    expect = np.exp(np.array([3.0, 2.0]) - 3.0)
    expect /= expect.sum()
    np.testing.assert_allclose(w[0], expect, rtol=1e-6)


def test_route_tokens_respects_allowed_mask():
    logits = np.array([[1.0, 3.0, 2.0, -1.0]], dtype=np.float32)
    allowed = np.array([True, False, True, True])  # expert 1 pruned before top-k
    idx, w = route_tokens(logits, allowed, top_k=2)
    assert idx.tolist() == [[2, 0]]
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-6)


def test_route_tokens_tie_breaks_to_lower_index():
    logits = np.zeros((1, 4), dtype=np.float32)
    idx, w = route_tokens(logits, np.array([True] * 4), top_k=2)
    assert idx.tolist() == [[0, 1]]
    np.testing.assert_allclose(w[0], [0.5, 0.5])


def _softmax_last(x):
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def _route_reference(router_logits, allowed, top_k):
    """A stable descending argsort of the masked logits, cut at top_k, and a
    softmax of the selected logits that reduces each row for its max."""
    masked = np.where(allowed, router_logits, -np.inf)
    order = np.argsort(-masked, axis=-1, kind="stable")
    idx = order[..., :top_k]
    selected = np.take_along_axis(masked, idx, axis=-1)
    return idx, _softmax_last(selected).astype(np.float32)


@pytest.mark.parametrize("shape", [(4, 1, 16), (16, 1, 16), (24, 96, 16)])
@pytest.mark.parametrize("top_k", [1, 2, 3, 4])
def test_route_tokens_matches_a_stable_argsort(shape, top_k):
    rng = np.random.default_rng(31)
    logits = rng.standard_normal(shape).astype(np.float32)
    tied = np.round(logits * 2) / 2  # few distinct values: many exact ties
    tied[..., 5] = tied[..., 9]  # and a duplicated expert in every row
    # top logits tied between -0.0 and +0.0, in either order: the first pick
    # and np.max may differ in the sign of the zero they take as the max
    zeros = -np.abs(logits)
    rows = zeros.reshape(-1, 16)
    rows[0::2, 1::4], rows[0::2, 2::4] = -0.0, 0.0
    rows[1::2, 1::4], rows[1::2, 2::4] = 0.0, -0.0
    pruned = np.ones(16, dtype=bool)
    pruned[[0, 3, 9, 10, 15]] = False
    for x in (logits, tied, zeros):
        for allowed in (np.ones(16, dtype=bool), pruned):
            idx, w = route_tokens(x, allowed, top_k)
            ref_idx, ref_w = _route_reference(x, allowed, top_k)
            assert idx.dtype == ref_idx.dtype and w.dtype == ref_w.dtype
            assert np.array_equal(idx, ref_idx) and w.tobytes() == ref_w.tobytes()


def test_route_tokens_requires_enough_experts():
    with pytest.raises(MismatchError):
        route_tokens(np.zeros((1, 4)), np.array([True, False, False, False]), top_k=2)


def test_expert_allowed_mask_is_made_once_and_still_checks_every_call(toy_params):
    layer = prune_layer(toy_params.layers[3], (1, 2, 3, 5, 7, 11, 12, 14))
    mask = model_mod._expert_allowed_mask(layer, (2, 3, 7), 2)
    assert mask.tolist() == [False, True, True, False, True, False, False, False]
    assert model_mod._expert_allowed_mask(layer, (2, 3, 7), 2) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = True
    for _ in range(2):  # a failed call is not cached as a success
        with pytest.raises(MismatchError, match=r"keeps experts \[4\] absent"):
            model_mod._expert_allowed_mask(layer, (2, 3, 4), 2)
        with pytest.raises(MismatchError, match="fewer than top_k=3"):
            model_mod._expert_allowed_mask(layer, (2, 3), 3)


# ---------------------------------------------------------------------------
# generation


def test_generate_batch_stops_at_end_token(toy_params, toy_arch):
    prompts = np.arange(2 * 8, dtype=np.int64).reshape(2, 8) % 250 + 2
    seqs, lengths = generate_batch(toy_params, toy_arch, prompts, max_new_tokens=12, end_token=0)
    assert seqs.shape[0] == 2 and seqs.shape[1] <= 8 + 12
    np.testing.assert_array_equal(seqs[:, :8], prompts)
    assert all(1 <= n <= 12 for n in lengths)
    for b in range(2):
        emitted = seqs[b, 8 : 8 + lengths[b]]
        if lengths[b] < 12:
            assert emitted[-1] == 0  # stopped because it hit the end token


def test_generate_batch_deterministic(toy_params, toy_arch):
    prompts = np.full((3, 4), 7, dtype=np.int64)
    a = generate_batch(toy_params, toy_arch, prompts, max_new_tokens=6, end_token=0)
    b = generate_batch(toy_params, toy_arch, prompts, max_new_tokens=6, end_token=0)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# KV cache: prefill once, then one forward per token


def _two_window_arch(arch):
    # the toy's window-4 layers plus a window-8 layer, so contexts of 20+
    # positions wrap every ring buffer
    return arch.with_layer(1, attention=window_attention(8))


def _reforward_greedy(params, arch, prompts, max_new_tokens, scales=None):
    """Reference decoding: re-run the whole prefix for every token, with no
    cache carried between tokens."""
    seqs = np.asarray(prompts)
    for _ in range(max_new_tokens):
        if scales is None:
            logits = forward_batch(params, arch, seqs).logits
        else:
            logits = forward_with_quantized_kv(params, arch, seqs, scales)[0].logits
        seqs = np.concatenate([seqs, np.argmax(logits[:, -1], axis=-1)[:, None]], axis=1)
    return seqs


def test_cached_steps_match_the_full_forward(toy_params, toy_arch):
    arch = _two_window_arch(toy_arch)
    tokens = np.random.default_rng(7).integers(0, 256, size=(2, 20), dtype=np.int64)
    full = forward_batch(toy_params, arch, tokens).logits
    cache = KvCache(toy_params.config, arch, batch=2, length=20)
    pieces, start = [], 0
    # a prefill, a multi-token chunk that wraps the window-4 ring, then single steps
    for n in (5, 7) + (1,) * 8:
        trace = forward_batch(toy_params, arch, tokens[:, start:start + n], cache=cache, start=start)
        pieces.append(trace.logits)
        start += n
    np.testing.assert_allclose(np.concatenate(pieces, axis=1), full, rtol=2e-4, atol=2e-5)


@pytest.mark.parametrize("precision", ["bf16", "fp8"])
def test_generate_batch_matches_reforward_reference(toy_params, toy_arch, precision):
    arch = _two_window_arch(toy_arch)
    prompts = np.random.default_rng(8).integers(2, 256, size=(3, 6), dtype=np.int64)
    scales = None
    if precision == "fp8":
        scales = calibrate_scales(toy_params, arch, prompts)
    cache = KvCache.for_generation(toy_params.config, arch, 3, 6, 16, scales=scales)
    seqs, lengths = generate_batch(toy_params, arch, prompts, 16, end_token=-1, cache=cache)
    np.testing.assert_array_equal(seqs, _reforward_greedy(toy_params, arch, prompts, 16, scales))
    assert lengths.tolist() == [16, 16, 16]
    assert cache.positions == 6 + 15  # the last token is emitted, never fed back


def _concatenated_update(cache, layer, k, v, start):
    """The reference for KvCache.update's result: the slots held before the
    write, concatenated with the new positions as the cache stores them."""
    s = cache._layers[layer]
    held = cache.held(layer)
    if cache.scales is not None:
        k = quantize_roundtrip(k, cache.scales.k_scales[layer])[0]
        v = quantize_roundtrip(v, cache.scales.v_scales[layer])[0]
    return (np.concatenate([s.k[:, :, :held], k], axis=2),
            np.concatenate([s.v[:, :, :held], v], axis=2),
            np.concatenate([s.pos[:held], np.arange(start, start + k.shape[2])]))


@pytest.mark.parametrize("precision", ["bf16", "fp8"])
@pytest.mark.parametrize("layer, writes", [
    (3, (5, 1, 1, 4)),  # a global layer
    (1, (3, 1, 1, 3)),  # a window-8 layer filled to its last slot, not wrapped
    (1, (5, 1, 6, 1)),  # a 6-position chunk that wraps the ring, then a step
])
def test_cache_update_returns_the_concatenated_slots(toy_params, toy_arch, precision, layer,
                                                     writes):
    arch = _two_window_arch(toy_arch)
    cfg = toy_params.config
    scales = QuantScales.unit(cfg.n_layers) if precision == "fp8" else None
    cache = KvCache(cfg, arch, batch=2, length=20, scales=scales)
    n_slots = arch.layers[layer].attention.effective_window(20)
    rng = np.random.default_rng(layer)
    start = 0
    for n in writes:
        shape = (2, cfg.n_kv_heads, n, cfg.head_dim)
        k, v = (rng.standard_normal(shape).astype(np.float32) for _ in range(2))
        want = _concatenated_update(cache, layer, k, v, start)
        got = cache.update(layer, k, v, start)
        for g, w in zip(got, want):
            _same_bytes(g, w)
        # a write that reuses no slot returns views of the slots
        assert np.shares_memory(got[0], cache._layers[layer].k) == (start + n <= n_slots)
        start += n
        cache.positions = start
        # float32 slots: twice the analytic bf16 figure; fp8 codes: the fp8 one
        assert cache.held_bytes() == (2 * kv_bytes_per_sequence(arch, cfg, start, "bf16")
                                      if scales is None
                                      else kv_bytes_per_sequence(arch, cfg, start, "fp8"))


# sha256 of every step's logits in one generate_batch call
DECODE_LOGITS_SHA256 = {
    ("toy", "bf16", 1):
        "502bf3ae29b8c6f59b0b22d363a4dc62c848f5b1ee66e21b69b20d113bc903c3",
    ("toy", "bf16", 5):
        "c60f43f52bdd97c17fa8569494aa1dcb40806521c42745c84387c6d382cb6fe6",
    ("toy", "fp8", 1):
        "381a8bebb8170e502181a5c2c46b9845946598319ac27cd3b39fe0f9461900ba",
    ("toy", "fp8", 5):
        "f3ea6330a4d9076301ba3f9a9772c6ea5d48c8d6d50f7dfa88dd17ba3e6e180b",
    ("two-window", "bf16", 1):
        "3191f2f65ba72013223869532a85909b3b6a82b6f34e9a9e07a54d7d558e2358",
    ("two-window", "bf16", 5):
        "7697b616d76e1cbd709f2ebb1a306236ac7b9eda0ce8a47f36a2a91cb1c411b4",
    ("two-window", "fp8", 1):
        "be48c07fac3963ecb8a5d7e37391c6cb13a397a9912b1b177f9423bb0040eccf",
    ("two-window", "fp8", 5):
        "3d26bdc0435835817722907d7a994844eeb2ac4fba3f41750ccc8e24e3d0d204",
}


@pytest.mark.parametrize("arch_name, precision, batch", sorted(DECODE_LOGITS_SHA256))
def test_decode_steps_keep_their_bits(toy_params, toy_arch, monkeypatch, arch_name, precision,
                                      batch):
    """Every step's logits, prefill included, hashed against constants that
    the model computed before its decode step read cache slots in place and
    made each allowed-expert mask once, so a change of one ulp anywhere in a
    step shows. The toy arch's window-4 rings wrap, and so does the window-8
    ring of _two_window_arch; each runs with a float and an fp8 cache."""
    arch = toy_arch if arch_name == "toy" else _two_window_arch(toy_arch)
    prompts = np.random.default_rng(batch).integers(2, 256, size=(batch, 6), dtype=np.int64)
    scales = calibrate_scales(toy_params, arch, prompts) if precision == "fp8" else None
    digest = hashlib.sha256()
    forward = model_mod.forward_batch

    def hashed(*args, **kwargs):
        trace = forward(*args, **kwargs)
        digest.update(trace.logits.tobytes())
        return trace

    monkeypatch.setattr(model_mod, "forward_batch", hashed)
    cache = KvCache.for_generation(toy_params.config, arch, batch, 6, 20, scales=scales)
    generate_batch(toy_params, arch, prompts, 20, end_token=-1, cache=cache)
    assert digest.hexdigest() == DECODE_LOGITS_SHA256[arch_name, precision, batch]


def test_window_layer_holds_min_of_length_and_window(toy_params, toy_arch):
    arch = _two_window_arch(toy_arch)
    cfg = toy_params.config
    tokens = np.random.default_rng(9).integers(0, 256, size=(1, 14), dtype=np.int64)
    cache = KvCache(cfg, arch, batch=1, length=14)
    forward_batch(toy_params, arch, tokens[:, :3], cache=cache)
    for t in range(3, 14):
        if t > 3:
            forward_batch(toy_params, arch, tokens[:, t - 1:t], cache=cache, start=t - 1)
        for i, spec in enumerate(arch.layers):
            assert cache.held(i) == spec.attention.effective_window(cache.positions)
        # float32 slots: twice the analytic bf16 figure
        assert cache.held_bytes() == 2 * kv_bytes_per_sequence(arch, cfg, cache.positions, "bf16")
    assert cache.stored_dtype == "float32"


def test_cached_forward_validation(toy_params, toy_arch):
    tokens = np.full((2, 4), 5, dtype=np.int64)
    cache = KvCache(toy_params.config, toy_arch, batch=2, length=6)
    with pytest.raises(MismatchError, match="starts at position 0"):
        forward_batch(toy_params, toy_arch, tokens, start=2)
    with pytest.raises(MismatchError, match="forward starts at 1"):
        forward_batch(toy_params, toy_arch, tokens, cache=cache, start=1)
    with pytest.raises(MismatchError, match="sequences"):
        forward_batch(toy_params, toy_arch, tokens[:1], cache=cache)
    with pytest.raises(MismatchError, match="architecture"):
        forward_batch(toy_params, _two_window_arch(toy_arch), tokens, cache=cache)
    forward_batch(toy_params, toy_arch, tokens, cache=cache)
    with pytest.raises(MismatchError, match="at most 6 positions"):
        forward_batch(toy_params, toy_arch, tokens, cache=cache, start=4)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip(tmp_path, toy_params, toy_arch):
    path = tmp_path / "model.bin"
    save_params(toy_params, path)
    loaded = load_params(path)
    assert loaded.config == toy_params.config
    for (name, a), (name2, b) in zip(param_items(toy_params), param_items(loaded)):
        assert name == name2
        np.testing.assert_array_equal(a, b)
    # saving what was loaded writes the same bytes
    assert (saved_sha256(loaded, tmp_path / "again.bin")
            == hashlib.sha256(path.read_bytes()).hexdigest())
    rng = np.random.default_rng(9)
    tokens = rng.integers(0, 256, size=(2, 16), dtype=np.int64)
    np.testing.assert_array_equal(
        forward_batch(loaded, toy_arch, tokens).logits,
        forward_batch(toy_params, toy_arch, tokens).logits,
    )


def test_save_load_keeps_the_expert_stacks_and_the_names_on_disk(tmp_path, toy_params, toy_arch):
    # layer 2 keeps 8 experts, so its stacks and names run to 8
    keep = (0, 3, 4, 6, 9, 10, 13, 15)
    child = assemble(toy_params, toy_arch.with_layer(2, expert_keep_set=keep))
    path = tmp_path / "child.bin"
    save_params(child, path)
    loaded = load_params(path)
    for a, b in zip(child.layers, loaded.layers):
        assert b.expert_ids == a.expert_ids
        for stack in ("w_in", "w_out"):
            x, y = getattr(a, stack), getattr(b, stack)
            assert y.dtype == np.float32 and y.flags.c_contiguous and y.flags.writeable
            np.testing.assert_array_equal(x, y)
    layer_names = ["attn_norm", "wq", "wk", "wv", "wo", "ffn_norm", "router"]
    names = ["embedding"]
    for i, layer in enumerate(child.layers):
        names += [f"layers.{i}.{name}" for name in layer_names]
        for j in range(len(layer.expert_ids)):
            names += [f"layers.{i}.experts.{j}.w_in", f"layers.{i}.experts.{j}.w_out"]
    names += ["final_norm", "lm_head"]
    entries = json.loads(model_mod.manifest_path_for(path).read_text())["entries"]
    assert [e["name"] for e in entries] == names
    shapes = {e["name"]: e["shape"] for e in entries}
    assert shapes["layers.2.experts.7.w_in"] == [64, 32]
    assert shapes["layers.2.experts.7.w_out"] == [32, 64]
    assert "layers.2.experts.8.w_in" not in shapes
    offsets = [e["offset_bytes"] for e in entries]
    assert offsets == sorted(offsets)  # the blob holds the tensors in this order


def test_a_write_that_fails_part_way_leaves_the_old_file(monkeypatch, tmp_path):
    path = tmp_path / "report.json"
    write_atomic(path, "old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    # the new bytes are written, then putting them in place fails
    with monkeypatch.context() as m, pytest.raises(OSError, match="disk full"):
        m.setattr(model_mod.os, "replace", failing_replace)
        write_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    # an artifact writer: the second row cannot be serialized
    table = tmp_path / "scores.jsonl"
    ScoreTable(rows=[ScoreRow(0, "ffn:keep:8", "activation_mse", 0.5)]).save(table)
    kept = table.read_bytes()
    broken = ScoreRow(1, "ffn:keep:8", "activation_mse", object())
    with pytest.raises(TypeError):
        ScoreTable(rows=[ScoreRow(0, "ffn:keep:8", "activation_mse", 0.25), broken]).save(table)
    assert table.read_bytes() == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "scores.jsonl"]


def test_load_detects_corruption(tmp_path, toy_params):
    path = tmp_path / "model.bin"
    save_params(toy_params, path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(MismatchError, match="checksum"):
        load_params(path)
