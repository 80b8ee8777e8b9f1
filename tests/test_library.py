import numpy as np
import pytest

from archsearch.library import (
    ArchitectureSpec,
    BlockVariant,
    ExpertRanking,
    LayerBlockSpec,
    LayerRanking,
    LibraryMenu,
    assemble,
    assembled_spec,
    build_library,
    keep_counts_from_fractions,
    parent_spec,
    prune_layer,
)
from archsearch.model import (
    ConfigError,
    MismatchError,
    count_params,
    forward_batch,
    global_attention,
    init_model,
    to_json,
    toy_config,
    window_attention,
)


# ---------------------------------------------------------------------------
# specs


def test_layer_block_spec_canonicalizes_keep_set():
    spec = LayerBlockSpec(attention=global_attention(), expert_keep_set=(3, 1, 2))
    assert spec.expert_keep_set == (1, 2, 3)
    assert spec.experts_kept == 3
    with pytest.raises(ConfigError):
        LayerBlockSpec(attention=global_attention(), expert_keep_set=(1, 1, 2))


def test_parent_spec_mirrors_config(toy_cfg):
    arch = parent_spec(toy_cfg)
    assert len(arch.layers) == toy_cfg.n_layers
    for i, spec in enumerate(arch.layers):
        assert spec.attention == toy_cfg.attn_pattern[i]
        assert spec.expert_keep_set == tuple(range(toy_cfg.n_experts))


def test_with_layer_replaces_only_named_layer(toy_arch):
    modified = toy_arch.with_layer(3, attention=window_attention(9))
    assert modified.layers[3].attention == window_attention(9)
    assert modified.layers[3].expert_keep_set == toy_arch.layers[3].expert_keep_set
    for i in (0, 1, 2, 4, 5, 6, 7):
        assert modified.layers[i] == toy_arch.layers[i]


def test_architecture_json_roundtrip(tmp_path, toy_arch):
    modified = toy_arch.with_layer(2, expert_keep_set=(0, 3, 5, 7)).with_layer(
        5, attention=window_attention(16)
    )
    path = tmp_path / "arch.json"
    modified.save(path)
    assert ArchitectureSpec.load(path) == modified
    obj = to_json(modified)
    del obj["layers"][2]["experts_kept"]  # a derived key may be left out
    assert ArchitectureSpec.from_json(obj) == modified


# ---------------------------------------------------------------------------
# menu -> library


def test_keep_counts_from_fractions_rounds_and_dedupes():
    assert keep_counts_from_fractions(16, (1.0, 0.5, 0.25), top_k=2) == (16, 8, 4)
    # 0.26 * 16 = 4.16 rounds to 4; duplicate collapses
    assert keep_counts_from_fractions(16, (0.25, 0.26), top_k=2) == (16, 4)
    with pytest.raises(ConfigError, match="top_k"):
        keep_counts_from_fractions(16, (0.05,), top_k=2)  # rounds to 1 expert
    with pytest.raises(ConfigError):
        LibraryMenu(keep_fractions=(0.0,))
    with pytest.raises(ConfigError):
        LibraryMenu(keep_fractions=(1.5,))


def test_build_library_offers_windows_only_on_global_layers(toy_cfg):
    menu = LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(64, 16))
    lib = build_library(toy_cfg, menu)
    assert lib.n_layers == toy_cfg.n_layers
    for i, layer in enumerate(lib.layers):
        assert layer.attention_options[0] == toy_cfg.attn_pattern[i]  # parent first
        if toy_cfg.attn_pattern[i].kind == "global":
            assert layer.attention_options == (
                global_attention(),
                window_attention(64),
                window_attention(16),
            )
        else:
            assert layer.attention_options == (toy_cfg.attn_pattern[i],)
        assert layer.keep_counts == (16, 8)


def test_block_variant_ids():
    v = BlockVariant(attention=window_attention(64), keep_count=8)
    assert v.variant_id == "attn:window:64+ffn:keep:8"
    assert BlockVariant(global_attention(), 16).variant_id == "attn:global+ffn:keep:16"


def test_block_variants_attention_major_order(toy_cfg):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(16,)))
    ids = [v.variant_id for v in lib.layers[1].block_variants()]
    assert ids == [
        "attn:global+ffn:keep:16",
        "attn:global+ffn:keep:8",
        "attn:window:16+ffn:keep:16",
        "attn:window:16+ffn:keep:8",
    ]


# ---------------------------------------------------------------------------
# expert ranking


def test_expert_ranking_prefix_keep_sets(tmp_path):
    ranking = ExpertRanking((LayerRanking(order=(3, 0, 2, 1), scores=(0.9, 0.5, 0.2, 0.1)),))
    assert ranking.keep_set(0, 2) == (0, 3)  # prefix {3, 0}, sorted by id
    assert ranking.keep_set(0, 4) == (0, 1, 2, 3)
    with pytest.raises(ConfigError):
        ranking.keep_set(0, 5)
    path = tmp_path / "ranking.json"
    ranking.save(path)
    assert ExpertRanking.load(path) == ranking


ARCH_LAYER = {"attention": {"kind": "global"}, "experts_kept": 2, "expert_keep_set": [0, 3]}
RANKING_LAYER = {"order": [3, 0], "scores": [0.9, 0.5]}


@pytest.mark.parametrize("cls, obj, message", [
    (ExpertRanking, [], "expert ranking must be a JSON object"),
    (ExpertRanking, {"layers": [{**RANKING_LAYER, "order": [3, 1.9]}]},
     "layers[0].order[1] must be an integer, got 1.9"),
    (ExpertRanking, {"layers": [{**RANKING_LAYER, "order": [3, "0"]}]},
     "layers[0].order[1] must be an integer, got '0'"),
    (ExpertRanking, {"layers": [{**RANKING_LAYER, "scores": [0.9]}]},
     "layers[0].scores must have one entry per expert in order"),
    (ArchitectureSpec, {"layers": [{**ARCH_LAYER, "expert_keep_set": [0, 1.7]}]},
     "layers[0].expert_keep_set[1] must be an integer, got 1.7"),
    (ArchitectureSpec, {"layers": [{**ARCH_LAYER, "expert_keep_set": [0, "2"]}]},
     "layers[0].expert_keep_set[1] must be an integer, got '2'"),
    (ArchitectureSpec, {"layers": [ARCH_LAYER, {**ARCH_LAYER, "experts_kept": 3}]},
     "layers[1].experts_kept must be 2 to agree with the other fields, got 3"),
    (ArchitectureSpec, {"layers": [{**ARCH_LAYER, "attention": {"kind": "window"}}]},
     "layers[0].attention.window_size must be a positive int, got None"),
], ids=[
    "ranking-list", "order-float", "order-string", "scores-short",
    "keep-set-float", "keep-set-string", "experts-kept-disagrees", "window-without-size",
])
def test_ranking_and_arch_files_name_the_bad_field(cls, obj, message):
    with pytest.raises(ConfigError) as exc:
        cls.from_json(obj)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# pruning and assembly


def test_prune_layer_selects_router_rows_and_experts(toy_params):
    layer = toy_params.layers[0]
    keep = (1, 4, 9, 13)
    pruned = prune_layer(layer, keep)
    assert pruned.expert_ids == keep
    assert pruned.router.shape == (4, 64)
    for row, eid in enumerate(keep):
        np.testing.assert_array_equal(pruned.router[row], layer.router[eid])
        np.testing.assert_array_equal(pruned.w_in[row], layer.w_in[eid])
        np.testing.assert_array_equal(pruned.w_out[row], layer.w_out[eid])
    # originals untouched, copies independent
    pruned.router[0, 0] += 1.0
    assert layer.router[1, 0] != pruned.router[0, 0]


def test_prune_layer_rejects_unknown_ids(toy_params):
    with pytest.raises(MismatchError):
        prune_layer(toy_params.layers[0], (1, 99))


def test_assemble_drops_weights_and_preserves_behavior(toy_cfg, toy_params, toy_arch):
    keep = tuple(range(0, 16, 2))  # 8 experts on layers 2 and 5
    arch = toy_arch.with_layer(2, expert_keep_set=keep).with_layer(5, expert_keep_set=keep)
    child = assemble(toy_params, arch)

    # parameter arithmetic: each pruned layer loses 8 experts and 8 router rows
    per_expert = 2 * toy_cfg.d_model * toy_cfg.expert_hidden
    expect = count_params(toy_params) - 2 * (8 * per_expert + 8 * toy_cfg.d_model)
    assert count_params(child) == expect

    # the child behaves exactly like the parent restricted to the same arch
    rng = np.random.default_rng(17)
    tokens = rng.integers(0, toy_cfg.vocab_size, size=(2, 24), dtype=np.int64)
    want = forward_batch(toy_params, arch, tokens).logits
    got = forward_batch(child, assembled_spec(child), tokens).logits
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_assembled_spec_reads_back_architecture(toy_params, toy_arch):
    arch = toy_arch.with_layer(1, attention=window_attention(16),
                               expert_keep_set=(0, 2, 5, 11))
    child = assemble(toy_params, arch)
    spec = assembled_spec(child)
    assert spec.layers[1].attention == window_attention(16)
    assert spec.layers[1].expert_keep_set == (0, 2, 5, 11)
    assert spec.layers[0] == toy_arch.layers[0]


def test_assemble_rejects_too_few_experts(toy_params, toy_arch):
    with pytest.raises(MismatchError, match="top_k"):
        assemble(toy_params, toy_arch.with_layer(0, expert_keep_set=(3,)))
