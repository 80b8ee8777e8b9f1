import json

import pytest

from archsearch.costs import (
    KV_BYTES,
    HardwareProfile,
    Scenario,
    block_time_cost,
    build_cost_table,
    kv_bytes_layer,
    kv_bytes_per_sequence,
    load_measured_costs,
    parent_layer_times_ns,
    prefill_context_sum,
    scenario_time_budget,
    time_ns,
)
from archsearch.library import BlockVariant, LibraryMenu, build_library
from archsearch.model import ConfigError, global_attention, window_attention

HW = HardwareProfile(mem_bandwidth_bytes_per_s=1e9, compute_flops_per_s=1e12)
LONG = Scenario(name="long", isl=256, osl=64, batch=8, kv_precision="bf16")


def variant(attn, keep):
    return BlockVariant(attention=attn, keep_count=keep)


# ---------------------------------------------------------------------------
# kv cache size


def test_kv_bytes_layer_hand_arithmetic(toy_cfg):
    # 2 tensors (K and V) * n_kv_heads * head_dim * bytes * cached length
    assert kv_bytes_layer(global_attention(), toy_cfg, length=100, precision="bf16") \
        == 2 * 2 * 16 * 2 * 100
    # a window caps the cached length at W
    assert kv_bytes_layer(window_attention(8), toy_cfg, length=100, precision="bf16") \
        == 2 * 2 * 16 * 2 * 8
    # but a short sequence never pays for the unused part of the window
    assert kv_bytes_layer(window_attention(256), toy_cfg, length=100, precision="bf16") \
        == 2 * 2 * 16 * 2 * 100
    # 8-bit cache halves it
    assert kv_bytes_layer(global_attention(), toy_cfg, length=100, precision="fp8") \
        == 2 * 2 * 16 * 1 * 100


def test_kv_bytes_per_sequence_sums_layers(toy_cfg, toy_arch):
    total = kv_bytes_per_sequence(toy_arch, toy_cfg, length=64, precision="bf16")
    per_layer = [
        kv_bytes_layer(spec.attention, toy_cfg, 64, "bf16") for spec in toy_arch.layers
    ]
    assert total == sum(per_layer)
    assert set(KV_BYTES) == {"bf16", "fp8"}


# ---------------------------------------------------------------------------
# time model


def test_prefill_context_sum_matches_loop():
    for isl in (1, 5, 64, 257):
        for window in (None, 1, 3, 64, 500):
            want = sum(min(t + 1, window) if window else t + 1 for t in range(isl))
            assert prefill_context_sum(isl, window) == want


def test_window_conversion_never_costs_more(toy_cfg):
    t_parent = block_time_cost(toy_cfg, variant(global_attention(), 16), LONG, HW)
    t_window = block_time_cost(toy_cfg, variant(window_attention(16), 16), LONG, HW)
    assert 0 < t_window < t_parent


def test_pruning_experts_never_costs_more(toy_cfg):
    t_full = block_time_cost(toy_cfg, variant(global_attention(), 16), LONG, HW)
    t_pruned = block_time_cost(toy_cfg, variant(global_attention(), 4), LONG, HW)
    assert 0 < t_pruned < t_full


def test_decode_active_experts_saturate_at_batch_times_topk(toy_cfg):
    # one sequence activates at most top_k experts per decode step, so the
    # keep-16 vs keep-4 gap nearly vanishes at batch 1 (only the router and
    # prefill still differ) while a full batch pays for every extra expert
    one = Scenario(name="one", isl=8, osl=8, batch=1, kv_precision="bf16")
    eight = Scenario(name="eight", isl=8, osl=8, batch=8, kv_precision="bf16")
    gap_one = (block_time_cost(toy_cfg, variant(global_attention(), 16), one, HW)
               - block_time_cost(toy_cfg, variant(global_attention(), 4), one, HW))
    gap_eight = (block_time_cost(toy_cfg, variant(global_attention(), 16), eight, HW)
                 - block_time_cost(toy_cfg, variant(global_attention(), 4), eight, HW))
    assert 0 <= gap_one < gap_eight / 10


def test_overheads_and_devices_scale_time(toy_cfg):
    v = variant(global_attention(), 16)
    base = block_time_cost(toy_cfg, v, LONG, HW)
    two_dev = HardwareProfile(mem_bandwidth_bytes_per_s=1e9, compute_flops_per_s=1e12,
                              n_devices=2)
    assert block_time_cost(toy_cfg, v, LONG, two_dev) == pytest.approx(base / 2, rel=1e-9)
    padded = HardwareProfile(mem_bandwidth_bytes_per_s=1e9, compute_flops_per_s=1e12,
                             per_layer_overhead_s=1e-3)
    assert block_time_cost(toy_cfg, v, LONG, padded) == pytest.approx(base + 1e-3, rel=1e-9)


# ---------------------------------------------------------------------------
# budgets


def test_budget_exact_at_speedup_one(toy_cfg):
    budget = scenario_time_budget(toy_cfg, LONG, HW, target_speedup=1.0)
    assert budget.name == "time:long"
    assert budget.limit == sum(parent_layer_times_ns(toy_cfg, LONG, HW))


def test_budget_shrinks_with_speedup_and_respects_constant_overhead(toy_cfg):
    hw = HardwareProfile(mem_bandwidth_bytes_per_s=1e9, compute_flops_per_s=1e12,
                         constant_overhead_s=1e-3)
    parent_ns = sum(parent_layer_times_ns(toy_cfg, LONG, hw))
    b = scenario_time_budget(toy_cfg, LONG, hw, target_speedup=2.0)
    const_ns = 1_000_000
    assert b.limit == round((parent_ns + const_ns) / 2.0) - const_ns
    with pytest.raises(ConfigError, match="target_speedup"):
        scenario_time_budget(toy_cfg, LONG, hw, target_speedup=0.0)


# ---------------------------------------------------------------------------
# cost table files


def test_cost_table_roundtrip_bit_exact(tmp_path, toy_cfg):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.25), alt_windows=(16,)))
    table = build_cost_table(toy_cfg, lib, [LONG], HW)
    path = tmp_path / "costs.jsonl"
    table.save(path)
    # costs.jsonl is read back by the --measured-costs rule; integers roundtrip exactly
    assert load_measured_costs(path) == table.entries


def test_measured_costs_override_and_later_lines_win(tmp_path, toy_cfg):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0,), alt_windows=(16,)))
    analytic = build_cost_table(toy_cfg, lib, [LONG], HW)
    key = (1, "attn:window:16+ffn:keep:16", "long")  # layer 1 starts global
    path = tmp_path / "measured.jsonl"
    rows = [
        {"layer": 1, "variant": "attn:window:16+ffn:keep:16", "scenario": "long",
         "time_ns": 111},
        {"layer": 1, "variant": "attn:window:16+ffn:keep:16", "scenario": "long",
         "time_ns": 222},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    measured = load_measured_costs(path)
    table = build_cost_table(toy_cfg, lib, [LONG], HW, measured=measured)
    assert table.entries[key] == 222
    untouched = (3, "attn:global+ffn:keep:16", "long")
    assert table.entries[untouched] == analytic.entries[untouched]


def test_measured_costs_schema_errors_name_the_line(tmp_path):
    cases = [
        ('{"layer": 0, "variant": "v", "scenario": "s"}\n', "time_ns"),
        ('{"layer": -1, "variant": "v", "scenario": "s", "time_ns": 5}\n', "layer"),
        ('{"layer": 0, "variant": "v", "scenario": "s", "time_ns": 1.5}\n', "time_ns"),
        ("{broken\n", "line 1"),
    ]
    for text, needle in cases:
        path = tmp_path / "m.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigError, match=needle):
            load_measured_costs(path)


FOUND_LINE = {"layer": True, "variant": 5, "scenario": "long", "time_ns": 3, "bogus": 1}


@pytest.mark.parametrize("line, message", [
    (FOUND_LINE, "bogus is not a cost line field"),
    ({k: v for k, v in FOUND_LINE.items() if k != "bogus"}, "layer must be an integer, got True"),
    ({"layer": 1, "variant": 5, "scenario": "long", "time_ns": 3},
     "variant must be a string, got 5"),
    ({"layer": 1, "variant": "v", "scenario": "long", "time_ns": -2},
     "time_ns must be non-negative, got -2"),
    ({"layer": 1, "variant": "v", "scenario": "long", "time_ns": 3, "kv_bytes_per_seq": 64},
     "kv_bytes_per_seq is not a cost line field"),
    ({"layer": 1, "variant": "v", "scenario": "long", "time_ns": 3, "weight_bytes": 4},
     "weight_bytes is not a cost line field"),
], ids=["unknown-key", "layer-bool", "variant-number", "negative-cost", "kv-bytes-key",
        "weight-bytes-key"])
def test_measured_cost_lines_name_the_bad_field(tmp_path, line, message):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"layer": 0, "variant": "v", "scenario": "s", "time_ns": 1})
                    + "\n" + json.dumps(line) + "\n")
    with pytest.raises(ConfigError) as exc:
        load_measured_costs(path)
    assert str(exc.value) == f"{message} (in {path} line 2)"


def test_cost_table_lines_need_every_cost(tmp_path):
    path = tmp_path / "costs.jsonl"
    path.write_text(json.dumps({"layer": 0, "variant": "v", "scenario": "s"}) + "\n")
    with pytest.raises(ConfigError, match=r"^time_ns is missing \(in .* line 1\)$"):
        load_measured_costs(path)


def test_unmatched_measured_key_is_an_error(tmp_path, toy_cfg):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0,), alt_windows=(16,)))
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"layer": 1, "variant": "attn:window:999+ffn:keep:16",
                                "scenario": "long", "time_ns": 7}) + "\n")
    with pytest.raises(ConfigError, match="attn:window:999"):
        build_cost_table(toy_cfg, lib, [LONG], HW, measured=load_measured_costs(path))


# ---------------------------------------------------------------------------
# input validation


def test_scenario_validation():
    with pytest.raises(ConfigError, match="isl"):
        Scenario(name="s", isl=0, osl=4, batch=1, kv_precision="bf16")
    with pytest.raises(ConfigError, match="kv_precision|precision"):
        Scenario(name="s", isl=4, osl=4, batch=1, kv_precision="int8")
    s = Scenario.from_json({"name": "s", "isl": 4, "osl": 4, "batch": 2,
                            "kv_precision": "fp8"})
    assert s.batch == 2 and s.kv_precision == "fp8"


def test_hardware_validation():
    with pytest.raises(ConfigError, match="mem_bandwidth"):
        HardwareProfile(mem_bandwidth_bytes_per_s=0, compute_flops_per_s=1.0)
    with pytest.raises(ConfigError, match="n_devices"):
        HardwareProfile(mem_bandwidth_bytes_per_s=1.0, compute_flops_per_s=1.0, n_devices=0)


def test_cost_table_entry_is_the_analytic_time(toy_cfg):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0,), alt_windows=(16,)))
    table = build_cost_table(toy_cfg, lib, [LONG], HW)
    entry = table.get(1, "attn:global+ffn:keep:16", "long")
    assert type(entry) is int and entry > 0
    assert entry == time_ns(block_time_cost(toy_cfg, variant(global_attention(), 16), LONG, HW))
    with pytest.raises(KeyError, match="no cost entry"):
        table.get(99, "attn:global+ffn:keep:16", "long")
