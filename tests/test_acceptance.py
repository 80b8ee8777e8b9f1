"""End-to-end checks, one test per shipped claim.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
asserts the same condition, so `pytest -v` shows one verdict per criterion.
"""

import math
import time

import numpy as np
import pytest

from archsearch.costs import (
    Budget,
    HardwareProfile,
    Scenario,
    build_cost_table,
    kv_bytes_per_sequence,
    parent_layer_times_ns,
)
from archsearch.kvquant import (
    DECODE_TABLE,
    FINITE_CODES,
    calibrate_scales,
    forward_with_quantized_kv,
    quantize_roundtrip,
    round_up_pow2,
)
from archsearch.library import (
    ArchitectureSpec,
    LibraryMenu,
    assemble,
    build_library,
    parent_spec,
)
from archsearch.metrics import (
    RunRecord,
    accuracy_retention,
    build_frontier,
    bundled_run_records,
    relative_request_rate,
)
from archsearch.model import (
    count_params,
    forward_batch,
    global_attention,
    init_model,
    toy_config,
    window_attention,
)
from archsearch.scoring import (
    SIGNAL_ACTIVATION_MSE,
    SIGNAL_TASK_DROP,
    ScoreRow,
    ScoreTable,
    make_lm_probes,
    rank_experts,
    score_library,
)
from archsearch.search import (
    SelectionProblem,
    VariantChoice,
    brute_force,
    build_selection_problem,
    search_pipeline,
    solve,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_window_conversion_shrinks_kv_cache_38_to_44_pct():
    # a 36-layer model alternating local/global attention; the derived child
    # converts 8 of its 18 global layers to an 8192-token window
    parent_pattern = [
        window_attention(128) if i % 2 == 0 else global_attention() for i in range(36)
    ]
    cfg = toy_config(n_layers=36, attn_pattern=parent_pattern)
    parent = parent_spec(cfg)
    child = parent
    converted = 0
    for i, spec in enumerate(parent.layers):
        if spec.attention.kind == "global" and converted < 8:
            child = child.with_layer(i, attention=window_attention(8192))
            converted += 1

    length = 131072
    t0 = time.perf_counter()
    parent_bytes = kv_bytes_per_sequence(parent, cfg, length, "bf16")
    child_bytes = kv_bytes_per_sequence(child, cfg, length, "bf16")
    elapsed = time.perf_counter() - t0

    per_slot = 2 * cfg.n_kv_heads * cfg.head_dim * 2  # K+V, heads, dim, bf16
    parent_slots = parent_bytes // per_slot
    child_slots = child_bytes // per_slot
    reduction = 100.0 * (1 - child_bytes / parent_bytes)

    ok = (
        parent_slots == 2_361_600
        and child_slots == 1_378_560
        and 38.0 <= reduction <= 44.0
        and elapsed < 1e-3
    )
    _verdict(
        1,
        ok,
        f"cache slots {parent_slots} -> {child_slots}, reduction {reduction:.2f}% "
        f"(closed form in {elapsed * 1e6:.0f}us)",
    )


def test_criterion_2_high_effort_request_rates_match_reference_within_0_015():
    points = build_frontier(bundled_run_records(), "parent", "bf16")
    high = {
        (p.model, p.kv_precision): p.relative_request_rate
        for p in points
        if p.effort == "high"
    }
    want = {
        ("parent", "bf16"): 1.000,
        ("child", "bf16"): 1.490,
        ("reference", "bf16"): 1.288,
        ("parent", "fp8"): 1.401,
        ("child", "fp8"): 2.077,
    }
    diffs = {k: abs(high[k] - v) for k, v in want.items()}
    ok = all(d <= 0.015 for d in diffs.values())
    worst = max(diffs, key=diffs.get)
    _verdict(
        2,
        ok,
        "relative request rates "
        + ", ".join(f"{m}/{p}={high[(m, p)]:.3f}" for m, p in want)
        + f"; worst |diff| {diffs[worst]:.4f} at {worst} (tolerance 0.015)",
    )


def test_criterion_3_fp8_child_retains_parent_accuracy_within_0_1_pp():
    by = {(r.model, r.kv_precision, r.effort): r for r in bundled_run_records()}
    want = {"high": 100.8, "medium": 103.9, "low": 108.2}
    got = {
        e: accuracy_retention(
            by[("child", "fp8", e)].accuracy, by[("parent", "fp8", e)].accuracy
        )
        for e in want
    }
    diffs = {e: abs(got[e] - want[e]) for e in want}
    ok = all(d <= 0.1 for d in diffs.values())
    _verdict(
        3,
        ok,
        "8-bit-cache accuracy retention "
        + ", ".join(f"{e}={got[e]:.2f}%" for e in ("high", "medium", "low"))
        + f" vs {tuple(want.values())} (tolerance 0.1pp)",
    )


def test_criterion_4_selector_matches_exhaustive_search_on_1000_instances():
    rng = np.random.default_rng(7)

    def random_problem():
        n_layers = int(rng.integers(1, 11))
        layers = []
        for i in range(n_layers):
            variants = []
            for j in range(int(rng.integers(1, 5))):
                variants.append(
                    VariantChoice(
                        id=f"v{i}.{j}",
                        degradation=float(np.round(rng.uniform(0, 5), 3)),
                        costs=(int(rng.integers(0, 30)), int(rng.integers(0, 30))),
                    )
                )
            layers.append(tuple(variants))
        tight = rng.uniform(0.4, 1.4)
        cap = max(1, int(15 * n_layers * tight))
        budgets = (
            Budget(name="dim0", limit=cap),
            Budget(name="dim1", limit=max(1, cap // 2 + int(rng.integers(0, 20)))),
        )
        return SelectionProblem(layers=tuple(layers), budgets=budgets)

    t0 = time.perf_counter()
    mismatches = 0
    n_optimal = n_infeasible = 0
    for _ in range(1000):
        problem = random_problem()
        got = solve(problem)
        want = brute_force(problem)
        same = got.status == want.status
        if same and got.is_optimal:
            n_optimal += 1
            same = (
                got.total_degradation == want.total_degradation  # bit-identical
                and got.chosen == want.chosen
                and got.totals == want.totals
            )
        elif same:
            n_infeasible += 1
            same = set(got.binding) == set(want.binding)
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 30.0
    _verdict(
        4,
        ok,
        f"1000 random selection problems ({n_optimal} solvable, {n_infeasible} "
        f"infeasible): {mismatches} disagreements with exhaustive search "
        f"in {elapsed:.2f}s",
    )


def test_criterion_5_scoring_identities_hold_exactly(
    toy_cfg, toy_params, toy_arch, lm_probes_small, retrieval_probes_small
):
    # replacing a block with itself scores exactly zero
    length = lm_probes_small.length
    lib = build_library(toy_cfg, LibraryMenu(alt_windows=(length,)))
    _, table = score_library(toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    parent_mse = table.get(1, toy_arch.layers[1].attention.variant_id,
                           SIGNAL_ACTIVATION_MSE).value
    # a window at least as long as the probes is behaviorally global
    wide = toy_arch.with_layer(1, attention=window_attention(length))
    window_mse = float(np.square(
        forward_batch(toy_params, wide, lm_probes_small.tokens).final_hidden.astype(np.float64)
        - forward_batch(toy_params, toy_arch, lm_probes_small.tokens).final_hidden
    ).mean())
    # an expert the router never used contributes exactly zero; a 4-token
    # probe routes at most 8 of the 16 experts, so some are provably unused
    tiny = make_lm_probes(toy_cfg, count=1, length=4, seed=44)
    scores = rank_experts(toy_params, toy_arch, tiny).layers[0].scores
    zero_scores = [s for s in scores if s == 0.0]

    ok = parent_mse == 0.0 and window_mse <= 1e-10 and len(zero_scores) >= 8
    _verdict(
        5,
        ok,
        f"parent-replacement mse {parent_mse} (exact 0), covering-window mse "
        f"{window_mse:.2e} (<=1e-10), {len(zero_scores)} never-routed experts "
        f"score exactly 0.0",
    )


def test_criterion_6_8bit_cache_codec_is_exact_on_grid_and_never_saturates(
    toy_cfg, toy_params, toy_arch
):
    # every finite code roundtrips exactly under every power-of-two scale
    grid = DECODE_TABLE[FINITE_CODES].astype(np.float64)
    exact = True
    for p in range(-10, 11):
        scale = 2.0**p
        values = (grid * scale).astype(np.float32)
        back, stats = quantize_roundtrip(values, scale)
        exact &= bool(np.array_equal(back, values))
        exact &= stats.n_saturated == 0 and stats.n_nan == 0

    # calibrated scales leave zero saturated values on the calibration set
    tokens = make_lm_probes(toy_cfg, count=8, length=48, seed=33).tokens
    scales = calibrate_scales(toy_params, toy_arch, tokens)
    _, report = forward_with_quantized_kv(toy_params, toy_arch, tokens, scales)

    # the scale rounding always lands in [x, 2x)
    rng = np.random.default_rng(17)
    xs = rng.uniform(1e-9, 1e9, size=10_000)
    in_range = all(x <= round_up_pow2(float(x)) < 2 * x for x in xs)

    ok = exact and report.total_saturated == 0 and in_range
    _verdict(
        6,
        ok,
        f"{len(FINITE_CODES)} codes x 21 scales roundtrip exactly: {exact}; "
        f"saturated after calibration: {report.total_saturated}; "
        f"pow2 rounding within [x,2x) on 10000 draws: {in_range}",
    )


def test_criterion_7_end_to_end_search_finds_the_planted_optimum():
    t0 = time.perf_counter()
    # parent: 8 layers, global attention on layers {1, 2, 5, 6}
    pattern = [
        window_attention(4) if i in (0, 3, 4, 7) else global_attention()
        for i in range(8)
    ]
    cfg = toy_config(attn_pattern=pattern)
    params = init_model(cfg, seed=11)
    arch = parent_spec(cfg)
    lm = make_lm_probes(cfg, count=8, length=48, seed=101)
    ranking = rank_experts(params, arch, lm)
    menu = LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(8,))
    lib = build_library(cfg, menu)

    # a score table with a known structure: converting layers 2 and 5 to
    # windows is nearly free, pruning layers 3 and 4 to 8 experts is nearly
    # free, and every other modification is expensive
    drop = {1: 0.9, 2: 0.05, 5: 0.06, 6: 0.8}
    mse8 = {0: 0.5, 1: 0.7, 2: 0.8, 3: 0.01, 4: 0.02, 5: 0.9, 6: 0.55, 7: 0.6}
    rows = []

    def row(layer, variant, signal, value):
        rows.append(ScoreRow(layer=layer, variant=variant, signal=signal, value=value))

    for layer in range(8):
        parent_attn = arch.layers[layer].attention.variant_id
        row(layer, parent_attn, SIGNAL_TASK_DROP, 0.0)
        row(layer, parent_attn, SIGNAL_ACTIVATION_MSE, 0.0)
        if layer in drop:
            row(layer, "attn:window:8", SIGNAL_TASK_DROP, drop[layer])
            row(layer, "attn:window:8", SIGNAL_ACTIVATION_MSE, drop[layer])
        row(layer, "ffn:keep:16", SIGNAL_ACTIVATION_MSE, 0.0)
        row(layer, "ffn:keep:8", SIGNAL_ACTIVATION_MSE, mse8[layer])
    table = ScoreTable(rows=rows)

    hw = HardwareProfile(mem_bandwidth_bytes_per_s=1e9, compute_flops_per_s=1e12)
    scenario = Scenario(name="long", isl=256, osl=64, batch=8, kv_precision="bf16")
    costs = build_cost_table(cfg, lib, [scenario], hw)

    # the planted optimum: window layers {2, 5}, prune layers {3, 4}
    intended = {}
    for layer in range(8):
        if layer in (2, 5):
            intended[layer] = "attn:window:8+ffn:keep:16"
        elif layer in (3, 4):
            intended[layer] = "attn:window:4+ffn:keep:8"
        else:
            intended[layer] = arch.layers[layer].attention.variant_id + "+ffn:keep:16"
    intended_ns = sum(costs.get(l, v, "long") for l, v in intended.items())
    parent_ns = sum(parent_layer_times_ns(cfg, scenario, hw))
    speedup = parent_ns / intended_ns  # budget lands exactly on the optimum

    result = search_pipeline(
        cfg, lib, table, ranking, [scenario], {"long": speedup}, hw,
        cost_table=costs, attention_signal=SIGNAL_TASK_DROP,
    )
    got = {c["layer"]: c["variant"] for c in result.report["choices"]}

    problem, _ = build_selection_problem(
        cfg, lib, table, [scenario], {"long": speedup}, hw, costs,
        attention_signal=SIGNAL_TASK_DROP,
    )
    exhaustive = brute_force(problem)
    agrees = (
        exhaustive.chosen == result.solution.chosen
        and exhaustive.total_degradation == result.solution.total_degradation
    )

    # the chosen architecture assembles into a runnable smaller model
    child = assemble(params, result.arch)
    per_expert = 2 * cfg.d_model * cfg.expert_hidden
    expected_params = count_params(params) - 2 * (8 * per_expert + 8 * cfg.d_model)
    tokens = make_lm_probes(cfg, count=2, length=16, seed=55).tokens
    logits = forward_batch(child, result.arch, tokens).logits
    runnable = logits.shape == (2, 16, cfg.vocab_size) and np.all(np.isfinite(logits))
    elapsed = time.perf_counter() - t0

    ok = (
        got == intended
        and agrees
        and count_params(child) == expected_params
        and runnable
        and elapsed < 60.0
    )
    _verdict(
        7,
        ok,
        f"search picked windows on layers (2, 5) and pruning on (3, 4): "
        f"{got == intended}; matches exhaustive search: {agrees}; child has "
        f"{count_params(child)} params (expected {expected_params}) and runs; "
        f"{elapsed:.2f}s end to end",
    )


def test_criterion_8_request_rate_ratio_is_scale_invariant():
    base = RunRecord(model="a", kv_precision="bf16", effort="high",
                     throughput_tokens_per_s=1234.0, avg_tokens_per_request=321.0)
    scaled = RunRecord(model="b", kv_precision="bf16", effort="high",
                       throughput_tokens_per_s=2468.0, avg_tokens_per_request=642.0)
    ratio = relative_request_rate(scaled, base)
    ok = ratio == 1.0
    _verdict(
        8,
        ok,
        f"doubling throughput and response length together keeps the relative "
        f"request rate at exactly {ratio}",
    )
