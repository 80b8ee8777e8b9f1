"""Per-layer figures: sums over the traced spans, and per-block forward times
measured from outside on one-layer models."""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

from archsearch.costs import HardwareProfile, Scenario, block_time_cost
from archsearch.library import ArchitectureSpec, BlockVariant, LayerBlockSpec
from archsearch.model import (
    forward_batch, global_attention, init_model, toy_config, window_attention,
)
from archsearch.scoring import make_lm_probes
from tracer import Tracer

ATTENTIONS = {"global": None, "w64": 64, "w16": 16, "w4": 4}
KEEPS = (16, 8, 4)
RUNGS = (8, 10, 12)


def span_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Each layer's figures per traced round, as {name: (value, unit)}."""
    own = tracer.self_seconds()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[tuple[str, str], int] = {}
    scoring_forwards = generate_positions = generate_values = 0
    forward_self = 0.0
    for i, span in enumerate(tracer.spans):
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            count[(span.name, key)] = count.get((span.name, key), 0) + value
        if span.name == "model.forward":
            forward_self += own[i]
            if tracer.under(i, "scoring."):
                scoring_forwards += 1
            if tracer.under(i, "model.generate"):
                generate_positions += span.counts["positions"]
        if span.name == "kvquant.encode" and tracer.under(i, "model.generate"):
            generate_values += span.counts["values"]

    def per_round(x):
        return x / rounds

    def secs(name):
        return (per_round(total.get(name, 0.0)), "s")

    def counted(x):
        return (per_round(x), "count")

    solve_names = [n for n in total if n.startswith("search.solve.d")]
    solve_s = sum(total[n] for n in solve_names)
    nodes = sum(count.get((n, "nodes"), 0) for n in solve_names)
    tokens = count.get(("model.generate", "tokens"), 0)
    m = {f"cli.{stage}_s": secs(f"cli.{stage}") for stage in (
        "score", "search", "assemble", "quantize", "eval_bf16", "eval_fp8", "frontier")}
    m.update({
        "scoring.rank_experts_s": secs("scoring.rank_experts"),
        "scoring.score_library_s": secs("scoring.score_library"),
        "scoring.forward_calls": counted(scoring_forwards),
        "model.forward_self_s": (per_round(forward_self), "s"),
        "model.forward_calls": counted(calls.get("model.forward", 0)),
        "model.forward_positions": counted(count.get(("model.forward", "positions"), 0)),
        "model.generate_s": secs("model.generate"),
        "model.generated_tokens": counted(tokens),
        "model.positions_per_token": (generate_positions / tokens if tokens else 0.0, "ratio"),
        "model.load_params_s": secs("model.load_params"),
        "model.save_params_s": secs("model.save_params"),
        "kvquant.calibrate_s": secs("kvquant.calibrate"),
        "kvquant.encode_s": secs("kvquant.encode"),
        "kvquant.encode_calls": counted(calls.get("kvquant.encode", 0)),
        "kvquant.encoded_values": counted(count.get(("kvquant.encode", "values"), 0)),
        "kvquant.values_per_token": (generate_values / tokens if tokens else 0.0, "ratio"),
        "search.solve_s": (per_round(solve_s), "s"),
        "search.solve_calls": counted(sum(calls[n] for n in solve_names)),
        "search.nodes_expanded": counted(nodes),
        "search.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "search.build_problem_s": secs("search.build_problem"),
        "costs.build_cost_table_s": secs("costs.build_cost_table"),
        "library.build_library_s": secs("library.build_library"),
        "library.assemble_s": secs("library.assemble"),
        "manifest.record_stage_s": secs("manifest.record_stage"),
        "metrics.build_frontier_s": secs("metrics.build_frontier"),
    })
    for rung in RUNGS:
        m[f"search.solve_s.d{rung}"] = secs(f"search.solve.d{rung}")
        m[f"search.nodes_expanded.d{rung}"] = counted(count.get((f"search.solve.d{rung}",
                                                                 "nodes"), 0))
    return m


def block_seconds(seed: int, repeats: int = 7) -> dict[str, float]:
    """Median seconds of one forward of a one-layer model of each (attention,
    keep count) variant on the toy config's scoring probe shape (24 x 96)."""
    out = {}
    for attn_name, window in ATTENTIONS.items():
        attn = global_attention() if window is None else window_attention(window)
        config = toy_config(n_layers=1, attn_pattern=(attn,))
        params = init_model(config, seed)
        tokens = make_lm_probes(config, 24, 96, seed).tokens
        for keep in KEEPS:
            arch = ArchitectureSpec((LayerBlockSpec(attn, tuple(range(keep))),))
            forward_batch(params, arch, tokens)
            times = []
            for _ in range(repeats):
                t0 = perf_counter()
                forward_batch(params, arch, tokens)
                times.append(perf_counter() - t0)
            out[f"model.block_s.{attn_name}.k{keep}"] = statistics.median(times)
    return out


def _ranks(values: list[float]) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(order):  # tied values share their mean rank
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(a: list[float], b: list[float]) -> float:
    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra * ra).sum() * (rb * rb).sum()))
    return float((ra * rb).sum() / denom) if denom else 0.0


def rank_correlations(blocks: dict[str, float], toy_config_path) -> dict[str, float]:
    """Rank correlation of the measured block times with the analytic
    block_time_cost, per scenario of the toy run config."""
    cfg = json.loads(toy_config_path.read_text())
    hw = HardwareProfile.from_json(cfg["hardware"])
    config = toy_config()
    names, measured = list(blocks), list(blocks.values())
    out = {}
    for s in cfg["scenarios"]:
        scenario = Scenario.from_json(s)
        analytic = []
        for name in names:
            _, _, attn_name, keep = name.split(".")
            window = ATTENTIONS[attn_name]
            attn = global_attention() if window is None else window_attention(window)
            analytic.append(block_time_cost(config, BlockVariant(attn, int(keep[1:])),
                                            scenario, hw))
        out[f"costs.rank_corr.{scenario.name}"] = spearman(measured, analytic)
    return out
