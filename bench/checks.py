"""Correctness checks computed apart from the program.

Every check reads what the program wrote (run-directory files, or a
`Solution`) and either recomputes it with code of its own or tests a property
the method must have. A check raises `CheckError` naming what is wrong; it
never returns a verdict to be ignored. None of this runs inside a timed
section.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _read_json(path: Path):
    return json.loads(Path(path).read_text())


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# run configuration, read as plain JSON


def attn_id(attn: dict) -> str:
    return "attn:global" if attn["kind"] == "global" else f"attn:window:{attn['window_size']}"


def model_shape(run: Path) -> dict:
    """The parent's model config, as score wrote it into params.bin.json."""
    m = dict(_read_json(run / "params.bin.json")["config"])
    m["attn_ids"] = [attn_id(a) for a in m["attn_pattern"]]
    return m


def layer_variants(run: Path, cfg: dict) -> list[list[tuple[str, int]]]:
    """Per layer, its (attention id, keep count) blocks in menu order: parent
    attention first then the alternative windows (global layers only), and
    within each the parent keep count first then descending."""
    m = model_shape(run)
    lib = cfg.get("library", {})
    n = m["n_experts"]
    counts = sorted({int(round(f * n)) for f in lib.get("keep_fractions", [1.0])} | {n},
                    reverse=True)
    out = []
    for attn in m["attn_ids"]:
        attns = [attn]
        if attn == "attn:global":
            attns += [f"attn:window:{w}" for w in lib.get("alt_windows", [])]
        out.append([(a, c) for a in attns for c in counts])
    return out


# ---------------------------------------------------------------------------
# pipeline artifacts


def check_manifest_hashes(run: Path) -> None:
    """Every output hash recorded in manifest.json equals a fresh sha256 of the file."""
    stages = _read_json(run / "manifest.json")["stages"]
    require(bool(stages), "manifest.json records no stages")
    for stage, entry in stages.items():
        for name, stamp in entry["outputs"].items():
            digest = hashlib.sha256((run / stamp["path"]).read_bytes()).hexdigest()
            require(digest == stamp["sha256"],
                    f"manifest {stage}.{name}: recorded hash differs from {stamp['path']}")


def check_scores(run: Path) -> None:
    """Every score is >= 0, and every parent block scores exactly 0."""
    m = model_shape(run)
    rows = _read_jsonl(run / "scores.jsonl")
    require(bool(rows), "scores.jsonl is empty")
    parent_ffn = f"ffn:keep:{m['n_experts']}"
    for r in rows:
        require(r["value"] >= 0.0, f"score below 0: {r['layer']} {r['variant']} {r['signal']}")
        if r["variant"] in (m["attn_ids"][r["layer"]], parent_ffn):
            require(r["value"] == 0.0,
                    f"parent block {r['layer']} {r['variant']} {r['signal']} scores {r['value']}")


def _minmax(values: list[float]):
    lo, hi = min(values), max(values)
    span = hi - lo
    return lambda v: 0.0 if span <= 0.0 else (v - lo) / span


def selection_instance(run: Path, cfg: dict, signal: str):
    """The knapsack as the search stage documents it, rebuilt from scores.jsonl
    and costs.jsonl: per-layer degradations (attention score plus FFN score,
    each min-max normalized over its signal) and integer time costs, with the
    time budgets the targets imply."""
    rows = _read_jsonl(run / "scores.jsonl")
    score = {(r["layer"], r["variant"], r["signal"]): r["value"] for r in rows}
    norm_attn = _minmax([r["value"] for r in rows if r["signal"] == signal])
    norm_ffn = _minmax([r["value"] for r in rows
                        if r["signal"] == "activation_mse" and r["variant"].startswith("ffn:")])
    cost = {(c["layer"], c["variant"], c["scenario"]): c["time_ns"]
            for c in _read_jsonl(run / "costs.jsonl")}
    scenarios = [s["name"] for s in cfg["scenarios"]]
    degs, costs = [], []
    for i, blocks in enumerate(layer_variants(run, cfg)):
        degs.append([norm_attn(score[(i, a, signal)])
                     + norm_ffn(score[(i, f"ffn:keep:{c}", "activation_mse")])
                     for a, c in blocks])
        costs.append([[cost[(i, f"{a}+ffn:keep:{c}", s)] for s in scenarios] for a, c in blocks])
    const = int(round(cfg["hardware"].get("constant_overhead_s", 0.0) * 1e9))
    limits = []
    for k, s in enumerate(scenarios):
        parent_total = sum(layer_costs[0][k] for layer_costs in costs)
        limits.append(max(0, int(round((parent_total + const) / cfg["targets"][s])) - const))
    return degs, costs, limits


def enumerate_optimum(degs, costs, limits):
    """Exhaustive search; returns (objective, choice vector) of the
    lexicographically smallest optimum, or None when nothing fits."""
    d = len(limits)
    total = np.zeros(1)
    spent = np.zeros((1, d), dtype=np.int64)
    for layer_degs, layer_costs in zip(degs, costs):
        total = (total[:, None] + np.asarray(layer_degs)[None, :]).reshape(-1)
        spent = (spent[:, None, :] + np.asarray(layer_costs, dtype=np.int64)[None]).reshape(-1, d)
    fits = np.all(spent <= np.asarray(limits, dtype=np.int64), axis=1)
    if not fits.any():
        return None
    masked = np.where(fits, total, np.inf)
    flat = int(np.flatnonzero(masked == masked.min())[0])
    return float(total[flat]), tuple(int(i) for i in np.unravel_index(flat, [len(x) for x in degs]))


def check_arch(run: Path, cfg: dict, signal: str) -> None:
    """arch.json is the lexicographically smallest optimum of the benchmark's
    own enumeration, with each keep set the ranking's top experts."""
    degs, costs, limits = selection_instance(run, cfg, signal)
    found = enumerate_optimum(degs, costs, limits)
    require(found is not None, "enumeration finds no feasible selection")
    objective, choice = found
    arch = _read_json(run / "arch.json")["layers"]
    orders = [layer["order"] for layer in _read_json(run / "ranking.json")["layers"]]
    blocks = layer_variants(run, cfg)
    require(len(arch) == len(blocks), f"arch.json has {len(arch)} layers, expected {len(blocks)}")
    for i, (spec, j) in enumerate(zip(arch, choice)):
        attn, keep = blocks[i][j]
        require(attn_id(spec["attention"]) == attn and spec["experts_kept"] == keep,
                f"layer {i}: arch.json picks {attn_id(spec['attention'])} keep "
                f"{spec['experts_kept']}, the optimum is {attn} keep {keep}")
        require(spec["expert_keep_set"] == sorted(orders[i][:keep]),
                f"layer {i}: keep set is not the ranking's top {keep} experts")
    report = _read_json(run / "search_report.json")
    require(report["objective"] == objective,
            f"search objective {report['objective']!r} != enumerated optimum {objective!r}")
    require([b["limit"] for b in report["budgets"]] == limits,
            f"search budgets {[b['limit'] for b in report['budgets']]} != {limits}")


def expected_param_count(m: dict, arch_layers: list[dict]) -> int:
    d, hd = m["d_model"], m["head_dim"]
    n = 2 * m["vocab_size"] * d + d  # embedding, LM head, final norm
    for spec in arch_layers:
        keep = spec["experts_kept"]
        n += 2 * d + d * hd * (2 * m["n_heads"] + 2 * m["n_kv_heads"])
        n += keep * d + keep * 2 * d * m["expert_hidden"]
    return n


def check_child_params(run: Path) -> None:
    """The child's parameter count equals arithmetic over arch.json."""
    want = expected_param_count(model_shape(run), _read_json(run / "arch.json")["layers"])
    got = _read_json(run / "assemble_report.json")["child_params"]
    require(got == want, f"assemble_report child_params {got} != {want}")
    size = (run / "child.bin").stat().st_size
    require(size == 4 * want, f"child.bin holds {size // 4} floats, expected {want}")


def check_frontier(run: Path) -> None:
    """request rate = throughput / tokens per request; the baseline row is 1.0."""
    rows = _read_json(run / "frontier.json")
    require(bool(rows), "frontier.json is empty")
    for r in rows:
        rate = r["throughput_tokens_per_s"] / r["avg_tokens_per_request"]
        require(math.isclose(r["request_rate"], rate, rel_tol=1e-12),
                f"frontier {r['model']}/{r['kv_precision']}/{r['effort']}: request rate "
                f"{r['request_rate']} != {rate}")
    base = [r for r in rows
            if (r["model"], r["kv_precision"], r["effort"]) == ("parent", "bf16", "high")]
    require(len(base) == 1 and base[0]["relative_request_rate"] == 1.0,
            "baseline frontier row parent/bf16/high is missing or not 1.0")


def check_generation(report: dict, efforts: dict[str, int], n_prompts: int) -> None:
    """Lengths lie in [1, cap]; greedy decoding is prefix-consistent, so a lower
    cap's length is min(highest cap's length, cap); accuracy is in [0, 1]."""
    acc = report["retrieval_accuracy"]
    require(0.0 <= acc <= 1.0, f"retrieval accuracy {acc} outside [0, 1]")
    top = max(efforts, key=efforts.get)
    high = report["efforts"][top]["lengths"]
    require(len(high) == n_prompts, f"{len(high)} lengths for {n_prompts} prompts")
    for effort, cap in efforts.items():
        got = report["efforts"][effort]
        require(got["max_new_tokens"] == cap, f"effort {effort}: cap {got['max_new_tokens']}")
        for p, (n, n_high) in enumerate(zip(got["lengths"], high)):
            require(1 <= n <= cap, f"effort {effort} prompt {p}: length {n} outside [1, {cap}]")
            require(n == min(n_high, cap),
                    f"effort {effort} prompt {p}: length {n} is not min({n_high}, {cap})")
    if report["kv_precision"] == "fp8":
        for layer, stats in report["kv_quant"].items():
            require(stats["k_nan"] == 0 and stats["v_nan"] == 0,
                    f"fp8 layer {layer}: NaN codes in the cache")


def check_full_length(report: dict, efforts: dict[str, int]) -> None:
    """With an end token the model never emits, every request decodes to its cap."""
    for effort, cap in efforts.items():
        lengths = report["efforts"][effort]["lengths"]
        require(all(n == cap for n in lengths),
                f"effort {effort}: lengths {lengths} stop short of cap {cap} with no end token")


# ---------------------------------------------------------------------------
# a reference forward pass over child.bin (flat-f32-le-v1), in float64


def read_flat_params(bin_path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    manifest = _read_json(Path(str(bin_path) + ".json"))
    require(manifest["format"] == "flat-f32-le-v1", f"unknown format {manifest['format']}")
    blob = Path(bin_path).read_bytes()
    arrays = {}
    for e in manifest["entries"]:
        count = int(np.prod(e["shape"])) if e["shape"] else 1
        a = np.frombuffer(blob, dtype="<f4", count=count, offset=e["offset_bytes"])
        arrays[e["name"]] = a.reshape(e["shape"]).astype(np.float64)
    return manifest, arrays


def e4m3_roundtrip(x: np.ndarray, scale: float) -> np.ndarray:
    """Nearest E4M3 value of x/scale, ties to an even mantissa, clamped at 448."""
    y = np.minimum(np.abs(x) / scale, 448.0)
    exp = np.floor(np.log2(np.maximum(y, 2.0**-6)))
    step = 2.0 ** (exp - 3)
    return np.sign(x) * np.round(y / step) * step * scale


def reference_last_logits(bin_path: Path, tokens: np.ndarray, kv_scales: dict | None) -> np.ndarray:
    """Last-position logits of every sequence, computed head by head and expert
    by expert in float64 from the documented model definition."""
    manifest, w = read_flat_params(bin_path)
    c = manifest["config"]
    H, KV, hd = c["n_heads"], c["n_kv_heads"], c["head_dim"]
    B, T = tokens.shape

    def rms(x, g):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * g

    half = np.arange(hd // 2)
    angle = (np.arange(T)[:, None] * c["rope_base"] ** (-2.0 * half / hd)[None, :]
             / c["rope_scale_factor"])
    cos, sin = np.cos(angle), np.sin(angle)

    def rope(x):  # [B, T, hd]: rotate (even, odd) pairs
        out = np.empty_like(x)
        out[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        out[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        return out

    h = w["embedding"][tokens]
    pos = np.arange(T)
    for i, attn in enumerate(c["attn_pattern"]):
        p = f"layers.{i}"
        x = rms(h, w[f"{p}.attn_norm"])
        allowed = pos[None, :] <= pos[:, None]
        if attn["kind"] == "window":
            allowed &= pos[:, None] - pos[None, :] < attn["window_size"]
        ctx = np.zeros((B, T, H * hd))
        for g in range(KV):
            k = rope(x @ w[f"{p}.wk"][:, g * hd:(g + 1) * hd])
            v = x @ w[f"{p}.wv"][:, g * hd:(g + 1) * hd]
            if kv_scales is not None:
                k = e4m3_roundtrip(k, kv_scales["k_scales"][i])
                v = e4m3_roundtrip(v, kv_scales["v_scales"][i])
            for head in range(g * (H // KV), (g + 1) * (H // KV)):
                q = rope(x @ w[f"{p}.wq"][:, head * hd:(head + 1) * hd])
                s = np.where(allowed, q @ k.transpose(0, 2, 1) / math.sqrt(hd), -np.inf)
                s = np.exp(s - s.max(axis=-1, keepdims=True))
                ctx[..., head * hd:(head + 1) * hd] = (s / s.sum(axis=-1, keepdims=True)) @ v
        h = h + ctx @ w[f"{p}.wo"]
        x = rms(h, w[f"{p}.ffn_norm"])
        logits = x @ w[f"{p}.router"].T  # [B, T, present experts]
        top = np.argsort(-logits, axis=-1, kind="stable")[..., : c["top_k"]]
        sel = np.take_along_axis(logits, top, axis=-1)
        gate = np.exp(sel - sel.max(axis=-1, keepdims=True))
        gate /= gate.sum(axis=-1, keepdims=True)
        ffn = np.zeros_like(h)
        for e in range(logits.shape[-1]):
            weight = np.sum(np.where(top == e, gate, 0.0), axis=-1, keepdims=True)
            z = x @ w[f"{p}.experts.{e}.w_in"]
            ffn += weight * ((z / (1.0 + np.exp(-z))) @ w[f"{p}.experts.{e}.w_out"])
        h = h + ffn
    return rms(h[:, -1], w["final_norm"]) @ w["lm_head"]


def check_retrieval_accuracy(
    accuracy: float, bin_path: Path, tokens: np.ndarray, answers: np.ndarray,
    kv_scales: dict | None, margin: float = 1e-3,
) -> None:
    """The reported accuracy equals the reference forward's, except that a
    probe whose top two reference logits lie within `margin` may go either way."""
    logits = reference_last_logits(bin_path, tokens, kv_scales)
    top2 = np.sort(logits, axis=-1)[:, -2:]
    near_tie = (top2[:, 1] - top2[:, 0]) < margin
    correct = np.argmax(logits, axis=-1) == answers
    n = len(answers)
    lo = int(np.sum(correct & ~near_tie))
    hi = int(np.sum(correct | near_tie))
    got = accuracy * n
    require(lo - 1e-9 <= got <= hi + 1e-9,
            f"reported accuracy {accuracy} is not within the reference's {lo}/{n}..{hi}/{n}")


# ---------------------------------------------------------------------------
# the solver ladder: exact optimum by dynamic programming over integer costs


def dp_optimum(deg_num: list[list[int]], costs: list[list[tuple[int, ...]]], limits):
    """Minimum integer-numerator degradation over selections that fit every
    budget, and the lexicographically smallest choice vector attaining it;
    None when nothing fits. Backward DP over the spent-cost grid."""
    n, d = len(deg_num), len(limits)
    shape = tuple(int(x) + 1 for x in limits)
    inf = np.iinfo(np.int64).max // 4
    best = [None] * (n + 1)  # best[i][spent] = min degradation of layers i.. given spent
    best[n] = np.zeros(shape, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        cur = np.full(shape, inf, dtype=np.int64)
        for dn, c in zip(deg_num[i], costs[i]):
            if any(c[k] > limits[k] for k in range(d)):
                continue
            src = tuple(slice(c[k], None) for k in range(d))
            dst = tuple(slice(0, shape[k] - c[k]) for k in range(d))
            np.minimum(cur[dst], best[i + 1][src] + dn, out=cur[dst])
        best[i] = np.minimum(cur, inf)
    origin = (0,) * d
    if best[0][origin] >= inf:
        return None
    spent, choice = [0] * d, []
    for i in range(n):
        for j, (dn, c) in enumerate(zip(deg_num[i], costs[i])):
            nxt = tuple(spent[k] + c[k] for k in range(d))
            if all(nxt[k] <= limits[k] for k in range(d)) and \
                    dn + best[i + 1][nxt] == best[i][tuple(spent)]:
                choice.append(j)
                spent = list(nxt)
                break
    return int(best[0][origin]), tuple(choice)


def check_solution(instance, solution, expected) -> None:
    """Status and objective equal the DP's; the selection fits every budget and
    its objective is the left-to-right sum of the chosen degradations."""
    name = instance.name
    if expected is None:
        require(solution.status == "infeasible",
                f"{name}: DP finds no feasible selection, solver says {solution.status}")
        return
    require(solution.status == "optimal", f"{name}: solver says {solution.status}, DP finds one")
    numerator, choice = expected
    require(tuple(solution.chosen) == choice,
            f"{name}: solver picks {tuple(solution.chosen)}, DP's lexicographic optimum is {choice}")
    total = 0.0
    spent = [0] * len(instance.limits)
    for i, j in enumerate(solution.chosen):
        total += instance.deg_num[i][j] / instance.grid
        for k, c in enumerate(instance.costs[i][j]):
            spent[k] += c
    require(all(s <= lim for s, lim in zip(spent, instance.limits)),
            f"{name}: selection spends {spent} over limits {instance.limits}")
    require(solution.total_degradation == total,
            f"{name}: objective {solution.total_degradation!r} != left-to-right sum {total!r}")
    require(total == numerator / instance.grid,
            f"{name}: objective {total!r} != DP optimum {numerator / instance.grid!r}")
    require(tuple(solution.totals) == tuple(spent),
            f"{name}: reported totals {solution.totals} != {tuple(spent)}")
