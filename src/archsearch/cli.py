"""Command-line pipeline.

    archsearch --config run.json --out DIR score
    archsearch --config run.json --out DIR search [--measured-costs F] [--signal ...]
    archsearch --config run.json --out DIR assemble
    archsearch --config run.json --out DIR quantize [--kv-scales none|calibrated]
    archsearch --config run.json --out DIR eval [--kv-precision bf16|fp8]
    archsearch --out DIR frontier [--records F] [--baseline MODEL/PRECISION]

Stages communicate through files in the run directory and append to its
manifest.json (content hashes in, content hashes out), so a run is resumable
and auditable. Exit codes: 0 success, 2 when the search budgets admit no
architecture, 1 for any other failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .costs import (
    CostFileError,
    HardwareProfile,
    Scenario,
    build_cost_table,
    kv_bytes_per_sequence,
    load_measured_costs,
)
from .kvquant import QuantScales, calibrate_scales, forward_with_quantized_kv
from .library import (
    ArchitectureSpec,
    ExpertRanking,
    LibraryMenu,
    assemble,
    assembled_spec,
    build_library,
    parent_spec,
)
from .manifest import LockError, RunLock, RunManifest
from .metrics import bundled_run_records, build_frontier, emit_frontier, load_run_records
from .model import (
    AttentionVariant,
    ConfigError,
    KvCache,
    MismatchError,
    ModelConfig,
    count_params,
    forward_batch,
    generate_batch,
    init_model,
    load_params,
    manifest_path_for,
    params_checksum,
    save_params,
    toy_config,
)
from .scoring import (
    SIGNAL_ACTIVATION_MSE,
    SIGNAL_TASK_DROP,
    ProbeError,
    ScoreTable,
    make_lm_probes,
    make_retrieval_probes,
    score_library,
    validate_retrieval_probes,
)
from .search import InfeasibleError, KvBudget, search_pipeline

logger = logging.getLogger("archsearch.cli")

# deterministic seed lanes derived from the run seed
_SEED_LM, _SEED_RETRIEVAL, _SEED_CALIB, _SEED_EVAL, _SEED_PROMPTS = 1, 2, 3, 4, 5


@dataclass
class RunConfig:
    seed: int
    config: ModelConfig
    probes: dict
    menu: LibraryMenu
    scenarios: list[Scenario]
    hw: HardwareProfile
    targets: dict[str, float]
    kv_budget: KvBudget | None
    efforts: dict[str, int]
    eval_cfg: dict


def _section(obj: dict, name: str, default):
    """A config section that must be a JSON object; `default` when absent or null."""
    value = obj.get(name)
    if value is None:
        return default
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return value


def load_run_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: the run config must be a JSON object")
    model_obj = dict(_section(obj, "model", {}))
    if "attn_pattern" in model_obj:
        model_obj["attn_pattern"] = tuple(
            AttentionVariant.from_json(a) for a in model_obj["attn_pattern"]
        )
    probes = dict(_section(obj, "probes", {}))
    probes.setdefault("lm_count", 24)
    probes.setdefault("lm_length", 96)
    probes.setdefault("retrieval_count", 48)
    probes.setdefault("retrieval_length", 96)
    probes.setdefault("retrieval_pairs", 4)
    efforts = dict(_section(obj, "efforts", {"high": 48, "medium": 24, "low": 12}))
    eval_cfg = dict(_section(obj, "eval", {}))
    eval_cfg.setdefault("n_prompts", 16)
    eval_cfg.setdefault("prompt_len", 16)
    eval_cfg.setdefault("end_token", 0)
    for section, values, names in (
        ("probes", probes, ("lm_count", "lm_length", "retrieval_count", "retrieval_length")),
        ("eval", eval_cfg, ("n_prompts", "prompt_len")),
        ("efforts", efforts, tuple(efforts)),
    ):
        for name in names:
            v = values[name]
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"{section}.{name} must be a positive integer, got {v!r}")
    hardware = _section(obj, "hardware", None)
    kv_budget = _section(obj, "kv_budget", None)
    return RunConfig(
        seed=int(seed_override if seed_override is not None else obj.get("seed", 0)),
        config=toy_config(**model_obj),
        probes=probes,
        menu=LibraryMenu.from_json(_section(obj, "library", {})),
        scenarios=[Scenario.from_json(s) for s in obj.get("scenarios", [])],
        hw=HardwareProfile.from_json(hardware) if hardware is not None else None,
        targets={str(k): float(v) for k, v in _section(obj, "targets", {}).items()},
        kv_budget=KvBudget.from_json(kv_budget) if kv_budget else None,
        efforts=efforts,
        eval_cfg=eval_cfg,
    )


def _require(rc: RunConfig, what: str) -> None:
    if what == "hardware" and rc.hw is None:
        raise ConfigError("this command needs a 'hardware' section in the run config")
    if what == "scenarios" and not rc.scenarios:
        raise ConfigError("this command needs a 'scenarios' list in the run config")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _lm_probes(rc: RunConfig):
    return make_lm_probes(
        rc.config, rc.probes["lm_count"], rc.probes["lm_length"], rc.seed + _SEED_LM
    )


def _retrieval_probes(rc: RunConfig, seed: int):
    return make_retrieval_probes(
        rc.config,
        rc.probes["retrieval_count"],
        rc.probes["retrieval_length"],
        rc.probes["retrieval_pairs"],
        seed,
    )


def _eval_params(out: Path):
    """The assembled child when present, otherwise the scored parent."""
    child = out / "child.bin"
    source = child if child.exists() else out / "params.bin"
    if not source.exists():
        raise ConfigError(f"no parameters in {out}; run the score stage first")
    params = load_params(source)
    return params, assembled_spec(params), source


# ---------------------------------------------------------------------------
# stages


def cmd_score(args) -> int:
    rc = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    with RunLock(out):
        params = init_model(rc.config, rc.seed)
        arch = parent_spec(rc.config)
        library = build_library(rc.config, rc.menu)
        lm = _lm_probes(rc)
        retrieval = _retrieval_probes(rc, rc.seed + _SEED_RETRIEVAL)
        validate_retrieval_probes(retrieval)

        params_path = save_params(params, out / "params.bin")
        (out / "probes.json").write_text(
            json.dumps({"lm": lm.manifest, "retrieval": retrieval.manifest},
                       indent=2, sort_keys=True) + "\n"
        )
        ranking, table = score_library(params, arch, library, lm, retrieval)
        ranking.save(out / "ranking.json")
        table.save(out / "scores.jsonl")

        RunManifest(out).record_stage(
            "score",
            seed=rc.seed,
            config_path=args.config,
            inputs={},
            outputs={
                "params": params_path,
                "params_manifest": manifest_path_for(params_path),
                "probes": out / "probes.json",
                "ranking": out / "ranking.json",
                "scores": out / "scores.jsonl",
            },
            extra={
                "param_count": count_params(params),
                "params_checksum": params_checksum(params),
                "score_rows": len(table.rows),
            },
        )
    print(f"scored {len(table.rows)} (layer, variant, signal) rows -> {out / 'scores.jsonl'}")
    return 0


def cmd_search(args) -> int:
    rc = load_run_config(args.config, args.seed)
    _require(rc, "hardware")
    _require(rc, "scenarios")
    out = _out_dir(args)
    with RunLock(out):
        table = ScoreTable.load(out / "scores.jsonl")
        ranking = ExpertRanking.load(out / "ranking.json")
        library = build_library(rc.config, rc.menu)
        measured = load_measured_costs(args.measured_costs) if args.measured_costs else None
        cost_table = build_cost_table(rc.config, library, rc.scenarios, rc.hw, measured)
        cost_table.save(out / "costs.jsonl")
        signal = SIGNAL_TASK_DROP if args.signal == "task-drop" else SIGNAL_ACTIVATION_MSE
        result = search_pipeline(
            rc.config,
            library,
            table,
            ranking,
            rc.scenarios,
            rc.targets,
            rc.hw,
            cost_table=cost_table,
            attention_signal=signal,
            kv_budget=rc.kv_budget,
        )
        result.arch.save(out / "arch.json")
        (out / "search_report.json").write_text(
            json.dumps(result.report, indent=2, sort_keys=True) + "\n"
        )
        inputs = {
            "scores": out / "scores.jsonl",
            "ranking": out / "ranking.json",
        }
        if args.measured_costs:
            inputs["measured_costs"] = args.measured_costs
        RunManifest(out).record_stage(
            "search",
            seed=rc.seed,
            config_path=args.config,
            inputs=inputs,
            outputs={
                "arch": out / "arch.json",
                "costs": out / "costs.jsonl",
                "report": out / "search_report.json",
            },
            extra={"objective": result.report["objective"], "signal": signal},
        )
    print(f"selected architecture -> {out / 'arch.json'}")
    for usage in result.report["budget_usage"]:
        print(
            f"  {usage['name']}: total {usage['total']} of {usage['limit']} "
            f"(slack {usage['slack']})"
        )
    return 0


def cmd_assemble(args) -> int:
    rc = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    with RunLock(out):
        parent = load_params(out / "params.bin")
        arch = ArchitectureSpec.load(out / "arch.json")
        child = assemble(parent, arch)
        child_path = save_params(child, out / "child.bin")
        report = {
            "parent_params": count_params(parent),
            "child_params": count_params(child),
            "param_reduction_pct": 100.0 * (1 - count_params(child) / count_params(parent)),
            "layers": [
                {
                    "layer": i,
                    "attention": spec.attention.variant_id,
                    "experts_kept": spec.experts_kept,
                }
                for i, spec in enumerate(arch.layers)
            ],
        }
        (out / "assemble_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        RunManifest(out).record_stage(
            "assemble",
            seed=rc.seed,
            config_path=args.config,
            inputs={"params": out / "params.bin", "arch": out / "arch.json"},
            outputs={
                "child": child_path,
                "child_manifest": manifest_path_for(child_path),
                "report": out / "assemble_report.json",
            },
            extra={"child_checksum": params_checksum(child)},
        )
    print(
        f"assembled child: {report['child_params']} params "
        f"({report['param_reduction_pct']:.1f}% below parent) -> {out / 'child.bin'}"
    )
    return 0


def cmd_quantize(args) -> int:
    rc = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    with RunLock(out):
        params, arch, source = _eval_params(out)
        calib = make_lm_probes(
            rc.config, rc.probes["lm_count"], rc.probes["lm_length"], rc.seed + _SEED_CALIB
        )
        if args.kv_scales == "calibrated":
            scales = calibrate_scales(params, arch, calib.tokens)
        else:
            scales = QuantScales.unit(params.config.n_layers)
        scales.save(out / "kv_scales.json")

        _, report = forward_with_quantized_kv(params, arch, calib.tokens, scales)
        (out / "kv_quant_report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
        RunManifest(out).record_stage(
            "quantize",
            seed=rc.seed,
            config_path=args.config,
            inputs={"params": source},
            outputs={
                "scales": out / "kv_scales.json",
                "report": out / "kv_quant_report.json",
            },
            extra={"mode": scales.mode, "saturated": report.total_saturated},
        )
    worst = max((s.k_mse for s in report.per_layer.values()), default=0.0)
    print(
        f"{scales.mode} cache scales for {params.config.n_layers} layers "
        f"(worst K mse {worst:.3e}, {report.total_saturated} saturated) -> {out / 'kv_scales.json'}"
    )
    return 0


def cmd_eval(args) -> int:
    rc = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    with RunLock(out):
        params, arch, source = _eval_params(out)
        probes = _retrieval_probes(rc, rc.seed + _SEED_EVAL)
        scales = kv_section = None
        if args.kv_precision == "fp8":
            scales_path = out / "kv_scales.json"
            if not scales_path.exists():
                raise ConfigError("eval --kv-precision fp8 needs the quantize stage first")
            scales = QuantScales.load(scales_path)
            trace, report = forward_with_quantized_kv(params, arch, probes.tokens, scales)
            kv_section = report.to_json()
        else:
            trace = forward_batch(params, arch, probes.tokens)
        predicted = np.argmax(trace.logits[:, -1, :], axis=-1)
        accuracy = float(np.mean(predicted == probes.answers))

        n_prompts, prompt_len = rc.eval_cfg["n_prompts"], rc.eval_cfg["prompt_len"]
        rng = np.random.default_rng(rc.seed + _SEED_PROMPTS)
        prompts = rng.integers(2, rc.config.vocab_size, size=(n_prompts, prompt_len), dtype=np.int64)
        # Greedy decoding is prefix-consistent: decoding once at the highest cap
        # gives every lower cap's length as min(length at the top cap, cap).
        top_cap = max(rc.efforts.values(), default=0)
        cache = KvCache.for_generation(rc.config, arch, n_prompts, prompt_len, top_cap, scales)
        _, top_lengths = generate_batch(
            params, arch, prompts, max_new_tokens=top_cap,
            end_token=rc.eval_cfg["end_token"], cache=cache,
        )
        effort_stats = {}
        for effort, cap in sorted(rc.efforts.items(), key=lambda kv: -kv[1]):
            lengths = np.minimum(top_lengths, cap)
            effort_stats[effort] = {
                "max_new_tokens": cap,
                "mean_generated": float(np.mean(lengths)),
                "lengths": [int(x) for x in lengths],
            }
        ratio = None
        if "high" in effort_stats and "low" in effort_stats:
            low_mean = effort_stats["low"]["mean_generated"]
            if low_mean > 0:
                ratio = effort_stats["high"]["mean_generated"] / low_mean
        kv_cache = {
            "length": cache.positions,
            "held_bytes": cache.held_bytes(),
            "analytic_bytes": kv_bytes_per_sequence(
                arch, rc.config, cache.positions, args.kv_precision
            ),
            "stored_dtype": cache.stored_dtype,
        }
        eval_report = {
            "source": source.name,
            "kv_precision": args.kv_precision,
            "retrieval_accuracy": accuracy,
            "efforts": effort_stats,
            "effort_length_ratio_high_low": ratio,
            "kv_quant": kv_section,
            "kv_cache": kv_cache,
        }
        (out / "eval_report.json").write_text(
            json.dumps(eval_report, indent=2, sort_keys=True) + "\n"
        )
        RunManifest(out).record_stage(
            "eval",
            seed=rc.seed,
            config_path=args.config,
            inputs={"params": source},
            outputs={"report": out / "eval_report.json"},
            extra={"retrieval_accuracy": accuracy, "kv_precision": args.kv_precision},
        )
    print(
        f"eval[{args.kv_precision}] of {source.name}: retrieval accuracy {accuracy:.3f} "
        f"-> {out / 'eval_report.json'}"
    )
    return 0


def cmd_frontier(args) -> int:
    out = _out_dir(args)
    with RunLock(out):
        records = load_run_records(args.records) if args.records else bundled_run_records()
        try:
            baseline_model, baseline_precision = args.baseline.split("/", 1)
        except ValueError:
            raise ConfigError(
                f"--baseline must look like MODEL/PRECISION, got {args.baseline!r}"
            ) from None
        points = build_frontier(records, baseline_model, baseline_precision)
        emit_frontier(points, out / "frontier.csv", out / "frontier.json")
        inputs = {"records": args.records} if args.records else {}
        RunManifest(out).record_stage(
            "frontier",
            seed=None,
            config_path=None,
            inputs=inputs,
            outputs={"csv": out / "frontier.csv", "json": out / "frontier.json"},
            extra={"baseline": args.baseline, "rows": len(points)},
        )
    print(f"{len(points)} frontier rows -> {out / 'frontier.csv'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archsearch",
        description="Block-library architecture search over a trained MoE transformer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="run-config JSON (see fixtures/toy_run.json)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", required=True, help="run directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="init the parent, build probes, score the block library")
    p.set_defaults(func=cmd_score, needs_config=True)

    p = sub.add_parser("search", help="select the best per-layer blocks under the budgets")
    p.add_argument("--measured-costs", help="JSONL overriding analytic cost entries")
    p.add_argument(
        "--signal", choices=("task-drop", "activation-mse"), default="task-drop",
        help="which signal scores attention variants (default task-drop)",
    )
    p.set_defaults(func=cmd_search, needs_config=True)

    p = sub.add_parser("assemble", help="extract the chosen child from the parent weights")
    p.set_defaults(func=cmd_assemble, needs_config=True)

    p = sub.add_parser("quantize", help="calibrate 8-bit KV-cache scales")
    p.add_argument("--kv-scales", choices=("none", "calibrated"), default="calibrated")
    p.set_defaults(func=cmd_quantize, needs_config=True)

    p = sub.add_parser("eval", help="retrieval accuracy and generation lengths per effort")
    p.add_argument("--kv-precision", choices=("bf16", "fp8"), default="bf16")
    p.set_defaults(func=cmd_eval, needs_config=True)

    p = sub.add_parser("frontier", help="emit the serving-efficiency frontier CSV/JSON")
    p.add_argument("--records", help="run-records JSONL (default: bundled reference data)")
    p.add_argument("--baseline", default="parent/bf16", help="MODEL/PRECISION baseline row")
    p.set_defaults(func=cmd_frontier, needs_config=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    if args.needs_config and not args.config:
        print(f"error: {args.command} needs --config", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (
        ConfigError,
        MismatchError,
        ProbeError,
        CostFileError,
        LockError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
