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
import logging
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .costs import (
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
from .metrics import (
    build_frontier, bundled_run_records, effort_length_ratio, emit_frontier, load_run_records,
)
from .model import (
    ConfigError,
    KvCache,
    MismatchError,
    ModelConfig,
    PositiveInt,
    count_params,
    forward_batch,
    generate_batch,
    init_model,
    load_params,
    manifest_path_for,
    parse_json,
    read_json,
    save_params,
    toy_config,
    write_json,
)
from .scoring import (
    SIGNAL_ACTIVATION_MSE,
    SIGNAL_TASK_DROP,
    ProbeError,
    ScoreTable,
    make_lm_probes,
    make_retrieval_probes,
    score_library,
)
from .search import InfeasibleError, KvBudget, search_pipeline

logger = logging.getLogger("archsearch.cli")

# deterministic seed lanes derived from the run seed
_SEED_LM, _SEED_RETRIEVAL, _SEED_CALIB, _SEED_EVAL, _SEED_PROMPTS = 1, 2, 3, 4, 5


class _Section:
    """A run config section whose fields also read by key: rc.probes["lm_count"]."""

    def __getitem__(self, name: str):
        return asdict(self)[name]


@dataclass(frozen=True)
class ProbeConfig(_Section):
    """The run config's "probes" section: how many probe sequences score the
    library, and how long."""

    lm_count: PositiveInt = 24
    lm_length: PositiveInt = 96
    retrieval_count: PositiveInt = 48
    retrieval_length: PositiveInt = 96
    retrieval_pairs: PositiveInt = 4


@dataclass(frozen=True)
class EvalConfig(_Section):
    """The run config's "eval" section. end_token may be any integer: one
    greedy decoding never emits, such as -1, runs every request to its cap."""

    n_prompts: PositiveInt = 16
    prompt_len: PositiveInt = 16
    end_token: int = 0


@dataclass(frozen=True)
class RunConfig:
    """The run config file, one field per top-level key. "model" overrides
    toy_config's fields, "targets" gives a speedup per scenario name and
    "efforts" a generation cap per effort name."""

    seed: int = 0
    model: dict[str, object] = field(default_factory=dict)
    probes: ProbeConfig = ProbeConfig()
    library: LibraryMenu = LibraryMenu()
    scenarios: tuple[Scenario, ...] = ()
    hardware: HardwareProfile | None = None
    targets: dict[str, float] = field(default_factory=dict)
    kv_budget: KvBudget | None = None
    efforts: dict[str, PositiveInt] = field(
        default_factory=lambda: {"high": 48, "medium": 24, "low": 12}
    )
    eval: EvalConfig = EvalConfig()
    config: ModelConfig = field(init=False)  # toy_config(**model)

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", toy_config(**self.model))
        names = {s.name for s in self.scenarios}
        for name in self.targets:
            if name not in names:
                raise ConfigError(f"targets.{name} names no scenario")

    @property
    def eval_cfg(self) -> EvalConfig:
        """The "eval" section, under the name bench/ reads it by."""
        return self.eval

    from_json = classmethod(parse_json)


def _run_config(obj, seed_override: int | None) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("the run config must be a JSON object")
    return RunConfig.from_json(obj if seed_override is None else {**obj, "seed": seed_override})


def load_run_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """The run config at `path`. Every level takes only the keys it declares;
    any error names the key and the file."""
    return read_json(path, lambda obj: _run_config(obj, seed_override))


def _require(rc: RunConfig, what: str) -> None:
    if what == "hardware" and rc.hardware is None:
        raise ConfigError("this command needs a 'hardware' section in the run config")
    if what == "scenarios" and not rc.scenarios:
        raise ConfigError("this command needs a 'scenarios' list in the run config")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _lm_probes(rc: RunConfig, seed: int):
    return make_lm_probes(rc.config, rc.probes.lm_count, rc.probes.lm_length, seed)


def _retrieval_probes(rc: RunConfig, seed: int):
    return make_retrieval_probes(
        rc.config,
        rc.probes.retrieval_count,
        rc.probes.retrieval_length,
        rc.probes.retrieval_pairs,
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
        library = build_library(rc.config, rc.library)
        lm = _lm_probes(rc, rc.seed + _SEED_LM)
        retrieval = _retrieval_probes(rc, rc.seed + _SEED_RETRIEVAL)

        params_path = save_params(params, out / "params.bin")
        write_json(out / "probes.json", {"lm": lm.manifest, "retrieval": retrieval.manifest})
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
        library = build_library(rc.config, rc.library)
        measured = load_measured_costs(args.measured_costs) if args.measured_costs else None
        cost_table = build_cost_table(rc.config, library, rc.scenarios, rc.hardware, measured)
        cost_table.save(out / "costs.jsonl")
        signal = SIGNAL_TASK_DROP if args.signal == "task-drop" else SIGNAL_ACTIVATION_MSE
        result = search_pipeline(
            rc.config,
            library,
            table,
            ranking,
            rc.scenarios,
            rc.targets,
            rc.hardware,
            cost_table=cost_table,
            attention_signal=signal,
            kv_budget=rc.kv_budget,
        )
        result.arch.save(out / "arch.json")
        write_json(out / "search_report.json", result.report)
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
        write_json(out / "assemble_report.json", report)
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
        calib = _lm_probes(rc, rc.seed + _SEED_CALIB)
        if args.kv_scales == "calibrated":
            scales = calibrate_scales(params, arch, calib.tokens)
        else:
            scales = QuantScales.unit(params.config.n_layers)
        scales.save(out / "kv_scales.json")

        _, report = forward_with_quantized_kv(params, arch, calib.tokens, scales)
        write_json(out / "kv_quant_report.json", report.to_json())
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
    worst = max((k.mse for k, _ in report.written.values()), default=0.0)
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
            trace = forward_batch(params, arch, probes.tokens, last_only=True)
        predicted = np.argmax(trace.logits[:, -1, :], axis=-1)
        accuracy = float(np.mean(predicted == probes.answers))

        n_prompts, prompt_len = rc.eval.n_prompts, rc.eval.prompt_len
        rng = np.random.default_rng(rc.seed + _SEED_PROMPTS)
        prompts = rng.integers(2, rc.config.vocab_size, size=(n_prompts, prompt_len), dtype=np.int64)
        # Greedy decoding is prefix-consistent: decoding once at the highest cap
        # gives every lower cap's length as min(length at the top cap, cap).
        top_cap = max(rc.efforts.values(), default=0)
        cache = KvCache.for_generation(rc.config, arch, n_prompts, prompt_len, top_cap, scales)
        _, top_lengths = generate_batch(
            params, arch, prompts, max_new_tokens=top_cap,
            end_token=rc.eval.end_token, cache=cache,
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
            if low_mean > 0:  # some length is then > 0, so high's mean (cap >= 1) is too
                ratio = effort_length_ratio(effort_stats["high"]["mean_generated"], low_mean)
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
        write_json(out / "eval_report.json", eval_report)
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
    p.add_argument("--measured-costs", help="JSONL of measured times, in the format of costs.jsonl")
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
        LockError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
