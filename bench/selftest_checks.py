"""Each benchmark check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest -q bench/selftest_checks.py

The file name keeps it out of the package's own test collection: these tests
exercise the benchmark, not the program.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Clock  # noqa: E402
from archsearch import cli  # noqa: E402
from archsearch.scoring import make_retrieval_probes  # noqa: E402
from archsearch.search import brute_force, solve  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A whole pipeline run on the toy model with small probe sets and caps."""
    base = tmp_path_factory.mktemp("pipeline")
    toy = workloads.PipelineToy(SEED, base, Clock(workloads.PipelineToy.reference))
    config = dict(toy.config)
    config["probes"] = dict(lm_count=4, lm_length=32, retrieval_count=8, retrieval_length=32,
                            retrieval_pairs=4)
    config["efforts"] = {"high": 6, "medium": 3, "low": 2}
    config["eval"] = dict(n_prompts=3, prompt_len=8, end_token=0)
    config["targets"] = {"long": 1.5, "short": 1.4}  # tight enough to prune experts
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config))
    run = workloads.fresh_dir(base / "run")
    toy._pipeline(config_path, run)
    assert toy.failed == 0
    return config_path, run


@pytest.fixture
def run_copy(pipeline, tmp_path):
    config_path, run = pipeline
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    return json.loads(config_path.read_text()), config_path, copy


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def edit_jsonl(path: Path, change) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    change(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_real_pipeline_output_passes_every_check(pipeline):
    config_path, run = pipeline
    workloads.check_run_dir(run, config_path, SEED, signal="task_drop")


def test_manifest_check_rejects_a_changed_file(run_copy):
    _, _, run = run_copy
    with open(run / "ranking.json", "a") as fh:
        fh.write(" ")
    with pytest.raises(checks.CheckError, match="hash"):
        checks.check_manifest_hashes(run)


def test_score_check_rejects_a_nonzero_parent_block(run_copy):
    config, _, run = run_copy

    def bump(rows):
        for r in rows:
            if r["variant"] == "ffn:keep:16":
                r["value"] = 1e-12
                return

    edit_jsonl(run / "scores.jsonl", bump)
    with pytest.raises(checks.CheckError, match="parent block"):
        checks.check_scores(run)


def test_score_check_rejects_a_negative_score(run_copy):
    config, _, run = run_copy
    edit_jsonl(run / "scores.jsonl", lambda rows: rows[-1].update(value=-1e-9))
    with pytest.raises(checks.CheckError, match="below 0"):
        checks.check_scores(run)


def test_arch_check_rejects_another_selection(run_copy):
    config, _, run = run_copy

    def other(obj):
        layer = obj["layers"][0]
        keep = 8 if layer["experts_kept"] != 8 else 4
        layer["experts_kept"] = keep
        layer["expert_keep_set"] = layer["expert_keep_set"][:keep]
    edit_json(run / "arch.json", other)
    with pytest.raises(checks.CheckError, match="layer 0"):
        checks.check_arch(run, config, "task_drop")


def test_arch_check_rejects_a_wrong_keep_set(run_copy):
    config, _, run = run_copy
    orders = [layer["order"] for layer in json.loads((run / "ranking.json").read_text())["layers"]]

    def swap(obj):
        for layer, order in zip(obj["layers"], orders):
            n = layer["experts_kept"]
            if n < len(order):  # keep the count, swap the top expert for the next one
                layer["expert_keep_set"] = sorted(order[1:n + 1])
                return
        pytest.fail("the search pruned no experts; no keep set to corrupt")
    edit_json(run / "arch.json", swap)
    with pytest.raises(checks.CheckError, match="keep set"):
        checks.check_arch(run, config, "task_drop")


def test_arch_check_rejects_a_wrong_objective(run_copy):
    config, _, run = run_copy
    edit_json(run / "search_report.json",
              lambda obj: obj.update(objective=np.nextafter(obj["objective"], 9.0)))
    with pytest.raises(checks.CheckError, match="objective"):
        checks.check_arch(run, config, "task_drop")


def test_child_param_check_rejects_a_wrong_count(run_copy):
    config, _, run = run_copy
    edit_json(run / "assemble_report.json", lambda obj: obj.update(child_params=obj["child_params"] + 1))
    with pytest.raises(checks.CheckError, match="child_params"):
        checks.check_child_params(run)


def test_frontier_check_rejects_a_wrong_request_rate(run_copy):
    _, _, run = run_copy
    edit_json(run / "frontier.json", lambda rows: rows[1].update(request_rate=rows[1]["request_rate"] * 1.001))
    with pytest.raises(checks.CheckError, match="request rate"):
        checks.check_frontier(run)


def test_frontier_check_rejects_a_baseline_off_one(run_copy):
    _, _, run = run_copy

    def shift(rows):
        for r in rows:
            if (r["model"], r["kv_precision"], r["effort"]) == ("parent", "bf16", "high"):
                r["relative_request_rate"] = 0.999
    edit_json(run / "frontier.json", shift)
    with pytest.raises(checks.CheckError, match="baseline"):
        checks.check_frontier(run)


@pytest.fixture
def fp8_report(pipeline):
    config_path, run = pipeline
    report = json.loads((run / "eval_report.fp8.json").read_text())
    config = json.loads(config_path.read_text())
    return report, config["efforts"], config["eval"]["n_prompts"]


def test_generation_check_accepts_the_real_report(fp8_report):
    checks.check_generation(*fp8_report)


def test_generation_check_rejects_a_prefix_inconsistent_length(fp8_report):
    report, efforts, n = fp8_report
    report["efforts"]["low"]["lengths"][0] = 1
    if min(report["efforts"]["high"]["lengths"][0], efforts["low"]) == 1:
        report["efforts"]["low"]["lengths"][0] = 2
    with pytest.raises(checks.CheckError, match="is not min"):
        checks.check_generation(report, efforts, n)


def test_generation_check_rejects_a_length_over_its_cap(fp8_report):
    report, efforts, n = fp8_report
    report["efforts"]["high"]["lengths"][0] = efforts["high"] + 1
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_generation(report, efforts, n)


def test_generation_check_rejects_an_accuracy_above_one(fp8_report):
    report, efforts, n = fp8_report
    report["retrieval_accuracy"] = 1.25
    with pytest.raises(checks.CheckError, match="accuracy"):
        checks.check_generation(report, efforts, n)


def test_generation_check_rejects_nan_codes(fp8_report):
    report, efforts, n = fp8_report
    report["kv_quant"]["0"]["k_nan"] = 1
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.check_generation(report, efforts, n)


def test_full_length_check_rejects_a_request_stopped_short():
    efforts = {"high": 6, "low": 2}
    report = {"efforts": {e: {"lengths": [cap] * 3} for e, cap in efforts.items()}}
    checks.check_full_length(report, efforts)
    report["efforts"]["high"]["lengths"][1] = 5
    with pytest.raises(checks.CheckError, match="stop short"):
        checks.check_full_length(report, efforts)


@pytest.mark.parametrize("precision", ["bf16", "fp8"])
def test_retrieval_check_rejects_a_shifted_accuracy(pipeline, precision):
    config_path, run = pipeline
    rc = cli.load_run_config(config_path, SEED)
    p = rc.probes
    probes = make_retrieval_probes(rc.config, p["retrieval_count"], p["retrieval_length"],
                                   p["retrieval_pairs"], SEED + cli._SEED_EVAL)
    scales = json.loads((run / "kv_scales.json").read_text()) if precision == "fp8" else None
    acc = json.loads((run / f"eval_report.{precision}.json").read_text())["retrieval_accuracy"]
    checks.check_retrieval_accuracy(acc, run / "child.bin", probes.tokens, probes.answers, scales)
    wrong = acc + 2 / len(probes.answers) if acc < 0.5 else acc - 2 / len(probes.answers)
    with pytest.raises(checks.CheckError, match="reference"):
        checks.check_retrieval_accuracy(wrong, run / "child.bin", probes.tokens,
                                        probes.answers, scales)


def test_reference_codec_matches_the_e4m3_grid():
    from archsearch.kvquant import DECODE_TABLE, FINITE_CODES
    grid = DECODE_TABLE[FINITE_CODES].astype(np.float64)
    assert np.array_equal(checks.e4m3_roundtrip(grid, 1.0), grid)
    positive = DECODE_TABLE[:0x7F].astype(np.float64)  # codes 0..126, increasing
    ties = (positive[:-1] + positive[1:]) / 2
    even = positive[[c if c % 2 == 0 else c + 1 for c in range(len(ties))]]
    assert np.array_equal(checks.e4m3_roundtrip(ties, 1.0), even)
    assert np.array_equal(checks.e4m3_roundtrip(-ties, 1.0), -even)


# ---------------------------------------------------------------------------
# solver ladder


def small_instance(key, tightness, n=5, d=2):
    return workloads.base_instance(key, n, d, tightness, 9, 12)


@pytest.mark.parametrize("key", range(6))
def test_dp_matches_the_exhaustive_search(key):
    for tight in (0.2, 0.5):
        inst = small_instance((1, key), tight)
        bf = brute_force(inst.problem())
        checks.check_solution(inst, bf, checks.dp_optimum(inst.deg_num, inst.costs, inst.limits))


def feasible_pair():
    inst = small_instance((2, 0), 0.5)
    return inst, solve(inst.problem())


def test_solution_check_accepts_the_solver():
    inst, sol = feasible_pair()
    assert sol.status == "optimal"
    checks.check_solution(inst, sol, checks.dp_optimum(inst.deg_num, inst.costs, inst.limits))


@pytest.mark.parametrize("corrupt, match", [
    (lambda s: s.__class__(**{**s.__dict__, "status": "infeasible"}), "solver says"),
    (lambda s: s.__class__(**{**s.__dict__, "chosen": (1 - s.chosen[0] % 2,) + s.chosen[1:]}),
     "lexicographic"),
    (lambda s: s.__class__(**{**s.__dict__, "total_degradation":
                              float(np.nextafter(s.total_degradation, 99.0))}), "objective"),
    (lambda s: s.__class__(**{**s.__dict__, "totals": (s.totals[0] + 1,) + s.totals[1:]}),
     "totals"),
])
def test_solution_check_rejects_a_corrupted_solution(corrupt, match):
    inst, sol = feasible_pair()
    with pytest.raises(checks.CheckError, match=match):
        checks.check_solution(inst, corrupt(sol),
                              checks.dp_optimum(inst.deg_num, inst.costs, inst.limits))


def test_solution_check_rejects_optimal_on_an_infeasible_instance():
    inst = small_instance((3, 0), 0.0)
    inst.limits = tuple(x - 1 for x in inst.limits)  # below the cheapest selection
    assert checks.dp_optimum(inst.deg_num, inst.costs, inst.limits) is None
    _, sol = feasible_pair()
    with pytest.raises(checks.CheckError, match="DP finds no feasible"):
        checks.check_solution(inst, sol, None)


def test_solution_check_rejects_a_selection_over_budget():
    inst, sol = feasible_pair()
    tighter = workloads.Instance(inst.name, inst.rung, inst.deg_num, inst.costs,
                                 tuple(s - 1 for s in sol.totals))
    with pytest.raises(checks.CheckError):
        checks.check_solution(tighter, sol, checks.dp_optimum(inst.deg_num, inst.costs,
                                                              inst.limits))


def test_relabelling_keeps_the_search_tree():
    inst = small_instance((4, 0), 0.5, n=7, d=3)
    moved = workloads.relabelled(inst, np.random.default_rng(9))
    a, b = solve(inst.problem()), solve(moved.problem())
    assert a.nodes_expanded == b.nodes_expanded
    assert a.status == b.status
