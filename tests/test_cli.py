import fcntl
import hashlib
import json
import os
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from archsearch import scoring
from archsearch.cli import _SEED_PROMPTS, load_run_config, main
from archsearch.library import assembled_spec
from archsearch.model import generate_batch, load_params
from archsearch.scoring import ProbeError


def bundled_config() -> Path:
    return Path(resources.files("archsearch.fixtures") / "toy_run.json")


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run of every stage into a shared directory."""
    out = tmp_path_factory.mktemp("run")
    cfg = bundled_config()
    assert run("--config", cfg, "--out", out, "score") == 0
    assert run("--config", cfg, "--out", out, "search") == 0
    assert run("--config", cfg, "--out", out, "assemble") == 0
    assert run("--config", cfg, "--out", out, "quantize") == 0
    assert run("--config", cfg, "--out", out, "eval") == 0
    assert run("--config", cfg, "--out", out, "eval", "--kv-precision", "fp8") == 0
    assert run("--out", out, "frontier") == 0
    return out


def test_every_stage_leaves_its_artifacts(pipeline):
    for name in (
        "params.bin", "probes.json", "ranking.json", "scores.jsonl",
        "costs.jsonl", "arch.json", "search_report.json",
        "child.bin", "assemble_report.json",
        "kv_scales.json", "kv_quant_report.json",
        "eval_report.json", "frontier.csv", "frontier.json", "manifest.json",
    ):
        assert (pipeline / name).exists(), name
    assert not (pipeline / ".lock").exists()  # every stage released the lock


def test_toy_run_reproduces_the_recorded_hashes(pipeline):
    """The bundled toy run at seed 11 gives the artifact hashes bench/README.md
    records, but for scores.jsonl: its rows lost their per_sample key, then
    their raw and n_samples keys, after that table was written. They are tied
    to the NumPy/OpenBLAS build they were recorded on (NumPy 2.4.6, OpenBLAS
    0.3.31): another BLAS may sum a matmul in another order and move the last
    bits."""
    expected = {
        "scores.jsonl": "9f188fd912fd34d20c5d8c15c32f0784dfba6505d4086dc441a3536be7bf51fc",
        "arch.json": "6bf4ae649e8df288e8d0927aede83861a9e54905efd8b12572e7a64d2e12b58d",
        "child.bin": "d430683f81405d179b99d1bf4b80d487f25600bc225c327328a2fe54af55b722",
        "ranking.json": "8e555691fc8aa1ea9d11c7ae7a124df7232155a46e4093ce2e0d0671f72d5c20",
        "kv_scales.json": "2d48aef2b042224f9d5b38d991fe7bd78e8e254a5d490628fa10027ecc162009",
        "kv_quant_report.json": "bbd839a95ad0a1806ed282fa5e65af797c81cc13d4141f29d0ce7ad1d3d0f9bf",
        # the fp8 eval runs last, so its report is the one left
        "eval_report.json": "ad1a75b1005fdecf71c7f108e05f26980036a119ba1b08c354747ce8d00f4610",
        "costs.jsonl": "f296ed043203c08dd435909b22d0b4736022b36a281515a29692f7fbba651df4",
        "frontier.json": "e53a29b828b21f4d1d9b67e1e40c7bba1c932457bc49a0ce22a4b2e7c3bab655",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((pipeline / name).read_bytes()).hexdigest() == digest, name


def test_manifest_records_hashed_stages(pipeline):
    manifest = json.loads((pipeline / "manifest.json").read_text())
    assert manifest["tool"] == "archsearch"
    assert set(manifest["stages"]) == {
        "score", "search", "assemble", "quantize", "eval", "frontier",
    }
    score = manifest["stages"]["score"]
    out_stamp = score["outputs"]["scores"]
    digest = hashlib.sha256((pipeline / "scores.jsonl").read_bytes()).hexdigest()
    assert out_stamp["sha256"] == digest
    assert out_stamp["path"] == "scores.jsonl"  # stored relative to the run dir
    # the weight file's stamp is the checksum its own shape manifest records
    params_manifest = json.loads((pipeline / "params.bin.json").read_text())
    assert score["outputs"]["params"]["sha256"] == params_manifest["checksum_sha256"]
    assert score["completed_utc"]  # timestamps live here and only here


def test_search_report_respects_both_budgets(pipeline):
    report = json.loads((pipeline / "search_report.json").read_text())
    usage = {u["name"]: u for u in report["budget_usage"]}
    assert set(usage) == {"time:long", "time:short"}
    for u in usage.values():
        assert u["total"] <= u["limit"] and u["slack"] >= 0
    assert len(report["choices"]) == 8
    assert report["objective"] >= 0.0


def test_assemble_report_arithmetic(pipeline):
    report = json.loads((pipeline / "assemble_report.json").read_text())
    parent, child = report["parent_params"], report["child_params"]
    assert 0 < child <= parent
    assert report["param_reduction_pct"] == pytest.approx(100.0 * (1 - child / parent))
    assert len(report["layers"]) == 8


def test_eval_report_contents(pipeline):
    report = json.loads((pipeline / "eval_report.json").read_text())
    assert report["source"] == "child.bin"  # eval prefers the assembled child
    assert report["kv_precision"] == "fp8"  # the fp8 run wrote last
    assert 0.0 <= report["retrieval_accuracy"] <= 1.0
    assert set(report["efforts"]) == {"high", "medium", "low"}
    for effort, cap in (("high", 48), ("medium", 24), ("low", 12)):
        stats = report["efforts"][effort]
        assert stats["max_new_tokens"] == cap
        assert 0 < stats["mean_generated"] <= cap
    assert report["effort_length_ratio_high_low"] >= 1.0
    assert report["kv_quant"] is not None and "0" in report["kv_quant"]
    # one sequence's fp8 codes at the final decode length, byte for byte
    cache = report["kv_cache"]
    assert cache["stored_dtype"] == "uint8"
    assert cache["held_bytes"] == cache["analytic_bytes"] > 0


def test_eval_decodes_once_and_lower_efforts_are_prefixes(pipeline, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline, out)
    assert run("--config", bundled_config(), "--out", out, "eval") == 0
    report = json.loads((out / "eval_report.json").read_text())
    high = report["efforts"]["high"]["lengths"]
    for effort in ("medium", "low"):
        stats = report["efforts"][effort]
        assert stats["lengths"] == [min(n, stats["max_new_tokens"]) for n in high]
    # decoding afresh at the low cap gives the same lengths
    rc = load_run_config(bundled_config())
    params = load_params(out / "child.bin")
    prompts = np.random.default_rng(rc.seed + _SEED_PROMPTS).integers(
        2, rc.config.vocab_size,
        size=(rc.eval_cfg["n_prompts"], rc.eval_cfg["prompt_len"]), dtype=np.int64,
    )
    _, low = generate_batch(params, assembled_spec(params), prompts, rc.efforts["low"],
                            end_token=rc.eval_cfg["end_token"])
    assert report["efforts"]["low"]["lengths"] == low.tolist()
    # the "bf16" cache stores the substrate's float32: twice the analytic bytes
    cache = report["kv_cache"]
    assert cache["stored_dtype"] == "float32"
    assert cache["held_bytes"] == 2 * cache["analytic_bytes"] > 0


def test_frontier_outputs(pipeline):
    lines = (pipeline / "frontier.csv").read_text().splitlines()
    assert len(lines) == 16  # header + 15 bundled records
    assert lines[0].startswith("model,kv_precision,effort")
    rows = json.loads((pipeline / "frontier.json").read_text())
    parent_high = [r for r in rows
                   if (r["model"], r["kv_precision"], r["effort"])
                   == ("parent", "bf16", "high")]
    assert parent_high[0]["relative_request_rate"] == 1.0


@pytest.mark.parametrize("first, second", [({0}, {0, 1}), ({0, 1}, {0})],
                         ids=["one-cpu-first", "two-cpus-first"])
def test_score_bytes_match_with_and_without_the_forked_child(tmp_path, monkeypatch,
                                                              first, second):
    # One CPU scores in this process alone; two fork a scoring child.
    cfg = bundled_config()
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: first)
    assert run("--config", cfg, "--out", a, "score") == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: second)
    assert run("--config", cfg, "--out", b, "score") == 0
    for name in ("params.bin", "scores.jsonl", "ranking.json", "probes.json"):
        ha = hashlib.sha256((a / name).read_bytes()).hexdigest()
        hb = hashlib.sha256((b / name).read_bytes()).hexdigest()
        assert ha == hb, name


def test_infeasible_target_exits_2(pipeline, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    for name in ("scores.jsonl", "ranking.json"):
        shutil.copy(pipeline / name, out / name)
    cfg = json.loads(bundled_config().read_text())
    cfg["targets"]["long"] = 50.0
    bad = tmp_path / "impossible.json"
    bad.write_text(json.dumps(cfg))
    assert run("--config", bad, "--out", out, "search") == 2


def test_measured_costs_flow_through(pipeline, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    for name in ("scores.jsonl", "ranking.json"):
        shutil.copy(pipeline / name, out / name)
    measured = tmp_path / "measured.jsonl"
    measured.write_text(json.dumps({
        "layer": 1, "variant": "attn:global+ffn:keep:16", "scenario": "long",
        "time_ns": 1,
    }) + "\n")
    assert run("--config", bundled_config(), "--out", out, "search",
               "--measured-costs", measured) == 0
    rows = [json.loads(l) for l in (out / "costs.jsonl").read_text().splitlines()]
    hit = [r for r in rows
           if (r["layer"], r["variant"], r["scenario"])
           == (1, "attn:global+ffn:keep:16", "long")]
    assert hit[0]["time_ns"] == 1


def test_a_runs_costs_replay_its_search(pipeline, tmp_path):
    """costs.jsonl is a --measured-costs file: given back, it prices every
    block as before, so the search writes the same bytes."""
    out = tmp_path / "run"
    shutil.copytree(pipeline, out)
    assert run("--config", bundled_config(), "--out", out, "search",
               "--measured-costs", pipeline / "costs.jsonl") == 0
    for name in ("costs.jsonl", "arch.json", "search_report.json"):
        assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_measured_costs_take_only_the_time(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    for name in ("scores.jsonl", "ranking.json"):
        shutil.copy(pipeline / name, out / name)
    lines = (pipeline / "costs.jsonl").read_text().splitlines()[:2]
    for key in ("kv_bytes_per_seq", "weight_bytes"):
        measured = tmp_path / f"{key}.jsonl"
        measured.write_text(lines[0] + "\n" + json.dumps({**json.loads(lines[1]), key: 64})
                            + "\n")
        assert run("--config", bundled_config(), "--out", out, "search",
                   "--measured-costs", measured) == 1
        err = capsys.readouterr().err
        assert f"error: {key} is not a cost line field (in {measured} line 2)" in err
        assert not (out / "arch.json").exists()


def test_lock_contention_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    fd = os.open(out / ".lock", os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # another holder of the directory
        assert run("--out", out, "frontier") == 1
        assert "locked" in capsys.readouterr().err
        assert not (out / "frontier.csv").exists()
    finally:
        os.close(fd)


def test_leftover_unheld_lock_file_does_not_block(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("1234\n")  # left by a killed stage; nobody holds it
    assert run("--out", out, "frontier") == 0
    assert (out / "frontier.csv").exists()
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("death, message", [
    ("raise", "error: retrieval probe 3 has no answer"),
    ("exit", "error: the scoring child process exited with status 3"),
])
def test_a_failed_scoring_child_exits_1_and_unlocks(tmp_path, capsys, monkeypatch,
                                                      death, message):
    def retrieval_walk_fails(params, arch, probes):  # only the child walks these
        if death == "exit":
            os._exit(3)
        raise ProbeError("retrieval probe 3 has no answer")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(scoring, "_walk", retrieval_walk_fails)
    out = tmp_path / "run"
    assert run("--config", bundled_config(), "--out", out, "score") == 1
    assert message in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert not (out / "scores.jsonl").exists()
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_stage_needs_config(tmp_path, capsys):
    assert run("--out", tmp_path, "score") == 1
    assert "--config" in capsys.readouterr().err


def test_eval_fp8_requires_quantize_stage(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(pipeline / "params.bin", out / "params.bin")
    shutil.copy(pipeline / "params.bin.json", out / "params.bin.json")
    assert run("--config", bundled_config(), "--out", out, "eval",
               "--kv-precision", "fp8") == 1
    assert "quantize" in capsys.readouterr().err
    # unit scales unblock it without calibration
    assert run("--config", bundled_config(), "--out", out, "quantize",
               "--kv-scales", "none") == 0
    scales = json.loads((out / "kv_scales.json").read_text())
    assert scales["mode"] == "unit"
    assert run("--config", bundled_config(), "--out", out, "eval",
               "--kv-precision", "fp8") == 0


def test_bad_baseline_format_exits_1(tmp_path, capsys):
    assert run("--out", tmp_path, "frontier", "--baseline", "nodash") == 1
    assert "MODEL/PRECISION" in capsys.readouterr().err


def test_version_flag_prints_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "archsearch" in capsys.readouterr().out


@pytest.mark.parametrize("section, field, stage", [
    ("probes", "lm_count", "score"),
    ("probes", "lm_length", "score"),
    ("probes", "retrieval_count", "score"),
    ("probes", "retrieval_length", "score"),
    ("eval", "n_prompts", "eval"),
    ("eval", "prompt_len", "eval"),
    ("efforts", "low", "eval"),
])
def test_empty_inputs_are_config_errors(tmp_path, capsys, section, field, stage):
    cfg = json.loads(bundled_config().read_text())
    cfg[section][field] = 0
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("--config", bad, "--out", out, stage) == 1
    err = capsys.readouterr().err
    assert f"error: {section}.{field} must be a positive integer" in err
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("cap", [-3, "x", 2.5, True])
def test_effort_caps_must_be_positive_integers(tmp_path, capsys, cap):
    cfg = json.loads(bundled_config().read_text())
    cfg["efforts"]["low"] = cap
    bad = tmp_path / "bad_effort.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("--config", bad, "--out", out, "eval") == 1
    err = capsys.readouterr().err
    assert f"error: efforts.low must be a positive integer, got {cap!r}" in err
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("section, value, stage", [
    ("efforts", [48, 12], "eval"),
    ("probes", [1], "score"),
    ("eval", [16, 16], "eval"),
    ("model", [1], "score"),
    ("library", [1.0, 0.5], "score"),
    ("targets", [1.3], "search"),
    ("kv_budget", [128], "search"),
    ("hardware", "fast", "search"),
])
def test_non_object_sections_are_config_errors(tmp_path, capsys, section, value, stage):
    cfg = json.loads(bundled_config().read_text())
    cfg[section] = value
    bad = tmp_path / "bad_section.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("--config", bad, "--out", out, stage) == 1
    assert f"error: {section} must be a JSON object" in capsys.readouterr().err
    assert not (out / ".lock").exists()


def test_non_object_run_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    out = tmp_path / "run"
    assert run("--config", bad, "--out", out, "score") == 1
    assert "the run config must be a JSON object" in capsys.readouterr().err
    assert not (out / ".lock").exists()


def test_eval_fp8_rejects_a_scale_that_is_not_a_power_of_two(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    for name in ("params.bin", "params.bin.json", "kv_scales.json"):
        shutil.copy(pipeline / name, out / name)
    scales = json.loads((out / "kv_scales.json").read_text())
    scales["v_scales"][1] = 0.3  # a hand edit: exact encoding needs powers of two
    (out / "kv_scales.json").write_text(json.dumps(scales))
    assert run("--config", bundled_config(), "--out", out, "eval",
               "--kv-precision", "fp8") == 1
    assert "error: scale must be a power of two" in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert not (out / "eval_report.json").exists()


def _drop_isl(cfg):
    del cfg["scenarios"][0]["isl"]


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg.update(scenarios=[1]), "scenarios[0] must be a JSON object"),
    (lambda cfg: cfg.update(targets={"long": "fast"}), "targets.long must be a number, got 'fast'"),
    (_drop_isl, "scenarios[0].isl is missing"),
], ids=["scenario-not-object", "target-not-number", "scenario-without-isl"])
def test_malformed_scenarios_and_targets_are_config_errors(tmp_path, capsys, edit, message):
    cfg = json.loads(bundled_config().read_text())
    edit(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("--config", bad, "--out", out, "search") == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("path, value, stage, message", [
    (("seed",), "x", "score", "seed must be an integer, got 'x'"),
    (("seed",), 2.5, "score", "seed must be an integer, got 2.5"),
    (("model", "bogus"), 1, "score", "model.bogus is not a model config field"),
    (("model", "attn_pattern"), 5, "score", "model.attn_pattern must be a list, got 5"),
    (("library", "keep_fractions"), "x", "score", "library.keep_fractions must be a list, got 'x'"),
    (("library", "alt_windows"), ["a"], "score",
     "library.alt_windows[0] must be an integer, got 'a'"),
    (("library", "alt_windows"), [1.5], "score",
     "library.alt_windows[0] must be an integer, got 1.5"),
    (("probes", "retrieval_pairs"), "x", "score",
     "probes.retrieval_pairs must be a positive integer, got 'x'"),
    (("scenarios", 0, "isl"), 2.5, "search", "scenarios[0].isl must be an integer, got 2.5"),
    (("hardware", "n_devices"), 1.5, "search", "hardware.n_devices must be an integer, got 1.5"),
    (("eval", "end_token"), "x", "eval", "eval.end_token must be an integer, got 'x'"),
    (("eval", "end_token"), True, "eval", "eval.end_token must be an integer, got True"),
    (("eval", "end_token"), [1], "eval", "eval.end_token must be an integer, got [1]"),
    (("probes", "lm_cnt"), 3, "score", "probes.lm_cnt is not a probe config field"),
    (("eval", "n_promts"), 3, "eval", "eval.n_promts is not an eval config field"),
    (("scenarios", 0, "bogus"), 1, "search", "scenarios[0].bogus is not a scenario field"),
    (("hardware", "bogus"), 1, "search", "hardware.bogus is not a hardware profile field"),
    (("kv_budget",), {"length": 128, "max_bytes_per_seq": 4096, "bogus": 1}, "search",
     "kv_budget.bogus is not a kv budget field"),
    (("library", "bogus"), 1, "score", "library.bogus is not a library menu field"),
    (("kv_budget",), {"length": 128, "max_bytes_per_seq": 4096, "precision": "fp4"}, "search",
     "kv_budget.precision must be one of ['bf16', 'fp8'], got 'fp4'"),
    (("kv_budgt",), {"length": 128, "max_bytes_per_seq": 4096}, "search",
     "kv_budgt is not a run config field"),
    (("kv_budget",), {}, "search", "kv_budget missing fields: length, max_bytes_per_seq"),
    (("targets", "lnog"), 9, "search", "targets.lnog names no scenario"),
], ids=[
    "seed-string", "seed-float", "model-unknown-key", "attn-pattern-int",
    "keep-fractions-string", "alt-windows-string", "alt-windows-float",
    "retrieval-pairs-string", "isl-float", "n-devices-float",
    "end-token-string", "end-token-bool", "end-token-list",
    "probes-unknown-key", "eval-unknown-key", "scenario-unknown-key",
    "hardware-unknown-key", "kv-budget-unknown-key", "library-unknown-key",
    "kv-precision-unknown", "top-level-unknown-key", "kv-budget-empty", "target-without-scenario",
])
def test_mistyped_fields_are_config_errors(tmp_path, capsys, path, value, stage, message):
    cfg = json.loads(bundled_config().read_text())
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("--config", bad, "--out", out, stage) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("name, keep", [("scores.jsonl", 3000), ("ranking.json", 500)])
def test_torn_artifacts_are_config_errors(pipeline, tmp_path, capsys, name, keep):
    out = tmp_path / "run"
    out.mkdir()
    for artifact in ("scores.jsonl", "ranking.json"):
        shutil.copy(pipeline / artifact, out / artifact)
    torn = (pipeline / name).read_bytes()[:keep]  # a write cut off mid-line
    (out / name).write_bytes(torn)
    assert run("--config", bundled_config(), "--out", out, "search") == 1
    where = str(out / name)
    if name.endswith(".jsonl"):
        where += f" line {len(torn.splitlines())}"
    err = capsys.readouterr().err
    assert err.startswith("error: not valid JSON") and f"(in {where})" in err
    assert not (out / ".lock").exists()
    assert not (out / "arch.json").exists()


def _cut(text):
    return text[:300]  # a write cut off mid-file


@pytest.mark.parametrize("name, stage, edit, message", [
    ("params.bin.json", "eval", _cut, "not valid JSON"),
    ("params.bin.json", "eval", lambda t: t.replace('"dtype"', '"dtyp"'),
     "dtyp is not a params manifest field"),
    ("manifest.json", "frontier", _cut, "not valid JSON"),
    ("manifest.json", "frontier", lambda t: json.dumps({**json.loads(t), "stages": []}),
     "stages must be a JSON object"),
], ids=["params-torn", "params-unknown-key", "manifest-torn", "manifest-stages-list"])
def test_broken_params_and_manifest_files_are_config_errors(
        pipeline, tmp_path, capsys, name, stage, edit, message):
    out = tmp_path / "run"
    out.mkdir()
    for artifact in ("params.bin", "params.bin.json", "manifest.json"):
        shutil.copy(pipeline / artifact, out / artifact)
    (out / name).write_text(edit((pipeline / name).read_text()))
    assert run("--config", bundled_config(), "--out", out, stage) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and f"(in {out / name})" in err
    assert not (out / ".lock").exists()
