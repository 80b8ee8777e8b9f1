import hashlib
import json
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from archsearch.cli import _SEED_PROMPTS, load_run_config, main
from archsearch.library import assembled_spec
from archsearch.model import generate_batch, load_params


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
    # the parameter checksum the manifest reports matches the weight file's own
    params_manifest = json.loads((pipeline / "params.bin.json").read_text())
    assert score["extra"]["params_checksum"] == params_manifest["checksum_sha256"]
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


def test_scoring_is_deterministic_across_processes_shapes(tmp_path):
    cfg = bundled_config()
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--config", cfg, "--out", a, "score") == 0
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


def test_lock_contention_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("1234\n")
    assert run("--out", out, "frontier") == 1
    assert "locked" in capsys.readouterr().err


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
