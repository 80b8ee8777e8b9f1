import filecmp
import json

import pytest

from archsearch.metrics import (
    EFFORTS,
    FrontierPoint,
    RunRecord,
    accuracy_retention,
    build_frontier,
    bundled_run_records,
    effort_length_ratio,
    emit_frontier,
    find_baseline,
    load_run_records,
    relative_request_rate,
)
from archsearch.model import ConfigError, to_json, write_jsonl


def rec(model="m", precision="bf16", effort="high", tps=1000.0, avg=100.0,
        accuracy=50.0, suite="s"):
    return RunRecord(model=model, kv_precision=precision, effort=effort,
                     throughput_tokens_per_s=tps, avg_tokens_per_request=avg,
                     accuracy=accuracy, suite=suite)


# ---------------------------------------------------------------------------
# record arithmetic


def test_request_rate_is_throughput_over_length():
    assert rec(tps=1000.0, avg=100.0).request_rate == 10.0


def test_relative_rate_is_scale_invariant():
    base = rec(tps=1000.0, avg=100.0)
    doubled = rec(model="m2", tps=2000.0, avg=200.0)
    assert relative_request_rate(doubled, base) == 1.0  # exactly
    faster = rec(model="m3", tps=2000.0, avg=100.0)
    assert relative_request_rate(faster, base) == 2.0


def test_accuracy_retention_percentage():
    assert accuracy_retention(51.86, 51.86) == 100.0
    assert accuracy_retention(30.0, 60.0) == 50.0
    with pytest.raises(ConfigError):
        accuracy_retention(10.0, 0.0)


def test_effort_length_ratio():
    assert effort_length_ratio(1200.0, 120.0) == 10.0
    with pytest.raises(ConfigError):
        effort_length_ratio(1200.0, 0.0)


def test_run_record_validation():
    with pytest.raises(ConfigError, match="kv_precision"):
        rec(precision="int4")
    with pytest.raises(ConfigError, match="effort"):
        rec(effort="max")
    with pytest.raises(ConfigError, match="throughput"):
        rec(tps=0.0)
    with pytest.raises(ConfigError, match="avg tokens"):
        rec(avg=-1.0)
    assert EFFORTS == ("high", "medium", "low")


# ---------------------------------------------------------------------------
# record files


def test_record_file_roundtrip(tmp_path):
    records = [rec(), rec(model="m2", effort="low", accuracy=None)]
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, records)
    assert load_run_records(path) == records


def test_record_file_errors_name_the_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    good = json.dumps(to_json(rec()))
    path.write_text(good + "\n" + "{oops\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_run_records(path)
    path.write_text(good + "\n" + json.dumps({"model": "x"}) + "\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_run_records(path)


# ---------------------------------------------------------------------------
# the bundled measurement fixture


def test_bundled_records_reproduce_published_rates():
    records = bundled_run_records()
    assert len(records) == 15
    points = build_frontier(records, "parent", "bf16")
    high = {(p.model, p.kv_precision): p.relative_request_rate
            for p in points if p.effort == "high"}
    want = {
        ("parent", "bf16"): 1.000,
        ("child", "bf16"): 1.490,
        ("reference", "bf16"): 1.288,
        ("parent", "fp8"): 1.401,
        ("child", "fp8"): 2.077,
    }
    for key, target in want.items():
        assert high[key] == pytest.approx(target, abs=0.015), key


def test_bundled_records_accuracy_retention():
    records = bundled_run_records()
    by = {(r.model, r.kv_precision, r.effort): r for r in records}
    pairs = {
        "high": 100.8,
        "medium": 103.9,
        "low": 108.2,
    }
    for effort, target in pairs.items():
        child = by[("child", "fp8", effort)].accuracy
        parent = by[("parent", "fp8", effort)].accuracy
        assert accuracy_retention(child, parent) == pytest.approx(target, abs=0.1)


def test_bundled_records_effort_ratios():
    records = bundled_run_records()
    by = {(r.model, r.kv_precision, r.effort): r for r in records}
    parent = effort_length_ratio(
        by[("parent", "bf16", "high")].avg_tokens_per_request,
        by[("parent", "bf16", "low")].avg_tokens_per_request,
    )
    child = effort_length_ratio(
        by[("child", "bf16", "high")].avg_tokens_per_request,
        by[("child", "bf16", "low")].avg_tokens_per_request,
    )
    assert parent == pytest.approx(9.48, abs=0.3)
    assert child == pytest.approx(8.02, abs=0.3)


# ---------------------------------------------------------------------------
# frontier assembly


def test_find_baseline_requires_exactly_one():
    records = [rec(), rec(model="m", effort="low")]
    assert find_baseline(records, "m", "bf16") is records[0]
    with pytest.raises(ConfigError, match="exactly one"):
        find_baseline(records, "missing", "bf16")
    with pytest.raises(ConfigError, match="exactly one"):
        find_baseline(records + [rec()], "m", "bf16")


def test_frontier_ordering_is_deterministic():
    records = [
        rec(model="b", effort="low"),
        rec(model="a", effort="medium"),
        rec(model="a", effort="high"),
        rec(model="a", precision="fp8", effort="high"),
        rec(model="b", effort="high"),
    ]
    points = build_frontier(records, "a", "bf16")
    keys = [(p.model, p.kv_precision, p.effort) for p in points]
    assert keys == [
        ("a", "bf16", "high"),
        ("a", "bf16", "medium"),
        ("a", "fp8", "high"),
        ("b", "bf16", "high"),
        ("b", "bf16", "low"),
    ]


def test_emit_frontier_is_byte_deterministic(tmp_path):
    points = build_frontier(bundled_run_records(), "parent", "bf16")
    emit_frontier(points, tmp_path / "a.csv", tmp_path / "a.json")
    emit_frontier(points, tmp_path / "b.csv", tmp_path / "b.json")
    assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["model", "kv_precision", "effort"]
    rows = json.loads((tmp_path / "a.json").read_text())
    assert len(rows) == 15
    assert isinstance(rows[0], dict) and "relative_request_rate" in rows[0]


def test_frontier_point_fields_match_record():
    records = [rec(), rec(model="n", tps=500.0, avg=50.0, effort="high")]
    points = build_frontier(records, "m", "bf16")
    p = [x for x in points if x.model == "n"][0]
    assert isinstance(p, FrontierPoint)
    assert p.request_rate == 10.0
    assert p.relative_request_rate == 1.0
