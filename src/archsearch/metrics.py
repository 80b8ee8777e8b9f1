"""Serving metrics: request rates, accuracy retention, efficiency frontier.

A run record is one measured serving configuration: a model at a KV precision
and a reasoning-effort setting, with its generation throughput, the average
number of tokens a request consumes at that effort, and an accuracy score.

Derived quantities:

* request rate = throughput / avg tokens per request (requests per second).
* relative request rate = a record's request rate over the baseline record's.
* accuracy retention = 100 * derived-model accuracy / parent accuracy.
* effort length ratio = avg tokens at high effort / avg tokens at low effort.

The frontier emitter turns a batch of records into CSV + JSON with a fixed
row order (model, kv precision, effort high>medium>low), so diffing two
emissions is meaningful.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Sequence

from .costs import KV_BYTES
from .model import ConfigError, parse_json, read_jsonl, to_json, write_atomic, write_json

EFFORTS = ("high", "medium", "low")
_EFFORT_RANK = {e: i for i, e in enumerate(EFFORTS)}


@dataclass(frozen=True)
class RunRecord:
    model: str
    kv_precision: str
    effort: str
    throughput_tokens_per_s: float
    avg_tokens_per_request: float
    accuracy: float | None = None
    suite: str = ""

    def __post_init__(self) -> None:
        if not self.model:
            raise ConfigError("run record needs a model id")
        if self.kv_precision not in KV_BYTES:
            raise ConfigError(
                f"run record {self.model}: kv_precision must be one of "
                f"{sorted(KV_BYTES)}, got {self.kv_precision!r}"
            )
        if self.effort not in EFFORTS:
            raise ConfigError(
                f"run record {self.model}: effort must be one of {EFFORTS}, "
                f"got {self.effort!r}"
            )
        if not (self.throughput_tokens_per_s > 0):
            raise ConfigError(f"run record {self.model}: throughput must be positive")
        if not (self.avg_tokens_per_request > 0):
            raise ConfigError(f"run record {self.model}: avg tokens must be positive")

    @property
    def request_rate(self) -> float:
        return self.throughput_tokens_per_s / self.avg_tokens_per_request

    from_json = classmethod(parse_json)


def load_run_records(path: Path | str) -> list[RunRecord]:
    return read_jsonl(path, RunRecord.from_json)


def bundled_run_records() -> list[RunRecord]:
    """The packaged reference measurements used by the tests and the demo."""
    ref = resources.files("archsearch").joinpath("fixtures/run_records.jsonl")
    with resources.as_file(ref) as path:
        return load_run_records(path)


# ---------------------------------------------------------------------------
# scalar metrics


def relative_request_rate(record: RunRecord, baseline: RunRecord) -> float:
    return record.request_rate / baseline.request_rate


def accuracy_retention(derived_accuracy: float, parent_accuracy: float) -> float:
    """Percent of the parent's accuracy the derived model keeps."""
    if not (parent_accuracy > 0):
        raise ConfigError("parent accuracy must be positive")
    return 100.0 * derived_accuracy / parent_accuracy


def effort_length_ratio(high_avg_tokens: float, low_avg_tokens: float) -> float:
    """How many times more tokens high effort spends than low effort."""
    if not (high_avg_tokens > 0 and low_avg_tokens > 0):
        raise ConfigError("effort_length_ratio needs positive token counts")
    return high_avg_tokens / low_avg_tokens


# ---------------------------------------------------------------------------
# frontier emission


@dataclass(frozen=True)
class FrontierPoint:
    model: str
    kv_precision: str
    effort: str
    throughput_tokens_per_s: float
    avg_tokens_per_request: float
    request_rate: float
    relative_request_rate: float
    accuracy: float | None
    suite: str


def find_baseline(
    records: Sequence[RunRecord], baseline_model: str, baseline_precision: str
) -> RunRecord:
    """The high-effort record of (model, precision); must exist exactly once."""
    hits = [
        r
        for r in records
        if r.model == baseline_model
        and r.kv_precision == baseline_precision
        and r.effort == "high"
    ]
    if len(hits) != 1:
        raise ConfigError(
            f"need exactly one high-effort record for baseline "
            f"{baseline_model}/{baseline_precision}, found {len(hits)}"
        )
    return hits[0]


def build_frontier(
    records: Sequence[RunRecord], baseline_model: str, baseline_precision: str
) -> list[FrontierPoint]:
    """All records as frontier points, rates relative to one fixed baseline."""
    baseline = find_baseline(records, baseline_model, baseline_precision)
    points = [
        FrontierPoint(
            model=r.model,
            kv_precision=r.kv_precision,
            effort=r.effort,
            throughput_tokens_per_s=r.throughput_tokens_per_s,
            avg_tokens_per_request=r.avg_tokens_per_request,
            request_rate=r.request_rate,
            relative_request_rate=relative_request_rate(r, baseline),
            accuracy=r.accuracy,
            suite=r.suite,
        )
        for r in records
    ]
    points.sort(key=lambda p: (p.model, p.kv_precision, _EFFORT_RANK[p.effort]))
    return points


def emit_frontier(
    points: Sequence[FrontierPoint], csv_path: Path | str, json_path: Path | str
) -> None:
    rows = to_json(points)
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=[f.name for f in fields(FrontierPoint)])
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(csv_path, text.getvalue())
    write_json(json_path, rows)
