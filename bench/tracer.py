"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a wrapper in its defining
module and in every `archsearch` module that imported it by name (methods are
replaced on their class). Each call records one span: name, start, end, the
index of its parent span, and counts taken at the same boundary. Spans stay in
memory until `write` is called when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _eval_span(args, kwargs):
    return f"cli.eval_{args[0].kv_precision}"


def _solve_span(args, kwargs):
    return f"search.solve.d{len(args[0].layers)}"


def _forward_counts(args, kwargs, result):
    tokens = args[2] if len(args) > 2 else kwargs["tokens"]
    return {"positions": int(tokens.shape[0] * tokens.shape[1])}


def _generate_counts(args, kwargs, result):
    return {"tokens": int(result[1].sum())}


def _encode_counts(args, kwargs, result):
    return {"values": int(result[1].n_values)}


def _solve_counts(args, kwargs, result):
    return {"nodes": int(result.nodes_expanded)}


_FORWARD = ("model.forward_self_s", "model.forward_calls", "model.forward_positions",
            "model.positions_per_token", "scoring.forward_calls")
_GENERATE = ("model.generate_s", "model.generated_tokens", "model.positions_per_token",
             "kvquant.values_per_token")
_ENCODE = ("kvquant.encode_s", "kvquant.encode_calls", "kvquant.encoded_values",
           "kvquant.values_per_token")
_SOLVE = ("search.solve_s", "search.solve_calls", "search.nodes_expanded", "search.nodes_per_s",
          "search.solve_s.d8", "search.solve_s.d10", "search.solve_s.d12",
          "search.nodes_expanded.d8", "search.nodes_expanded.d10", "search.nodes_expanded.d12")

# (module, attribute, span name or a function of the call's arguments,
#  counts taken from the call, per-layer metrics that need this span)
TARGETS: list[tuple[str, str, str | Callable, Callable | None, tuple[str, ...]]] = [
    ("archsearch.cli", "cmd_score", "cli.score", None, ("cli.score_s",)),
    ("archsearch.cli", "cmd_search", "cli.search", None, ("cli.search_s",)),
    ("archsearch.cli", "cmd_assemble", "cli.assemble", None, ("cli.assemble_s",)),
    ("archsearch.cli", "cmd_quantize", "cli.quantize", None, ("cli.quantize_s",)),
    ("archsearch.cli", "cmd_eval", _eval_span, None, ("cli.eval_bf16_s", "cli.eval_fp8_s")),
    ("archsearch.cli", "cmd_frontier", "cli.frontier", None, ("cli.frontier_s",)),
    ("archsearch.scoring", "rank_experts", "scoring.rank_experts", None,
     ("scoring.rank_experts_s",)),
    ("archsearch.scoring", "score_library", "scoring.score_library", None,
     ("scoring.score_library_s",)),
    ("archsearch.model", "forward_batch", "model.forward", _forward_counts, _FORWARD),
    ("archsearch.model", "generate_batch", "model.generate", _generate_counts, _GENERATE),
    ("archsearch.model", "load_params", "model.load_params", None, ("model.load_params_s",)),
    ("archsearch.model", "save_params", "model.save_params", None, ("model.save_params_s",)),
    ("archsearch.kvquant", "calibrate_scales", "kvquant.calibrate", None,
     ("kvquant.calibrate_s",)),
    ("archsearch.kvquant", "encode", "kvquant.encode", _encode_counts, _ENCODE),
    ("archsearch.search", "solve", _solve_span, _solve_counts, _SOLVE),
    ("archsearch.search", "build_selection_problem", "search.build_problem", None,
     ("search.build_problem_s",)),
    ("archsearch.costs", "build_cost_table", "costs.build_cost_table", None,
     ("costs.build_cost_table_s",)),
    ("archsearch.library", "build_library", "library.build_library", None,
     ("library.build_library_s",)),
    ("archsearch.library", "assemble", "library.assemble", None, ("library.assemble_s",)),
    ("archsearch.manifest", "RunManifest.record_stage", "manifest.record_stage", None,
     ("manifest.record_stage_s",)),
    ("archsearch.metrics", "build_frontier", "metrics.build_frontier", None,
     ("metrics.build_frontier_s",)),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # traced names the program no longer has
        self.absent: set[str] = set()  # the per-layer metrics those names fed
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(label, start, end, stack[-1] if stack else -1)
            if counts is not None:
                spans[index].counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counts, metrics in TARGETS:
            owner = importlib.import_module(module_name)
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                self.absent.update(metrics)
                continue
            wrapper = self._wrap(original, name, counts)
            holders = [owner] if cls else [
                m for key, m in list(sys.modules.items())
                if key == "archsearch" or key.startswith("archsearch.")
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def self_seconds(self) -> list[float]:
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def under(self, index: int, prefix: str) -> bool:
        """Whether span `index` has an ancestor whose name starts with `prefix`."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name.startswith(prefix):
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"missing": self.missing,
             "spans": [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]}))
