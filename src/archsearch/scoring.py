"""Block and expert quality scoring on fixed probe sets.

Two signals are produced. Activation MSE: replace one block in the parent,
re-run the probes, and measure mean squared drift of the final hidden states.
Task drop: accuracy loss on a synthetic long-range retrieval task whose answer
sits far behind the query. Expert contribution scores measure how much each
expert's removal (with routing re-selected over the remaining experts) moves a
layer's FFN output.

Scoring looks inside the parent only through one walk over its layers per
probe set (model._layer_walk): on the LM probes each layer's experts are
ranked from the FFN input the walk gives; on the retrieval probes the walk
runs the last layer at the query position alone, which gives the parent's
outcome. Each replace-one-block variant resumes from the parent's residual
entering each layer, from the first position it changes.

The two passes read disjoint inputs. When this process may run on two or
more CPUs, score_library forks one child that runs the task-drop pass while
this process runs the activation pass; the child sends its rows back pickled
over a pipe, and the rows merge in the order one process gives them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, NoReturn

import numpy as np

from .library import ArchitectureSpec, BlockLibrary, ExpertRanking, LayerRanking, top_experts
from .model import (
    AttentionVariant,
    ConfigError,
    MismatchError,
    ModelConfig,
    ModelParams,
    _expert_allowed_mask,
    _finish,
    _layer_walk,
    _matmul,  # internal on purpose: identical math to the forward pass
    _silu,
    final_hidden,
    first_mask_difference,
    forward_batch,
    parse_json,
    read_jsonl,
    resume_forward,
    route_tokens,
    to_json,
    write_jsonl,
)

F32 = np.float32

SIGNAL_ACTIVATION_MSE = "activation_mse"
SIGNAL_TASK_DROP = "task_drop"

PAD_TOKEN = 0
QUERY_MARKER = 1


class ProbeError(ValueError):
    """Probe sequences are malformed for the task they claim to encode."""


# ---------------------------------------------------------------------------
# probe sets


@dataclass(frozen=True)
class ProbeSet:
    kind: str  # "lm" | "retrieval"
    tokens: np.ndarray  # [count, length] int64
    answers: np.ndarray | None  # [count] int64 for retrieval, else None
    manifest: dict

    @property
    def count(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def length(self) -> int:
        return int(self.tokens.shape[1])


def _probe_rng(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:probes:{label}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def _vocab_ranges(vocab_size: int) -> tuple[range, range, range]:
    """Disjoint filler/key/value id ranges; ids 0 and 1 are reserved."""
    usable = vocab_size - 2
    if usable < 6:
        raise ConfigError(f"vocab_size {vocab_size} too small for retrieval probes")
    n_keys = usable // 3
    n_fill = usable - 2 * n_keys
    fill = range(2, 2 + n_fill)
    keys = range(2 + n_fill, 2 + n_fill + n_keys)
    values = range(2 + n_fill + n_keys, vocab_size)
    return fill, keys, values


def make_lm_probes(config: ModelConfig, count: int, length: int, seed: int) -> ProbeSet:
    """Uniform random token sequences (ids 2.. so reserved ids stay out)."""
    if length > config.max_seq_len:
        raise ConfigError(f"probe length {length} exceeds max_seq_len {config.max_seq_len}")
    rng = _probe_rng(seed, "lm")
    tokens = rng.integers(2, config.vocab_size, size=(count, length), dtype=np.int64)
    return ProbeSet(
        kind="lm",
        tokens=tokens,
        answers=None,
        manifest={"kind": "lm", "count": count, "length": length, "seed": seed},
    )


def make_retrieval_probes(
    config: ModelConfig, count: int, length: int, n_pairs: int, seed: int
) -> ProbeSet:
    """Key/value pairs planted at the start, queried at the very end.

    Layout: [k1 v1 ... km vm  filler...  QUERY_MARKER k_q]; the expected next
    token is the value that followed k_q. The gap between the queried pair and
    the query exceeds length - 2*n_pairs - 2, so narrow attention windows
    cannot see the pair.
    """
    if length > config.max_seq_len:
        raise ConfigError(f"probe length {length} exceeds max_seq_len {config.max_seq_len}")
    if n_pairs < 1 or 2 * n_pairs + 2 > length:
        raise ConfigError(f"n_pairs={n_pairs} does not fit in length {length}")
    fill, keys, values = _vocab_ranges(config.vocab_size)
    if n_pairs > len(keys):
        raise ConfigError(f"n_pairs={n_pairs} exceeds {len(keys)} distinct keys")
    rng = _probe_rng(seed, "retrieval")
    tokens = np.empty((count, length), dtype=np.int64)
    answers = np.empty(count, dtype=np.int64)
    key_ids = np.arange(keys.start, keys.stop, dtype=np.int64)
    for i in range(count):
        ks = rng.choice(key_ids, size=n_pairs, replace=False)
        vs = rng.integers(values.start, values.stop, size=n_pairs, dtype=np.int64)
        row = np.empty(length, dtype=np.int64)
        row[0 : 2 * n_pairs : 2] = ks
        row[1 : 2 * n_pairs + 1 : 2] = vs
        row[2 * n_pairs : length - 2] = rng.integers(
            fill.start, fill.stop, size=length - 2 - 2 * n_pairs, dtype=np.int64
        )
        q = int(rng.integers(0, n_pairs))
        row[length - 2] = QUERY_MARKER
        row[length - 1] = ks[q]
        tokens[i] = row
        answers[i] = vs[q]
    return ProbeSet(
        kind="retrieval",
        tokens=tokens,
        answers=answers,
        manifest={
            "kind": "retrieval",
            "count": count,
            "length": length,
            "n_pairs": n_pairs,
            "seed": seed,
        },
    )


def validate_retrieval_probes(probes: ProbeSet) -> None:
    if probes.kind != "retrieval":
        raise ProbeError(f"expected retrieval probes, got kind {probes.kind!r}")
    if probes.answers is None:
        raise ProbeError("retrieval probes carry no answers")
    tokens = probes.tokens
    if tokens.shape[0] != probes.answers.shape[0]:
        raise ProbeError("answers do not align with sequences")
    if not np.all(tokens[:, -2] == QUERY_MARKER):
        raise ProbeError("malformed task sequences: query marker missing at position -2")


# ---------------------------------------------------------------------------
# long-context task scoring


def _check_layer(params: ModelParams, layer: int) -> None:
    if not 0 <= layer < len(params.layers):
        raise MismatchError(f"no layer {layer} in a {len(params.layers)}-layer model")


def _retrieval_correct(
    params: ModelParams,
    arch: ArchitectureSpec,
    probes: ProbeSet,
    layer: int = 0,
    entering: list[np.ndarray] | None = None,
    first: int = 0,
) -> np.ndarray:
    """Per-probe 1.0/0.0 retrieval outcome; only layers layer.. are run, from
    `entering`, the residual entering each layer, and from position `first`
    (see replace_one_block_score)."""
    validate_retrieval_probes(probes)
    if entering is None:
        entering = [h for h, _, _ in _layer_walk(params, arch, probes.tokens, last_only=True)]
    leaving = resume_forward(params, arch, layer, entering, first, last_only=True)
    return _answered(params, probes, leaving)


def _answered(params: ModelParams, probes: ProbeSet, leaving: np.ndarray) -> np.ndarray:
    """Per-probe 1.0/0.0: whether the logits of `leaving`, the residual
    leaving the last layer, predict each probe's answer at its last row."""
    predicted = np.argmax(_finish(params, leaving).logits[:, -1, :], axis=-1)
    return (predicted == probes.answers).astype(np.float64)


# ---------------------------------------------------------------------------
# expert contribution scores


@dataclass(frozen=True)
class ExpertScores:
    layer: int
    expert_ids: tuple[int, ...]  # ascending ids the scores align to
    scores: np.ndarray  # [n] float64, >= 0

    def ranking_order(self) -> tuple[int, ...]:
        # most important first; ties break toward the lower expert id
        order = sorted(range(len(self.expert_ids)), key=lambda i: (-self.scores[i], self.expert_ids[i]))
        return tuple(self.expert_ids[i] for i in order)


def expert_contribution_scores(
    params: ModelParams,
    arch: ArchitectureSpec,
    layer: int,
    probes: ProbeSet,
    ffn_input: np.ndarray | None = None,
) -> ExpertScores:
    """Mean squared FFN-output change from removing each kept expert.

    Removing expert i re-selects the per-token top-k over the remaining experts
    and renormalizes the routing weights. Tokens that never routed to i are
    untouched, so an expert outside every token's top-k scores exactly 0.
    """
    c = params.config
    lp = params.layers[layer]
    keep = arch.layers[layer].expert_keep_set
    if ffn_input is None:
        _check_layer(params, layer)
        ffn_input = next(islice(_layer_walk(params, arch, probes.tokens), layer, None))[1]
    n_probes, seq_len, d = ffn_input.shape
    x = ffn_input.reshape(-1, d)
    n_tokens = x.shape[0]

    allowed = _expert_allowed_mask(lp, keep, c.top_k)
    logits = x @ lp.router.T

    # Expert outputs are routing-independent; cache them once, each on the
    # rows that read it. Removing an expert re-routes each of its tokens to
    # exactly its next pick, so expert e is read only where a token's top
    # top_k + 1 holds it. A row of a product does not depend on the rows
    # beside it (_matmul keeps a lone row in a GEMM). The outputs sit
    # expert after expert in one compact array; outputs[at[pos, t]] is expert
    # pos's output on token t, and a pair never computed points at the zero
    # row at the end.
    picks, _ = route_tokens(logits, allowed, min(c.top_k + 1, int(allowed.sum())))
    reads = [(pos, np.flatnonzero((picks == pos).any(axis=-1))) for pos in np.flatnonzero(allowed)]
    n_rows = sum(rows.size for _, rows in reads)
    outputs = np.empty((n_rows + 1, d), dtype=F32)
    outputs[n_rows] = 0.0
    at = np.full((len(lp.expert_ids), n_tokens), n_rows, dtype=np.intp)
    start = 0
    for pos, rows in reads:
        if rows.size == 0:
            continue
        stop = start + rows.size
        outputs[start:stop] = _matmul(_silu(_matmul(x[rows], lp.w_in[pos])), lp.w_out[pos])
        at[pos, rows] = np.arange(start, stop)
        start = stop

    def mix(allowed_mask: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        lg = logits if rows is None else logits[rows]
        idx, w = route_tokens(lg, allowed_mask, c.top_k)
        row_ids = np.arange(lg.shape[0]) if rows is None else rows
        out = np.zeros((lg.shape[0], d), dtype=F32)
        for j in range(c.top_k):
            out += w[:, j, None] * outputs[at[idx[:, j], row_ids]]
        return out

    base_idx = picks[:, : c.top_k]
    base = mix(allowed)

    kept_positions = [pos for pos, on in enumerate(allowed) if on]
    ids = tuple(int(lp.expert_ids[pos]) for pos in kept_positions)
    scores = np.zeros(len(kept_positions), dtype=np.float64)
    for out_i, pos in enumerate(kept_positions):
        affected = np.nonzero((base_idx == pos).any(axis=-1))[0]
        if affected.size == 0:
            continue  # never routed: removal changes nothing, score exactly 0
        smaller = allowed.copy()
        smaller[pos] = False
        alt = mix(smaller, affected)
        sq = np.square(base[affected].astype(np.float64) - alt.astype(np.float64)).mean(axis=-1)
        row_total = np.zeros(n_tokens, dtype=np.float64)
        row_total[affected] = sq
        scores[out_i] = row_total.reshape(n_probes, seq_len).mean(axis=1).mean()
    return ExpertScores(layer=layer, expert_ids=ids, scores=scores)


def _layer_ranking(
    params: ModelParams,
    arch: ArchitectureSpec,
    layer: int,
    probes: ProbeSet,
    ffn_input: np.ndarray,
) -> LayerRanking:
    """One layer's expert ids, most important first, and their scores."""
    es = expert_contribution_scores(params, arch, layer, probes, ffn_input=ffn_input)
    order = es.ranking_order()
    by_id = dict(zip(es.expert_ids, es.scores.tolist()))
    return LayerRanking(order, tuple(by_id[eid] for eid in order))


def rank_experts(params: ModelParams, arch: ArchitectureSpec, probes: ProbeSet) -> ExpertRanking:
    """Per-layer expert importance ranking from contribution scores, from one
    walk of the parent over `probes` (score_library ranks the same way)."""
    return ExpertRanking(tuple(
        _layer_ranking(params, arch, i, probes, ffn_input)
        for i, (_, ffn_input, _) in enumerate(_layer_walk(params, arch, probes.tokens))
    ))


# ---------------------------------------------------------------------------
# replace-one-block scoring


def replace_one_block_score(
    params: ModelParams,
    arch: ArchitectureSpec,
    layer: int,
    probes: ProbeSet,
    attention: AttentionVariant | None = None,
    expert_keep_set: tuple[int, ...] | None = None,
    baseline_final: np.ndarray | None = None,
    entering: list[np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Final-hidden MSE against the unmodified model with one layer's block swapped.

    The variant's forward resumes from `entering`, the unmodified model's
    residual stream entering each layer on these probes (computed when not
    given): the layers before `layer` are the parent's own, so re-running
    them would repeat work. A changed attention alone leaves every position
    before its first_mask_difference with the parent's bits, so the variant
    runs its queries from there and takes the rows before it from
    `baseline_final`; a variant that changes no position scores 0 without a
    forward. Returns (mean squared error, per-sequence MSE array).
    """
    if attention is None and expert_keep_set is None:
        raise ConfigError("nothing to replace: give attention and/or expert_keep_set")
    _check_layer(params, layer)
    variant_arch = arch.with_layer(layer, attention=attention, expert_keep_set=expert_keep_set)
    first = _first_changed_position(arch, variant_arch, layer)
    if first is None or first >= probes.length:
        return 0.0, np.zeros(probes.count)
    if baseline_final is None:
        baseline_final = forward_batch(params, arch, probes.tokens).final_hidden
    if entering is None:
        entering = [h for h, _, _ in _layer_walk(params, arch, probes.tokens, last_only=True)]
    rows = final_hidden(params, resume_forward(params, variant_arch, layer, entering, first))
    # the same array, in the same summation order, as a full variant forward
    variant_final = np.concatenate([baseline_final[:, :first], rows], axis=1)
    diff = baseline_final.astype(np.float64) - variant_final.astype(np.float64)
    per_seq = np.square(diff).mean(axis=(1, 2))
    return float(per_seq.mean()), per_seq


def _first_changed_position(
    arch: ArchitectureSpec, variant: ArchitectureSpec, layer: int
) -> int | None:
    """The first position at which `variant`, which differs from `arch` at
    `layer` alone, can change any layer's output; None if it changes none."""
    old, new = arch.layers[layer], variant.layers[layer]
    if old.expert_keep_set != new.expert_keep_set:
        return 0
    return first_mask_difference(old.attention, new.attention)


# ---------------------------------------------------------------------------
# score table


@dataclass(frozen=True)
class ScoreRow:
    layer: int
    variant_id: str  # "attn:..." or "ffn:keep:N"
    signal: str
    value: float  # aggregate degradation, >= 0
    raw: float  # signed aggregate (task drop can be negative)
    n_samples: int
    per_sample: tuple[float, ...] = ()

    def to_json(self) -> dict:
        """model.to_json's object, with variant_id stored under the key
        "variant" (ScoreTable.load reads it back)."""
        obj = to_json(self)  # the module function; a method sees no class names
        obj["variant"] = obj.pop("variant_id")
        return obj


@dataclass
class ScoreTable:
    rows: list[ScoreRow] = field(default_factory=list)

    def sorted_rows(self) -> list[ScoreRow]:
        return sorted(self.rows, key=lambda r: (r.layer, r.variant_id, r.signal))

    def get(self, layer: int, variant_id: str, signal: str) -> ScoreRow:
        for r in self.rows:
            if r.layer == layer and r.variant_id == variant_id and r.signal == signal:
                return r
        raise KeyError(f"no score for layer={layer} variant={variant_id} signal={signal}")

    def has(self, layer: int, variant_id: str, signal: str) -> bool:
        try:
            self.get(layer, variant_id, signal)
            return True
        except KeyError:
            return False

    def signals(self) -> tuple[str, ...]:
        return tuple(sorted({r.signal for r in self.rows}))

    def save(self, path: Path | str) -> None:
        write_jsonl(path, (r.to_json() for r in self.sorted_rows()))

    @staticmethod
    def load(path: Path | str) -> "ScoreTable":
        def row(obj) -> ScoreRow:
            if isinstance(obj, dict):  # ScoreRow.to_json writes variant_id as "variant"
                obj = {("variant_id" if k == "variant" else k): v for k, v in obj.items()}
            return parse_json(ScoreRow, obj)

        return ScoreTable(rows=read_jsonl(path, row))


def _activation_pass(
    params: ModelParams, arch: ArchitectureSpec, library: BlockLibrary, probes: ProbeSet
) -> tuple[ExpertRanking, list[ScoreRow]]:
    """The expert ranking and every activation-MSE row, from one walk of the
    parent over the LM probes.

    Every row needs the parent's final hidden, which only the end of the walk
    gives, so the walk ranks each layer's experts as it goes and keeps the
    residual entering each layer for the variants scored after it.
    """
    ranked, entering = [], []
    for i, (layer_input, ffn_input, leaving) in enumerate(
        _layer_walk(params, arch, probes.tokens)
    ):
        ranked.append(_layer_ranking(params, arch, i, probes, ffn_input))
        entering.append(layer_input)
    baseline_final = final_hidden(params, leaving)
    rows = []
    for i, layer_lib in enumerate(library.layers):
        variants = [(attn.variant_id, {"attention": attn}) for attn in layer_lib.attention_options]
        variants += [
            (f"ffn:keep:{count}", {"expert_keep_set": top_experts(ranked[i].order, count)})
            for count in layer_lib.keep_counts
        ]
        for variant_id, change in variants:
            # The parent's own block changes nothing and scores 0 without a
            # forward; the forward pass is pure, so rescoring it would
            # reproduce the baseline bit for bit.
            mse, per_seq = replace_one_block_score(
                params, arch, i, probes, **change,
                baseline_final=baseline_final, entering=entering,
            )
            rows.append(
                ScoreRow(
                    layer=i, variant_id=variant_id, signal=SIGNAL_ACTIVATION_MSE,
                    value=mse, raw=mse, n_samples=probes.count,
                    per_sample=tuple(per_seq.tolist()),
                )
            )
    return ExpertRanking(tuple(ranked)), rows


def _task_drop_pass(
    params: ModelParams, arch: ArchitectureSpec, library: BlockLibrary, probes: ProbeSet
) -> list[ScoreRow]:
    """The task-drop row of every attention variant, from one pass of the
    parent over the retrieval probes.

    The pass keeps the residual entering each layer, and runs the last layer
    at the query position alone, which gives the parent's outcome. Each
    variant resumes at its layer from its first changed position; one that
    changes no position has the parent's outcome.
    """
    entering = []
    for layer_input, _, leaving in _layer_walk(params, arch, probes.tokens, last_only=True):
        entering.append(layer_input)
    parent_correct = _answered(params, probes, leaving)
    parent_acc = float(parent_correct.mean())
    rows = []
    for i, layer_lib in enumerate(library.layers):
        for attn in layer_lib.attention_options:
            correct = parent_correct
            first = first_mask_difference(arch.layers[i].attention, attn)
            if first is not None and first < probes.length:
                variant_arch = arch.with_layer(i, attention=attn)
                correct = _retrieval_correct(params, variant_arch, probes, i, entering, first)
            drop = parent_acc - float(correct.mean())
            rows.append(
                ScoreRow(
                    layer=i, variant_id=attn.variant_id, signal=SIGNAL_TASK_DROP,
                    value=max(0.0, drop), raw=drop, n_samples=probes.count,
                    per_sample=tuple((parent_correct - correct).tolist()),
                )
            )
    return rows


def score_library(
    params: ModelParams,
    arch: ArchitectureSpec,
    library: BlockLibrary,
    lm_probes: ProbeSet,
    retrieval_probes: ProbeSet,
) -> tuple[ExpertRanking, ScoreTable]:
    """Rank every layer's experts and score every library variant of every
    layer against the unmodified model.

    Activation MSE covers both attention and FFN variants (on the LM probes);
    FFN variants keep a prefix of the ranking made on the same probes. Task
    drop is restricted to attention variants (on the retrieval probes). A
    variant differs from the parent in one layer only, so its forward resumes
    from the parent's residual entering each layer, and an attention variant
    from the first position its mask changes (model.first_mask_difference).
    Each probe set gets one pass over the parent, stepping it layer by layer.

    The passes share no input but the parent. When os.sched_getaffinity
    gives this process two or more CPUs, a forked child runs the retrieval
    pass while this process runs the LM pass (_forked); with one CPU they run
    here, one after the other. The rows are the same either way.

    Rows are all activation-MSE rows, then all task-drop rows, each in layer
    order (ScoreTable.save sorts them).
    """
    if library.n_layers != len(params.layers):
        raise MismatchError("library and parameters disagree on layer count")
    validate_retrieval_probes(retrieval_probes)
    # sched_getaffinity is Linux-only; elsewhere both passes run here
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        ranking, rows = _activation_pass(params, arch, library, lm_probes)
        rows += _task_drop_pass(params, arch, library, retrieval_probes)
    else:
        with _forked(_task_drop_pass, params, arch, library, retrieval_probes) as task_drop_rows:
            ranking, rows = _activation_pass(params, arch, library, lm_probes)
            rows += task_drop_rows()
    return ranking, ScoreTable(rows=rows)


# ---------------------------------------------------------------------------
# one forked child


@contextmanager
def _forked(fn: Callable, *args) -> Iterator[Callable[[], object]]:
    """Run fn(*args) in a forked child while the with-body runs here.

    The body calls the yielded function to wait for the child: it returns
    fn's result, re-raises fn's exception (same type and message), or raises
    ChildProcessError naming the exit status of a child that died without
    reporting. Leaving the body by an exception, KeyboardInterrupt included,
    kills and reaps the child; no path leaves it running. The blocking
    os.read and os.waitpid are retried after a signal handler that returns
    (PEP 475), so a timer signal does not break the wait.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child_main(read_fd, write_fd, fn, args)
    os.close(write_fd)
    reaped = False

    def result():
        nonlocal reaped
        chunks = []
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
        reaped = True
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"the scoring child process {how}")
        ok, value = pickle.loads(b"".join(chunks))  # bytes the child wrote
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        os.close(read_fd)
        if not reaped:
            import signal  # here only: the module costs 0.7 ms to import

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_main(read_fd: int, write_fd: int, fn: Callable, args: tuple) -> NoReturn:
    """The forked child: pickle (True, fn's result) or (False, its exception)
    into the pipe and end through os._exit, which runs no atexit handler,
    flushes no stdio buffer it shares with the parent and unwinds no `with`
    of the parent's stack (so the parent's RunLock file is left alone)."""
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn(*args)))
        except BaseException as exc:  # reported to the parent, which re-raises it
            payload = _pickled_error(exc)
        view = memoryview(payload)
        while view:
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: BaseException) -> bytes:
    """(False, exc) pickled; an exception that does not survive the round
    trip (one whose __init__ takes other arguments) goes as a RuntimeError
    with its type name and message."""
    try:
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
