"""Block and expert quality scoring on fixed probe sets.

Two signals are produced. Activation MSE: replace one block in the parent,
re-run the probes, and measure mean squared drift of the final hidden states.
Task drop: accuracy loss on a synthetic long-range retrieval task whose answer
sits far behind the query. Expert contribution scores measure how much each
expert's removal (with routing re-selected over the remaining experts) moves a
layer's FFN output.

Every score row is a job: a signal, a layer, and a change to that layer's
block (an attention variant or a keep count); the signal fixes the probe
set. A job's first changed position (_first_changed) decides its forward: a
job that changes no probe position scores 0 without one; the others go on
one queue per probe set. One loop (_drain) scores jobs: it claims from each
queue in turn, takes the parent's states on that queue's probes on its first
claim, and scores each job (_score) with one resume of the model's layer
loop (model._layer_walk) at the job's layer, from the parent's residual
streams and from the job's first changed position.

The LM probes are walked once per score (model._token_walk), and that walk
ranks each layer's experts. When this process may run on two or more CPUs,
score_library forks one child. This process walks the LM probes into an
anonymous shared mapping made before the fork (_SharedWalk), closes the
write end of a "ready" pipe, and drains the LM queue; the child walks and
drains the retrieval queue, then drains the LM queue from views of the
mapping, once the pipe's end of file has come. The child sends its rows
back pickled over a pipe, keyed by job, and the rows merge in job order.
Under --trace, this process's counts cover only the jobs it claimed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import mmap
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NoReturn

import numpy as np

from .library import (
    ArchitectureSpec, BlockLibrary, ExpertRanking, LayerRanking, keep_variant_id, top_experts,
)
from .model import (
    AttentionVariant,
    ConfigError,
    MismatchError,
    ModelConfig,
    ModelParams,
    _expert_allowed_mask,
    _finish,
    _last_leaving,
    _layer_walk,
    _matmul,  # internal on purpose: identical math to the forward pass
    _Pass,
    _silu,
    _token_walk,
    final_hidden,
    first_mask_difference,
    parse_json,
    read_jsonl,
    route_tokens,
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
# expert contribution scores


def expert_contribution_scores(
    params: ModelParams,
    arch: ArchitectureSpec,
    layer: int,
    ffn_input: np.ndarray,
) -> LayerRanking:
    """`layer`'s kept expert ids, most important first (ties going to the
    lower id), and their scores: the mean squared FFN-output change from
    removing each, on `ffn_input` [probes, positions, d_model], the FFN
    input of `layer`.

    Removing expert i re-selects the per-token top-k over the remaining experts
    and renormalizes the routing weights. Tokens that never routed to i are
    untouched, so an expert outside every token's top-k scores exactly 0.
    """
    c = params.config
    lp = params.layers[layer]
    keep = arch.layers[layer].expert_keep_set
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
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return LayerRanking(tuple(ids[i] for i in order), tuple(scores[order].tolist()))


def rank_experts(params: ModelParams, arch: ArchitectureSpec, probes: ProbeSet) -> ExpertRanking:
    """Per-layer expert importance ranking from contribution scores, from one
    walk of the parent over `probes` (score_library ranks the same way)."""
    return ExpertRanking(tuple(
        expert_contribution_scores(params, arch, i, ffn_input)
        for i, (_, ffn_input, _) in enumerate(_token_walk(params, arch, probes.tokens))
    ))


# ---------------------------------------------------------------------------
# score table


@dataclass(frozen=True)
class ScoreRow:
    layer: int
    variant: str  # "attn:..." or "ffn:keep:N"
    signal: str
    value: float  # aggregate degradation, >= 0

    from_json = classmethod(parse_json)


@dataclass
class ScoreTable:
    rows: list[ScoreRow] = field(default_factory=list)

    def sorted_rows(self) -> list[ScoreRow]:
        return sorted(self.rows, key=lambda r: (r.layer, r.variant, r.signal))

    def get(self, layer: int, variant: str, signal: str) -> ScoreRow:
        for r in self.rows:
            if r.layer == layer and r.variant == variant and r.signal == signal:
                return r
        raise KeyError(f"no score for layer={layer} variant={variant} signal={signal}")

    def save(self, path: Path | str) -> None:
        write_jsonl(path, self.sorted_rows())

    @staticmethod
    def load(path: Path | str) -> "ScoreTable":
        return ScoreTable(rows=read_jsonl(path, ScoreRow.from_json))


# ---------------------------------------------------------------------------
# score jobs


@dataclass(frozen=True)
class _Job:
    """One score row: `layer`'s block with `change` (an attention variant, or
    a keep count of the layer's expert ranking), measured by `signal` on its
    probe set (LM probes for activation MSE, retrieval probes for task drop)."""

    signal: str
    layer: int
    change: AttentionVariant | int

    @property
    def variant_id(self) -> str:
        if isinstance(self.change, int):
            return keep_variant_id(self.change)
        return self.change.variant_id


def _jobs(library: BlockLibrary) -> list[_Job]:
    """Every row's job in row order: per layer, its attention options, then
    its keep counts, on the LM probes; then, per layer, its attention options
    on the retrieval probes."""
    lm = [_Job(SIGNAL_ACTIVATION_MSE, i, change) for i, layer_lib in enumerate(library.layers)
          for change in (*layer_lib.attention_options, *layer_lib.keep_counts)]
    task = [_Job(SIGNAL_TASK_DROP, i, attn) for i, layer_lib in enumerate(library.layers)
            for attn in layer_lib.attention_options]
    return lm + task


def _first_changed(arch: ArchitectureSpec, job: _Job) -> int | None:
    """The first position at which `job`'s variant can change any layer's
    output; None if it changes none. A job whose probes end before it needs
    no forward: the forward pass is pure, so it would reproduce the parent
    bit for bit. A keep count other than the parent's changes every position;
    a changed attention, those from its first_mask_difference on."""
    block = arch.layers[job.layer]
    if isinstance(job.change, int):  # the top ranked of the kept experts
        return 0 if job.change != block.experts_kept else None
    return first_mask_difference(block.attention, job.change)


def _answered(params: ModelParams, probes: ProbeSet, leaving: np.ndarray) -> np.ndarray:
    """Per-probe 1.0/0.0: whether the logits of `leaving`, the residual
    leaving the last layer, predict each probe's answer at its last row."""
    predicted = np.argmax(_finish(params, leaving).logits[:, -1, :], axis=-1)
    return (predicted == probes.answers).astype(np.float64)


def _walk(params: ModelParams, arch: ArchitectureSpec, probes: ProbeSet) -> tuple:
    """The parent's states on retrieval probes, from one walk over its
    layers: the residual entering each layer, the parent's outcome (its last
    layer run at the query position alone) and no expert orders."""
    entering = []
    for layer_input, _, leaving in _token_walk(params, arch, probes.tokens, last_only=True):
        entering.append(layer_input)
    return entering, _answered(params, probes, leaving), ()


def _score(
    params: ModelParams, arch: ArchitectureSpec, probes: ProbeSet, job: _Job, parent: tuple
) -> ScoreRow:
    """`job`'s row. Its variant differs from the parent in one layer only, so
    its forward resumes from `parent`, the parent's states on `probes` (from
    _walk or _SharedWalk), at that layer and from its first changed position
    (_first_changed); the rows before that position are the parent's."""
    entering, outcome, orders = parent
    if isinstance(job.change, int):
        keep = top_experts(orders[job.layer], job.change)
        variant = arch.with_layer(job.layer, expert_keep_set=keep)
    else:
        variant = arch.with_layer(job.layer, attention=job.change)
    first = _first_changed(arch, job)
    task = job.signal == SIGNAL_TASK_DROP
    run = _Pass.new(params.config, probes.length)
    leaving = _last_leaving(_layer_walk(params, variant, run, entering[job.layer], job.layer,
                                        first, entering, last_only=task))
    if task:
        correct = _answered(params, probes, leaving)
        drop = float(outcome.mean()) - float(correct.mean())
        return _row(job, max(0.0, drop))
    # the same array, in the same summation order, as a full variant forward
    variant_final = np.concatenate([outcome[:, :first], final_hidden(params, leaving)], axis=1)
    diff = outcome.astype(np.float64) - variant_final.astype(np.float64)
    per_seq = np.square(diff).mean(axis=(1, 2))
    return _row(job, float(per_seq.mean()))


def _row(job: _Job, value: float) -> ScoreRow:
    return ScoreRow(layer=job.layer, variant=job.variant_id, signal=job.signal, value=value)


def _drain(
    params: ModelParams,
    arch: ArchitectureSpec,
    jobs: list[_Job],
    queues: list[tuple[ProbeSet, int, Callable[[], tuple]]],
) -> dict[int, ScoreRow]:
    """The row of every job claimed from each (probes, queue, states) of
    `queues` in turn, until that queue is drained, keyed by job. states()
    gives the parent's states on the probes; it is called on the first claim
    from its queue, and they are dropped before the next queue."""
    rows = {}
    for probes, queue, states in queues:
        parent = None
        while (job := _claim(queue)) is not None:
            if parent is None:
                parent = states()
            rows[job] = _score(params, arch, probes, jobs[job], parent)
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
    variant differs from the parent in one layer only, so its forward is one
    resume of the model's layer loop at that layer, from the parent's
    residual entering each layer and from the first position the variant
    changes: 0 for a keep count, and for an attention variant the first
    position its mask changes (model.first_mask_difference).

    Every row is a job (_jobs). A job that changes no probe position scores 0
    without a forward; the others go on their probe set's queue (_job_queue),
    and _drain scores them. The LM probes are walked and ranked once, here:
    this process copies the walk into a shared mapping made before the fork
    (_SharedWalk), signals that it is written, and drains the LM queue. A
    forked child (_forked) drains the retrieval queue, then the LM queue
    from views of that mapping, once the signal has come. With one CPU
    nothing is forked: this process drains the LM queue, then runs the
    child's part on the same states. Under --trace, this process's counts
    cover only the jobs it claimed. The rows are the same whoever scores
    them, in job order: all activation-MSE rows, then all task-drop rows,
    each in layer order, a layer's attention variants before its keep counts
    (ScoreTable.save sorts them).
    """
    if library.n_layers != len(params.layers):
        raise MismatchError("library and parameters disagree on layer count")
    validate_retrieval_probes(retrieval_probes)
    probe_sets = {SIGNAL_ACTIVATION_MSE: lm_probes, SIGNAL_TASK_DROP: retrieval_probes}
    jobs = _jobs(library)
    queued = {signal: [] for signal in probe_sets}
    for n, job in enumerate(jobs):
        first = _first_changed(arch, job)
        if first is not None and first < probe_sets[job.signal].length:
            queued[job.signal].append(n)
    with _job_queue(queued[SIGNAL_ACTIVATION_MSE]) as lm_queue, \
            _job_queue(queued[SIGNAL_TASK_DROP]) as task_queue, \
            _SharedWalk(params, arch, lm_probes) as shared, \
            _forked(_drain, params, arch, jobs, [
                (retrieval_probes, task_queue, lambda: _walk(params, arch, retrieval_probes)),
                (lm_probes, lm_queue, shared.read),
            ]) as child_rows:
        parent, ranking = shared.walk(params, arch, lm_probes)
        rows = _drain(params, arch, jobs, [(lm_probes, lm_queue, lambda: parent)])
        del parent  # views of the shared mapping, which closes on leaving
        rows.update(child_rows())
    return ranking, ScoreTable(rows=[
        rows[n] if n in rows else _row(job, 0.0) for n, job in enumerate(jobs)
    ])


# ---------------------------------------------------------------------------
# the parent's LM walk, shared with the forked child


class _SharedWalk:
    """This process's walk of the parent over the LM probes, for the forked
    child to read: the residual entering each layer, the final hidden and
    each layer's expert order, in one anonymous shared mapping made before
    the fork, and a "ready" pipe whose end of file says they are written.

    No data goes through the pipe, so this process never blocks on it.
    Leaving the `with` closes the pipe, and then the mapping, which
    mmap.close refuses while any view of it is alive; after an exception (a
    traceback may hold a view) the mapping goes with its last view instead.
    """

    def __init__(self, params: ModelParams, arch: ArchitectureSpec, probes: ProbeSet):
        self.shape = (len(params.layers) + 1, probes.count, probes.length, params.config.d_model)
        self.order_sizes = [len(block.expert_keep_set) for block in arch.layers]
        self.states_bytes = math.prod(self.shape) * np.dtype(F32).itemsize
        self.buffer = mmap.mmap(-1, self.states_bytes + 8 * sum(self.order_sizes))
        self.ready, self.write_end = os.pipe()

    def __enter__(self) -> "_SharedWalk":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        os.close(self.ready)
        self.close_write_end()
        if exc_type is None:
            self.buffer.close()

    def close_write_end(self) -> None:
        """Close this process's write end of the ready pipe, once. End of file
        comes when both processes have closed theirs: this one once its walk
        is written, the child before it waits."""
        if self.write_end is not None:
            os.close(self.write_end)
            self.write_end = None

    def _views(self) -> tuple[np.ndarray, np.ndarray]:
        """The mapping as [layers + 1, count, length, d_model] residuals (the
        last one the final hidden) and the flat expert orders."""
        states = np.frombuffer(self.buffer, F32, count=math.prod(self.shape))
        orders = np.frombuffer(self.buffer, np.int64, offset=self.states_bytes)
        return states.reshape(self.shape), orders

    def _parent(self, states: np.ndarray, orders: list[int]) -> tuple:
        """The parent's states as _score reads them."""
        ids = iter(orders)
        per_layer = tuple(tuple(itertools.islice(ids, size)) for size in self.order_sizes)
        return list(states[:-1]), states[-1], per_layer

    def walk(
        self, params: ModelParams, arch: ArchitectureSpec, probes: ProbeSet
    ) -> tuple[tuple, ExpertRanking]:
        """This process's part: walk the parent over `probes`, copying the
        residual entering each layer into the mapping as the walk yields it
        and ranking each layer's experts; write the final hidden and the
        orders, and signal. Returns the parent's states, views of the
        mapping, and the ranking."""
        states, orders = self._views()
        ranked = []
        for i, (layer_input, ffn_input, leaving) in enumerate(
            _token_walk(params, arch, probes.tokens)
        ):
            states[i] = layer_input
            ranked.append(expert_contribution_scores(params, arch, i, ffn_input))
        states[-1] = final_hidden(params, leaving)
        flat = [eid for layer in ranked for eid in layer.order]
        orders[:] = flat
        self.close_write_end()
        return self._parent(states, flat), ExpertRanking(tuple(ranked))

    def read(self) -> tuple:
        """The child's part: close its inherited write end, without which end
        of file never comes, and wait for the ready pipe's end of file; then
        the parent's states as views of the mapping. The child never walks or
        ranks the LM probes."""
        self.close_write_end()
        os.read(self.ready, 1)  # returns at end of file: nothing is ever written
        states, orders = self._views()
        return self._parent(states, orders.tolist())


# ---------------------------------------------------------------------------
# shared job queues


@contextmanager
def _job_queue(jobs: list[int]) -> Iterator[int]:
    """A pipe holding `jobs` as 2-byte ids, its write end already closed;
    yields the read end, which is closed on leaving.

    A process that holds the read end, forked children included, claims the
    next job with _claim. Every id is written before anyone reads, so no read
    blocks; ids that do not fit in the pipe's buffer raise ConfigError, as a
    blocking write would hang, and so do ids past 2 bytes.
    """
    if max(jobs, default=0) >= 1 << 16:
        raise ConfigError(f"{len(jobs)} scoring jobs do not fit in a pipe's buffer "
                          f"(job id {max(jobs)} needs more than 2 bytes)")
    payload = b"".join(job.to_bytes(2, "little") for job in jobs)
    read_fd, write_fd = os.pipe()
    try:
        try:
            os.set_blocking(write_fd, False)
            written = os.write(write_fd, payload)
        except BlockingIOError:
            written = 0
        finally:
            os.close(write_fd)
        if written < len(payload):
            raise ConfigError(
                f"{len(jobs)} scoring jobs do not fit in a pipe's buffer "
                f"({written} of {len(payload)} bytes written)"
            )
        yield read_fd
    finally:
        os.close(read_fd)


def _claim(queue: int) -> int | None:
    """The next job id from _job_queue's read end; None once it is drained."""
    data = os.read(queue, 2)
    return int.from_bytes(data, "little") if data else None


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

    Where os.sched_getaffinity gives this process fewer than two CPUs, or
    does not exist (it is Linux-only), nothing is forked: the yielded
    function runs fn(*args) here.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        yield lambda: fn(*args)
        return
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
