"""Timings put on a common host speed.

The shared host runs this process at clock speeds up to about 1.6x apart and
switches between them many times a second, in a mix that drifts over minutes
(see README.md, "Steadiness"). A wall time therefore measures the mix as much
as the program. While a `Clock` times a call, a timer signal every
SAMPLE_EVERY seconds runs a small fixed block of work in the process and times
it, so the host's speed is sampled all through the call. The call's own time
is its wall time less the blocks that ran inside it, and its scaled time is
its own time times the block's nominal seconds over the mean block time during
the call: its time at the speed at which one block takes its nominal seconds.
A call too short for MIN_SAMPLES blocks is scaled by the last MIN_SAMPLES
blocks, taken during it and before it.

The blocks are the benchmark's own code, so no change to the program alters
them. Pure-Python code and NumPy-heavy code gain unequally from the host's
fast modes, so there are two blocks, each for the workloads whose work it
resembles: "numpy" (small matmuls and exps at the toy model's shapes, with
dict and sort work) for the model's workloads, and "python" (dict, sort and
arithmetic work) for the pure-Python solver.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

SAMPLE_EVERY = 0.05  # seconds between blocks; the blocks take about 2-3% of a call
MIN_SAMPLES = 20

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((96, 64))
_W = _rng.standard_normal((64, 64))


def _numpy_work(rounds: int) -> float:
    acc = 0.0
    for i in range(rounds):
        h = _X @ _W
        h = np.exp(h - h.max(axis=1, keepdims=True))
        acc += float(h.sum())
        table = {j: j * i for j in range(120)}
        acc += sum(sorted(table.values())[:8])
    return acc


def _python_work(rounds: int) -> float:
    acc = 0
    for i in range(rounds):
        table = {j: j * i for j in range(120)}
        acc += sum(sorted(table.values())[:8])
        acc += sum(k * k for k in range(60))
    return float(acc)


# kind: (work, rounds per block, nominal seconds of one block, about its
# median on the host the benchmark was built on)
BLOCKS = {"numpy": (_numpy_work, 20, 0.0015), "python": (_python_work, 60, 0.001)}


def reference_block(kind: str) -> float:
    """Wall seconds of one block of the kind, after one untimed round that
    brings its data back into the caches the program's call has used."""
    work, rounds, _ = BLOCKS[kind]
    work(1)
    t0 = perf_counter()
    acc = work(rounds)
    seconds = perf_counter() - t0
    if acc != acc:  # keeps the result alive; never true for finite inputs
        raise ArithmeticError("reference block produced NaN")
    return seconds


class Clock:
    """Times calls and scales each to the reference speed of one block kind."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = BLOCKS[kind][2]
        # every block's wall seconds, in order; the first ones give a short
        # first call a history
        self.samples = [reference_block(kind) for _ in range(MIN_SAMPLES)]
        self.spent = 0.0  # wall seconds the signal handler has taken, warm-up rounds included

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_block(self.kind))
        self.spent += perf_counter() - t0

    def time(self, fn, *args, **kwargs):
        """(fn's result, its seconds at the reference speed)."""
        first, spent = len(self.samples), self.spent
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        inside = len(self.samples) - first
        speed = statistics.fmean(self.samples[-max(MIN_SAMPLES, inside):])
        return out, (wall - (self.spent - spent)) * self.nominal / speed
