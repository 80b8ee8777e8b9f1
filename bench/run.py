"""Benchmark of the archsearch pipeline, driven through its CLI and public functions.

    python3 bench/run.py --workload pipeline-toy|decode-long|solver-ladder \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 it times whole rounds of the workload for S seconds and reports
the end-to-end metrics; with --trace 1 it times untraced rounds for S/2
seconds, then traced rounds for S/2 seconds, and reports the per-layer
metrics and the tracing overhead. Set-up and round timings are scaled to a
common host speed (hostspeed.py); span times in the traced run are wall
times. Human-readable lines come first; the last line of standard output is
one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See bench/README.md.
"""

import os
import sys

# One BLAS/OpenMP thread, fixed before NumPy loads, so that every run (and
# every commit) computes alike on a shared two-core host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from hostspeed import Clock  # noqa: E402  (bench/, the script's directory, leads sys.path)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 7
SET_UP_REPEATS = {"pipeline-toy": 5, "decode-long": 3, "solver-ladder": 5}
NAMED = {  # the per-round figures each workload reports, with their units
    "pipeline_s": "s", "decode_bf16_tok_s": "tok/s", "decode_fp8_tok_s": "tok/s",
    "decode_fp8_req_s": "req/s", "solve_s": "s",
}


def import_seconds(kind: str) -> float:
    """Seconds to import archsearch.cli in a fresh interpreter, timed there by
    its own clock; hostspeed loads NumPy first, so NumPy's own import is left
    out."""
    code = ("import importlib, hostspeed; "
            f"print(hostspeed.Clock({kind!r}).time(importlib.import_module, 'archsearch.cli')[1])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def timed_rounds(workload, seconds: float) -> list[dict]:
    """Whole rounds until the next one would end past `seconds`; at least one."""
    figures = []
    start = perf_counter()
    while True:
        gc.collect()
        figures.append(workload.run_round())
        elapsed = perf_counter() - start
        if elapsed * (len(figures) + 1) / len(figures) > seconds:
            return figures


def median_per_op(rounds: list[dict]) -> dict[str, float]:
    """Each operation's median time over the rounds."""
    return {op: statistics.median(r[op] for r in rounds) for op in rounds[0]}


def run(args, workdir: Path) -> tuple[dict, dict, object]:
    from workloads import TOY_CONFIG, WORKLOADS

    kind = WORKLOADS[args.workload].reference
    clock = Clock(kind)
    imports = [import_seconds(kind) for _ in range(IMPORT_REPEATS)]
    workload = WORKLOADS[args.workload](args.seed, workdir, clock)
    set_ups = [clock.time(workload.set_up)[1] for _ in range(SET_UP_REPEATS[args.workload])]
    setup_s = statistics.median(imports) + statistics.median(set_ups)
    workload.warm_up()

    info = {"set_up": {"import_s": imports, "in_process_s": set_ups}, "clock": clock}
    if not args.trace:
        rounds = timed_rounds(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["rounds"] = rounds
        figures = workload.figures(median_per_op(rounds))
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (figures["round_s"], "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        named = figures
    else:
        from layers import block_seconds, rank_correlations, span_metrics
        from tracer import Tracer

        plain = timed_rounds(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_rounds(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(BENCH / "_traces" / f"{args.workload}.json")
        info["rounds"] = plain
        info["traced_rounds"] = traced
        named = workload.figures(median_per_op(plain))
        plain_s = named["round_s"]
        traced_s = workload.figures(median_per_op(traced))["round_s"]
        metrics = {k: v for k, v in span_metrics(tracer, len(traced)).items()
                   if k not in tracer.absent}
        blocks = block_seconds(args.seed)
        metrics.update({k: (v, "s") for k, v in blocks.items()})
        metrics.update({k: (v, "ratio") for k, v in rank_correlations(blocks, TOY_CONFIG).items()})
        metrics.update({k: (named.get(k, 0.0), unit) for k, unit in NAMED.items()})
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
        for name in tracer.missing:
            print(f"absent: {name} no longer exists; its metrics are left out", file=sys.stderr)
        info["missing"] = tracer.missing

    try:
        workload.check()
        correct = True
    except Exception:  # any check failure or crash in checking makes the run incorrect
        traceback.print_exc()
        correct = False
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {k: v for k, v in named.items() if k in NAMED}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-toy", "decode-long", "solver-ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "archsearch" / "__init__.py").is_file():
        print(f"error: no archsearch package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import archsearch

    if Path(archsearch.__file__).resolve().parent != SRC / "archsearch":
        print(f"error: archsearch imported from {archsearch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = BENCH / "_runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, named, info = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(info['rounds'])} rounds, set-up import {statistics.median(info['set_up']['import_s']):.4f} s "
          f"+ in-process {statistics.median(info['set_up']['in_process_s']):.4f} s")
    q = [x * 1e3 for x in statistics.quantiles(info["clock"].samples, n=4)]
    print(f"  reference block ({info['clock'].kind}): {len(info['clock'].samples)} samples, quartiles "
          f"{q[0]:.3f} {q[1]:.3f} {q[2]:.3f} ms (times are scaled to {info['clock'].nominal * 1e3:g} ms)")
    if not args.trace:
        for key, value in named.items():
            print(f"  {key:<32} {value:14.6f} {NAMED[key]}")
    for key, m in result["metrics"].items():
        print(f"  {key:<32} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
