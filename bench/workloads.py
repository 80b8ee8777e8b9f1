"""The three benchmark workloads.

Each workload has a program set-up (timed and repeated), an untimed warm-up,
rounds of timed calls into the program, and checks run after timing. Every
round attempts the same operations, so the share of failed operations does not
depend on the seed or the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from hostspeed import Clock
from archsearch import cli, search  # called through the modules, so traced runs see the calls
from archsearch.costs import Budget
from archsearch.scoring import make_retrieval_probes

TOY_CONFIG = Path(cli.__file__).resolve().parent / "fixtures" / "toy_run.json"
NO_END_TOKEN = -1  # an argmax over the vocabulary is never negative


def call_cli(argv: list) -> int:
    """One CLI call with its stdout swallowed; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tokens_generated(report: dict) -> int:
    return sum(sum(e["lengths"]) for e in report["efforts"].values())


class Workload:
    """Base: subclasses fill in set_up, warm_up, run_round and check."""

    name = ""
    reference = "numpy"  # the hostspeed block kind whose work resembles this workload's

    def __init__(self, seed: int, workdir: Path, clock: Clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.tokens: dict[str, int] = {}

    def _stage(self, argv: list) -> float:
        self.attempted += 1
        code, seconds = self.clock.time(call_cli, argv)
        if code != 0:
            self.failed += 1
        return seconds

    def set_up(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self) -> dict[str, float]:
        """One round of timed calls; returns the seconds of each operation at
        the reference speed."""
        raise NotImplementedError

    def figures(self, op_s: dict[str, float]) -> dict[str, float]:
        """The named figures, with round_s, from each operation's seconds."""
        raise NotImplementedError

    def _same_tokens(self, key: str, report: dict) -> int:
        """Tokens a report generated, held equal across rounds."""
        n = tokens_generated(report)
        checks.require(self.tokens.setdefault(key, n) == n,
                       f"{key} generated {n} tokens, an earlier round {self.tokens[key]}")
        return n

    def check(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pipeline-toy: every CLI stage on the bundled toy config


class PipelineToy(Workload):
    """All seven stage calls on fixtures/toy_run.json, with the run seed taken
    from the benchmark seed, in a fresh run directory per round."""

    name = "pipeline-toy"
    STAGES = (
        ("score",), ("search",), ("assemble",), ("quantize",),
        ("eval", "--kv-precision", "bf16"), ("eval", "--kv-precision", "fp8"),
    )

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        self.config_path = TOY_CONFIG
        self.config = json.loads(TOY_CONFIG.read_text())
        self.run = workdir / "run"

    def set_up(self) -> None:
        cli.load_run_config(self.config_path, self.seed)
        fresh_dir(self.run)

    def _pipeline(self, config_path: Path, run: Path) -> dict[str, float]:
        times = {}
        for stage in self.STAGES:
            times[" ".join(stage)] = self._stage(
                ["--config", config_path, "--seed", self.seed, "--out", run, *stage])
            if stage[-1] in ("bf16", "fp8"):
                shutil.copyfile(run / "eval_report.json", run / f"eval_report.{stage[-1]}.json")
        times["frontier"] = self._stage(["--out", run, "frontier"])
        return times

    def warm_up(self) -> None:
        small = dict(self.config)
        small["probes"] = dict(lm_count=2, lm_length=24, retrieval_count=2,
                               retrieval_length=24, retrieval_pairs=4)
        small["efforts"] = {"high": 4, "medium": 2, "low": 1}
        small["eval"] = dict(n_prompts=2, prompt_len=8, end_token=0)
        path = self.workdir / "warm_up.json"
        path.write_text(json.dumps(small))
        self._pipeline(path, fresh_dir(self.workdir / "warm_up"))
        self.attempted = self.failed = 0

    def run_round(self) -> dict[str, float]:
        fresh_dir(self.run)
        times = self._pipeline(self.config_path, self.run)
        for precision in ("bf16", "fp8"):
            self._same_tokens(precision, json.loads(
                (self.run / f"eval_report.{precision}.json").read_text()))
        return times

    def figures(self, op_s):
        requests = self.config["eval"]["n_prompts"] * len(self.config["efforts"])
        return {
            "round_s": sum(op_s.values()),
            "pipeline_s": sum(op_s.values()),
            "decode_bf16_tok_s": self.tokens["bf16"] / op_s["eval --kv-precision bf16"],
            "decode_fp8_tok_s": self.tokens["fp8"] / op_s["eval --kv-precision fp8"],
            "decode_fp8_req_s": requests / op_s["eval --kv-precision fp8"],
        }

    def check(self) -> None:
        check_run_dir(self.run, self.config_path, self.seed, signal="task_drop")


def check_run_dir(run: Path, config_path: Path, seed: int, signal: str) -> None:
    """Every pipeline-artifact check on one run directory."""
    config = json.loads(Path(config_path).read_text())
    checks.check_manifest_hashes(run)
    checks.check_scores(run)
    checks.check_arch(run, config, signal)
    checks.check_child_params(run)
    if (run / "frontier.json").exists():
        checks.check_frontier(run)
    rc = cli.load_run_config(config_path, seed)
    p = rc.probes
    probes = make_retrieval_probes(
        rc.config, p["retrieval_count"], p["retrieval_length"], p["retrieval_pairs"],
        seed + cli._SEED_EVAL,
    )
    scales = json.loads((run / "kv_scales.json").read_text())
    for precision in ("bf16", "fp8"):
        report = json.loads((run / f"eval_report.{precision}.json").read_text())
        checks.require(report["kv_precision"] == precision, f"{precision} report mislabelled")
        checks.check_generation(report, rc.efforts, rc.eval_cfg["n_prompts"])
        checks.check_retrieval_accuracy(
            report["retrieval_accuracy"], run / "child.bin", probes.tokens, probes.answers,
            scales if precision == "fp8" else None,
        )


# ---------------------------------------------------------------------------
# decode-long: the eval stage alone, on contexts well past the longest window


class DecodeLong(Workload):
    """Set-up scores, searches, assembles and quantizes a child of the toy
    model with small probe sets; each round evaluates it with a bf16 cache and
    then through the fp8 codec. The library offers only window 64 in place of
    global attention, and the long-scenario target needs exactly two of the
    four global layers converted, so every seed's child does the same work per
    token. The end token is -1, which greedy decoding never emits, so every
    request decodes to its cap, as a fixed-output-length throughput test does,
    and every seed generates the same number of tokens; prompts of 24 plus up
    to 64 generated tokens reach 88 positions."""

    name = "decode-long"
    EFFORTS = {"high": 64, "medium": 32, "low": 16}
    N_PROMPTS = 4

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        toy = json.loads(TOY_CONFIG.read_text())
        self.config = dict(
            toy,
            probes=dict(lm_count=4, lm_length=96, retrieval_count=8, retrieval_length=96,
                        retrieval_pairs=4),
            library=dict(keep_fractions=[1.0], alt_windows=[64]),
            targets={"long": 1.1, "short": 1.0},
            efforts=self.EFFORTS,
            eval=dict(n_prompts=self.N_PROMPTS, prompt_len=24, end_token=NO_END_TOKEN),
        )
        self.config_path = workdir / "decode_long.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.run = workdir / "run"

    def set_up(self) -> None:
        fresh_dir(self.run)
        for stage in (("score",), ("search", "--signal", "activation-mse"),
                      ("assemble",), ("quantize",)):
            code = call_cli(["--config", self.config_path, "--seed", self.seed,
                             "--out", self.run, *stage])
            if code != 0:
                raise RuntimeError(f"decode-long set-up stage {stage[0]} exited {code}")

    def _eval(self, config_path: Path, precision: str) -> tuple[float, dict]:
        seconds = self._stage(["--config", config_path, "--seed", self.seed, "--out", self.run,
                               "eval", "--kv-precision", precision])
        shutil.copyfile(self.run / "eval_report.json", self.run / f"eval_report.{precision}.json")
        return seconds, json.loads((self.run / "eval_report.json").read_text())

    def warm_up(self) -> None:
        small = dict(self.config, efforts={"high": 4, "medium": 2, "low": 1})
        path = self.workdir / "warm_up.json"
        path.write_text(json.dumps(small))
        self._eval(path, "bf16")
        self._eval(path, "fp8")
        self.attempted = self.failed = 0

    def run_round(self) -> dict[str, float]:
        times = {}
        for precision in ("bf16", "fp8"):
            times[precision], report = self._eval(self.config_path, precision)
            self._same_tokens(precision, report)
        return times

    def figures(self, op_s):
        requests = self.N_PROMPTS * len(self.EFFORTS)
        return {
            "round_s": op_s["bf16"] + op_s["fp8"],
            "decode_bf16_tok_s": self.tokens["bf16"] / op_s["bf16"],
            "decode_fp8_tok_s": self.tokens["fp8"] / op_s["fp8"],
            "decode_fp8_req_s": requests / op_s["fp8"],
        }

    def check(self) -> None:
        check_run_dir(self.run, self.config_path, self.seed, signal="activation_mse")
        arch = json.loads((self.run / "arch.json").read_text())["layers"]
        windows = [checks.attn_id(layer["attention"]) for layer in arch]
        checks.require(windows.count("attn:window:64") == 2,
                       f"child converts {windows.count('attn:window:64')} layers to window 64, "
                       "the long target needs exactly 2")
        for precision in ("bf16", "fp8"):
            report = json.loads((self.run / f"eval_report.{precision}.json").read_text())
            checks.check_full_length(report, self.EFFORTS)


# ---------------------------------------------------------------------------
# solver-ladder: exact multiple-choice knapsack instances of growing depth


GRID = 2**20  # degradations are k / GRID, so every sum of them is exact


@dataclass
class Instance:
    name: str
    rung: int
    deg_num: list[list[int]]  # [layer][variant] degradation numerators
    costs: list[list[tuple[int, ...]]]  # [layer][variant] integer costs per budget
    limits: tuple[int, ...]
    grid: int = GRID

    def problem(self) -> search.SelectionProblem:
        return search.SelectionProblem(
            layers=tuple(
                tuple(search.VariantChoice(id=f"L{i}V{j}", degradation=dn / self.grid, costs=c)
                      for j, (dn, c) in enumerate(zip(degs, costs)))
                for i, (degs, costs) in enumerate(zip(self.deg_num, self.costs))
            ),
            budgets=tuple(Budget(name=f"b{k}", limit=lim) for k, lim in enumerate(self.limits)),
        )


class SolverLadder(Workload):
    """search.solve on a ladder of instances with 9 variants per layer and two
    or three budget dimensions, at 8, 10 and 12 layers.

    The instances are a fixed base family, drawn once from BASE_SEED, that the
    benchmark seed relabels: it permutes each layer's variants and the budget
    dimensions and adds a per-layer constant to every degradation of a layer.
    None of this changes which nodes the best-first search expands, so every
    seed costs the solver the same work, while the optimum and the chosen
    variants move with the seed. Fresh draws per seed would spread the node
    count of one rung over two orders of magnitude and make solve time a
    measure of the draw."""

    name = "solver-ladder"
    reference = "python"
    BASE_SEED = 20260218
    VARIANTS = 9
    MAX_COST = 12
    # per rung: (budget dimensions, tightness, instance keys). The keys from
    # 100 at tightness 0.4 are ones whose budgets admit no selection, as the
    # benchmark's DP finds; the checks hold the solver to that.
    RUNGS = {
        8: [(3, 0.6, range(12)), (3, 0.4, (101, 103))],
        10: [(3, 0.6, range(2)), (2, 0.5, range(2)), (3, 0.4, (102, 103))],
        12: [(2, 0.5, range(3)), (3, 0.4, (102,))],
    }
    INFEASIBLE_FROM = 100

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        relabel = np.random.default_rng(seed)
        self.instances = [
            relabelled(base_instance((self.BASE_SEED, n, d, k), n, d, tight, self.VARIANTS,
                                     self.MAX_COST), relabel)
            for n, specs in self.RUNGS.items()
            for d, tight, keys in specs
            for k in keys
        ]
        self.problems = []
        self.solutions = None

    def set_up(self) -> None:
        self.problems = [inst.problem() for inst in self.instances]

    def warm_up(self) -> None:
        small = base_instance((self.BASE_SEED, 6, 2, 0), 6, 2, 0.5, self.VARIANTS,
                              self.MAX_COST)
        search.solve(small.problem())

    def _solve(self, problem):
        self.attempted += 1
        try:
            return search.solve(problem)
        except Exception:  # a crash is a failed operation, reported as such
            self.failed += 1
            return None

    def _rung(self, problems) -> list:
        return [self._solve(problem) for problem in problems]

    def run_round(self) -> dict[str, float]:
        """Each rung's instances are one timed operation, long enough (0.5-2.5 s)
        for the clock to sample the host's speed all through it."""
        solutions, times = [], {}
        for rung in self.RUNGS:
            problems = [p for inst, p in zip(self.instances, self.problems) if inst.rung == rung]
            found, times[f"d{rung}"] = self.clock.time(self._rung, problems)
            solutions.extend(found)
        if self.solutions is None:
            self.solutions = solutions
        else:
            checks.require(solutions == self.solutions, "solve gave different answers across rounds")
        return times

    def figures(self, op_s):
        total = sum(op_s.values())
        return {"round_s": total, "solve_s": total}

    def check(self) -> None:
        for inst in self.instances[:2]:  # the DP against the program's exhaustive search
            cut = Instance(inst.name + ".cut", 5, inst.deg_num[:5], inst.costs[:5],
                           tuple(sum(max(c[k] for c in layer) for layer in inst.costs[:5]) // 2
                                 for k in range(len(inst.limits))))
            expected = checks.dp_optimum(cut.deg_num, cut.costs, cut.limits)
            checks.check_solution(cut, search.brute_force(cut.problem()), expected)
        for inst, sol in zip(self.instances, self.solutions):
            checks.require(sol is not None, f"{inst.name}: solve raised")
            checks.check_solution(inst, sol, checks.dp_optimum(inst.deg_num, inst.costs,
                                                               inst.limits))
            infeasible = int(inst.name.split("-")[-1]) >= self.INFEASIBLE_FROM
            checks.require((sol.status == "infeasible") == infeasible,
                           f"{inst.name}: status {sol.status} is not the ladder's design")


def base_instance(key, n, d, tightness, variants, max_cost) -> Instance:
    """Random degradations on the grid and costs in [1, max_cost], drawn from
    their own key; each limit sits `tightness` of the way from the cheapest to
    the mean total cost."""
    rng = np.random.default_rng(key)
    deg_num = rng.integers(0, GRID, size=(n, variants)).tolist()
    costs = rng.integers(1, max_cost + 1, size=(n, variants, d))
    lo = costs.min(axis=1).sum(axis=0)
    mean = costs.mean(axis=1).sum(axis=0)
    limits = tuple(int(x) for x in lo + tightness * (mean - lo))
    return Instance("-".join(map(str, key)), n, deg_num,
                    [[tuple(int(x) for x in v) for v in layer] for layer in costs.tolist()],
                    limits)


def relabelled(inst: Instance, rng) -> Instance:
    """The same instance with permuted variants and budget dimensions and a
    per-layer degradation offset."""
    d = len(inst.limits)
    dims = rng.permutation(d)
    deg_num, costs = [], []
    for degs, layer_costs in zip(inst.deg_num, inst.costs):
        order = rng.permutation(len(degs))
        offset = int(rng.integers(0, GRID))
        deg_num.append([degs[j] + offset for j in order])
        costs.append([tuple(layer_costs[j][k] for k in dims) for j in order])
    return Instance(inst.name, inst.rung, deg_num, costs, tuple(inst.limits[k] for k in dims))


WORKLOADS = {w.name: w for w in (PipelineToy, DecodeLong, SolverLadder)}
