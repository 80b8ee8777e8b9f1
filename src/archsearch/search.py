"""Exact per-layer block selection under multi-dimension budgets.

The problem: pick exactly one block variant per layer so that every budget
dimension (one time budget per serving scenario, optionally a KV-cache byte
budget) is satisfied and the summed degradation score is minimal. This is a
multiple-choice knapsack. `solve` is an exact depth-first branch and bound
that returns, bit for bit, what `brute_force` enumeration returns:

* Costs and limits are integers (nanoseconds, bytes), so feasibility checks
  are exact.
* Degradations are accumulated left to right over layers in both solvers, so
  the optimal objective compares equal, not just close. Among equally good
  optima the lexicographically smallest choice vector wins.

Dominance. Before the search, variant v of a layer is dropped when some
variant u of the same layer costs no more in every dimension and either
degrades less by more than `gap` (defined with the margin below), or is an
exact copy of v at a lower index. Float addition is monotone, so swapping v
for u never raises a left-to-right sum; with the gap it lowers it, since two
such sums each lie within n 2^-53 (UB + 1) of their real values, and a copy
ties but has the smaller choice vector. Either way v is never the answer. A
smaller degradation alone is not enough: the rounded sums can still tie
(after 4.0, adding 2e-16 and adding 1e-16 both give 4.0), and then the
tie-break picks the lower index, which may be v's. Chosen indices are
reported in the original numbering.

Bound. A node at depth k (layers 0..k-1 chosen, degradation `deg`, costs
`spent`) is pruned when some dimension overruns its limit even if every
remaining layer takes its cheapest variant in that dimension. Otherwise its
bound is deg + sufmin[k], every remaining layer at its least degradation,
plus the Lagrangian excess over that (Fisher 1981, Mgmt. Sci. 27(1)) when it
is positive: sufL[k] + lam.spent - lam.limit, where sufL[k] sums
min_j(excess_ij + lam.c_ij) over the remaining layers, excess_ij is deg_ij
less the layer's least degradation, and lam >= 0 is one multiplier vector per
problem. Any completion that fits has lam.(its costs + spent - limit) <= 0,
so the relaxation never exceeds its degradation, for any lam >= 0.

lam is fitted once at the root by projected subgradient ascent with Polyak
steps (see `_fit_multipliers`). Exactness does not depend on how good lam is,
only the node count does. The suffix tables are built once and lam.spent is
carried down the path, so a child's bound costs O(dims).

Search. Depth first: a node's children are visited in increasing bound, and
a leaf replaces the incumbent when its degradation is smaller, or equal with
a smaller choice vector. The first threshold is UB, the left-to-right sum of
each layer's largest degradation, which no leaf's sum exceeds; if no leaf
fits, the problem is infeasible and the binding dimensions are named. Memory
is O(layers·variants): the stack holds at most one node's children per depth.
Past NODE_CAP expanded nodes the search raises an error naming the cap; it
never returns a selection it has not proved optimal.

Relabelling. Permuting a layer's variants, permuting the dimensions, or
adding a constant to every degradation of a layer (where the sums stay exact,
as on a 2^-20 grid) leaves the expanded nodes unchanged, so a benchmark may
time relabelled copies of one instance as the same work. Every sum over
dimensions is taken in ascending order, the fit and the Lagrangian terms see
only the excesses, and siblings are ordered by their excess plus Lagrangian
excess, then by excess, which orders them as their bounds do; the index
decides only between variants equal in both.

Float safety. A bound is computed in floating point and can round above the
real relaxation, and a leaf's left-to-right sum can round below the real sum
of its degradations, so a node is pruned only when its bound exceeds the
incumbent by more than

    margin = 4 (n + d + 2) 2^-52 (A + 1),    A = UB + sum_i max_j lam.c_ij + lam.limit

for n layers and d dimensions. Every intermediate either computation forms is
a sum or difference of sums of nonnegative terms (degradations, excesses,
lam_t c_t, lam_t limit_t) and so is at most A in size, and every float
operation rounds by at most 2^-53 of its result (by at most 2^-1075 for
subnormals, which the +1 covers). A child's own `deg` is the very prefix its
leaves continue from, so only the rest counts. Its bound adds up at most
3n + 6d + 4 rounding errors: n for sufmin[k] and one adding it; 2d + 1 per
layer term of sufL (an excess, a lam.c and their sum), which sum to at most
(2d + 1) 2^-53 A over the layers, and n for their sum; the same for lam.spent
with 2d - 1 per term; 2d - 1 for lam.limit; and four that combine them. A
leaf's remainder adds at most n, and best + margin one more. Together they
stay below (4n + 6d + 5) 2^-53 (A + 1), under the margin, so a pruned node
holds no leaf at or below the incumbent and every optimum, the
lexicographically smallest included, is reached. `gap` is the same formula
with A = UB over every variant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .costs import Budget, CostTable, HardwareProfile, Scenario, build_cost_table
from .costs import kv_bytes_layer, scenario_time_budget
from .library import ArchitectureSpec, BlockLibrary, ExpertRanking, LayerBlockSpec
from .model import ConfigError, ModelConfig
from .scoring import SIGNAL_ACTIVATION_MSE, SIGNAL_TASK_DROP, ScoreTable

BRUTE_FORCE_CAP = 10_000_000
NODE_CAP = 10_000_000  # depth-first nodes one solve may expand before it gives up
# Subgradient steps fitting the multipliers. Against 200 steps, on the
# benchmark's solver-ladder instances (bench/workloads.py) 100 solve in about
# 40% less time, most of a solve being the fit, with 3% fewer nodes; their root
# bounds are a median 0.04% (at most 1.5%) lower. On 36 instances of the same
# family at 36 layers and 3 budgets they expand 1.1M nodes in all against 2.4M.
FIT_STEPS = 100


class InfeasibleError(RuntimeError):
    """No selection satisfies the budgets; names the binding dimensions."""

    def __init__(self, binding: tuple[str, ...]):
        self.binding = binding
        super().__init__(
            "no block selection satisfies the budgets; binding dimension(s): "
            + ", ".join(binding)
        )


@dataclass(frozen=True)
class VariantChoice:
    """One selectable block for one layer with its score and integer costs."""

    id: str
    degradation: float
    costs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (0.0 <= self.degradation < math.inf):  # also rejects NaN
            raise ConfigError(
                f"variant {self.id}: degradation must be finite and >= 0, "
                f"got {self.degradation!r}"
            )
        for c in self.costs:
            if not isinstance(c, int) or c < 0:
                raise ConfigError(f"variant {self.id}: costs must be non-negative ints")


@dataclass(frozen=True)
class SelectionProblem:
    layers: tuple[tuple[VariantChoice, ...], ...]
    budgets: tuple[Budget, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("selection problem needs at least one layer")
        d = len(self.budgets)
        for i, layer in enumerate(self.layers):
            if not layer:
                raise ConfigError(f"layer {i} offers no variants")
            for v in layer:
                if len(v.costs) != d:
                    raise ConfigError(
                        f"layer {i} variant {v.id}: {len(v.costs)} costs for {d} budgets"
                    )

    @property
    def limits(self) -> tuple[int, ...]:
        return tuple(int(b.limit) for b in self.budgets)


@dataclass(frozen=True)
class Solution:
    status: str  # "optimal" | "infeasible"
    chosen: tuple[int, ...]  # per-layer variant indices (empty when infeasible)
    chosen_ids: tuple[str, ...]
    total_degradation: float
    totals: tuple[int, ...]  # per-dimension cost of the selection
    binding: tuple[str, ...] = ()  # infeasible only: dimensions that block
    nodes_expanded: int = 0
    nodes_pruned: int = 0  # children cut by a budget or by the bound
    root_bound: float = 0.0  # the search's bound at the root

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _layer_cost_minima(problem: SelectionProblem) -> tuple[list[list[int]], list[list[int]]]:
    """Per-layer per-dimension minimum costs, and suffix sums of those minima."""
    n, d = len(problem.layers), len(problem.budgets)
    layer_min = [
        [min(v.costs[k] for v in layer) for k in range(d)] for layer in problem.layers
    ]
    suffix = [[0] * d for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        suffix[i] = [suffix[i + 1][k] + layer_min[i][k] for k in range(d)]
    return layer_min, suffix


def _binding_dimensions(problem: SelectionProblem) -> tuple[str, ...]:
    """Name the budget dimensions that make the problem infeasible.

    Dimensions whose budget is exceeded even when every layer takes its
    per-dimension minimum are individually binding. If the infeasibility only
    arises from interactions, report every dimension that rules out some
    variant in the root relaxation.
    """
    layer_min, suffix = _layer_cost_minima(problem)
    limits = problem.limits
    over = [b.name for k, b in enumerate(problem.budgets) if suffix[0][k] > limits[k]]
    if over:
        return tuple(over)
    names = set()
    for layer_idx, layer in enumerate(problem.layers):
        for v in layer:
            for k in range(len(limits)):
                rest = suffix[0][k] - layer_min[layer_idx][k]
                if rest + v.costs[k] > limits[k]:
                    names.add(problem.budgets[k].name)
    if names:
        return tuple(sorted(names))
    return tuple(b.name for b in problem.budgets)


def _undominated(layer: Sequence[VariantChoice], gap: float) -> list[int]:
    """Indices of a layer's variants that no other variant of the layer
    dominates. u dominates v when it costs no more in every dimension and
    either degrades less by more than `gap`, or is an exact copy of v at a
    lower index."""
    return [
        v
        for v, var in enumerate(layer)
        if not any(
            (var.degradation - other.degradation > gap
             or (u < v and other.degradation == var.degradation and other.costs == var.costs))
            and all(cu <= cv for cu, cv in zip(other.costs, var.costs))
            for u, other in enumerate(layer)
        )
    ]


def _priced(costs: np.ndarray, lam: Sequence[float]) -> np.ndarray:
    """lam.c for every variant of `costs` (layers, variants, dims). The d
    products are summed element-wise in ascending order, not with a matrix
    product, so the result depends neither on the BLAS build nor on the order
    of the dimensions."""
    return np.sort(costs * lam, axis=-1).sum(-1)


def _fit_multipliers(excess: np.ndarray, costs: np.ndarray, limits: Sequence[int],
                     target: float) -> list[float]:
    """Multipliers lam >= 0 that raise the Lagrangian bound
    L(lam) = sum_i min_j (excess_ij + lam.c_ij) - lam.limit, by FIT_STEPS steps of
    projected subgradient ascent with Polyak steps towards `target`; the step
    scale starts at 2 and halves after 10 steps without a new best L. Whenever
    the selection minimising L fits the budgets, its degradation becomes the
    target if it is nearer: sum_i max_j excess_ij overshoots the optimum
    several-fold, and steps aimed at it can leave L far below its maximum.

    `excess` is (layers, variants), each layer's degradations less its least
    one, padded with +inf; `costs` is (layers, variants, dims). Every sum over
    dimensions is taken in ascending order, so relabelling the dimensions
    permutes lam and changes nothing else.
    """
    rows = np.arange(excess.shape[0])
    lam = [0.0] * len(limits)
    best_lam, best_value = lam, -math.inf
    scale, stale = 2.0, 0
    for _ in range(FIT_STEPS):
        totals = excess + _priced(costs, lam)
        pick = totals.argmin(axis=1)
        value = float(totals[rows, pick].sum()) - sum(
            sorted(lt * lim for lt, lim in zip(lam, limits)))
        if value > best_value:
            best_lam, best_value, stale = lam, value, 0
        else:
            stale += 1
            if stale == 10:
                scale, stale = scale / 2, 0
        if value >= target:
            # L never exceeds the degradation of a selection that fits: past
            # sum_i max_j excess_ij nothing fits, and at a fitting selection's
            # degradation lam is already optimal
            break
        spent = costs[rows, pick].sum(axis=0).tolist()
        if all(s <= lim for s, lim in zip(spent, limits)):
            # the pick fits the budgets, so its degradation is a nearer target
            target = min(target, float(excess[rows, pick].sum()))
        # the subgradient, projected onto lam >= 0
        grad = [s - lim if s > lim or lt > 0 else 0.0 for s, lim, lt in zip(spent, limits, lam)]
        norm = sum(sorted(g * g for g in grad))
        if norm == 0.0:  # lam is optimal
            break
        t = scale * (target - value) / norm
        lam = [max(lt + t * g, 0.0) for lt, g in zip(lam, grad)]
    return best_lam


def solve(problem: SelectionProblem) -> Solution:
    """Exact depth-first branch and bound; see the module docstring for the
    bound, the dominance rule and the pruning margin."""
    n, d = len(problem.layers), len(problem.budgets)
    limits = problem.limits
    ub = 0.0  # summed left to right, as a leaf is, so no leaf's sum exceeds it
    for layer in problem.layers:
        ub += max(v.degradation for v in layer)
    gap = 4 * (n + d + 2) * 2.0**-52 * (ub + 1.0)
    keep = [_undominated(layer, gap) for layer in problem.layers]
    degs = [[layer[j].degradation for j in idx] for layer, idx in zip(problem.layers, keep)]
    ub = 0.0  # the same over the variants kept
    for layer_degs in degs:
        ub += max(layer_degs)
    costs = [[layer[j].costs for j in idx] for layer, idx in zip(problem.layers, keep)]
    _, min_cost_suffix = _layer_cost_minima(problem)
    # caps[k]: what layers 0..k-1 may spend and still leave room for the cheapest rest
    caps = [tuple(limits[t] - s[t] for t in range(d)) for s in min_cost_suffix]

    least = [min(layer_degs) for layer_degs in degs]
    width = max(len(idx) for idx in keep)
    excess = np.full((n, width), np.inf)
    cost_table = np.zeros((n, width, d))
    for i, (layer_degs, layer_costs) in enumerate(zip(degs, costs)):
        excess[i, : len(layer_degs)] = [x - least[i] for x in layer_degs]
        cost_table[i, : len(layer_costs)] = layer_costs
    target = 0.0
    for row in excess:
        target += max(x for x in row.tolist() if x < math.inf)
    lam = _fit_multipliers(excess, cost_table, limits, target)
    priced = _priced(cost_table, lam)  # 0 in the padding
    lam_limit = sum(sorted(lt * lim for lt, lim in zip(lam, limits)))
    lagrange = (excess + priced).min(axis=1).tolist()
    sufmin = [0.0] * (n + 1)
    sufl = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        sufmin[i] = least[i] + sufmin[i + 1]
        sufl[i] = lagrange[i] + sufl[i + 1]
    margin = 4 * (n + d + 2) * 2.0**-52 * (ub + float(priced.max(axis=1).sum()) + lam_limit + 1.0)
    children_of = [
        list(zip(range(len(ds)), ds, excess[i, : len(ds)].tolist(), cs,
                 priced[i, : len(ds)].tolist()))
        for i, (ds, cs) in enumerate(zip(degs, costs))
    ]

    root_bound = sufmin[0] + max(sufl[0] - lam_limit, 0.0)
    best, best_path, best_spent = ub, None, ()
    threshold = ub + margin
    expanded = pruned = 0
    path = [0] * n
    # (bound, depth, choice at depth - 1, degradation, spent, lam.spent);
    # siblings sit on the stack in reverse order, so the lowest bound pops first
    stack = [(root_bound, 0, 0, 0.0, (0,) * d, 0.0)]
    while stack:
        bound, depth, j, deg, spent, paid = stack.pop()
        if bound > threshold:
            pruned += 1
            continue
        expanded += 1
        if expanded > NODE_CAP:
            raise ConfigError(
                f"the search expanded more than NODE_CAP={NODE_CAP} nodes without "
                "proving an optimum"
            )
        if depth:
            path[depth - 1] = j
        if depth == n:
            if best_path is None or deg < best or (deg == best and path < best_path):
                best, best_path, best_spent = deg, list(path), spent
                threshold = best + margin
            continue
        room = tuple(map(operator.sub, caps[depth + 1], spent))
        low = sufmin[depth + 1]
        rest = sufl[depth + 1] + paid - lam_limit
        children = []
        for jj, dj, ej, cj, pj in children_of[depth]:
            cd = deg + dj
            # the child's Lagrangian excess over its simple bound cd + low
            x = rest + pj
            if x < 0.0:
                x = 0.0
            b = cd + low + x
            if b > threshold or not all(map(operator.le, cj, room)):
                pruned += 1
                continue
            # siblings share deg and low, so ej + x orders them as b does
            children.append((ej + x, ej, jj, b, cd, cj, paid + pj))
        children.sort(reverse=True)
        for _, _, jj, b, cd, cj, paid_j in children:
            stack.append((b, depth + 1, jj, cd, tuple(map(operator.add, spent, cj)), paid_j))

    if best_path is None:
        return Solution(
            status="infeasible",
            chosen=(),
            chosen_ids=(),
            total_degradation=math.inf,
            totals=(),
            binding=_binding_dimensions(problem),
            nodes_expanded=expanded,
            nodes_pruned=pruned,
            root_bound=root_bound,
        )
    chosen = tuple(idx[j] for idx, j in zip(keep, best_path))
    return Solution(
        status="optimal",
        chosen=chosen,
        chosen_ids=tuple(problem.layers[i][j].id for i, j in enumerate(chosen)),
        total_degradation=best,
        totals=best_spent,
        nodes_expanded=expanded,
        nodes_pruned=pruned,
        root_bound=root_bound,
    )


def brute_force(problem: SelectionProblem, cap: int = BRUTE_FORCE_CAP) -> Solution:
    """Enumerate every selection (vectorized); ties break to the lexicographically
    smallest choice vector, matching solve()."""
    counts = [len(layer) for layer in problem.layers]
    total = math.prod(counts)
    if total > cap:
        raise ConfigError(f"brute force spans {total} selections, over the cap of {cap}")
    d = len(problem.budgets)
    degs = np.zeros(1, dtype=np.float64)
    costs = np.zeros((1, d), dtype=np.int64)
    for layer in problem.layers:
        layer_degs = np.asarray([v.degradation for v in layer], dtype=np.float64)
        layer_costs = np.asarray([v.costs for v in layer], dtype=np.int64).reshape(
            len(layer), d
        )
        degs = (degs[:, None] + layer_degs[None, :]).reshape(-1)
        costs = (costs[:, None, :] + layer_costs[None, :, :]).reshape(-1, d)
    limits = np.asarray(problem.limits, dtype=np.int64).reshape(1, d)
    feasible = (costs <= limits).all(axis=1)
    if not feasible.any():
        return Solution(
            status="infeasible",
            chosen=(),
            chosen_ids=(),
            total_degradation=math.inf,
            totals=(),
            binding=_binding_dimensions(problem),
            nodes_expanded=total,
        )
    masked = np.where(feasible, degs, np.inf)
    best = masked.min()
    flat = int(np.argmax(masked == best))  # first hit = lexicographically smallest
    chosen = tuple(int(i) for i in np.unravel_index(flat, counts))
    return Solution(
        status="optimal",
        chosen=chosen,
        chosen_ids=tuple(problem.layers[i][j].id for i, j in enumerate(chosen)),
        total_degradation=float(degs[flat]),
        totals=tuple(int(c) for c in costs[flat]),
        nodes_expanded=total,
    )


# ---------------------------------------------------------------------------
# assembling the selection problem from scores and costs


@dataclass(frozen=True)
class KvBudget:
    """Optional cache-footprint budget: bytes one sequence may pin at `length`."""

    length: int
    precision: str
    max_bytes_per_seq: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigError("kv budget length must be positive")
        if self.max_bytes_per_seq < 0:
            raise ConfigError("kv budget max_bytes_per_seq must be non-negative")

    @staticmethod
    def from_json(obj: dict) -> "KvBudget":
        return KvBudget(
            length=int(obj["length"]),
            precision=str(obj.get("precision", "bf16")),
            max_bytes_per_seq=int(obj["max_bytes_per_seq"]),
        )


def minmax_normalizer(values: Sequence[float]):
    """Map raw scores to [0, 1] by min-max; constant inputs map to 0."""
    lo, hi = min(values), max(values)
    span = hi - lo

    def norm(v: float) -> float:
        if span <= 0.0:
            return 0.0
        return (v - lo) / span

    return norm, (lo, hi)


@dataclass
class SearchResult:
    arch: ArchitectureSpec
    solution: Solution
    problem: SelectionProblem
    report: dict = field(default_factory=dict)


def build_selection_problem(
    config: ModelConfig,
    library: BlockLibrary,
    score_table: ScoreTable,
    scenarios: Sequence[Scenario],
    target_speedups: Mapping[str, float],
    hw: HardwareProfile,
    cost_table: CostTable,
    attention_signal: str = SIGNAL_TASK_DROP,
    kv_budget: KvBudget | None = None,
) -> tuple[SelectionProblem, dict]:
    """Combine per-signal scores and per-scenario costs into one knapsack.

    A block variant's degradation is the sum of its attention score and its
    FFN score, each min-max normalized within its signal across the whole
    table so the two kinds of damage are on a comparable scale. The parent
    block always scores exactly 0.
    """
    budgets = []
    for scenario in scenarios:
        if scenario.name not in target_speedups:
            raise ConfigError(f"no target speedup given for scenario {scenario.name!r}")
        budgets.append(
            scenario_time_budget(config, scenario, hw, target_speedups[scenario.name])
        )
    if kv_budget is not None:
        budgets.append(Budget(name="kv_bytes_per_seq", limit=kv_budget.max_bytes_per_seq))

    attn_values = [r.value for r in score_table.rows if r.signal == attention_signal]
    mse_values = [
        r.value
        for r in score_table.rows
        if r.signal == SIGNAL_ACTIVATION_MSE and r.variant_id.startswith("ffn:")
    ]
    if not attn_values:
        raise ConfigError(
            f"score table has no rows for attention signal {attention_signal!r}"
        )
    if not mse_values:
        raise ConfigError("score table has no FFN activation-distance rows")
    norm_attn, attn_range = minmax_normalizer(attn_values)
    norm_mse, mse_range = minmax_normalizer(mse_values)

    layers = []
    for layer_idx, layer_lib in enumerate(library.layers):
        choices = []
        for variant in layer_lib.block_variants():
            attn_row = score_table.get(
                layer_idx, variant.attention.variant_id, attention_signal
            )
            ffn_row = score_table.get(
                layer_idx, f"ffn:keep:{variant.keep_count}", SIGNAL_ACTIVATION_MSE
            )
            degradation = norm_attn(attn_row.value) + norm_mse(ffn_row.value)
            costs = [
                cost_table.get(layer_idx, variant.variant_id, s.name).time_ns
                for s in scenarios
            ]
            if kv_budget is not None:
                costs.append(
                    kv_bytes_layer(
                        variant.attention, config, kv_budget.length, kv_budget.precision
                    )
                )
            choices.append(
                VariantChoice(
                    id=variant.variant_id, degradation=degradation, costs=tuple(costs)
                )
            )
        layers.append(tuple(choices))
    problem = SelectionProblem(layers=tuple(layers), budgets=tuple(budgets))
    meta = {
        "attention_signal": attention_signal,
        "normalization": {
            attention_signal: list(attn_range),
            SIGNAL_ACTIVATION_MSE: list(mse_range),
        },
        "budgets": [{"name": b.name, "limit": b.limit} for b in budgets],
    }
    return problem, meta


def _arch_from_choice_ids(
    config: ModelConfig,
    library: BlockLibrary,
    ranking: ExpertRanking,
    chosen: Sequence[int],
) -> ArchitectureSpec:
    specs = []
    for layer_idx, choice in enumerate(chosen):
        variant = library.layers[layer_idx].block_variants()[choice]
        specs.append(
            LayerBlockSpec(
                attention=variant.attention,
                expert_keep_set=ranking.keep_set(layer_idx, variant.keep_count),
            )
        )
    return ArchitectureSpec(layers=tuple(specs))


def search_pipeline(
    config: ModelConfig,
    library: BlockLibrary,
    score_table: ScoreTable,
    ranking: ExpertRanking,
    scenarios: Sequence[Scenario],
    target_speedups: Mapping[str, float],
    hw: HardwareProfile,
    cost_table: CostTable | None = None,
    attention_signal: str = SIGNAL_TASK_DROP,
    kv_budget: KvBudget | None = None,
) -> SearchResult:
    """Scores + costs -> budgets -> exact selection -> architecture.

    Raises InfeasibleError (naming the binding budget dimensions) when no
    selection fits.
    """
    if cost_table is None:
        cost_table = build_cost_table(config, library, scenarios, hw)
    problem, meta = build_selection_problem(
        config,
        library,
        score_table,
        scenarios,
        target_speedups,
        hw,
        cost_table,
        attention_signal=attention_signal,
        kv_budget=kv_budget,
    )
    solution = solve(problem)
    if not solution.is_optimal:
        raise InfeasibleError(solution.binding)
    arch = _arch_from_choice_ids(config, library, ranking, solution.chosen)
    report = dict(meta)
    report["objective"] = solution.total_degradation
    report["nodes_expanded"] = solution.nodes_expanded
    report["nodes_pruned"] = solution.nodes_pruned
    report["root_bound"] = solution.root_bound
    report["root_gap"] = solution.total_degradation - solution.root_bound
    report["choices"] = [
        {
            "layer": i,
            "variant": solution.chosen_ids[i],
            "attention": arch.layers[i].attention.variant_id,
            "experts_kept": arch.layers[i].experts_kept,
        }
        for i in range(len(solution.chosen))
    ]
    report["budget_usage"] = [
        {
            "name": b.name,
            "limit": b.limit,
            "total": solution.totals[k],
            "slack": b.limit - solution.totals[k],
        }
        for k, b in enumerate(problem.budgets)
    ]
    return SearchResult(arch=arch, solution=solution, problem=problem, report=report)
