import numpy as np
import pytest

from archsearch import search
from archsearch.costs import Budget, HardwareProfile, Scenario, build_cost_table
from archsearch.library import LibraryMenu, build_library
from archsearch.model import ConfigError
from archsearch.scoring import (
    SIGNAL_ACTIVATION_MSE,
    SIGNAL_TASK_DROP,
    score_library,
)
from archsearch.search import (
    InfeasibleError,
    KvBudget,
    SelectionProblem,
    VariantChoice,
    brute_force,
    build_selection_problem,
    minmax_normalizer,
    search_pipeline,
    solve,
)

HW = HardwareProfile(mem_bandwidth_bytes_per_s=1e9, compute_flops_per_s=1e12)
LONG = Scenario(name="long", isl=64, osl=16, batch=4, kv_precision="bf16")


def _problem(layers, limits):
    budgets = tuple(Budget(name=f"dim{k}", limit=l) for k, l in enumerate(limits))
    built = tuple(
        tuple(
            VariantChoice(id=f"v{i}.{j}", degradation=float(d), costs=tuple(c))
            for j, (d, c) in enumerate(layer)
        )
        for i, layer in enumerate(layers)
    )
    return SelectionProblem(layers=built, budgets=budgets)


# ---------------------------------------------------------------------------
# exactness against exhaustive enumeration


def _random_problem(rng):
    n_layers = int(rng.integers(1, 11))
    layers = []
    for _ in range(n_layers):
        n_variants = int(rng.integers(1, 5))
        layer = []
        for _ in range(n_variants):
            deg = float(np.round(rng.uniform(0, 5), 3))
            costs = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
            layer.append((deg, costs))
        layers.append(layer)
    # mixed tightness: some instances comfortably feasible, some impossible
    tight = rng.uniform(0.4, 1.4)
    cap = max(1, int(15 * n_layers * tight))
    return _problem(layers, (cap, max(1, cap // 2 + int(rng.integers(0, 20)))))


def test_solver_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(13)
    n_optimal = n_infeasible = 0
    for _ in range(200):
        problem = _random_problem(rng)
        got = solve(problem)
        want = brute_force(problem)
        assert got.status == want.status
        if got.is_optimal:
            n_optimal += 1
            assert got.total_degradation == want.total_degradation  # bit-identical
            assert got.chosen == want.chosen
            assert got.totals == want.totals
        else:
            n_infeasible += 1
            assert set(got.binding) == set(want.binding)
    assert n_optimal > 20 and n_infeasible > 20  # the mix actually exercised both


def test_ties_break_to_lexicographically_smallest():
    # every combination costs the same and degrades the same: four-way tie
    problem = _problem(
        [
            [(1.0, (1,)), (1.0, (1,))],
            [(2.0, (1,)), (2.0, (1,))],
        ],
        (10,),
    )
    got = solve(problem)
    want = brute_force(problem)
    assert got.total_degradation == want.total_degradation == 3.0
    assert got.chosen == want.chosen == (0, 0)  # lexicographically smallest optimum


def test_objective_is_bit_identical_left_associated_sum():
    # degradations chosen so summation order changes the float result
    degs = [0.1, 0.7, 1e-9, 0.3, 1e9, -0.0 + 0.2]
    layers = [[(d, (0,))] for d in degs]
    problem = _problem(layers, (1,))
    got = solve(problem)
    want = brute_force(problem)
    assert got.total_degradation == want.total_degradation
    acc = 0.0
    for d in degs:
        acc += d
    assert got.total_degradation == acc


def test_pruning_margin_covers_bound_rounding():
    # Variant 1 of layer 0 degrades less than variant 0 and is searched first.
    # Both complete to the same left-to-right sum 1e9 + 2^-23, but variant 0's
    # bound, 2^-24 + (1e9 + 2^-23), rounds one ulp above it. Pruning on the
    # bound alone would lose the lexicographically smaller optimum.
    half_ulp = 2.0**-24  # of 1e9
    problem = _problem(
        [[(half_ulp, (1,)), (0.0, (1,))], [(1e9, (1,))], [(2 * half_ulp, (1,))]],
        (3,),
    )
    assert half_ulp + (1e9 + 2 * half_ulp) > (half_ulp + 1e9) + 2 * half_ulp
    want = brute_force(problem)
    assert want.chosen == (0, 0, 0)
    got = solve(problem)
    assert got.chosen == want.chosen
    assert got.total_degradation == want.total_degradation


def test_dominance_needs_more_than_a_rounding_gap():
    # after 4.0, adding 2e-16 and adding 1e-16 both give 4.0: the tie breaks to
    # variant 0 although variant 1 degrades less at the same cost
    problem = _problem([[(4.0, (1,))], [(2e-16, (1,)), (1e-16, (1,))]], (2,))
    want = brute_force(problem)
    assert want.chosen == (0, 0) and want.total_degradation == 4.0
    got = solve(problem)
    assert got.chosen == want.chosen
    assert got.total_degradation == want.total_degradation


def test_dominated_variants_are_reported_in_the_original_numbering():
    # variant 0 dominates variant 1, which is dropped, so the search sees
    # variant 2 as its second; the answer still names it 2
    layer = [(0.25, (2,)), (0.75, (2,)), (0.5, (1,))]
    problem = _problem([layer, layer, layer], (4,))
    got = solve(problem)
    assert got == solve(problem)  # two solves compare equal, counts included
    assert got.chosen == brute_force(problem).chosen == (0, 2, 2)
    assert got.chosen_ids == ("v0.0", "v1.2", "v2.2")


def test_a_higher_index_variant_dominates_past_the_rounding_gap():
    # variant 2 costs no more than variants 0 and 1 and degrades less by far
    # more than rounding can hide, so neither 0 nor 1 is ever searched
    layer = [(0.5, (2,)), (0.75, (3,)), (0.25, (2,))]
    problem = _problem([layer] * 4, (8,))
    got = solve(problem)
    assert got.chosen == brute_force(problem).chosen == (2, 2, 2, 2)
    assert got.nodes_expanded == 5  # one child per depth, then the leaf


def _relabel(layers, limits, rng):
    """The same problem with each layer's variants and the budget dimensions
    permuted and a per-layer grid offset added to every degradation."""
    dims = rng.permutation(len(limits))
    moved = []
    for layer in layers:
        offset = int(rng.integers(0, GRID)) / GRID
        moved.append([(layer[j][0] + offset, tuple(layer[j][1][k] for k in dims))
                      for j in rng.permutation(len(layer))])
    return moved, tuple(limits[k] for k in dims)


@pytest.mark.parametrize(
    "key, n_layers, n_dims, tightness",
    [((11, k), 10, 3, 0.5) for k in range(4)]
    + [((99, 209), 8, 2, 0.5), ((99, 287), 7, 2, 0.6), ((77, 332), 6, 1, 0.8), ((77, 352), 6, 1, 0.6)],
)
def test_relabelling_keeps_the_search_tree(key, n_layers, n_dims, tightness):
    # Relabelling changes no comparison the search makes, so every relabelling
    # of one problem costs the same nodes: the solver-ladder benchmark times
    # seed-relabelled copies of fixed instances and relies on this.
    deg_num, costs, limits = _ladder(key, n_layers, n_dims, tightness)
    layers = [[(deg_num[i, j] / GRID, tuple(int(c) for c in costs[i, j])) for j in range(9)]
              for i in range(n_layers)]
    layers[0][8] = layers[0][3]  # an exact duplicate at a higher index
    layers[1][2] = (layers[1][7][0] + 0.25, layers[1][7][1])  # dominated by a later one
    base = solve(_problem(layers, limits))
    rng = np.random.default_rng(key)
    for _ in range(4):
        got = solve(_problem(*_relabel(layers, limits, rng)))
        assert got.status == base.status == "optimal"
        assert (got.nodes_expanded, got.nodes_pruned) == (base.nodes_expanded, base.nodes_pruned)


def test_node_cap_raises_instead_of_answering(monkeypatch):
    problem = _problem([[(1.0, (1,)), (0.5, (2,))]] * 6, (9,))
    assert solve(problem).nodes_expanded > 3
    monkeypatch.setattr(search, "NODE_CAP", 3)
    with pytest.raises(ConfigError, match="NODE_CAP=3"):
        solve(problem)


def test_infeasible_names_single_binding_dimension():
    problem = _problem([[(0.0, (9, 1))], [(0.0, (9, 1))]], (10, 10))
    with pytest.raises(InfeasibleError, match="dim0") as exc:
        raise InfeasibleError(solve(problem).binding)
    assert "dim1" not in str(exc.value)


def test_infeasible_interaction_names_both_dimensions():
    # each dimension is satisfiable alone; only their combination is not
    problem = _problem(
        [[(0.0, (10, 0)), (0.0, (0, 10))]],
        (5, 5),
    )
    sol = solve(problem)
    assert sol.status == "infeasible"
    assert set(sol.binding) == {"dim0", "dim1"}
    assert set(brute_force(problem).binding) == {"dim0", "dim1"}


def test_brute_force_cap_guards_explosion():
    layers = [[(0.0, (0,))] * 10] * 9  # 10^9 combinations
    problem = _problem(layers, (1,))
    with pytest.raises(ValueError, match="cap"):
        brute_force(problem, cap=10_000_000)


# ---------------------------------------------------------------------------
# exactness at depth, against an integer dynamic program

GRID = 2**20  # degradations are k / GRID, so every sum of them is exact


def _ladder(key, n_layers, n_dims, tightness):
    """9 variants per layer, degradation numerators in [0, GRID), costs in
    [1, 12]; each limit sits `tightness` of the way from the cheapest to the
    mean total cost."""
    rng = np.random.default_rng(key)
    deg_num = rng.integers(0, GRID, size=(n_layers, 9))
    costs = rng.integers(1, 13, size=(n_layers, 9, n_dims))
    lo = costs.min(axis=1).sum(axis=0)
    mean = costs.mean(axis=1).sum(axis=0)
    limits = tuple(int(x) for x in lo + tightness * (mean - lo))
    return deg_num, costs, limits


def _dp_optimum(deg_num, costs, limits):
    """Least degradation numerator over the selections that fit, and the
    lexicographically smallest choice vector attaining it; None when nothing
    fits. Backward DP over the grid of cost spent above each layer's per-
    dimension minimum, which is all the slack the limits leave."""
    n, m, d = costs.shape
    excess = costs - costs.min(axis=1, keepdims=True)
    slack = np.asarray(limits) - costs.min(axis=1).sum(axis=0)
    if (slack < 0).any():
        return None
    shape = tuple(int(s) + 1 for s in slack)
    inf = np.int32(2**30)
    value = np.zeros(shape, dtype=np.int32)  # layers i.. given the excess spent so far
    picks = []  # per layer, the first variant that attains value
    for i in range(n - 1, -1, -1):
        cur = np.full(shape, inf, dtype=np.int32)
        pick = np.zeros(shape, dtype=np.uint8)
        for j in range(m):
            e = excess[i, j]
            if (e > slack).any():
                continue
            dst = tuple(slice(0, s - x) for s, x in zip(shape, e))
            cand = value[tuple(slice(x, None) for x in e)] + np.int32(deg_num[i, j])
            better = cand < cur[dst]
            np.copyto(cur[dst], cand, where=better)
            np.copyto(pick[dst], j, where=better)
        value = cur
        picks.append(pick)
    if value[(0,) * d] >= inf:
        return None
    used, chosen = np.zeros(d, dtype=np.int64), []
    for pick, e in zip(reversed(picks), excess):
        chosen.append(int(pick[tuple(used)]))
        used += e[chosen[-1]]
    return int(value[(0,) * d]), tuple(chosen)


@pytest.mark.parametrize(
    "n_layers, n_dims, tightness, status",
    [
        (16, 3, 0.2, "infeasible"),
        (16, 3, 0.4, "optimal"),
        (16, 3, 0.5, "optimal"),
        (16, 3, 0.6, "optimal"),
        (24, 3, 0.4, "optimal"),
        (24, 3, 0.5, "optimal"),
        (24, 3, 0.6, "optimal"),
        (36, 2, 0.4, "optimal"),
        (36, 2, 0.6, "optimal"),
        (36, 3, 0.5, "optimal"),
    ],
)
def test_solver_matches_integer_dp_at_depth(n_layers, n_dims, tightness, status):
    deg_num, costs, limits = _ladder((7, n_layers, n_dims, 0), n_layers, n_dims, tightness)
    problem = _problem(
        [
            [(deg_num[i, j] / GRID, tuple(int(c) for c in costs[i, j])) for j in range(9)]
            for i in range(n_layers)
        ],
        limits,
    )
    got = solve(problem)
    want = _dp_optimum(deg_num, costs, limits)
    assert got.status == status == ("infeasible" if want is None else "optimal")
    if want is None:
        return
    numerator, chosen = want
    assert got.chosen == chosen
    assert got.total_degradation == numerator / GRID
    acc = 0.0
    for i, j in enumerate(chosen):
        acc += deg_num[i, j] / GRID
    assert got.total_degradation == acc
    assert got.totals == tuple(int(x) for x in costs[np.arange(n_layers), chosen].sum(axis=0))
    assert got.root_bound <= got.total_degradation


# ---------------------------------------------------------------------------
# validation


def test_variant_choice_validation():
    with pytest.raises(ConfigError, match="degradation"):
        VariantChoice(id="v", degradation=-0.5, costs=(1,))
    with pytest.raises(ConfigError, match="degradation"):
        VariantChoice(id="v", degradation=float("nan"), costs=(1,))
    with pytest.raises(ConfigError, match="degradation"):
        VariantChoice(id="v", degradation=float("inf"), costs=(1,))
    with pytest.raises(ConfigError, match="costs"):
        VariantChoice(id="v", degradation=0.0, costs=(1.5,))
    with pytest.raises(ConfigError, match="costs"):
        VariantChoice(id="v", degradation=0.0, costs=(-1,))


def test_budget_limit_must_be_an_integer():
    with pytest.raises(ConfigError, match="integer"):
        Budget(name="d", limit=2.5)
    with pytest.raises(ConfigError, match="integer"):
        Budget(name="d", limit=True)
    # a NumPy integer is an integer: it solves as the same Python int does
    layers = [[(0.0, (3,)), (1.0, (1,))]] * 3
    want = solve(_problem(layers, (5,)))
    got = solve(SelectionProblem(
        layers=_problem(layers, (5,)).layers, budgets=(Budget(name="dim0", limit=np.int64(5)),)
    ))
    assert got == want and want.chosen == brute_force(_problem(layers, (5,))).chosen
    assert want.totals == (5,)


def test_selection_problem_validation():
    with pytest.raises(ConfigError, match="at least one layer"):
        SelectionProblem(layers=(), budgets=(Budget(name="d", limit=1),))
    with pytest.raises(ConfigError, match="no variants"):
        SelectionProblem(layers=((),), budgets=(Budget(name="d", limit=1),))
    v = VariantChoice(id="v", degradation=0.0, costs=(1, 2))
    with pytest.raises(ConfigError, match="costs for"):
        SelectionProblem(layers=((v,),), budgets=(Budget(name="d", limit=1),))


def test_minmax_normalizer():
    norm, (lo, hi) = minmax_normalizer([2.0, 4.0, 10.0])
    assert (lo, hi) == (2.0, 10.0)
    assert norm(2.0) == 0.0 and norm(10.0) == 1.0 and norm(6.0) == 0.5
    flat, _ = minmax_normalizer([3.0, 3.0])
    assert flat(3.0) == 0.0


def test_kv_budget_validation():
    with pytest.raises(ConfigError, match="length"):
        KvBudget(length=0, precision="bf16", max_bytes_per_seq=100)
    b = KvBudget.from_json({"length": 128, "max_bytes_per_seq": 4096})
    assert b.precision == "bf16"


# ---------------------------------------------------------------------------
# building the problem from scores and costs


@pytest.fixture(scope="module")
def scored_toy(toy_cfg, toy_params, toy_arch, lm_probes_small, retrieval_probes_small):
    cfg = toy_cfg
    lib = build_library(cfg, LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(16,)))
    ranking, table = score_library(toy_params, toy_arch, lib, lm_probes_small,
                                   retrieval_probes_small)
    return cfg, lib, ranking, table


def test_parent_selection_has_zero_degradation(scored_toy):
    cfg, lib, ranking, table = scored_toy
    problem, meta = build_selection_problem(
        cfg, lib, table, [LONG], {"long": 1.0}, HW,
        build_cost_table(cfg, lib, [LONG], HW),
    )
    assert len(problem.layers) == cfg.n_layers
    sol = solve(problem)
    assert sol.is_optimal
    assert sol.total_degradation == 0.0  # parent blocks fit a 1.0x budget freely
    assert [b.name for b in problem.budgets] == ["time:long"]
    assert "normalization" in meta and "budgets" in meta


def test_missing_speedup_target_is_an_error(scored_toy):
    cfg, lib, ranking, table = scored_toy
    with pytest.raises(ConfigError, match="short"):
        build_selection_problem(
            cfg, lib, table,
            [LONG, Scenario(name="short", isl=8, osl=8, batch=1, kv_precision="bf16")],
            {"long": 1.0}, HW,
            build_cost_table(cfg, lib, [LONG], HW),
        )


def test_kv_budget_adds_a_dimension(scored_toy):
    cfg, lib, ranking, table = scored_toy
    kv = KvBudget(length=512, precision="bf16", max_bytes_per_seq=10**9)
    problem, _ = build_selection_problem(
        cfg, lib, table, [LONG], {"long": 1.0}, HW,
        build_cost_table(cfg, lib, [LONG], HW), kv_budget=kv,
    )
    assert [b.name for b in problem.budgets] == ["time:long", "kv_bytes_per_seq"]
    for layer in problem.layers:
        for v in layer:
            assert len(v.costs) == 2


def test_search_pipeline_speedup_changes_architecture(scored_toy):
    cfg, lib, ranking, table = scored_toy
    result = search_pipeline(
        cfg, lib, table, ranking, [LONG], {"long": 1.05}, HW,
        attention_signal=SIGNAL_ACTIVATION_MSE,
    )
    assert result.solution.is_optimal
    usage = {u["name"]: u for u in result.report["budget_usage"]}
    assert usage["time:long"]["total"] <= usage["time:long"]["limit"]
    assert usage["time:long"]["slack"] >= 0
    assert len(result.report["choices"]) == cfg.n_layers
    report = result.report
    assert report["nodes_expanded"] >= 1 + cfg.n_layers and report["nodes_pruned"] >= 0
    assert report["root_gap"] == report["objective"] - report["root_bound"]
    assert report["root_bound"] <= report["objective"]
    # the 1.05x budget cannot be met by parent blocks alone
    parent_ids = {0: "attn:window:4+ffn:keep:16", 1: "attn:global+ffn:keep:16"}
    n_changed = sum(
        1 for c in result.report["choices"]
        if c["variant"] != parent_ids[c["layer"] % 2]
    )
    assert n_changed >= 1


def test_search_pipeline_infeasible_names_time_budget(scored_toy):
    cfg, lib, ranking, table = scored_toy
    with pytest.raises(InfeasibleError, match="time:long"):
        search_pipeline(cfg, lib, table, ranking, [LONG], {"long": 1.2}, HW)


def test_task_drop_signal_selects_window_conversions(scored_toy):
    # under the task signal a random model is at chance on retrieval, so
    # window conversions are free and the solver prefers them over pruning
    cfg, lib, ranking, table = scored_toy
    result = search_pipeline(
        cfg, lib, table, ranking, [LONG], {"long": 1.05}, HW,
        attention_signal=SIGNAL_TASK_DROP,
    )
    assert result.solution.is_optimal
    kinds = [spec.attention.variant_id for spec in result.arch.layers]
    assert any(k == "attn:window:16" for k in kinds)
