import numpy as np
import pytest

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
# validation


def test_variant_choice_validation():
    with pytest.raises(ConfigError, match="degradation"):
        VariantChoice(id="v", degradation=-0.5, costs=(1,))
    with pytest.raises(ConfigError, match="degradation"):
        VariantChoice(id="v", degradation=float("nan"), costs=(1,))
    with pytest.raises(ConfigError, match="costs"):
        VariantChoice(id="v", degradation=0.0, costs=(1.5,))
    with pytest.raises(ConfigError, match="costs"):
        VariantChoice(id="v", degradation=0.0, costs=(-1,))


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
