import os
import signal
import time

import numpy as np
import pytest

from archsearch import model as model_mod
from archsearch import scoring
from archsearch.library import LibraryMenu, build_library, parent_spec
from archsearch.model import MismatchError, forward_batch, global_attention, window_attention
from archsearch.scoring import (
    PAD_TOKEN,
    QUERY_MARKER,
    SIGNAL_ACTIVATION_MSE,
    SIGNAL_TASK_DROP,
    ProbeError,
    ScoreRow,
    ScoreTable,
    _retrieval_correct,
    expert_contribution_scores,
    make_lm_probes,
    make_retrieval_probes,
    rank_experts,
    replace_one_block_score,
    score_library,
    validate_retrieval_probes,
)


# ---------------------------------------------------------------------------
# probes


def test_lm_probes_deterministic_and_in_range(toy_cfg):
    a = make_lm_probes(toy_cfg, count=6, length=32, seed=7)
    b = make_lm_probes(toy_cfg, count=6, length=32, seed=7)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    assert a.tokens.shape == (6, 32)
    assert a.tokens.min() >= 2  # ids 0 and 1 are reserved
    assert a.tokens.max() < toy_cfg.vocab_size
    c = make_lm_probes(toy_cfg, count=6, length=32, seed=8)
    assert not np.array_equal(a.tokens, c.tokens)


def test_retrieval_probe_layout(toy_cfg):
    probes = make_retrieval_probes(toy_cfg, count=20, length=48, n_pairs=3, seed=5)
    validate_retrieval_probes(probes)
    t = probes.tokens
    assert t.shape == (20, 48)
    assert np.all(t[:, -2] == QUERY_MARKER)
    for row in range(20):
        keys = t[row, 0:6:2]
        values = t[row, 1:6:2]
        assert len(set(keys.tolist())) == 3  # planted keys are distinct
        q = t[row, -1]
        j = int(np.nonzero(keys == q)[0][0])
        assert probes.answers[row] == values[j]  # answer is the paired value
    # probes regenerate exactly from the same arguments
    again = make_retrieval_probes(toy_cfg, count=20, length=48, n_pairs=3, seed=5)
    np.testing.assert_array_equal(again.tokens, probes.tokens)
    np.testing.assert_array_equal(again.answers, probes.answers)


def test_retrieval_probe_validation_catches_tampering(toy_cfg):
    probes = make_retrieval_probes(toy_cfg, count=4, length=32, n_pairs=2, seed=1)
    probes.tokens[:, -2] = PAD_TOKEN  # destroy the query marker
    with pytest.raises(ProbeError):
        validate_retrieval_probes(probes)


# ---------------------------------------------------------------------------
# expert contribution scores


def test_never_routed_expert_scores_exactly_zero(toy_cfg, toy_params, toy_arch):
    # 4 tokens route at most 4*top_k = 8 of the 16 experts, so some never run
    probes = make_lm_probes(toy_cfg, count=1, length=4, seed=44)
    scores = expert_contribution_scores(toy_params, toy_arch, layer=0, probes=probes)
    # recompute which experts the router actually used on these probes
    from archsearch.model import route_tokens
    _, ffn_in, _ = next(model_mod._layer_walk(toy_params, toy_arch, probes.tokens))
    logits = ffn_in @ toy_params.layers[0].router.T
    idx, _ = route_tokens(logits, np.ones(16, dtype=bool), toy_params.config.top_k)
    used = set(np.unique(idx).tolist())
    unused = set(range(16)) - used
    assert len(unused) >= 8  # the tiny probe really does leave experts unused
    for eid in range(16):
        s = scores.scores[scores.expert_ids.index(eid)]
        if eid in unused:
            assert s == 0.0  # exactly, not approximately
        else:
            assert s > 0.0


def _dense_contribution_scores(params, arch, layer, ffn_input):
    """The reference: expert_contribution_scores with each kept expert's output
    held for every token in one dense [n_present, tokens, d_model] array."""
    c, lp = params.config, params.layers[layer]
    x = ffn_input.reshape(-1, ffn_input.shape[-1])
    allowed = model_mod._expert_allowed_mask(lp, arch.layers[layer].expert_keep_set, c.top_k)
    logits = x @ lp.router.T
    picks, _ = model_mod.route_tokens(logits, allowed, min(c.top_k + 1, int(allowed.sum())))
    outputs = np.zeros((len(lp.expert_ids), x.shape[0], x.shape[1]), dtype=np.float32)
    for pos in np.flatnonzero(allowed):
        rows = np.flatnonzero((picks == pos).any(axis=-1))
        if rows.size:
            outputs[pos, rows] = model_mod._matmul(
                model_mod._silu(model_mod._matmul(x[rows], lp.w_in[pos])), lp.w_out[pos])

    def mix(mask, rows):
        idx, w = model_mod.route_tokens(logits[rows], mask, c.top_k)
        out = np.zeros((rows.size, x.shape[1]), dtype=np.float32)
        for j in range(c.top_k):
            out += w[:, j, None] * outputs[idx[:, j], rows]
        return out

    everyone = np.arange(x.shape[0])
    base = mix(allowed, everyone)
    scores = []
    for pos in np.flatnonzero(allowed):
        affected = np.flatnonzero((picks[:, : c.top_k] == pos).any(axis=-1))
        smaller = allowed.copy()
        smaller[pos] = False
        row_total = np.zeros(x.shape[0])
        if affected.size:
            alt = mix(smaller, affected)
            row_total[affected] = np.square(
                base[affected].astype(np.float64) - alt.astype(np.float64)).mean(axis=-1)
        scores.append(row_total.reshape(ffn_input.shape[:2]).mean(axis=1).mean())
    return np.array(scores)


@pytest.mark.parametrize("keep", [16, 8, 4])
def test_compact_expert_outputs_score_as_dense_ones(toy_params, toy_arch, lm_probes_small, keep):
    walk = model_mod._layer_walk(toy_params, toy_arch, lm_probes_small.tokens)
    for layer, (_, ffn_input, _) in enumerate(walk):
        arch = toy_arch.with_layer(layer, expert_keep_set=tuple(range(0, 16, 16 // keep)))
        got = expert_contribution_scores(toy_params, arch, layer, lm_probes_small, ffn_input)
        assert len(got.expert_ids) == keep
        want = _dense_contribution_scores(toy_params, arch, layer, ffn_input)
        assert want.any()
        np.testing.assert_array_equal(got.scores, want)


def test_expert_scores_rank_by_damage(toy_params, toy_arch, lm_probes_small):
    scores = expert_contribution_scores(toy_params, toy_arch, layer=3, probes=lm_probes_small)
    order = scores.ranking_order()
    vals = [scores.scores[scores.expert_ids.index(e)] for e in order]
    assert vals == sorted(vals, reverse=True)
    assert len(order) == 16


def test_rank_experts_covers_all_layers(toy_params, toy_arch, lm_probes_small):
    ranking = rank_experts(toy_params, toy_arch, lm_probes_small)
    assert len(ranking.layers) == 8
    for layer in ranking.layers:
        assert sorted(layer.order) == list(range(16))


# ---------------------------------------------------------------------------
# replace-one-block scores


def test_parent_block_scores_exactly_zero(toy_params, toy_arch, lm_probes_small):
    mse, per_seq = replace_one_block_score(
        toy_params, toy_arch, layer=1, probes=lm_probes_small,
        attention=toy_arch.layers[1].attention,
    )
    assert mse == 0.0
    assert np.all(per_seq == 0.0)


def test_window_covering_probe_length_is_identity(toy_params, toy_arch, lm_probes_small):
    length = lm_probes_small.tokens.shape[1]
    mse, _ = replace_one_block_score(
        toy_params, toy_arch, layer=1, probes=lm_probes_small,
        attention=window_attention(length),
    )
    assert mse <= 1e-10


def test_deeper_pruning_hurts_more(toy_params, toy_arch, lm_probes_small):
    ranking = rank_experts(toy_params, toy_arch, lm_probes_small)
    mse8, _ = replace_one_block_score(
        toy_params, toy_arch, layer=0, probes=lm_probes_small,
        expert_keep_set=ranking.keep_set(0, 8),
    )
    mse4, _ = replace_one_block_score(
        toy_params, toy_arch, layer=0, probes=lm_probes_small,
        expert_keep_set=ranking.keep_set(0, 4),
    )
    assert 0.0 < mse8 < mse4


def test_replace_one_block_rejects_a_missing_layer(toy_params, toy_arch, lm_probes_small):
    for layer in (-1, toy_params.config.n_layers):
        with pytest.raises(MismatchError, match="no layer"):
            replace_one_block_score(
                toy_params, toy_arch, layer=layer, probes=lm_probes_small,
                attention=window_attention(4),
            )


# ---------------------------------------------------------------------------
# the hand-built retrieval model: signals must detect the load-bearing layer


def test_induction_model_solves_retrieval_exactly(induction_model):
    cfg = induction_model.config
    arch = parent_spec(cfg)
    probes = make_retrieval_probes(cfg, count=64, length=64, n_pairs=4, seed=9)
    assert _retrieval_correct(induction_model, arch, probes).mean() == 1.0


def test_windowing_the_global_layer_destroys_retrieval(induction_model):
    cfg = induction_model.config
    arch = parent_spec(cfg)
    probes = make_retrieval_probes(cfg, count=64, length=64, n_pairs=4, seed=9)
    crippled = arch.with_layer(1, attention=window_attention(8))
    assert _retrieval_correct(induction_model, crippled, probes).mean() <= 0.1
    # the local hop needs to see the previous position, but nothing further
    narrow = arch.with_layer(0, attention=window_attention(1))
    assert _retrieval_correct(induction_model, narrow, probes).mean() <= 0.1


def test_task_drop_signal_flags_global_layer_conversion(induction_model):
    cfg = induction_model.config
    arch = parent_spec(cfg)
    lm = make_lm_probes(cfg, count=8, length=64, seed=3)
    retrieval = make_retrieval_probes(cfg, count=64, length=64, n_pairs=4, seed=9)
    lib = build_library(cfg, LibraryMenu(keep_fractions=(1.0,), alt_windows=(8,)))
    _, table = score_library(induction_model, arch, lib, lm, retrieval)

    drop = table.get(1, "attn:window:8", SIGNAL_TASK_DROP)
    assert drop.value >= 0.9  # conversion loses essentially all retrieval accuracy
    parent_row = table.get(1, "attn:global", SIGNAL_TASK_DROP)
    assert parent_row.value == 0.0
    # activation distance agrees that the conversion changes behavior
    mse = table.get(1, "attn:window:8", SIGNAL_ACTIVATION_MSE)
    assert mse.value > 0.0


# ---------------------------------------------------------------------------
# score table plumbing


def test_score_library_produces_both_signals(toy_params, toy_arch, toy_cfg,
                                             lm_probes_small, retrieval_probes_small):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.25), alt_windows=(16,)))
    _, table = score_library(toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    assert set(table.signals()) == {SIGNAL_ACTIVATION_MSE, SIGNAL_TASK_DROP}
    # attention rows carry both signals; FFN rows only activation distance
    assert table.has(1, "attn:window:16", SIGNAL_TASK_DROP)
    assert table.has(1, "attn:window:16", SIGNAL_ACTIVATION_MSE)
    assert table.has(1, "ffn:keep:4", SIGNAL_ACTIVATION_MSE)
    assert not table.has(1, "ffn:keep:4", SIGNAL_TASK_DROP)
    # parent rows exist and are exactly zero
    assert table.get(0, "attn:window:4", SIGNAL_ACTIVATION_MSE).value == 0.0
    assert table.get(0, "ffn:keep:16", SIGNAL_ACTIVATION_MSE).value == 0.0


@pytest.mark.parametrize("model", ["toy", "induction", "toy-160"])
def test_score_library_equals_scoring_by_full_forwards(request, model):
    # On the planted-retrieval model a window of 64 on its global layer keeps
    # every 40-token probe answered, so the task rows show a wrong resumed
    # residual as well as the activation rows do. The 160-token case resumes
    # from a window that is not a multiple of 8, and its query rows read past
    # 128 keys.
    length = 40
    if model == "toy":
        params = request.getfixturevalue("toy_params")
        menu = LibraryMenu(keep_fractions=(1.0, 0.5, 0.25), alt_windows=(16,))
    elif model == "induction":
        params = request.getfixturevalue("induction_model")
        menu = LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(64, 8))
    else:
        params = request.getfixturevalue("toy_params")
        menu = LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(12, 64))
        length = 160
    cfg = params.config
    parent = parent_spec(cfg)
    lm = make_lm_probes(cfg, count=3, length=length, seed=303)
    retrieval = make_retrieval_probes(cfg, count=4, length=length, n_pairs=4, seed=404)
    lib = build_library(cfg, menu)
    ranking, table = score_library(params, parent, lib, lm, retrieval)
    assert ranking == rank_experts(params, parent, lm)

    # the same rows, each variant scored by a plain forward over every layer
    def final(arch):
        return forward_batch(params, arch, lm.tokens).final_hidden.astype(np.float64)

    def correct(arch):
        logits = forward_batch(params, arch, retrieval.tokens).logits
        return (np.argmax(logits[:, -1, :], axis=-1) == retrieval.answers).astype(np.float64)

    def mse_row(layer, variant_id, arch):
        per_seq = np.square(base - final(arch)).mean(axis=(1, 2))
        mse = float(per_seq.mean())
        return ScoreRow(layer, variant_id, SIGNAL_ACTIVATION_MSE, mse, mse, lm.count,
                        tuple(per_seq.tolist()))

    base, parent_correct = final(parent), correct(parent)
    want = []  # every activation row, then every task row
    for i, layer_lib in enumerate(lib.layers):
        for attn in layer_lib.attention_options:
            want.append(mse_row(i, attn.variant_id, parent.with_layer(i, attention=attn)))
        for count in layer_lib.keep_counts:
            arch = parent.with_layer(i, expert_keep_set=ranking.keep_set(i, count))
            want.append(mse_row(i, f"ffn:keep:{count}", arch))
    for i, layer_lib in enumerate(lib.layers):
        for attn in layer_lib.attention_options:
            ok = correct(parent.with_layer(i, attention=attn))
            drop = float(parent_correct.mean()) - float(ok.mean())
            want.append(ScoreRow(i, attn.variant_id, SIGNAL_TASK_DROP, max(0.0, drop), drop,
                                 retrieval.count, tuple((parent_correct - ok).tolist())))
    assert any(r.value > 0 for r in want)
    assert table.rows == want


@pytest.fixture
def two_cpus(monkeypatch):
    """score_library forks its retrieval pass whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_score_library_walks_the_parent_once_per_probe_set(toy_cfg, toy_params, toy_arch,
                                                           monkeypatch, tmp_path, two_cpus):
    # The toy run's menu: two keep-count variants at every layer, and windows
    # 64 and 16 at each global layer (1, 3, 5, 7), scored on both probe sets.
    # Probes of 80 positions are longer than both windows. Each pass runs a
    # layer's queries for positions first.. of the probes.
    # - Parent: one LM walk of 8 layers and a retrieval pass of the 7 layers
    #   before the last, all from 0; the parent's retrieval outcome resumes at
    #   the last layer for the last position alone.
    # - A keep-count variant changes every position: layers i.. from 0.
    # - A window-W variant of a global layer leaves positions before W as the
    #   parent has them: layers i.. from W, except that a retrieval outcome
    #   reads only the last position, so its last layer runs for that alone.
    length, last = 80, toy_cfg.n_layers - 1
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.5, 0.25),
                                             alt_windows=(64, 16)))
    lm = make_lm_probes(toy_cfg, count=2, length=length, seed=5)
    retrieval = make_retrieval_probes(toy_cfg, count=2, length=length, n_pairs=4, seed=6)
    want = [(i, length) for i in range(last + 1)] + [(i, length) for i in range(last)]
    want.append((last, 1))
    for i in range(last + 1):
        want += 2 * [(j, length) for j in range(i, last + 1)]
    for i in (1, 3, 5, 7):
        for window in (64, 16):
            want += [(j, length - window) for j in range(i, last + 1)]
            want += [(j, length - window) for j in range(i, last)] + [(last, 1)]
    assert len(want) == 152

    # The retrieval pass runs in a forked child, which inherits the counting
    # step and appends to the same file.
    log = tmp_path / "calls.txt"
    step = model_mod._layer_step

    def counting_step(params, i, spec, hidden, run, first=0):
        with open(log, "a") as f:
            f.write(f"{i} {hidden.shape[1] - first}\n")
        return step(params, i, spec, hidden, run, first)

    monkeypatch.setattr(model_mod, "_layer_step", counting_step)
    score_library(toy_params, toy_arch, lib, lm, retrieval)
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(calls) == sorted(want)
    assert_no_child_left()


@pytest.mark.parametrize("model, moving", [("toy_params", SIGNAL_ACTIVATION_MSE),
                                           ("induction_model", SIGNAL_TASK_DROP)])
def test_one_cpu_scores_as_two_processes(request, monkeypatch, model, moving):
    # The untrained toy answers no retrieval probe, so its task rows are all
    # 0; on the planted-retrieval model windowing the global layer drops
    # accuracy, so its task rows carry information too.
    params = request.getfixturevalue(model)
    cfg = params.config
    lib = build_library(cfg, LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(32, 8)))
    args = (params, parent_spec(cfg), lib, make_lm_probes(cfg, count=8, length=48, seed=101),
            make_retrieval_probes(cfg, count=16, length=48, n_pairs=4, seed=202))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = score_library(*args)
    assert_no_child_left()

    def no_fork():
        raise AssertionError("one CPU forks no child")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    ranking, table = score_library(*args)
    assert ranking == forked[0]
    assert table.rows == forked[1].rows
    assert any(r.signal == moving and r.value > 0 for r in table.rows)


def _small_library(cfg):
    return build_library(cfg, LibraryMenu(keep_fractions=(1.0, 0.5), alt_windows=(16,)))


def test_a_child_exception_is_raised_here(toy_cfg, toy_params, toy_arch, monkeypatch,
                                          lm_probes_small, retrieval_probes_small, two_cpus):
    def bad_probes(*args):
        raise ProbeError("probe 3 has no answer")

    monkeypatch.setattr(scoring, "_task_drop_pass", bad_probes)
    with pytest.raises(ProbeError, match="^probe 3 has no answer$"):
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
    assert_no_child_left()


class _TwoPartError(Exception):
    def __init__(self, part, whole):  # pickles, but does not load from its args
        super().__init__(f"{part} of {whole}")


def test_a_child_exception_that_does_not_unpickle_comes_as_runtime_error(
        toy_cfg, toy_params, toy_arch, monkeypatch, lm_probes_small, retrieval_probes_small,
        two_cpus):
    def odd(*args):
        raise _TwoPartError("probe 3", "32")

    monkeypatch.setattr(scoring, "_task_drop_pass", odd)
    with pytest.raises(RuntimeError, match="^_TwoPartError: probe 3 of 32$"):
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
    assert_no_child_left()


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
])
def test_a_child_that_dies_names_its_exit_status(toy_cfg, toy_params, toy_arch, monkeypatch,
                                                 lm_probes_small, retrieval_probes_small,
                                                 two_cpus, death, message):
    monkeypatch.setattr(scoring, "_task_drop_pass", lambda *args: death())
    with pytest.raises(ChildProcessError, match=message):
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_here_kills_and_reaps_the_child(toy_cfg, toy_params, toy_arch, monkeypatch,
                                                 lm_probes_small, retrieval_probes_small,
                                                 two_cpus, error):
    def interrupted(*args):
        raise error("stop")

    monkeypatch.setattr(scoring, "_task_drop_pass", lambda *args: time.sleep(60))
    monkeypatch.setattr(scoring, "_activation_pass", interrupted)
    start = time.monotonic()
    with pytest.raises(error, match="stop"):
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
    assert time.monotonic() - start < 30  # the child was killed, not waited for
    assert_no_child_left()


def test_a_timer_signal_does_not_break_the_wait(toy_cfg, toy_params, toy_arch, monkeypatch,
                                                lm_probes_small, retrieval_probes_small,
                                                two_cpus):
    # A 5 ms SIGALRM whose handler returns, as a sampling clock installs,
    # interrupts the parent's os.read and os.waitpid many times over.
    ticks = []

    def slow_task_drop(*args):
        time.sleep(0.3)
        return ["task-drop rows"]

    monkeypatch.setattr(scoring, "_task_drop_pass", slow_task_drop)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(signum))
    signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)
    try:
        _, table = score_library(toy_params, toy_arch, _small_library(toy_cfg),
                                 lm_probes_small, retrieval_probes_small)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    assert table.rows[-1] == "task-drop rows"
    assert len(ticks) > 10
    assert_no_child_left()


def test_score_table_roundtrip_and_line_errors(tmp_path):
    table = ScoreTable(rows=[
        ScoreRow(layer=1, variant_id="attn:global", signal="activation_mse",
                 value=0.5, raw=0.5, n_samples=4, per_sample=(0.1, 0.2, 0.3, 0.4)),
        ScoreRow(layer=0, variant_id="ffn:keep:8", signal="activation_mse",
                 value=0.25, raw=0.25, n_samples=4, per_sample=(0.25,) * 4),
    ])
    path = tmp_path / "scores.jsonl"
    table.save(path)
    loaded = ScoreTable.load(path)
    assert loaded.sorted_rows() == table.sorted_rows()

    bad = tmp_path / "bad.jsonl"
    bad.write_text(path.read_text() + "{not json\n")
    with pytest.raises(ValueError, match="line 3"):
        ScoreTable.load(bad)
