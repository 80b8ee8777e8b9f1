import os
import select
import signal
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from archsearch import model as model_mod
from archsearch import scoring
from archsearch.library import BlockLibrary, LibraryMenu, build_library, parent_spec
from archsearch.model import (
    ConfigError,
    MismatchError,
    first_mask_difference,
    forward_batch,
    global_attention,
    window_attention,
)
from archsearch.scoring import (
    PAD_TOKEN,
    QUERY_MARKER,
    SIGNAL_ACTIVATION_MSE,
    SIGNAL_TASK_DROP,
    ProbeError,
    ScoreRow,
    ScoreTable,
    expert_contribution_scores,
    make_lm_probes,
    make_retrieval_probes,
    rank_experts,
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
    _, ffn_in, _ = next(model_mod._token_walk(toy_params, toy_arch, probes.tokens))
    scores = expert_contribution_scores(toy_params, toy_arch, 0, ffn_in)
    # recompute which experts the router actually used on these probes
    from archsearch.model import route_tokens
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
    walk = model_mod._token_walk(toy_params, toy_arch, lm_probes_small.tokens)
    for layer, (_, ffn_input, _) in enumerate(walk):
        arch = toy_arch.with_layer(layer, expert_keep_set=tuple(range(0, 16, 16 // keep)))
        got = expert_contribution_scores(toy_params, arch, layer, ffn_input)
        assert len(got.expert_ids) == keep
        want = _dense_contribution_scores(toy_params, arch, layer, ffn_input)
        assert want.any()
        np.testing.assert_array_equal(got.scores, want)


def test_expert_scores_rank_by_damage(toy_params, toy_arch, lm_probes_small):
    _, ffn_in, _ = list(model_mod._token_walk(toy_params, toy_arch, lm_probes_small.tokens))[3]
    scores = expert_contribution_scores(toy_params, toy_arch, 3, ffn_in)
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


def test_parent_block_scores_exactly_zero(toy_cfg, toy_params, toy_arch, lm_probes_small,
                                          retrieval_probes_small):
    _, table = score_library(toy_params, toy_arch, _small_library(toy_cfg),
                             lm_probes_small, retrieval_probes_small)
    for i, block in enumerate(toy_arch.layers):
        for signal in (SIGNAL_ACTIVATION_MSE, SIGNAL_TASK_DROP):
            row = table.get(i, block.attention.variant_id, signal)
            assert row.value == row.raw == 0.0
        row = table.get(i, f"ffn:keep:{block.experts_kept}", SIGNAL_ACTIVATION_MSE)
        assert row.value == row.raw == 0.0


def test_window_covering_probe_length_is_identity(toy_cfg, toy_params, toy_arch,
                                                  lm_probes_small, retrieval_probes_small):
    # the row is 0 with no forward, and a forward would give the parent's bits
    length = lm_probes_small.length
    lib = build_library(toy_cfg, LibraryMenu(alt_windows=(length,)))
    _, table = score_library(toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    assert table.get(1, f"attn:window:{length}", SIGNAL_ACTIVATION_MSE).value == 0.0
    wide = toy_arch.with_layer(1, attention=window_attention(length))
    np.testing.assert_array_equal(
        forward_batch(toy_params, wide, lm_probes_small.tokens).final_hidden,
        forward_batch(toy_params, toy_arch, lm_probes_small.tokens).final_hidden)


def test_deeper_pruning_hurts_more(toy_cfg, toy_params, toy_arch, lm_probes_small,
                                   retrieval_probes_small):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.5, 0.25)))
    _, table = score_library(toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    mse8 = table.get(0, "ffn:keep:8", SIGNAL_ACTIVATION_MSE).value
    mse4 = table.get(0, "ffn:keep:4", SIGNAL_ACTIVATION_MSE).value
    assert 0.0 < mse8 < mse4


def test_score_library_rejects_a_library_of_another_depth(toy_cfg, toy_params, toy_arch,
                                                          lm_probes_small,
                                                          retrieval_probes_small):
    layers = _small_library(toy_cfg).layers
    for other in (layers[:-1], layers + layers[:1]):
        with pytest.raises(MismatchError, match="disagree on layer count"):
            score_library(toy_params, toy_arch, BlockLibrary(other),
                          lm_probes_small, retrieval_probes_small)


# ---------------------------------------------------------------------------
# the hand-built retrieval model: signals must detect the load-bearing layer


def _answered(params, arch, probes):
    """Per-probe 1.0/0.0: whether a forward predicts each probe's answer."""
    logits = forward_batch(params, arch, probes.tokens, last_only=True).logits
    return (np.argmax(logits[:, -1, :], axis=-1) == probes.answers).astype(np.float64)


def test_induction_model_solves_retrieval_exactly(induction_model):
    cfg = induction_model.config
    arch = parent_spec(cfg)
    probes = make_retrieval_probes(cfg, count=64, length=64, n_pairs=4, seed=9)
    assert _answered(induction_model, arch, probes).mean() == 1.0


def test_windowing_the_global_layer_destroys_retrieval(induction_model):
    cfg = induction_model.config
    arch = parent_spec(cfg)
    probes = make_retrieval_probes(cfg, count=64, length=64, n_pairs=4, seed=9)
    crippled = arch.with_layer(1, attention=window_attention(8))
    assert _answered(induction_model, crippled, probes).mean() <= 0.1
    # the local hop needs to see the previous position, but nothing further
    narrow = arch.with_layer(0, attention=window_attention(1))
    assert _answered(induction_model, narrow, probes).mean() <= 0.1


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
    assert {r.signal for r in table.rows} == {SIGNAL_ACTIVATION_MSE, SIGNAL_TASK_DROP}
    # attention rows carry both signals; FFN rows only activation distance
    table.get(1, "attn:window:16", SIGNAL_TASK_DROP)
    table.get(1, "attn:window:16", SIGNAL_ACTIVATION_MSE)
    table.get(1, "ffn:keep:4", SIGNAL_ACTIVATION_MSE)
    with pytest.raises(KeyError):
        table.get(1, "ffn:keep:4", SIGNAL_TASK_DROP)
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
        return ScoreRow(layer, variant_id, SIGNAL_ACTIVATION_MSE, mse, mse, lm.count)

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
                                 retrieval.count))
    assert any(r.value > 0 for r in want)
    assert table.rows == want


@pytest.fixture
def two_cpus(monkeypatch):
    """score_library forks its scoring child whatever this host has."""
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
    # - Parent: one LM walk of 8 layers, in this process only (the child
    #   reads it from shared memory), and a retrieval pass of the 7 layers
    #   before the last, all from 0; the parent's retrieval outcome resumes
    #   at the last layer for the last position alone.
    # - A keep-count variant changes every position: layers i.. from 0.
    # - A window-W variant of a global layer leaves positions before W as the
    #   parent has them: layers i.. from W, except that a retrieval outcome
    #   reads only the last position, so its last layer runs for that alone.
    length, last = 80, toy_cfg.n_layers - 1
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.5, 0.25),
                                             alt_windows=(64, 16)))
    lm = make_lm_probes(toy_cfg, count=2, length=length, seed=5)
    retrieval = make_retrieval_probes(toy_cfg, count=2, length=length, n_pairs=4, seed=6)
    lm_walk = [(i, length) for i in range(last + 1)]
    task = [(i, length) for i in range(last)] + [(last, 1)]
    variants = []
    for i in range(last + 1):
        variants += 2 * [(j, length) for j in range(i, last + 1)]
    for i in (1, 3, 5, 7):
        for window in (64, 16):
            variants += [(j, length - window) for j in range(i, last + 1)]
            task += [(j, length - window) for j in range(i, last)] + [(last, 1)]
    assert len(lm_walk + task + variants) == 152

    # The child inherits the counting step and appends to the same file.
    log = tmp_path / "calls.txt"
    step = model_mod._layer_step

    def counting_step(params, i, spec, hidden, run, first=0):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {i} {hidden.shape[1] - first}\n")
        return step(params, i, spec, hidden, run, first)

    monkeypatch.setattr(model_mod, "_layer_step", counting_step)
    score_library(toy_params, toy_arch, lib, lm, retrieval)
    assert_no_child_left()
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    child = Counter((i, n) for pid, i, n in calls if pid != os.getpid())
    assert not Counter(task) - child  # the child scored every task-drop row
    assert sorted((i, n) for _, i, n in calls) == sorted(lm_walk + task + variants)


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


def _before_walks(monkeypatch, **before):
    """Every parent walk over probes of kind "lm" or "retrieval" calls
    before[kind]() first. Only this process walks the LM probes; with two
    processes only the child walks the retrieval probes."""
    walk, lm_walk = scoring._walk, scoring._SharedWalk.walk

    def call(kind):
        if kind in before:
            before[kind]()

    def retrieval_walk(params, arch, probes):
        call("retrieval")
        return walk(params, arch, probes)

    def shared_walk(self, params, arch, probes):
        call("lm")
        return lm_walk(self, params, arch, probes)

    monkeypatch.setattr(scoring, "_walk", retrieval_walk)
    monkeypatch.setattr(scoring._SharedWalk, "walk", shared_walk)


def test_a_child_exception_is_raised_here(toy_cfg, toy_params, toy_arch, monkeypatch,
                                          lm_probes_small, retrieval_probes_small, two_cpus):
    def bad_probes():
        raise ProbeError("probe 3 has no answer")

    _before_walks(monkeypatch, retrieval=bad_probes)
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
    def odd():
        raise _TwoPartError("probe 3", "32")

    _before_walks(monkeypatch, retrieval=odd)
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
    _before_walks(monkeypatch, retrieval=death)
    with pytest.raises(ChildProcessError, match=message):
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_here_kills_and_reaps_the_child(toy_cfg, toy_params, toy_arch, monkeypatch,
                                                 lm_probes_small, retrieval_probes_small,
                                                 two_cpus, gate, error):
    # This process raises before its LM walk, so before its ready signal,
    # while the child sleeps in its retrieval walk, or once the child waits
    # for the signal in its first LM claim.
    wait, open_gate = gate
    read = scoring._SharedWalk.read

    def opening_read(self):
        open_gate()
        return read(self)

    def interrupted():
        raise error("stop")

    def interrupted_after_the_gate():
        wait()
        raise error("stop")

    before = _open_fds()
    for child_waits in (False, True):
        with monkeypatch.context() as m:
            if child_waits:
                m.setattr(scoring._SharedWalk, "read", opening_read)
                _before_walks(m, lm=interrupted_after_the_gate)
            else:
                _before_walks(m, retrieval=lambda: time.sleep(60), lm=interrupted)
            start = time.monotonic()
            with pytest.raises(error, match="stop"):
                score_library(toy_params, toy_arch, _small_library(toy_cfg),
                              lm_probes_small, retrieval_probes_small)
            assert time.monotonic() - start < 30  # the child was killed, not waited for
            assert_no_child_left()
            assert _open_fds() == before


def test_a_timer_signal_does_not_break_the_wait(toy_cfg, toy_params, toy_arch, monkeypatch,
                                                lm_probes_small, retrieval_probes_small,
                                                two_cpus):
    # A 5 ms SIGALRM whose handler returns, as a sampling clock installs,
    # interrupts the parent's os.read and os.waitpid many times over.
    args = (toy_params, toy_arch, _small_library(toy_cfg), lm_probes_small,
            retrieval_probes_small)
    want = score_library(*args)
    ticks = []
    _before_walks(monkeypatch, retrieval=lambda: time.sleep(0.3))
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(signum))
    signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)
    try:
        ranking, table = score_library(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    assert ranking == want[0]
    assert table.rows == want[1].rows
    assert len(ticks) > 10
    assert_no_child_left()


def test_a_two_process_score_writes_nothing_to_stdout_or_stderr(
        toy_cfg, toy_params, toy_arch, capfd, lm_probes_small, retrieval_probes_small,
        two_cpus):
    # The child shares this process's stdout and stderr; a stray line there
    # would land in the middle of a CLI stage's output.
    capfd.readouterr()
    score_library(toy_params, toy_arch, _small_library(toy_cfg),
                  lm_probes_small, retrieval_probes_small)
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_each_queued_id_is_claimed_once_by_one_of_two_processes(two_cpus):
    ids = list(range(0, 1 << 16, 219))  # 300 ids, both bytes of each in use
    assert len(ids) == 300

    def drain(queue):
        claimed = []
        while (job := scoring._claim(queue)) is not None:
            claimed.append(job)
            time.sleep(0.002)  # long enough that the other process claims too
        return claimed

    with scoring._job_queue(ids) as queue, scoring._forked(drain, queue) as child_claimed:
        here = drain(queue)
        there = child_claimed()
    assert here and there
    assert sorted(here + there) == ids
    assert_no_child_left()


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_ids_that_overflow_the_pipe_raise_and_leave_no_fd():
    before = _open_fds()
    # 128 KiB of ids; then one id more than 2 bytes hold
    for count in (1 << 16, (1 << 16) + 1):
        with pytest.raises(ConfigError, match="do not fit in a pipe's buffer"):
            with scoring._job_queue(list(range(count))):
                pass
        assert _open_fds() == before


@pytest.fixture
def gate():
    """(wait, open): wait() blocks, at most 30 s, until another process has
    called open()."""
    read_fd, write_fd = os.pipe()

    def wait():
        ready, _, _ = select.select([read_fd], [], [], 30)
        assert ready, "the gate was never opened"
        os.read(read_fd, 1)

    yield wait, lambda: os.write(write_fd, b"x")
    os.close(read_fd)
    os.close(write_fd)


def _logged_claims(monkeypatch, log, on_claim):
    """Log every claim as "pid job" ("pid None" once drained) and call
    on_claim(job) after it."""
    claim = scoring._claim

    def logged(queue):
        job = claim(queue)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {job}\n")
        on_claim(job)
        return job

    monkeypatch.setattr(scoring, "_claim", logged)


def _first_ranking_waits(monkeypatch, wait):
    """This process calls wait() as it ranks layer 0, before any claim."""
    ranking, here = scoring._layer_ranking, os.getpid()

    def waiting_ranking(params, arch, layer, *rest):
        if layer == 0 and os.getpid() == here:
            wait()
        return ranking(params, arch, layer, *rest)

    monkeypatch.setattr(scoring, "_layer_ranking", waiting_ranking)


def _first_claim_here_waits(monkeypatch, wait):
    """This process calls wait() before its first claim, so after its LM
    walk and its ready signal; the child's claims do not wait."""
    claim, here, waited = scoring._claim, os.getpid(), []

    def waiting_claim(queue):
        if os.getpid() == here and not waited:
            waited.append(wait())
        return claim(queue)

    monkeypatch.setattr(scoring, "_claim", waiting_claim)


def _opens_when_the_lm_queue_is_drained(open_gate, by_this_process):
    """An on_claim for _logged_claims that opens the gate once this process,
    or the child, has drained the LM queue: this process's only queue, the
    child's second."""
    here, drained = os.getpid(), []

    def on_claim(job):
        if job is None and (os.getpid() == here) == by_this_process:
            drained.append(job)
            if len(drained) == (1 if by_this_process else 2):
                open_gate()

    return on_claim


def _claims(log):
    """(pid, job) of every claim _logged_claims logged, drained ones left out."""
    lines = [line.split() for line in log.read_text().splitlines()]
    return [(int(pid), int(job)) for pid, job in lines if job != "None"]


def _one_cpu_rows(monkeypatch, args):
    """score_library(*args) on one CPU; later calls fork the scoring child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rows = score_library(*args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return rows


def _logged_lm_work(monkeypatch, log, lm_probes):
    """Log "pid walk" for every token walk over `lm_probes` and "pid rank"
    for every layer ranking."""
    walk, ranking = scoring._token_walk, scoring._layer_ranking

    def logged_walk(params, arch, tokens, *rest, **kw):
        if tokens is lm_probes.tokens:
            with open(log, "a") as f:
                f.write(f"{os.getpid()} walk\n")
        return walk(params, arch, tokens, *rest, **kw)

    def logged_ranking(params, arch, layer, *rest):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} rank\n")
        return ranking(params, arch, layer, *rest)

    monkeypatch.setattr(scoring, "_token_walk", logged_walk)
    monkeypatch.setattr(scoring, "_layer_ranking", logged_ranking)


def _lm_work(log):
    """Counter of (in this process, "walk" or "rank") from _logged_lm_work."""
    here = os.getpid()
    return Counter((int(pid) == here, what) for pid, what in map(str.split,
                                                                  log.read_text().splitlines()))


@pytest.mark.parametrize("drainer", ["this process", "the child"])
def test_either_process_may_drain_the_queue(toy_cfg, toy_params, toy_arch, monkeypatch,
                                           tmp_path, lm_probes_small, retrieval_probes_small,
                                           gate, drainer):
    lib = _small_library(toy_cfg)
    args = (toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    one_cpu = _one_cpu_rows(monkeypatch, args)

    # The drainer's last LM claim opens the gate; the other process waits for
    # it before its first LM claim: this process after its LM walk, the child
    # before its retrieval walk. This process does not wait for the child
    # before it asks for the child's rows.
    wait, open_gate = gate
    here = os.getpid()
    log = tmp_path / "claims.txt"
    _logged_claims(monkeypatch, log,
                   _opens_when_the_lm_queue_is_drained(open_gate, drainer == "this process"))
    work = tmp_path / "work.txt"
    _logged_lm_work(monkeypatch, work, lm_probes_small)
    if drainer == "this process":
        _before_walks(monkeypatch, retrieval=wait)
    else:
        _first_claim_here_waits(monkeypatch, wait)
    two = score_library(*args)
    assert_no_child_left()
    assert two[0] == one_cpu[0]
    assert two[1].rows == one_cpu[1].rows

    # every job that changes a probe position is queued: on the LM probes a
    # window shorter than them or a keep count below the 16 experts
    def changes(job, probes):
        if isinstance(job.change, int):
            return job.change < toy_cfg.n_experts
        first = first_mask_difference(toy_arch.layers[job.layer].attention, job.change)
        return first is not None and first < probes.length

    jobs = scoring._jobs(lib)
    lm = {n for n, job in enumerate(jobs) if job.signal == SIGNAL_ACTIVATION_MSE
          and changes(job, lm_probes_small)}
    task = {n for n, job in enumerate(jobs) if job.signal == SIGNAL_TASK_DROP
            and changes(job, retrieval_probes_small)}
    assert any(isinstance(jobs[n].change, int) for n in lm)  # keep counts too
    claimed = _claims(log)
    assert sorted(job for _, job in claimed) == sorted(lm | task)  # each exactly once
    assert {pid == here for pid, job in claimed if job in lm} == {drainer == "this process"}
    assert {pid == here for pid, job in claimed if job in task} == {False}
    # one LM walk, here, whoever drains the LM queue
    assert _lm_work(work) == Counter({(True, "walk"): 1, (True, "rank"): toy_cfg.n_layers})


@contextmanager
def _within(seconds):
    """Raise TimeoutError in the body once it has run `seconds`, so that a
    score whose child never sees the ready signal fails instead of hanging
    (the wait for the child's rows is retried only after a handler that
    returns). A forked child inherits no pending alarm."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_childs_first_lm_claim_waits_for_the_walk(toy_cfg, toy_params, toy_arch,
                                                      monkeypatch, tmp_path, lm_probes_small,
                                                      retrieval_probes_small, gate):
    # This process starts its LM walk only once the child has claimed an LM
    # job; the child then waits for the ready signal, and reads the walk.
    args = (toy_params, toy_arch, _small_library(toy_cfg), lm_probes_small,
            retrieval_probes_small)
    one_cpu = _one_cpu_rows(monkeypatch, args)
    wait, open_gate = gate
    here, jobs = os.getpid(), scoring._jobs(args[2])
    events = tmp_path / "events.txt"

    def event(what):
        with open(events, "a") as f:
            f.write(f"{os.getpid() == here} {what}\n")

    def on_claim(job):
        if os.getpid() != here and job is not None and jobs[job].signal == SIGNAL_ACTIVATION_MSE:
            event("claim")
            open_gate()

    close, read = scoring._SharedWalk.close_write_end, scoring._SharedWalk.read

    def signalling_close(self):
        if os.getpid() == here and self.write_end is not None:
            event("signal")
        close(self)

    def logged_read(self):
        states = read(self)
        event("read")
        return states

    _logged_claims(monkeypatch, tmp_path / "claims.txt", on_claim)
    monkeypatch.setattr(scoring._SharedWalk, "close_write_end", signalling_close)
    monkeypatch.setattr(scoring._SharedWalk, "read", logged_read)
    _before_walks(monkeypatch, lm=wait)
    with _within(60):
        two = score_library(*args)
    assert_no_child_left()
    assert two[0] == one_cpu[0]
    assert two[1].rows == one_cpu[1].rows
    lines = events.read_text().splitlines()
    assert lines[:3] == ["False claim", "True signal", "False read"]
    assert lines.count("False read") == 1


def _child_drains_the_lm_queue(monkeypatch, tmp_path, gate):
    """Make this process wait before its first claim until the child has
    drained the LM queue. Returns the claims log."""
    wait, open_gate = gate
    claims = tmp_path / "claims.txt"
    _logged_claims(monkeypatch, claims, _opens_when_the_lm_queue_is_drained(open_gate, False))
    _first_claim_here_waits(monkeypatch, wait)
    return claims


def test_the_child_scores_keep_count_rows_as_this_process_does(
        toy_cfg, toy_params, toy_arch, monkeypatch, tmp_path, lm_probes_small,
        retrieval_probes_small, gate):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.5, 0.25), alt_windows=(16,)))
    args = (toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    one_cpu = _one_cpu_rows(monkeypatch, args)
    claims = _child_drains_the_lm_queue(monkeypatch, tmp_path, gate)
    two = score_library(*args)
    assert_no_child_left()
    assert two[0] == one_cpu[0]
    assert two[1].rows == one_cpu[1].rows
    jobs = scoring._jobs(lib)
    kept = sorted((jobs[n].layer, jobs[n].change) for pid, n in _claims(claims)
                  if pid != os.getpid() and isinstance(jobs[n].change, int))
    assert kept == [(i, count) for i in range(toy_cfg.n_layers) for count in (4, 8)]


@pytest.mark.parametrize("keep_fractions", [(1.0, 0.5), (1.0,)])
def test_the_child_never_walks_or_ranks_the_lm_probes(
        toy_cfg, toy_params, toy_arch, monkeypatch, tmp_path, lm_probes_small,
        retrieval_probes_small, gate, keep_fractions):
    # keep_fractions (1.0,) is decode-long's library: its one keep count
    # keeps every expert, so no keep-count row needs a forward.
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=keep_fractions, alt_windows=(16,)))
    args = (toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    one_cpu = _one_cpu_rows(monkeypatch, args)
    claims = _child_drains_the_lm_queue(monkeypatch, tmp_path, gate)
    work = tmp_path / "work.txt"
    _logged_lm_work(monkeypatch, work, lm_probes_small)
    two = score_library(*args)
    assert_no_child_left()
    assert two[0] == one_cpu[0]
    assert two[1].rows == one_cpu[1].rows
    jobs, here = scoring._jobs(lib), os.getpid()
    child_lm = [jobs[n] for pid, n in _claims(claims)
                if pid != here and jobs[n].signal == SIGNAL_ACTIVATION_MSE]
    assert child_lm  # the child scored LM rows, keep counts among them when queued
    assert any(isinstance(job.change, int) for job in child_lm) == (len(keep_fractions) > 1)
    assert _lm_work(work) == Counter({(True, "walk"): 1, (True, "rank"): toy_cfg.n_layers})


def test_score_leaves_no_fd_open(toy_cfg, toy_params, toy_arch, lm_probes_small,
                                 retrieval_probes_small, monkeypatch):
    # One CPU forks no child, but opens the job queues and the ready pipe too.
    before = _open_fds()
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
        assert _open_fds() == before
        assert_no_child_left()


def test_a_child_that_raises_holding_a_claim_leaves_no_fd_open(
        toy_cfg, toy_params, toy_arch, monkeypatch, tmp_path, lm_probes_small,
        retrieval_probes_small, two_cpus, gate):
    # This process waits in its first ranking until the child has claimed a
    # job; the child raises before scoring it.
    wait, open_gate = gate
    here = os.getpid()

    def raise_in_child(job):
        if job is not None and os.getpid() != here:
            open_gate()
            raise ProbeError(f"job {job} failed")

    _logged_claims(monkeypatch, tmp_path / "claims.txt", raise_in_child)
    _first_ranking_waits(monkeypatch, wait)
    before = _open_fds()
    with pytest.raises(ProbeError, match=r"^job \d+ failed$"):
        score_library(toy_params, toy_arch, _small_library(toy_cfg),
                      lm_probes_small, retrieval_probes_small)
    assert _open_fds() == before
    assert_no_child_left()


def test_score_table_roundtrip_and_line_errors(tmp_path):
    table = ScoreTable(rows=[
        ScoreRow(layer=1, variant_id="attn:global", signal="activation_mse",
                 value=0.5, raw=0.5, n_samples=4),
        ScoreRow(layer=0, variant_id="ffn:keep:8", signal="activation_mse",
                 value=0.25, raw=0.25, n_samples=4),
    ])
    path = tmp_path / "scores.jsonl"
    table.save(path)
    loaded = ScoreTable.load(path)
    assert loaded.sorted_rows() == table.sorted_rows()

    bad = tmp_path / "bad.jsonl"
    bad.write_text(path.read_text() + "{not json\n")
    with pytest.raises(ValueError, match="line 3"):
        ScoreTable.load(bad)
