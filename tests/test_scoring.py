import os
import select
import signal
import time
from collections import Counter

import numpy as np
import pytest

from archsearch import model as model_mod
from archsearch import scoring
from archsearch.library import LibraryMenu, build_library, parent_spec
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
    # - Parent: an LM walk of 8 layers in each process that scores an LM row
    #   (this one always, for the ranking; the child if it claims an LM
    #   job), and a retrieval pass of the 7 layers before the
    #   last, all from 0; the parent's retrieval outcome resumes at the last
    #   layer for the last position alone.
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
    lm_walks = 2 if child - Counter(task) else 1
    assert sorted((i, n) for _, i, n in calls) == sorted(lm_walks * lm_walk + task + variants)


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
    before[kind]() first. With two processes only the child walks the
    retrieval probes."""
    walk = scoring._walk

    def patched(params, arch, probes, rank):
        if probes.kind in before:
            before[probes.kind]()
        return walk(params, arch, probes, rank)

    monkeypatch.setattr(scoring, "_walk", patched)


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
                                                 two_cpus, error):
    def interrupted():
        raise error("stop")

    _before_walks(monkeypatch, retrieval=lambda: time.sleep(60), lm=interrupted)
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
    with pytest.raises(ConfigError, match="do not fit in a pipe's buffer"):
        with scoring._job_queue(list(range(1 << 16))):  # 128 KiB of ids
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
    """This process calls wait() as it ranks layer 0, before any claim; the
    child's ranking does not wait."""
    ranking, here = scoring._layer_ranking, os.getpid()

    def waiting_ranking(params, arch, layer, *rest):
        if layer == 0 and os.getpid() == here:
            wait()
        return ranking(params, arch, layer, *rest)

    monkeypatch.setattr(scoring, "_layer_ranking", waiting_ranking)


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


@pytest.mark.parametrize("drainer", ["this process", "the child"])
def test_either_process_may_drain_the_queue(toy_cfg, toy_params, toy_arch, monkeypatch,
                                           tmp_path, lm_probes_small, retrieval_probes_small,
                                           gate, drainer):
    lib = _small_library(toy_cfg)
    args = (toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = score_library(*args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    # The drainer's last LM claim opens the gate; the other process waits for
    # it before its first LM claim: this process in its first ranking, the
    # child before its retrieval walk.
    wait, open_gate = gate
    here = os.getpid()
    log = tmp_path / "claims.txt"
    _logged_claims(monkeypatch, log,
                   _opens_when_the_lm_queue_is_drained(open_gate, drainer == "this process"))
    walks, walk = tmp_path / "walks.txt", scoring._layer_walk

    def logged_walk(params, arch, tokens, *rest, **kw):
        with open(walks, "a") as f:
            f.write(f"{os.getpid() == here} {len(tokens)}\n")
        return walk(params, arch, tokens, *rest, **kw)

    monkeypatch.setattr(scoring, "_layer_walk", logged_walk)
    if drainer == "this process":
        _before_walks(monkeypatch, retrieval=wait)
    else:
        _first_ranking_waits(monkeypatch, wait)
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
    # one LM walk here; the child walks the LM probes only if it claims a job
    lm_walks = Counter(line for line in walks.read_text().splitlines()
                       if line.endswith(f" {lm_probes_small.count}"))
    assert lm_walks == Counter({f"True {lm_probes_small.count}": 1,
                                f"False {lm_probes_small.count}": drainer == "the child"})


def _child_drains_the_lm_queue(monkeypatch, tmp_path, gate):
    """Make this process wait in its first ranking until the child has
    drained the LM queue. Returns the claims log and a log of "pid layer" per
    expert ranking."""
    wait, open_gate = gate
    claims, ranked = tmp_path / "claims.txt", tmp_path / "ranked.txt"
    _logged_claims(monkeypatch, claims, _opens_when_the_lm_queue_is_drained(open_gate, False))
    _first_ranking_waits(monkeypatch, wait)
    ranking = scoring._layer_ranking

    def logged_ranking(params, arch, layer, *rest):
        with open(ranked, "a") as f:
            f.write(f"{os.getpid()} {layer}\n")
        return ranking(params, arch, layer, *rest)

    monkeypatch.setattr(scoring, "_layer_ranking", logged_ranking)
    return claims, ranked


def test_the_child_scores_keep_count_rows_as_this_process_does(
        toy_cfg, toy_params, toy_arch, monkeypatch, tmp_path, lm_probes_small,
        retrieval_probes_small, gate):
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=(1.0, 0.5, 0.25), alt_windows=(16,)))
    args = (toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = score_library(*args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    claims, _ = _child_drains_the_lm_queue(monkeypatch, tmp_path, gate)
    two = score_library(*args)
    assert_no_child_left()
    assert two[0] == one_cpu[0]
    assert two[1].rows == one_cpu[1].rows
    jobs = scoring._jobs(lib)
    kept = sorted((jobs[n].layer, jobs[n].change) for pid, n in _claims(claims)
                  if pid != os.getpid() and isinstance(jobs[n].change, int))
    assert kept == [(i, count) for i in range(toy_cfg.n_layers) for count in (4, 8)]


@pytest.mark.parametrize("keep_fractions", [(1.0, 0.5), (1.0,)])
def test_the_child_ranks_experts_only_when_a_keep_count_is_queued(
        toy_cfg, toy_params, toy_arch, monkeypatch, tmp_path, lm_probes_small,
        retrieval_probes_small, two_cpus, gate, keep_fractions):
    # keep_fractions (1.0,) is decode-long's library: its one keep count
    # keeps every expert, so no keep-count row needs a forward or a ranking.
    lib = build_library(toy_cfg, LibraryMenu(keep_fractions=keep_fractions, alt_windows=(16,)))
    claims, ranked = _child_drains_the_lm_queue(monkeypatch, tmp_path, gate)
    score_library(toy_params, toy_arch, lib, lm_probes_small, retrieval_probes_small)
    assert_no_child_left()
    jobs, here = scoring._jobs(lib), os.getpid()
    assert any(pid != here and jobs[n].signal == SIGNAL_ACTIVATION_MSE
               for pid, n in _claims(claims))  # the child walked the LM probes
    layers = Counter(int(pid) == here for pid, _ in map(str.split,
                                                         ranked.read_text().splitlines()))
    assert layers == Counter({True: toy_cfg.n_layers,
                              False: toy_cfg.n_layers if len(keep_fractions) > 1 else 0})


def test_score_leaves_no_fd_open(toy_cfg, toy_params, toy_arch, lm_probes_small,
                                 retrieval_probes_small, two_cpus):
    before = _open_fds()
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
