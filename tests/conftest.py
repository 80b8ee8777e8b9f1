import numpy as np
import pytest

from archsearch.library import parent_spec
from archsearch.model import (
    LayerParams,
    ModelConfig,
    ModelParams,
    global_attention,
    init_model,
    toy_config,
    window_attention,
)
from archsearch.scoring import make_lm_probes, make_retrieval_probes


@pytest.fixture(scope="session")
def toy_cfg():
    return toy_config()


@pytest.fixture(scope="session")
def toy_params(toy_cfg):
    return init_model(toy_cfg, seed=11)


@pytest.fixture(scope="session")
def toy_arch(toy_cfg):
    return parent_spec(toy_cfg)


@pytest.fixture(scope="session")
def lm_probes_small(toy_cfg):
    return make_lm_probes(toy_cfg, count=8, length=48, seed=101)


@pytest.fixture(scope="session")
def retrieval_probes_small(toy_cfg):
    return make_retrieval_probes(toy_cfg, count=32, length=64, n_pairs=4, seed=202)


# ---------------------------------------------------------------------------
# a hand-built two-layer model that solves the planted-retrieval task exactly
#
# Layer 0 (window 2): queries and keys are zero, so attention averages the
# previous and current positions; values copy each token's one-hot identity,
# the output projection writes that average into a dedicated "previous token"
# block of the residual stream.
# Layer 1 (global): the query is the current token's identity; keys score
# +1 where a position's previous token matches and -3 where the position's own
# token matches (which cancels self-matches); values copy the matched
# position's own identity into an "answer" block that the LM head reads.
# Rotary angles are divided by 1e9, so position rotation is negligible and the
# content match is clean.
#
# The model answers the key->value lookup perfectly with global attention on
# layer 1 and collapses when that layer is windowed: exactly the behavior the
# attention-variant scoring signals are supposed to detect.

INDUCTION_VOCAB = 32
_D = 1 + 3 * INDUCTION_VOCAB
_A0, _B0, _D0 = 1, 1 + INDUCTION_VOCAB, 1 + 2 * INDUCTION_VOCAB


def _eye_block(rows, row_off, col_off, scale, shape):
    m = np.zeros(shape, dtype=np.float32)
    m[row_off + np.arange(rows), col_off + np.arange(rows)] = scale
    return m


def build_induction_model(match_gain: float = 30.0) -> ModelParams:
    V = INDUCTION_VOCAB
    cfg = ModelConfig(
        vocab_size=V,
        d_model=_D,
        n_layers=2,
        n_heads=1,
        n_kv_heads=1,
        head_dim=V,
        n_experts=4,
        top_k=2,
        expert_hidden=4,
        max_seq_len=128,
        rope_base=10000.0,
        rope_scale_factor=1e9,
        attn_pattern=(window_attention(2), global_attention()),
    )
    emb = np.zeros((V, _D), dtype=np.float32)
    emb[:, 0] = 1.0
    emb[np.arange(V), _A0 + np.arange(V)] = 1.0

    def zeros(*s):
        return np.zeros(s, dtype=np.float32)

    def moe_stub():
        return dict(
            ffn_norm=np.ones(_D, dtype=np.float32),
            router=zeros(4, _D),
            w_in=zeros(4, _D, 4),
            w_out=zeros(4, 4, _D),
            expert_ids=(0, 1, 2, 3),
        )

    layer0 = LayerParams(
        attn_norm=np.ones(_D, dtype=np.float32),
        wq=zeros(_D, V),
        wk=zeros(_D, V),
        wv=_eye_block(V, _A0, 0, 1.0, (_D, V)),
        wo=_eye_block(V, 0, _B0, 1.0, (V, _D)),
        **moe_stub(),
    )
    wk1 = _eye_block(V, _B0, 0, 1.0, (_D, V)) + _eye_block(V, _A0, 0, -3.0, (_D, V))
    layer1 = LayerParams(
        attn_norm=np.ones(_D, dtype=np.float32),
        wq=_eye_block(V, _A0, 0, match_gain, (_D, V)),
        wk=wk1,
        wv=_eye_block(V, _A0, 0, 1.0, (_D, V)),
        wo=_eye_block(V, 0, _D0, 1.0, (V, _D)),
        **moe_stub(),
    )
    return ModelParams(
        config=cfg,
        embedding=emb,
        layers=[layer0, layer1],
        final_norm=np.ones(_D, dtype=np.float32),
        lm_head=_eye_block(V, _D0, 0, 1.0, (_D, V)),
    )


@pytest.fixture(scope="session")
def induction_model() -> ModelParams:
    return build_induction_model()
