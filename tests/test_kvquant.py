import logging
import math

import numpy as np
import pytest

from archsearch.kvquant import (
    DECODE_TABLE,
    DEFAULT_ZERO_SCALE,
    FINITE_CODES,
    MAX_FINITE,
    NAN_CODE,
    QuantScales,
    calibrate_scales,
    decode,
    encode,
    forward_with_quantized_kv,
    quantize_roundtrip,
    round_up_pow2,
)
from archsearch import kvquant
from archsearch.costs import kv_bytes_per_sequence
from archsearch.library import parent_spec
from archsearch.model import ConfigError, KvCache, forward_batch, generate_batch, window_attention
from archsearch.scoring import make_lm_probes


# ---------------------------------------------------------------------------
# the code table itself


def test_code_table_shape():
    assert len(DECODE_TABLE) == 256
    assert len(FINITE_CODES) == 254  # two NaN encodings, no infinities
    assert float(np.nanmax(np.abs(DECODE_TABLE))) == MAX_FINITE
    assert math.isnan(DECODE_TABLE[NAN_CODE])
    assert math.isnan(DECODE_TABLE[NAN_CODE | 0x80])
    # positive and negative halves mirror each other
    pos = DECODE_TABLE[:127]
    neg = DECODE_TABLE[128:255]
    np.testing.assert_array_equal(-pos, neg)


def test_signed_zero_keeps_its_sign_bit():
    codes, _ = encode(np.array([0.0, -0.0], dtype=np.float32), scale=1.0)
    assert codes[0] == 0x00
    assert codes[1] == 0x80
    back = decode(codes, scale=1.0)
    assert back[0] == 0.0 and back[1] == 0.0
    assert not np.signbit(back[0]) and np.signbit(back[1])


def test_every_finite_code_roundtrips_exactly_across_scales():
    grid = DECODE_TABLE[FINITE_CODES].astype(np.float64)
    for p in range(-10, 11):
        scale = 2.0**p
        values = (grid * scale).astype(np.float32)
        back, stats = quantize_roundtrip(values, scale)
        np.testing.assert_array_equal(back, values)
        assert stats.n_saturated == 0 and stats.n_nan == 0


def test_rounding_halfway_goes_to_even_code():
    # grid neighbours around codes 2,3,4 in the subnormal range: spacing is
    # uniform there, so the midpoint between codes 3 and 4 must pick 4 (even),
    # and the midpoint between 2 and 3 must pick 2
    g = DECODE_TABLE[:6].astype(np.float64)
    mid_23 = (g[2] + g[3]) / 2
    mid_34 = (g[3] + g[4]) / 2
    codes, _ = encode(np.array([mid_23, mid_34], dtype=np.float32), scale=1.0)
    assert codes[0] == 2  # ties to even
    assert codes[1] == 4


def test_saturation_clamps_and_counts():
    vals = np.array([500.0, -10000.0, np.inf, -np.inf, 1.0], dtype=np.float32)
    codes, stats = encode(vals, scale=1.0)
    back = decode(codes, scale=1.0)
    assert stats.n_saturated == 4
    assert back[0] == MAX_FINITE and back[1] == -MAX_FINITE
    assert back[2] == MAX_FINITE and back[3] == -MAX_FINITE
    assert back[4] == 1.0


def test_nan_maps_to_nan_code_and_back():
    vals = np.array([np.nan, 1.0], dtype=np.float32)
    codes, stats = encode(vals, scale=1.0)
    assert stats.n_nan == 1
    assert codes[0] == NAN_CODE
    back = decode(codes, scale=1.0)
    assert math.isnan(back[0]) and back[1] == 1.0


def test_nearest_value_wins_between_grid_points():
    g = DECODE_TABLE[:128].astype(np.float64)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, MAX_FINITE, size=4096).astype(np.float32)
    back, _ = quantize_roundtrip(x, scale=1.0)
    # brute-force nearest neighbour over the positive grid
    dist = np.abs(x.astype(np.float64)[:, None] - g[None, :127])
    nearest = dist.min(axis=1)
    got = np.abs(back.astype(np.float64) - x.astype(np.float64))
    np.testing.assert_allclose(got, nearest, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# scale selection


def test_round_up_pow2_properties():
    rng = np.random.default_rng(11)
    for x in rng.uniform(1e-9, 1e9, size=10_000):
        p = round_up_pow2(float(x))
        assert x <= p < 2 * x
        m, _ = math.frexp(p)
        assert m == 0.5  # exact power of two
    for exact in (0.25, 1.0, 64.0):
        assert round_up_pow2(exact) == exact
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            round_up_pow2(bad)


def test_quant_scales_modes_and_roundtrip(tmp_path):
    s = QuantScales.unit(3)
    assert s.n_layers == 3 and s.mode == "unit"
    path = tmp_path / "scales.json"
    s.save(path)
    assert QuantScales.load(path) == s
    with pytest.raises(ConfigError, match="mode"):
        QuantScales(mode="weird", k_scales=(1.0,), v_scales=(1.0,),
                    k_raw=(1.0,), v_raw=(1.0,))
    with pytest.raises(ConfigError, match="length"):
        QuantScales(mode="unit", k_scales=(1.0, 1.0), v_scales=(1.0,),
                    k_raw=(1.0,), v_raw=(1.0,))


def test_calibration_eliminates_saturation(toy_cfg, toy_params, toy_arch):
    tokens = make_lm_probes(toy_cfg, count=8, length=48, seed=21).tokens
    scales = calibrate_scales(toy_params, toy_arch, tokens)
    assert scales.mode == "calibrated"
    assert scales.n_layers == toy_cfg.n_layers
    for raw, scale in zip(scales.k_raw + scales.v_raw,
                          scales.k_scales + scales.v_scales):
        assert raw <= scale < 2 * raw  # rounded up to the next power of two
    _, report = forward_with_quantized_kv(toy_params, toy_arch, tokens, scales)
    assert report.total_saturated == 0
    for stats in report.per_layer.values():
        assert stats.k_mse > 0.0  # quantization is lossy...
        assert stats.k_mse < 1e-3  # ...but small once scales are calibrated


def test_all_zero_calibration_warns_and_uses_fallback(caplog, induction_model):
    # layer 0 of the hand-built model zeroes its K projection entirely
    tokens = np.full((2, 8), 3, dtype=np.int64)
    with caplog.at_level(logging.WARNING):
        scales = calibrate_scales(induction_model,
                                  parent_spec(induction_model.config), tokens)
    assert any("all zeros" in r.getMessage() for r in caplog.records)
    assert scales.k_scales[0] == DEFAULT_ZERO_SCALE
    assert scales.k_raw[0] == 0.0


def test_quantized_forward_differs_but_slightly(toy_cfg, toy_params, toy_arch):
    tokens = make_lm_probes(toy_cfg, count=4, length=32, seed=23).tokens
    scales = calibrate_scales(toy_params, toy_arch, tokens)
    plain = forward_batch(toy_params, toy_arch, tokens)
    traced, _ = forward_with_quantized_kv(toy_params, toy_arch, tokens, scales)
    assert not np.array_equal(plain.logits, traced.logits)
    # an untrained model amplifies cache noise, but the result must stay a
    # perturbation of the original logits, not a rewrite of them
    a = plain.logits.astype(np.float64)
    b = traced.logits.astype(np.float64)
    rel = np.mean((a - b) ** 2) / np.mean(a**2)
    assert rel < 0.1


def test_layer_count_mismatch_is_an_error(toy_params, toy_arch):
    tokens = np.full((1, 4), 5, dtype=np.int64)
    with pytest.raises(ConfigError, match="layers"):
        forward_with_quantized_kv(toy_params, toy_arch, tokens, QuantScales.unit(3))


def test_fp8_prefill_records_per_layer_stats(toy_cfg, toy_params, toy_arch):
    tokens = make_lm_probes(toy_cfg, count=2, length=16, seed=24).tokens
    scales = calibrate_scales(toy_params, toy_arch, tokens)
    _, report = forward_with_quantized_kv(toy_params, toy_arch, tokens, scales)
    assert sorted(report.per_layer) == list(range(toy_cfg.n_layers))
    j = report.to_json()
    assert set(j) == {str(i) for i in range(toy_cfg.n_layers)}
    assert {"k_mse", "v_mse", "k_saturated", "v_saturated", "k_nan", "v_nan"} \
        <= set(j["0"])
    # every position is counted, window layers included
    per_position = toy_cfg.n_kv_heads * toy_cfg.head_dim
    assert all(s.k_stats.n_values == tokens.size * per_position for s in report.per_layer.values())


# ---------------------------------------------------------------------------
# the fp8 cache


def _fp8_setup(toy_cfg, toy_params, toy_arch):
    arch = toy_arch.with_layer(1, attention=window_attention(8))
    tokens = make_lm_probes(toy_cfg, count=2, length=16, seed=25).tokens
    return arch, tokens, calibrate_scales(toy_params, arch, tokens)


def test_fp8_cache_holds_exactly_the_analytic_code_bytes(toy_cfg, toy_params, toy_arch):
    arch, tokens, scales = _fp8_setup(toy_cfg, toy_params, toy_arch)
    cache = KvCache(toy_cfg, arch, batch=2, length=16, scales=scales)
    assert cache.stored_dtype == "uint8"
    forward_batch(toy_params, arch, tokens[:, :3], cache=cache)
    for t in range(3, 16):
        forward_batch(toy_params, arch, tokens[:, t:t + 1], cache=cache, start=t)
        # windows 4 and 8 fill, then stop growing; global layers keep growing
        assert cache.held_bytes() == kv_bytes_per_sequence(arch, toy_cfg, t + 1, "fp8")


def test_fp8_decoding_encodes_each_position_once(monkeypatch, toy_cfg, toy_params, toy_arch):
    arch, tokens, scales = _fp8_setup(toy_cfg, toy_params, toy_arch)
    encoded_positions = []
    real_encode = kvquant.encode

    def counting_encode(values, scale):
        encoded_positions.append(values.shape[2])
        return real_encode(values, scale)

    monkeypatch.setattr(kvquant, "encode", counting_encode)
    cache = KvCache.for_generation(toy_cfg, arch, 2, 6, 10, scales=scales)
    generate_batch(toy_params, arch, tokens[:, :6], 10, end_token=-1, cache=cache)
    # K and V of every layer, for the 6 prompt positions and the 9 fed-back tokens
    assert sum(encoded_positions) == 2 * toy_cfg.n_layers * (6 + 9)
    assert cache.written is None  # generation tallies no codec statistics
