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
from archsearch.model import (
    ConfigError,
    KvCache,
    MismatchError,
    forward_batch,
    generate_batch,
    window_attention,
)
from archsearch.scoring import make_lm_probes


# ---------------------------------------------------------------------------
# the code table itself


def test_code_table_shape():
    assert len(DECODE_TABLE) == 256
    assert len(FINITE_CODES) == 254  # two NaN encodings, no infinities
    # the positive codes 0x00..0x7E are a strictly increasing grid from 0 to 448
    assert np.all(np.diff(DECODE_TABLE[:NAN_CODE]) > 0) and DECODE_TABLE[0] == 0.0
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
# encode against a float64 reference

# The positive codes 0x00..0x7E decode to a strictly increasing grid, and the
# code is the grid index, so nearest-even rounding is a searchsorted.
_POS_GRID = DECODE_TABLE[:NAN_CODE].astype(np.float64)
_SWEEP_SCALES = (1.0, 2.0**-3, 2.0**5)


def _encode_reference(values, scale):
    """Encode in float64 with a searchsorted over the positive grid."""
    with np.errstate(invalid="ignore"):  # the sweeps include signalling NaNs
        x = np.asarray(values, dtype=np.float64) / float(scale)
    nan_mask = np.isnan(x)
    sign = np.signbit(x) & ~nan_mask
    mag = np.abs(np.where(nan_mask, 0.0, x))
    sat_mask = mag > MAX_FINITE
    mag = np.minimum(mag, MAX_FINITE)
    hi = np.searchsorted(_POS_GRID, mag, side="left")  # first grid value >= mag
    lo = np.maximum(hi - 1, 0)
    d_lo = mag - _POS_GRID[lo]
    d_hi = _POS_GRID[hi] - mag
    even = np.where(lo % 2 == 0, lo, hi)  # exactly one neighbour has an even code
    codes = np.where(d_hi < d_lo, hi, np.where(d_lo < d_hi, lo, even)).astype(np.uint8)
    codes |= sign.astype(np.uint8) << 7
    codes[nan_mask] = NAN_CODE
    return codes, kvquant.QuantStats(x.size, int(sat_mask.sum()), int(nan_mask.sum()))


def _assert_matches_reference(values):
    for scale in _SWEEP_SCALES:
        codes, stats = encode(values, scale)
        ref_codes, ref_stats = _encode_reference(values, scale)
        bad = np.flatnonzero(codes != ref_codes)
        assert bad.size == 0, (
            f"scale {scale}: {bad.size} codes differ, first at "
            f"{values.reshape(-1)[bad[0]]!r}: {codes.reshape(-1)[bad[0]]:#04x} "
            f"vs {ref_codes.reshape(-1)[bad[0]]:#04x}"
        )
        assert stats == ref_stats


def test_encode_matches_reference_on_every_exponent_and_round_bit():
    # every float32 upper half-word with low half-words that set or clear the
    # round bit (bit 15 of the low half) and the sticky bits below it
    high = np.arange(1 << 16, dtype=np.uint32) << 16
    low = np.array([0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF], dtype=np.uint32)
    _assert_matches_reference((high[:, None] | low[None, :]).view(np.float32))


def test_encode_matches_reference_on_grid_midpoints_and_neighbours():
    grid = np.unique(np.abs(DECODE_TABLE[FINITE_CODES]).astype(np.float64))
    mids = ((grid[1:] + grid[:-1]) / 2).astype(np.float32)  # exact in float32
    below = np.nextafter(mids, np.float32(0))
    above = np.nextafter(mids, np.float32(np.inf))
    pos = np.concatenate([grid.astype(np.float32), mids, below, above])
    for scale in _SWEEP_SCALES:
        # values placed so that x / scale lands on the grid, midpoints and neighbours
        _assert_matches_reference(np.concatenate([pos, -pos]) * np.float32(scale))


def test_encode_matches_reference_on_special_values():
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 460.0, -460.0, 480.0, -480.0],
        dtype=np.float32,
    )
    _assert_matches_reference(specials)
    codes, stats = encode(specials, 1.0)
    assert stats.n_nan == 2 and stats.n_saturated == 6
    assert codes[4] == codes[5] == NAN_CODE


def test_encode_matches_reference_on_random_floats():
    rng = np.random.default_rng(20260218)
    bit_patterns = rng.integers(0, 1 << 32, size=500_000, dtype=np.uint32).view(np.float32)
    log_uniform = np.exp2(rng.uniform(-14, 12, size=500_000)) * rng.choice([-1.0, 1.0], 500_000)
    _assert_matches_reference(np.concatenate([bit_patterns, log_uniform.astype(np.float32)]))


def test_encode_returns_c_contiguous_codes_for_a_strided_view():
    x = np.random.default_rng(3).standard_normal((5, 7, 3)).astype(np.float32)
    view = x.transpose(2, 0, 1)[:, ::2]
    codes, stats = encode(view, 2.0**-3)
    assert codes.flags.c_contiguous and codes.shape == view.shape
    ref_codes, ref_stats = _encode_reference(view, 2.0**-3)
    assert np.array_equal(codes, ref_codes) and stats == ref_stats


def test_encode_keeps_the_shape_of_empty_and_0d_inputs():
    for values in (np.zeros((0, 3), dtype=np.float32), np.array(-500.0, dtype=np.float32)):
        codes, stats = encode(values, 1.0)
        ref_codes, ref_stats = _encode_reference(values, 1.0)
        assert codes.shape == values.shape and np.array_equal(codes, ref_codes)
        assert stats == ref_stats


def test_encode_takes_float32_only():
    for dtype in (np.float64, np.float16, np.int32):
        with pytest.raises(MismatchError, match="float32"):
            encode(np.ones(4, dtype=dtype), 1.0)


@pytest.mark.parametrize("scale", [0.3, 3.0, 0.0, -0.5, math.inf, math.nan, 2.0**-150, 2.0**128])
def test_scales_must_be_float32_powers_of_two(scale):
    with pytest.raises(ConfigError, match="power of two"):
        encode(np.ones(4, dtype=np.float32), scale)
    with pytest.raises(ConfigError, match="power of two"):
        decode(np.zeros(4, dtype=np.uint8), scale)
    with pytest.raises(ConfigError, match="power of two"):
        QuantScales(mode="calibrated", k_scales=(1.0, scale), v_scales=(1.0, 1.0),
                    k_raw=(1.0, 1.0), v_raw=(1.0, 1.0))
    for edge in (2.0**-149, 2.0**127):
        encode(np.ones(4, dtype=np.float32), edge)  # the float32 extremes are fine


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
    for k, _ in report.written.values():
        assert k.mse > 0.0  # quantization is lossy...
        assert k.mse < 1e-3  # ...but small once scales are calibrated


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
    assert not np.array_equal(plain.logits[:, -1:], traced.logits)
    # an untrained model amplifies cache noise, but the result must stay a
    # perturbation of the original logits, not a rewrite of them
    a = plain.logits[:, -1:].astype(np.float64)
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
    assert sorted(report.written) == list(range(toy_cfg.n_layers))
    j = report.to_json()
    assert set(j) == {str(i) for i in range(toy_cfg.n_layers)}
    assert {"k_mse", "v_mse", "k_saturated", "v_saturated", "k_nan", "v_nan"} \
        <= set(j["0"])
    # every position is counted, window layers included
    per_position = toy_cfg.n_kv_heads * toy_cfg.head_dim
    assert all(k.n_values == tokens.size * per_position for k, _ in report.written.values())


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


def test_fp8_cache_decodes_each_written_value_once(monkeypatch, toy_cfg, toy_params, toy_arch):
    arch, tokens, scales = _fp8_setup(toy_cfg, toy_params, toy_arch)
    counted = {"encode": 0, "decode": 0}
    for name in counted:
        real = getattr(kvquant, name)

        def counting(values, scale, real=real, name=name):
            counted[name] += values.size
            return real(values, scale)

        monkeypatch.setattr(kvquant, name, counting)
    cache = KvCache.for_generation(toy_cfg, arch, 2, 6, 10, scales=scales)
    generate_batch(toy_params, arch, tokens[:, :6], 10, end_token=-1, cache=cache)
    # K and V of every layer, for the 6 prompt positions and the 9 fed-back tokens
    written = 2 * toy_cfg.n_layers * 2 * (6 + 9) * toy_cfg.n_kv_heads * toy_cfg.head_dim
    assert counted == {"encode": written, "decode": written}
