"""8-bit floating-point (E4M3) KV-cache quantization with calibrated scales.

The number format: 1 sign bit, 4 exponent bits (bias 7), 3 mantissa bits.
There are no infinities; the two codes with all exponent and mantissa bits set
(0x7F, 0xFF) are NaN, leaving 254 finite codes. The largest finite magnitude
is 448, subnormals reach down to 2**-9.

Encoding divides by a per-layer scale, saturates anything beyond +/-448, and
rounds to the nearest representable value with ties going to the value whose
code is even (round-to-nearest-even at code granularity). NaN inputs map to
the NaN code, decode back to NaN, and are counted.

Every scale is a power of two that float32 holds exactly, so dividing a
float32 input by it is exact (up to overflow to inf, which saturates, and
underflow far below the smallest code, which rounds to zero either way).
`encode` therefore takes float32 input only and rounds on the float32 bit
pattern: at and above 2**-6 an E4M3 code is the float32 exponent and top three
mantissa bits, re-biased, so round-to-nearest-even is an integer add on the
bits; below 2**-6 the codes are the multiples of 2**-9, rounded with `rint`.

Calibration picks each layer's scale as max|tensor| / 448 rounded UP to a
power of two. Power-of-two scales make the divide and multiply exact in
binary floating point, so values already on the representable grid survive a
quantize/dequantize round trip bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .library import ArchitectureSpec
from .model import (
    ConfigError,
    ForwardTrace,
    KvCache,
    KvWriteStats,
    MismatchError,
    ModelParams,
    forward_batch,
    parse_json,
    read_json,
    write_json,
)

logger = logging.getLogger(__name__)

MANT_BITS = 3
EXP_BIAS = 7
MAX_FINITE = 448.0
NAN_CODE = 0x7F  # positive-sign NaN; 0xFF is the negative-sign twin
DEFAULT_ZERO_SCALE = 2.0**-20


def _decode_code(code: int) -> float:
    sign = -1.0 if code & 0x80 else 1.0
    exp = (code >> MANT_BITS) & 0xF
    mant = code & 0x7
    if exp == 0xF and mant == 0x7:
        return math.nan
    if exp == 0:
        return sign * (mant / 8.0) * 2.0 ** (1 - EXP_BIAS)
    return sign * (1.0 + mant / 8.0) * 2.0 ** (exp - EXP_BIAS)


DECODE_TABLE = np.array([_decode_code(c) for c in range(256)], dtype=np.float32)
FINITE_CODES = np.array(
    [c for c in range(256) if math.isfinite(DECODE_TABLE[c])], dtype=np.uint8
)
assert float(DECODE_TABLE[NAN_CODE - 1]) == MAX_FINITE and len(FINITE_CODES) == 254

_U32 = np.uint32
_SIGN_MASK = _U32(0x7FFFFFFF)
_F32_INF = _U32(0x7F800000)  # magnitudes above this bit pattern are NaN
_F32_MAX_FINITE = _U32(0x43E00000)  # 448.0
_F32_MIN_NORMAL = _U32(0x3C800000)  # 2**-6, the smallest normal E4M3 magnitude
_HALF_ULP = _U32(0x7FFFF)  # half a unit of the third mantissa bit (bit 20), less one
_REBIAS = _U32((127 - EXP_BIAS) << MANT_BITS)  # float32 bias 127 -> E4M3 bias 7


def _check_scale(scale: float) -> None:
    """A K/V scale must be a positive power of two that float32 holds exactly."""
    if not (2.0**-149 <= scale <= 2.0**127 and math.frexp(scale)[0] == 0.5):
        raise ConfigError(
            f"scale must be a power of two between 2**-149 and 2**127, got {scale!r}"
        )


@dataclass(frozen=True)
class QuantStats:
    n_values: int
    n_saturated: int
    n_nan: int


def encode(values: np.ndarray, scale: float) -> tuple[np.ndarray, QuantStats]:
    """Quantize float32 values to E4M3 codes (C-contiguous uint8, same shape).
    Returns (codes, stats)."""
    _check_scale(scale)
    values = np.asarray(values)
    if values.dtype != np.float32:
        raise MismatchError(f"encode takes float32 values, got {values.dtype}")
    # a quotient past float32 range is inf (saturated); a signalling NaN stays NaN
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.divide(values, np.float32(scale), order="C").reshape(-1)  # 0-d gives a scalar
    bits = x.view(_U32)
    mag = bits & _SIGN_MASK
    n_over = int(np.count_nonzero(mag > _F32_MAX_FINITE))  # saturated or NaN
    n_nan = 0
    if n_over:
        nan_mask = mag > _F32_INF
        n_nan = int(np.count_nonzero(nan_mask))
        np.minimum(mag, _F32_MAX_FINITE, out=mag)
    # Normal range: add just under half a unit of bit 20, plus its own value
    # (ties to even); a mantissa carry moves into the exponent, as it should.
    r = (mag >> _U32(20)) & _U32(1)
    r += mag
    r += _HALF_ULP
    r >>= _U32(20)
    r -= _REBIAS
    codes = r.astype(np.uint8)  # below 2**-6 this wraps; those entries are overwritten
    sub = mag < _F32_MIN_NORMAL
    if sub.any():
        codes[sub] = np.rint(np.abs(x[sub]) * np.float32(2**9)).astype(np.uint8)
    codes |= (bits >> _U32(24)).astype(np.uint8) & np.uint8(0x80)
    if n_nan:
        codes[nan_mask] = NAN_CODE
    stats = QuantStats(n_values=int(x.size), n_saturated=n_over - n_nan, n_nan=n_nan)
    return codes.reshape(values.shape), stats


def decode(codes: np.ndarray, scale: float) -> np.ndarray:
    """Dequantize codes back to float32 values (codes * scale on the grid)."""
    _check_scale(scale)
    return DECODE_TABLE[np.asarray(codes, dtype=np.uint8)] * np.float32(scale)


def quantize_roundtrip(values: np.ndarray, scale: float) -> tuple[np.ndarray, QuantStats]:
    """encode then decode: the values the model actually sees after caching."""
    codes, stats = encode(values, scale)
    return decode(codes, scale), stats


def round_up_pow2(x: float) -> float:
    """Smallest power of two >= x; result is always in [x, 2x)."""
    if not (x > 0 and math.isfinite(x)):
        raise ConfigError(f"round_up_pow2 needs a positive finite input, got {x!r}")
    mant, exp = math.frexp(x)  # x = mant * 2**exp, mant in [0.5, 1)
    if mant == 0.5:
        return x
    return math.ldexp(1.0, exp)


# ---------------------------------------------------------------------------
# per-layer scales


@dataclass(frozen=True)
class QuantScales:
    """Per-layer K and V scales. mode: calibrated | unit."""

    mode: str
    k_scales: tuple[float, ...]
    v_scales: tuple[float, ...]
    k_raw: tuple[float, ...]  # pre-rounding max|x|/448, kept for inspection
    v_raw: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("calibrated", "unit"):
            raise ConfigError(f"unknown scale mode {self.mode!r}")
        n = len(self.k_scales)
        if not (len(self.v_scales) == len(self.k_raw) == len(self.v_raw) == n):
            raise ConfigError("scale tuples must share one length")
        for scale in self.k_scales + self.v_scales:
            _check_scale(scale)

    @property
    def n_layers(self) -> int:
        return len(self.k_scales)

    @staticmethod
    def unit(n_layers: int) -> "QuantScales":
        ones = (1.0,) * n_layers
        return QuantScales(mode="unit", k_scales=ones, v_scales=ones, k_raw=ones, v_raw=ones)

    from_json = classmethod(parse_json)

    def save(self, path: Path | str) -> None:
        write_json(path, self)

    @staticmethod
    def load(path: Path | str) -> "QuantScales":
        return read_json(path, QuantScales.from_json)


def _scale_from_max(max_abs: float, what: str) -> tuple[float, float]:
    raw = max_abs / MAX_FINITE
    if raw <= 0.0:
        logger.warning(
            "%s is all zeros during calibration; falling back to scale %g",
            what,
            DEFAULT_ZERO_SCALE,
        )
        return 0.0, DEFAULT_ZERO_SCALE
    return raw, round_up_pow2(raw)


def calibrate_scales(
    params: ModelParams, arch: ArchitectureSpec, tokens: np.ndarray
) -> QuantScales:
    """Prefill calibration tokens into a float cache, take per-layer max|K| and
    max|V| over every position written / 448, round up to a power of two."""
    tokens = np.asarray(tokens)
    cache = KvCache(params.config, arch, len(tokens), tokens.shape[-1], report=True)
    forward_batch(params, arch, tokens, cache=cache, last_only=True)
    k_raw, k_scales, v_raw, v_scales = [], [], [], []
    for layer in range(params.config.n_layers):
        k, v = cache.written[layer]
        raw, scale = _scale_from_max(k.abs_max, f"layer {layer} K cache")
        k_raw.append(raw)
        k_scales.append(scale)
        raw, scale = _scale_from_max(v.abs_max, f"layer {layer} V cache")
        v_raw.append(raw)
        v_scales.append(scale)
    return QuantScales(
        mode="calibrated",
        k_scales=tuple(k_scales),
        v_scales=tuple(v_scales),
        k_raw=tuple(k_raw),
        v_raw=tuple(v_raw),
    )


# ---------------------------------------------------------------------------
# running the model on a quantized cache


@dataclass
class KvQuantReport:
    """What a reporting fp8 cache tallied: per layer, the (keys, values)
    written to it (KvCache.written)."""

    written: dict[int, tuple[KvWriteStats, KvWriteStats]]

    @property
    def total_saturated(self) -> int:
        return sum(k.n_saturated + v.n_saturated for k, v in self.written.values())

    def to_json(self) -> dict:
        return {
            str(layer): {
                "k_mse": k.mse,
                "v_mse": v.mse,
                "k_saturated": k.n_saturated,
                "v_saturated": v.n_saturated,
                "k_nan": k.n_nan,
                "v_nan": v.n_nan,
            }
            for layer, (k, v) in sorted(self.written.items())
        }


def forward_with_quantized_kv(
    params: ModelParams,
    arch: ArchitectureSpec,
    tokens: np.ndarray,
    scales: QuantScales,
) -> tuple[ForwardTrace, KvQuantReport]:
    """Forward pass that prefills an fp8 cache: every key and value is encoded
    once through the 8-bit codec and attention reads the decoded codes. The
    trace holds the last position alone (forward_batch's last_only); the
    report covers every position."""
    tokens = np.asarray(tokens)
    cache = KvCache(
        params.config, arch, len(tokens), tokens.shape[-1], scales=scales, report=True
    )
    trace = forward_batch(params, arch, tokens, cache=cache, last_only=True)
    return trace, KvQuantReport(cache.written)
