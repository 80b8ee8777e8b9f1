"""8-bit floating-point (E4M3) KV-cache quantization with calibrated scales.

The number format: 1 sign bit, 4 exponent bits (bias 7), 3 mantissa bits.
There are no infinities; the two codes with all exponent and mantissa bits set
(0x7F, 0xFF) are NaN, leaving 254 finite codes. The largest finite magnitude
is 448, subnormals reach down to 2**-9.

Encoding divides by a per-layer scale, saturates anything beyond +/-448, and
rounds to the nearest representable value with ties going to the value whose
code is even (round-to-nearest-even at code granularity). NaN inputs map to
the NaN code, decode back to NaN, and are counted.

Calibration picks each layer's scale as max|tensor| / 448 rounded UP to a
power of two. Power-of-two scales make the divide and multiply exact in
binary floating point, so values already on the representable grid survive a
quantize/dequantize round trip bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .library import ArchitectureSpec
from .model import ConfigError, ForwardTrace, KvCache, ModelParams, forward_batch

logger = logging.getLogger(__name__)

EXP_BITS = 4
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
# positive codes 0x00..0x7E decode to a strictly increasing grid; the code IS
# the grid index, which is what makes nearest-even rounding a searchsorted.
_POS_GRID = DECODE_TABLE[: NAN_CODE].astype(np.float64)
assert np.all(np.diff(_POS_GRID) > 0) and _POS_GRID[0] == 0.0
assert float(_POS_GRID[-1]) == MAX_FINITE and len(FINITE_CODES) == 254


@dataclass(frozen=True)
class QuantStats:
    n_values: int
    n_saturated: int
    n_nan: int


def encode(values: np.ndarray, scale: float) -> tuple[np.ndarray, QuantStats]:
    """Quantize to E4M3 codes (uint8, same shape). Returns (codes, stats)."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ConfigError(f"scale must be a positive finite number, got {scale!r}")
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
    even = np.where(lo % 2 == 0, lo, hi)  # exactly one neighbor has an even code
    codes = np.where(d_hi < d_lo, hi, np.where(d_lo < d_hi, lo, even)).astype(np.uint8)
    codes |= (sign.astype(np.uint8)) << 7
    codes[nan_mask] = NAN_CODE
    stats = QuantStats(
        n_values=int(x.size),
        n_saturated=int(sat_mask.sum()),
        n_nan=int(nan_mask.sum()),
    )
    return codes, stats


def decode(codes: np.ndarray, scale: float) -> np.ndarray:
    """Dequantize codes back to float32 values (codes * scale on the grid)."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ConfigError(f"scale must be a positive finite number, got {scale!r}")
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

    @property
    def n_layers(self) -> int:
        return len(self.k_scales)

    @staticmethod
    def unit(n_layers: int) -> "QuantScales":
        ones = (1.0,) * n_layers
        return QuantScales(mode="unit", k_scales=ones, v_scales=ones, k_raw=ones, v_raw=ones)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "k_scales": list(self.k_scales),
            "v_scales": list(self.v_scales),
            "k_raw": list(self.k_raw),
            "v_raw": list(self.v_raw),
        }

    @staticmethod
    def from_json(obj: dict) -> "QuantScales":
        return QuantScales(
            mode=str(obj["mode"]),
            k_scales=tuple(float(v) for v in obj["k_scales"]),
            v_scales=tuple(float(v) for v in obj["v_scales"]),
            k_raw=tuple(float(v) for v in obj["k_raw"]),
            v_raw=tuple(float(v) for v in obj["v_raw"]),
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    @staticmethod
    def load(path: Path | str) -> "QuantScales":
        return QuantScales.from_json(json.loads(Path(path).read_text()))


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
    forward_batch(params, arch, tokens, cache=cache)
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


@dataclass(frozen=True)
class LayerKvStats:
    k_mse: float
    v_mse: float
    k_stats: QuantStats
    v_stats: QuantStats

    def to_json(self) -> dict:
        return {
            "k_mse": self.k_mse,
            "v_mse": self.v_mse,
            "k_saturated": self.k_stats.n_saturated,
            "v_saturated": self.v_stats.n_saturated,
            "k_nan": self.k_stats.n_nan,
            "v_nan": self.v_stats.n_nan,
        }


@dataclass
class KvQuantReport:
    per_layer: dict[int, LayerKvStats]

    @property
    def total_saturated(self) -> int:
        return sum(s.k_stats.n_saturated + s.v_stats.n_saturated for s in self.per_layer.values())

    def to_json(self) -> dict:
        return {str(layer): stats.to_json() for layer, stats in sorted(self.per_layer.items())}

    @staticmethod
    def from_cache(cache: KvCache) -> "KvQuantReport":
        """The codec statistics of everything written to a reporting fp8 cache."""
        per_layer = {}
        for layer, (k, v) in cache.written.items():
            per_layer[layer] = LayerKvStats(
                k_mse=k.sq_error / k.n_values,
                v_mse=v.sq_error / v.n_values,
                k_stats=QuantStats(k.n_values, k.n_saturated, k.n_nan),
                v_stats=QuantStats(v.n_values, v.n_saturated, v.n_nan),
            )
        return KvQuantReport(per_layer=per_layer)


def forward_with_quantized_kv(
    params: ModelParams,
    arch: ArchitectureSpec,
    tokens: np.ndarray,
    scales: QuantScales,
) -> tuple[ForwardTrace, KvQuantReport]:
    """Forward pass that prefills an fp8 cache: every key and value is encoded
    once through the 8-bit codec and attention reads the decoded codes."""
    tokens = np.asarray(tokens)
    cache = KvCache(
        params.config, arch, len(tokens), tokens.shape[-1], scales=scales, report=True
    )
    trace = forward_batch(params, arch, tokens, cache=cache)
    return trace, KvQuantReport.from_cache(cache)
