"""Analytic serving-cost model: KV-cache footprint and per-layer block time.

Every formula here is a pinned contract, exact and reproducible by hand:

* KV bytes per sequence per layer: 2 * n_kv_heads * head_dim * bytes(precision)
  * min(context, window).
* Decode step time per layer (whole batch, one generated token per sequence):
  max(bandwidth term, compute term) where the bandwidth term reads the active
  weights once plus each sequence's cached KV window, and the compute term
  counts projection, attention, router, and expert FLOPs. A keep-count of c
  touches at most min(c, batch * top_k) distinct experts per step.
* Prefill is charged as compute time over the prompt (attention context grows
  with position, windows cap it).
* Layer total = (prefill + osl * decode_step) / n_devices + per-layer overhead.

Times enter the selection problem as integer nanoseconds and byte counts as
integers, so budget feasibility checks are exact.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .library import ArchitectureSpec, BlockLibrary, BlockVariant
from .model import AttentionVariant, ConfigError, ModelConfig

WEIGHT_BYTES = 4  # weights stay float32 in this substrate

KV_BYTES = {"bf16": 2, "fp8": 1}


class CostFileError(ValueError):
    """A measured-cost file violates the schema; message names the line."""


@dataclass(frozen=True)
class Scenario:
    """One serving condition: prompt length, generation length, batch, KV precision."""

    name: str
    isl: int  # input sequence length (prompt tokens)
    osl: int  # output sequence length (generated tokens)
    batch: int
    kv_precision: str = "bf16"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        for f in ("isl", "osl", "batch"):
            v = getattr(self, f)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"scenario {self.name}: {f} must be a positive int, got {v!r}")
        if self.kv_precision not in KV_BYTES:
            raise ConfigError(
                f"scenario {self.name}: kv_precision must be one of {sorted(KV_BYTES)}, "
                f"got {self.kv_precision!r}"
            )

    @staticmethod
    def from_json(obj: dict) -> "Scenario":
        return Scenario(
            name=str(obj["name"]),
            isl=int(obj["isl"]),
            osl=int(obj["osl"]),
            batch=int(obj["batch"]),
            kv_precision=str(obj.get("kv_precision", "bf16")),
        )


@dataclass(frozen=True)
class HardwareProfile:
    mem_bandwidth_bytes_per_s: float
    compute_flops_per_s: float
    n_devices: int = 1
    per_layer_overhead_s: float = 0.0
    constant_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mem_bandwidth_bytes_per_s > 0):
            raise ConfigError("mem_bandwidth_bytes_per_s must be positive")
        if not (self.compute_flops_per_s > 0):
            raise ConfigError("compute_flops_per_s must be positive")
        if not (isinstance(self.n_devices, int) and self.n_devices >= 1):
            raise ConfigError(f"n_devices must be a positive int, got {self.n_devices!r}")
        if self.per_layer_overhead_s < 0 or self.constant_overhead_s < 0:
            raise ConfigError("overhead terms must be non-negative")

    @staticmethod
    def from_json(obj: dict) -> "HardwareProfile":
        return HardwareProfile(
            mem_bandwidth_bytes_per_s=float(obj["mem_bandwidth_bytes_per_s"]),
            compute_flops_per_s=float(obj["compute_flops_per_s"]),
            n_devices=int(obj.get("n_devices", 1)),
            per_layer_overhead_s=float(obj.get("per_layer_overhead_s", 0.0)),
            constant_overhead_s=float(obj.get("constant_overhead_s", 0.0)),
        )


# ---------------------------------------------------------------------------
# KV-cache footprint


def kv_bytes_layer(
    attention: AttentionVariant, config: ModelConfig, length: int, precision: str
) -> int:
    """Cache bytes one sequence of `length` tokens pins in one layer."""
    if length < 0:
        raise ConfigError(f"length must be non-negative, got {length}")
    if precision not in KV_BYTES:
        raise ConfigError(f"unknown kv precision {precision!r}")
    slots = attention.effective_window(length)
    return 2 * config.n_kv_heads * config.head_dim * KV_BYTES[precision] * slots


def kv_bytes_per_sequence(
    arch: ArchitectureSpec, config: ModelConfig, length: int, precision: str
) -> int:
    """Whole-model cache bytes one sequence pins; sums kv_bytes_layer over layers."""
    return sum(
        kv_bytes_layer(spec.attention, config, length, precision) for spec in arch.layers
    )


# ---------------------------------------------------------------------------
# per-layer time model


def attention_weight_params(config: ModelConfig) -> int:
    c = config
    qkv = c.d_model * c.n_heads * c.head_dim + 2 * c.d_model * c.n_kv_heads * c.head_dim
    out = c.n_heads * c.head_dim * c.d_model
    return qkv + out + c.d_model  # + attention norm gain


def expert_params(config: ModelConfig) -> int:
    return 2 * config.d_model * config.expert_hidden


def ffn_shared_params(config: ModelConfig, keep_count: int) -> int:
    return keep_count * config.d_model + config.d_model  # router rows + ffn norm gain


def layer_weight_bytes(config: ModelConfig, variant: BlockVariant) -> int:
    """Resident weight bytes of one layer under this variant."""
    params = (
        attention_weight_params(config)
        + ffn_shared_params(config, variant.keep_count)
        + variant.keep_count * expert_params(config)
    )
    return params * WEIGHT_BYTES


def _proj_flops_per_token(config: ModelConfig) -> int:
    c = config
    qkv = 2 * c.d_model * (c.n_heads + 2 * c.n_kv_heads) * c.head_dim
    out = 2 * c.n_heads * c.head_dim * c.d_model
    return qkv + out


def _attn_math_flops_per_token(config: ModelConfig, context: float) -> float:
    # score row + weighted value sum: 2 MACs per (head, ctx slot, dim)
    return 4.0 * config.n_heads * config.head_dim * context


def _ffn_flops_per_token(config: ModelConfig, keep_count: int) -> int:
    router = 2 * config.d_model * keep_count
    experts = config.top_k * 4 * config.d_model * config.expert_hidden
    return router + experts


def prefill_context_sum(isl: int, window: int | None) -> int:
    """Sum over prompt positions t=1..isl of the attended context min(t, window)."""
    if window is None or window >= isl:
        return isl * (isl + 1) // 2
    return window * (window + 1) // 2 + (isl - window) * window


def block_time_cost(
    config: ModelConfig,
    variant: BlockVariant,
    scenario: Scenario,
    hw: HardwareProfile,
) -> float:
    """Seconds one layer spends serving the whole scenario batch under `variant`."""
    c, s = config, scenario
    window = None if variant.attention.kind == "global" else variant.attention.window_size
    kv_elem_bytes = 2 * c.n_kv_heads * c.head_dim * KV_BYTES[s.kv_precision]

    # decode: one step generates one token per sequence
    avg_ctx = s.isl + s.osl / 2.0
    decode_ctx = avg_ctx if window is None else min(avg_ctx, float(window))
    kv_read_bytes = s.batch * kv_elem_bytes * decode_ctx
    active_experts = min(variant.keep_count, s.batch * c.top_k)
    active_weight_bytes = (
        attention_weight_params(c)
        + ffn_shared_params(c, variant.keep_count)
        + active_experts * expert_params(c)
    ) * WEIGHT_BYTES
    bw_time = (active_weight_bytes + kv_read_bytes) / hw.mem_bandwidth_bytes_per_s
    decode_flops = s.batch * (
        _proj_flops_per_token(c)
        + _attn_math_flops_per_token(c, decode_ctx)
        + _ffn_flops_per_token(c, variant.keep_count)
    )
    compute_time = decode_flops / hw.compute_flops_per_s
    decode_step = max(bw_time, compute_time)

    # prefill: charged as compute over the prompt
    prefill_flops = s.batch * (
        (_proj_flops_per_token(c) + _ffn_flops_per_token(c, variant.keep_count)) * s.isl
        + 4.0 * c.n_heads * c.head_dim * prefill_context_sum(s.isl, window)
    )
    prefill_time = prefill_flops / hw.compute_flops_per_s

    return (prefill_time + s.osl * decode_step) / hw.n_devices + hw.per_layer_overhead_s


def time_ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


# ---------------------------------------------------------------------------
# cost table: integer costs per (layer, variant, scenario)


@dataclass(frozen=True)
class CostEntry:
    time_ns: int
    kv_bytes_per_seq: int  # at full request context isl + osl, scenario precision
    weight_bytes: int

    def to_json(self) -> dict:
        return {
            "time_ns": self.time_ns,
            "kv_bytes_per_seq": self.kv_bytes_per_seq,
            "weight_bytes": self.weight_bytes,
        }


@dataclass
class CostTable:
    entries: dict[tuple[int, str, str], CostEntry] = field(default_factory=dict)

    def get(self, layer: int, variant_id: str, scenario: str) -> CostEntry:
        try:
            return self.entries[(layer, variant_id, scenario)]
        except KeyError:
            raise KeyError(
                f"no cost entry for layer={layer} variant={variant_id} scenario={scenario}"
            ) from None

    def save(self, path: Path | str) -> None:
        with open(path, "w") as fh:
            for (layer, variant, scenario) in sorted(self.entries):
                entry = self.entries[(layer, variant, scenario)]
                row = {"layer": layer, "variant": variant, "scenario": scenario}
                row.update(entry.to_json())
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    @staticmethod
    def load(path: Path | str) -> "CostTable":
        table = CostTable()
        for (layer, variant, scenario), fields in _read_cost_lines(path, require_all=True):
            table.entries[(layer, variant, scenario)] = CostEntry(
                time_ns=fields["time_ns"],
                kv_bytes_per_seq=fields["kv_bytes_per_seq"],
                weight_bytes=fields["weight_bytes"],
            )
        return table


def _read_cost_lines(path: Path | str, require_all: bool):
    """Parse a JSON-lines cost file; raises CostFileError naming the bad line."""
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CostFileError(f"{path}: line {ln}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CostFileError(f"{path}: line {ln}: expected an object")
            for key in ("layer", "variant", "scenario"):
                if key not in obj:
                    raise CostFileError(f"{path}: line {ln}: missing field {key!r}")
            if not isinstance(obj["layer"], int) or obj["layer"] < 0:
                raise CostFileError(f"{path}: line {ln}: layer must be a non-negative int")
            int_fields = ("time_ns", "kv_bytes_per_seq", "weight_bytes")
            present = [f for f in int_fields if f in obj]
            if require_all:
                missing = sorted(set(int_fields) - set(present))
                if missing:
                    raise CostFileError(f"{path}: line {ln}: missing fields {missing}")
            elif "time_ns" not in present:
                raise CostFileError(f"{path}: line {ln}: measured entry needs time_ns")
            fields = {}
            for f in present:
                v = obj[f]
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise CostFileError(
                        f"{path}: line {ln}: {f} must be a non-negative integer, got {v!r}"
                    )
                fields[f] = v
            out.append(((obj["layer"], str(obj["variant"]), str(obj["scenario"])), fields))
    return out


def load_measured_costs(path: Path | str) -> dict[tuple[int, str, str], dict[str, int]]:
    """Measured overrides keyed by (layer, variant, scenario); later lines win."""
    overrides: dict[tuple[int, str, str], dict[str, int]] = {}
    for key, fields in _read_cost_lines(path, require_all=False):
        overrides.setdefault(key, {}).update(fields)
    return overrides


def build_cost_table(
    config: ModelConfig,
    library: BlockLibrary,
    scenarios: Iterable[Scenario],
    hw: HardwareProfile,
    measured: Mapping[tuple[int, str, str], Mapping[str, int]] | None = None,
) -> CostTable:
    """Analytic costs for every (layer, block variant, scenario), measured wins."""
    measured = dict(measured or {})
    table = CostTable()
    for scenario in scenarios:
        full_ctx = scenario.isl + scenario.osl
        for layer_idx, layer_lib in enumerate(library.layers):
            for variant in layer_lib.block_variants():
                key = (layer_idx, variant.variant_id, scenario.name)
                entry = CostEntry(
                    time_ns=time_ns(block_time_cost(config, variant, scenario, hw)),
                    kv_bytes_per_seq=kv_bytes_layer(
                        variant.attention, config, full_ctx, scenario.kv_precision
                    ),
                    weight_bytes=layer_weight_bytes(config, variant),
                )
                if key in measured:
                    got = measured.pop(key)
                    entry = CostEntry(
                        time_ns=got.get("time_ns", entry.time_ns),
                        kv_bytes_per_seq=got.get("kv_bytes_per_seq", entry.kv_bytes_per_seq),
                        weight_bytes=got.get("weight_bytes", entry.weight_bytes),
                    )
                table.entries[key] = entry
    if measured:
        extras = sorted(measured)[:5]
        raise CostFileError(
            f"measured-cost entries do not match any (layer, variant, scenario): {extras}"
        )
    return table


def parent_layer_times_ns(
    config: ModelConfig, scenario: Scenario, hw: HardwareProfile
) -> list[int]:
    """Per-layer integer times of the unmodified model under `scenario`."""
    return [
        time_ns(
            block_time_cost(
                config,
                BlockVariant(attention=attn, keep_count=config.n_experts),
                scenario,
                hw,
            )
        )
        for attn in config.attn_pattern
    ]


@dataclass(frozen=True)
class Budget:
    """Integer budget for one dimension of the selection problem."""

    name: str
    limit: int

    def __post_init__(self) -> None:
        if not isinstance(self.limit, numbers.Integral) or isinstance(self.limit, bool):
            raise ConfigError(f"budget {self.name}: limit must be an integer, got {self.limit!r}")
        if self.limit < 0:
            raise ConfigError(f"budget {self.name}: limit must be non-negative")


def scenario_time_budget(
    config: ModelConfig,
    scenario: Scenario,
    hw: HardwareProfile,
    target_speedup: float,
) -> Budget:
    """Total-time budget: (parent layer time + constant overhead) / speedup.

    The constant overhead is then subtracted back out so the limit applies to
    the per-layer sum the selection problem actually adds up.
    """
    if not (target_speedup > 0):
        raise ConfigError(f"target_speedup must be positive, got {target_speedup!r}")
    parent_total = sum(parent_layer_times_ns(config, scenario, hw))
    const = time_ns(hw.constant_overhead_s)
    limit = int(round((parent_total + const) / target_speedup)) - const
    if limit < 0:
        limit = 0
    return Budget(name=f"time:{scenario.name}", limit=limit)
