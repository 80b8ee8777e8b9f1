"""Deterministic toy decoder-only MoE transformer used as the search substrate.

Forward passes are functions of (params, architecture, tokens): float32
activations, no internal mutation except the KvCache a forward is given to
fill, counter-based RNG for init so the same seed reproduces bit-identical
parameters on any platform.

Every forward runs its layers through one loop, _layer_walk, which starts at
any layer and position from the residual stream entering that layer.
forward_batch drives it from the token embeddings, with or without a KvCache
(a decode step is a one-position forward against the cache); scoring resumes
it at one layer from the parent's residual streams.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Generator, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .library import ArchitectureSpec, LayerBlockSpec

F32 = np.float32
RMS_EPS = np.float32(1e-6)


class ConfigError(ValueError):
    """A configuration or input-file field is missing, unknown, mistyped or
    out of range, or an input file is not JSON."""


# An int field that parse_json holds to at least 1. Annotations are read as
# strings, so a dataclass declares the rule by naming this alias.
PositiveInt = int


def _path(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _label(cls) -> str:
    """The class name in words: KvBudget -> "kv budget"."""
    return "".join(f" {c.lower()}" if c.isupper() else c for c in cls.__name__).lstrip()


def check_json_value(where: str, declared: str, value, scope: Mapping = {}):
    """`value` as a field declared `declared` holds it; ConfigError naming
    `where` unless the JSON value fits. int takes an integer (a bool is not
    one), PositiveInt one of at least 1, float a number (stored as a float),
    str a string, `X | None` also null, tuple[X, ...] a list of X (or, from a
    Python caller, a tuple; stored as a tuple), dict[str, X] a JSON object
    whose values are X. A name that `scope` (the namespace of the module
    declaring the field) binds to a dataclass takes a JSON object, parsed by
    parse_json, or an instance of that class as it is. Any other declared
    type takes the value as it is."""
    if declared.endswith(" | None"):
        inner = declared.removesuffix(" | None")
        return None if value is None else check_json_value(where, inner, value, scope)
    if declared.startswith("tuple[") and declared.endswith(", ...]"):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = declared.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(
            check_json_value(f"{where}[{i}]", item, v, scope) for i, v in enumerate(value)
        )
    if declared.startswith("dict[str, ") and declared.endswith("]"):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        item = declared.removeprefix("dict[str, ").removesuffix("]")
        return {k: check_json_value(_path(where, k), item, v, scope) for k, v in value.items()}
    kind = scope.get(declared)
    if isinstance(kind, type) and is_dataclass(kind):
        return value if isinstance(value, kind) else parse_json(kind, value, where)
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if declared == "int" and not is_int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if declared == "PositiveInt" and not (is_int and value >= 1):
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    if declared == "float":
        if not (is_int or isinstance(value, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        return float(value)
    if declared == "str" and not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def parse_json(cls, obj, where: str = ""):
    """An instance of dataclass `cls` from the JSON object `obj`, by cls's
    declared fields alone: every key must name a field and its value fit the
    field's type (check_json_value), and a field left out takes its default.
    A field declared init=False is derived by the instance; its key may be
    given, and must then hold the derived value. Every error names `where`,
    a ConfigError from __post_init__ included."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or _label(cls)} must be a JSON object")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(declared))
    if unknown:
        label = _label(cls)
        article = "an" if label[0] in "aeiou" else "a"
        raise ConfigError(f"{_path(where, unknown[0])} is not {article} {label} field")
    missing = sorted(
        name for name, f in declared.items()
        if f.init and name not in obj and f.default is MISSING and f.default_factory is MISSING
    )
    if len(missing) == 1:
        raise ConfigError(f"{_path(where, missing[0])} is missing")
    if missing:
        raise ConfigError(f"{where or _label(cls)} missing fields: {', '.join(missing)}")
    scope = vars(sys.modules[cls.__module__])
    values = {
        name: check_json_value(_path(where, name), f.type, obj[name], scope)
        for name, f in declared.items() if name in obj
    }
    try:
        made = cls(**{name: v for name, v in values.items() if declared[name].init})
    except ConfigError as exc:
        raise ConfigError(_path(where, str(exc))) from None
    for name, v in values.items():
        if not declared[name].init and v != getattr(made, name):
            raise ConfigError(
                f"{_path(where, name)} must be {getattr(made, name)!r} "
                f"to agree with the other fields, got {v!r}"
            )
    return made


def to_json(value):
    """The JSON value of `value` by the rule parse_json reads back: a
    dataclass becomes an object of its declared fields by name, leaving out a
    field whose declared default is None while it is None (parse_json gives
    it that default); a tuple or list becomes a list and a dict an object of
    the same keys, each item by this rule; anything else stays as it is."""
    if is_dataclass(value):
        return {
            f.name: to_json(getattr(value, f.name))
            for f in fields(value)
            if not (f.default is None and getattr(value, f.name) is None)
        }
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def _parsed(text: str, parse, where: str):
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc} (in {where})") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{exc} (in {where})") from None


def write_atomic(path: Path | str, data: str | bytes) -> None:
    """Write `data` (text is UTF-8 encoded) to `path` so that a reader finds
    the old file or the whole new one, never a torn one: the bytes go to a
    temporary file in the same directory, which then replaces `path`. If
    writing raises, `path` is left as it was and the temporary file is
    removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path | str, obj) -> None:
    """Write to_json(obj) to `path` as indented JSON with sorted keys and a
    final newline, atomically (write_atomic)."""
    write_atomic(path, json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n")


def write_jsonl(path: Path | str, rows: Iterable) -> None:
    """Write to_json of each of `rows` to `path` as one line of JSON with
    sorted keys, atomically (write_atomic)."""
    write_atomic(path, "".join(json.dumps(to_json(r), sort_keys=True) + "\n" for r in rows))


def read_json(path: Path | str, parse):
    """parse(obj) of the JSON document in the file at `path`. A document that
    is not JSON, or one `parse` rejects, is a ConfigError naming the file."""
    return _parsed(Path(path).read_text(), parse, str(path))


def read_jsonl(path: Path | str, parse) -> list:
    """parse(obj) of each non-blank line of the JSONL file at `path`, in
    order; errors name the file and the line."""
    return [
        _parsed(line, parse, f"{path} line {ln}")
        for ln, line in enumerate(Path(path).read_text().split("\n"), start=1)
        if line.strip()
    ]


class MismatchError(ValueError):
    """Parameters, architecture, or inputs do not agree structurally."""


# ---------------------------------------------------------------------------
# attention variants


@dataclass(frozen=True)
class AttentionVariant:
    """Per-layer attention behavior: full causal or sliding-window causal.

    A window of size W lets position t attend to the W most recent positions
    including t itself, i.e. keys s with t - W + 1 <= s <= t.
    """

    kind: str  # "global" | "window"
    window_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("global", "window"):
            raise ConfigError(f"kind must be 'global' or 'window', got {self.kind!r}")
        if self.kind == "window":
            if not isinstance(self.window_size, int) or self.window_size < 1:
                raise ConfigError(f"window_size must be a positive int, got {self.window_size!r}")
        elif self.window_size is not None:
            raise ConfigError(
                f"window_size must be null for global attention, got {self.window_size!r}"
            )

    @property
    def variant_id(self) -> str:
        return "attn:global" if self.kind == "global" else f"attn:window:{self.window_size}"

    def effective_window(self, length: int) -> int:
        """Number of cached key/value slots one sequence of `length` occupies."""
        if self.kind == "global":
            return length
        return min(length, self.window_size)

    from_json = classmethod(parse_json)


def global_attention() -> AttentionVariant:
    return AttentionVariant("global")


def window_attention(window_size: int) -> AttentionVariant:
    return AttentionVariant("window", window_size)


def first_mask_difference(a: AttentionVariant, b: AttentionVariant) -> int | None:
    """The first query position whose causal mask differs between a and b;
    None when a == b. Global against window W gives W; window W1 against
    window W2 gives min(W1, W2). Every query before it sees keys 0.. itself
    under both, and its attention block starts at key 0 under both (see
    _query_blocks), so a layer's rows before it are the same bits under
    either variant."""
    if a == b:
        return None
    return min(v.window_size for v in (a, b) if v.kind == "window")


# ---------------------------------------------------------------------------
# model config


@dataclass(frozen=True)
class ModelConfig:
    """rope_base and rope_scale_factor are positive; attn_pattern has one
    entry per layer."""

    vocab_size: PositiveInt
    d_model: PositiveInt
    n_layers: PositiveInt
    n_heads: PositiveInt
    n_kv_heads: PositiveInt
    head_dim: PositiveInt
    n_experts: PositiveInt
    top_k: PositiveInt
    expert_hidden: PositiveInt
    max_seq_len: PositiveInt
    attn_pattern: tuple[AttentionVariant, ...]
    rope_base: float = 10000.0
    rope_scale_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rope_base", "rope_scale_factor"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_kv_heads must divide n_heads, got n_heads={self.n_heads} n_kv_heads={self.n_kv_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary pairs, got {self.head_dim}")
        if self.top_k > self.n_experts:
            raise ConfigError(f"top_k={self.top_k} exceeds n_experts={self.n_experts}")
        if len(self.attn_pattern) != self.n_layers:
            raise ConfigError(
                f"attn_pattern has {len(self.attn_pattern)} entries for n_layers={self.n_layers}"
            )

    from_json = classmethod(parse_json)


def toy_config(**overrides) -> ModelConfig:
    """Default desk-scale model: 8 layers alternating Window(4)/Global, 16 experts.
    `overrides` are checked as the run config's "model" section."""
    values = dict(
        vocab_size=256,
        d_model=64,
        n_layers=8,
        n_heads=4,
        n_kv_heads=2,
        head_dim=16,
        n_experts=16,
        top_k=2,
        expert_hidden=32,
        max_seq_len=512,
        rope_base=10000.0,
        rope_scale_factor=1.0,
    )
    values.update(overrides)
    if "attn_pattern" not in values:
        n = values["n_layers"]
        # a bad n_layers gets an empty pattern, and ModelConfig names the field
        values["attn_pattern"] = tuple(
            window_attention(4) if i % 2 == 0 else global_attention()
            for i in range(n if isinstance(n, int) else 0)
        )
    return parse_json(ModelConfig, values, "model")


# ---------------------------------------------------------------------------
# parameters


# A layer's expert weights, stacked along a leading axis of one entry per
# present expert, in expert_ids order. C order, so each expert's matrix is
# contiguous. On disk each expert's slice is its own tensor.
ExpertStack = np.ndarray


@dataclass
class LayerParams:
    attn_norm: np.ndarray  # [d_model]
    wq: np.ndarray  # [d_model, n_heads * head_dim]
    wk: np.ndarray  # [d_model, n_kv_heads * head_dim]
    wv: np.ndarray  # [d_model, n_kv_heads * head_dim]
    wo: np.ndarray  # [n_heads * head_dim, d_model]
    ffn_norm: np.ndarray  # [d_model]
    router: np.ndarray  # [n_present_experts, d_model]; one row per present expert
    w_in: ExpertStack  # [n_present_experts, d_model, expert_hidden]
    w_out: ExpertStack  # [n_present_experts, expert_hidden, d_model]
    expert_ids: tuple[int, ...]  # original parent expert index of each present expert


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: np.ndarray  # [vocab_size, d_model]
    layers: list[LayerParams]
    final_norm: np.ndarray  # [d_model]
    lm_head: np.ndarray  # [d_model, vocab_size]


# The tensor fields of a layer that are not expert stacks, in declaration
# order: the order param_items gives them in, and so their order on disk.
LAYER_TENSORS = tuple(f.name for f in fields(LayerParams) if f.type == "np.ndarray")


def param_items(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    """All weight tensors in a fixed canonical order: a layer's tensors, then
    its experts one at a time, each expert's w_in before its w_out."""
    yield "embedding", params.embedding
    for i, layer in enumerate(params.layers):
        p = f"layers.{i}"
        for name in LAYER_TENSORS:
            yield f"{p}.{name}", getattr(layer, name)
        for j in range(len(layer.expert_ids)):
            yield f"{p}.experts.{j}.w_in", layer.w_in[j]
            yield f"{p}.experts.{j}.w_out", layer.w_out[j]
    yield "final_norm", params.final_norm
    yield "lm_head", params.lm_head


def count_params(params: ModelParams) -> int:
    return sum(int(a.size) for _, a in param_items(params))


def _rng_for(seed: int, name: str) -> np.random.Generator:
    # One Philox stream per tensor, keyed by (seed, tensor name): creation order
    # never matters and the streams are identical on every platform.
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def _uniform_init(seed: int, name: str, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / float(np.sqrt(fan_in))
    rng = _rng_for(seed, name)
    return rng.uniform(-bound, bound, size=shape).astype(F32)


def init_model(config: ModelConfig, seed: int) -> ModelParams:
    """Fresh parameters: scaled-uniform weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)], unit norm gains."""
    c = config
    d, hd = c.d_model, c.head_dim
    layers = []
    for i in range(c.n_layers):
        p = f"layers.{i}"
        layers.append(
            LayerParams(
                attn_norm=np.ones(d, dtype=F32),
                wq=_uniform_init(seed, f"{p}.wq", (d, c.n_heads * hd), d),
                wk=_uniform_init(seed, f"{p}.wk", (d, c.n_kv_heads * hd), d),
                wv=_uniform_init(seed, f"{p}.wv", (d, c.n_kv_heads * hd), d),
                wo=_uniform_init(seed, f"{p}.wo", (c.n_heads * hd, d), c.n_heads * hd),
                ffn_norm=np.ones(d, dtype=F32),
                router=_uniform_init(seed, f"{p}.router", (c.n_experts, d), d),
                w_in=np.stack([
                    _uniform_init(seed, f"{p}.experts.{j}.w_in", (d, c.expert_hidden), d)
                    for j in range(c.n_experts)
                ]),
                w_out=np.stack([
                    _uniform_init(seed, f"{p}.experts.{j}.w_out", (c.expert_hidden, d),
                                  c.expert_hidden)
                    for j in range(c.n_experts)
                ]),
                expert_ids=tuple(range(c.n_experts)),
            )
        )
    return ModelParams(
        config=c,
        embedding=_uniform_init(seed, "embedding", (c.vocab_size, d), d),
        layers=layers,
        final_norm=np.ones(d, dtype=F32),
        lm_head=_uniform_init(seed, "lm_head", (d, c.vocab_size), d),
    )


# ---------------------------------------------------------------------------
# serialization: flat little-endian float32 blob + JSON shape manifest

_PARAMS_FORMAT = "flat-f32-le-v1"


def _flat_bytes(params: ModelParams) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in param_items(params))


def manifest_path_for(bin_path: Path | str) -> Path:
    return Path(str(bin_path) + ".json")


def save_params(params: ModelParams, bin_path: Path | str) -> Path:
    """Write the flat binary blob to bin_path and its shape manifest alongside."""
    bin_path = Path(bin_path)
    blob = _flat_bytes(params)
    entries = []
    offset = 0
    for name, a in param_items(params):
        entries.append(TensorEntry(name, a.shape, offset))
        offset += int(a.size) * 4
    manifest = ParamsManifest(
        format=_PARAMS_FORMAT,
        dtype="float32",
        byte_order="little",
        total_bytes=len(blob),
        checksum_sha256=hashlib.sha256(blob).hexdigest(),
        config=params.config,
        expert_ids=tuple(layer.expert_ids for layer in params.layers),
        entries=tuple(entries),
    )
    write_atomic(bin_path, blob)
    write_json(manifest_path_for(bin_path), manifest)
    return bin_path


@dataclass(frozen=True)
class TensorEntry:
    """Where one tensor lies in a params blob."""

    name: str
    shape: tuple[int, ...]
    offset_bytes: int


@dataclass(frozen=True)
class ParamsManifest:
    """The JSON file save_params writes beside a params blob."""

    format: str
    dtype: str
    byte_order: str
    total_bytes: int
    checksum_sha256: str
    config: ModelConfig
    expert_ids: tuple[tuple[int, ...], ...]
    entries: tuple[TensorEntry, ...]

    from_json = classmethod(parse_json)


def load_params(bin_path: Path | str) -> ModelParams:
    bin_path = Path(bin_path)
    manifest = read_json(manifest_path_for(bin_path), ParamsManifest.from_json)
    if manifest.format != _PARAMS_FORMAT:
        raise MismatchError(f"unsupported params format {manifest.format!r}")
    blob = bin_path.read_bytes()
    if len(blob) != manifest.total_bytes:
        raise MismatchError(
            f"params blob is {len(blob)} bytes, manifest says {manifest.total_bytes}"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.checksum_sha256:
        raise MismatchError("params blob checksum does not match manifest")
    config = manifest.config
    entries = {entry.name: entry for entry in manifest.entries}

    def view(name: str) -> np.ndarray:  # a read-only view into the blob
        entry = entries[name]
        n = int(np.prod(entry.shape)) if entry.shape else 1
        a = np.frombuffer(blob, dtype="<f4", count=n, offset=entry.offset_bytes)
        return a.reshape(entry.shape)

    def tensor(name: str) -> np.ndarray:
        return np.array(view(name), dtype=F32)  # own writable copy

    def stack(p: str, name: str, n: int) -> np.ndarray:
        # copied once, from the blob straight into the stack
        return np.stack([view(f"{p}.experts.{j}.{name}") for j in range(n)], dtype=F32)

    layers = []
    for i in range(config.n_layers):
        p = f"layers.{i}"
        ids = manifest.expert_ids[i]
        layers.append(
            LayerParams(
                **{name: tensor(f"{p}.{name}") for name in LAYER_TENSORS},
                w_in=stack(p, "w_in", len(ids)),
                w_out=stack(p, "w_out", len(ids)),
                expert_ids=ids,
            )
        )
    return ModelParams(
        config=config,
        embedding=tensor("embedding"),
        layers=layers,
        final_norm=tensor("final_norm"),
        lm_head=tensor("lm_head"),
    )


# ---------------------------------------------------------------------------
# KV cache


@dataclass
class KvWriteStats:
    """Tally of the keys (or values) reporting writes stored in one layer,
    summed over writes. The encode error and counts stay zero in a float cache."""

    n_values: int = 0
    abs_max: float = 0.0  # max |x| of the values as computed, before any encoding
    sq_error: float = 0.0  # sum of (decoded - x)**2 in float64
    n_saturated: int = 0
    n_nan: int = 0

    @property
    def mse(self) -> float:
        return self.sq_error / self.n_values

    def add(self, x: np.ndarray, seen: np.ndarray, stats=None) -> None:
        self.n_values += int(x.size)
        self.abs_max = float(np.maximum(self.abs_max, np.abs(x).max()))  # NaN propagates
        if stats is not None:
            self.sq_error += float(np.sum((seen.astype(np.float64) - x) ** 2))
            self.n_saturated += stats.n_saturated
            self.n_nan += stats.n_nan


@dataclass
class _LayerSlots:
    k: np.ndarray  # [batch, n_kv_heads, slots, head_dim] float32, as attention reads them
    v: np.ndarray
    pos: np.ndarray  # [slots] absolute position each slot holds


class KvCache:
    """Post-rotary keys and values of one batch of sequences, held per layer.

    A global layer holds `length` slots. A window layer of size W holds a ring
    buffer of min(length, W) slots, position p in slot p % W. Without `scales`
    the slots store float32. With `scales` (per-layer `k_scales` and `v_scales`,
    as kvquant.QuantScales has) each position is encoded to uint8 E4M3 codes
    once, when written, and the slots store the codes decoded to float32, which
    attention reads; held_bytes counts the one byte of each code.

    A cache made with report=True tallies, per layer, the keys and values
    written to it in `written[layer] = (k_stats, v_stats)`.
    """

    def __init__(
        self,
        config: ModelConfig,
        arch: "ArchitectureSpec",
        batch: int,
        length: int,
        scales=None,
        report: bool = False,
    ):
        self.variants = tuple(spec.attention for spec in arch.layers)
        if len(self.variants) != config.n_layers:
            raise MismatchError(
                f"architecture has {len(self.variants)} layers, config has {config.n_layers}"
            )
        if scales is not None:
            if len(scales.k_scales) != config.n_layers:
                raise ConfigError(
                    f"scales cover {len(scales.k_scales)} layers, model has {config.n_layers}"
                )
            from . import kvquant  # kvquant imports this module, so bind it late

            self._codec = kvquant
        self.batch = batch
        self.length = length
        self.scales = scales
        self.positions = 0  # positions written so far, the same in every layer
        self.written: dict[int, tuple[KvWriteStats, KvWriteStats]] | None = {} if report else None
        self._layers = []
        for variant in self.variants:
            shape = (batch, config.n_kv_heads, variant.effective_window(length), config.head_dim)
            self._layers.append(
                _LayerSlots(np.zeros(shape, F32), np.zeros(shape, F32),
                            np.full(shape[2], -1, dtype=np.int64))
            )

    @classmethod
    def for_generation(
        cls,
        config: ModelConfig,
        arch: "ArchitectureSpec",
        batch: int,
        prompt_len: int,
        max_new_tokens: int,
        scales=None,
    ) -> "KvCache":
        """An empty cache just large enough for generate_batch; the last emitted
        token is never fed back, so it needs no slot."""
        length = min(prompt_len + max(max_new_tokens - 1, 0), config.max_seq_len)
        return cls(config, arch, batch, length, scales=scales)

    @property
    def stored_dtype(self) -> str:
        return "float32" if self.scales is None else "uint8"

    def held(self, layer: int) -> int:
        """Positions layer `layer` holds now."""
        return min(self.positions, self._layers[layer].pos.size)

    def held_bytes(self) -> int:
        """Bytes of the filled K and V slots of one sequence, over all layers:
        4 per float32 value, or 1 per code in an fp8 cache."""
        per_value = 4 if self.scales is None else 1
        return sum(2 * s.k[0, :, : self.held(i)].size * per_value
                   for i, s in enumerate(self._layers))

    def update(
        self, layer: int, k: np.ndarray, v: np.ndarray, start: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Store k, v [batch, n_kv_heads, T, head_dim] of positions start..start+T-1.

        Returns the keys, values and key positions attention reads: the slots
        held before this write, then the T new positions as stored. A window
        layer keeps only its last W positions after the write. A write that
        reuses no slot returns views of the slots, valid until the next update.
        """
        s = self._layers[layer]
        held = self.held(layer)
        n_new = k.shape[2]
        end = start + n_new
        new_pos = np.arange(start, end)
        if self.scales is None:
            k_seen, v_seen = k, v
            k_stats = v_stats = None
        else:
            k_scale, v_scale = self.scales.k_scales[layer], self.scales.v_scales[layer]
            k_codes, k_stats = self._codec.encode(k, k_scale)
            v_codes, v_stats = self._codec.encode(v, v_scale)
            k_seen = self._codec.decode(k_codes, k_scale)
            v_seen = self._codec.decode(v_codes, v_scale)
        if self.written is not None:
            k_tally, v_tally = self.written.setdefault(layer, (KvWriteStats(), KvWriteStats()))
            k_tally.add(k, k_seen, k_stats)
            v_tally.add(v, v_seen, v_stats)

        n_slots = s.pos.size
        if end <= n_slots:  # slot p holds position p: the held slots, then the new
            s.k[:, :, start:end] = k_seen
            s.v[:, :, start:end] = v_seen
            s.pos[start:end] = new_pos
            return s.k[:, :, :end], s.v[:, :, :end], s.pos[:end]

        keys, values, key_pos = k_seen, v_seen, new_pos
        if held:
            keys = np.concatenate([s.k[:, :, :held], k_seen], axis=2)
            values = np.concatenate([s.v[:, :, :held], v_seen], axis=2)
            key_pos = np.concatenate([s.pos[:held], new_pos])

        keep = slice(max(0, n_new - n_slots), n_new)
        slots = new_pos[keep] % n_slots
        s.k[:, :, slots] = k_seen[:, :, keep]
        s.v[:, :, slots] = v_seen[:, :, keep]
        s.pos[slots] = new_pos[keep]
        return keys, values, key_pos


# ---------------------------------------------------------------------------
# forward pass


@dataclass
class ForwardTrace:
    logits: np.ndarray  # [..., T, vocab]
    final_hidden: np.ndarray  # [..., T, d_model]; post final norm, pre LM head


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with a lone row of `a` summed as a GEMM sums it: NumPy hands a
    one-row product to GEMV, which sums in another order, so the row is
    computed beside a copy of itself."""
    if a.shape[-2] == 1:
        return (np.concatenate([a, a], axis=-2) @ b)[..., :1, :]
    return a @ b


def _dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x [batch, positions, n] @ w [n, m], w in C order. Several positions run
    as one GEMM per sequence, as NumPy batches them; a single position (a
    decode step, or a layer's last position alone) as one GEMM over the batch,
    where NumPy would run one GEMV per sequence. A row then comes out as it
    does among all its sequence's positions, as tests/test_model.py checks on
    the BLAS in use. One GEMM over every position of the batch would not keep
    that for narrow outputs such as the router's."""
    if x.shape[1] == 1:
        return _matmul(x[:, 0], w)[:, None]
    return x @ w


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # np.mean's own steps, without its Python wrapper
    ms = np.add.reduce(np.square(x), -1, keepdims=True)
    np.true_divide(ms, np.intp(x.shape[-1]), out=ms, casting="unsafe")
    return x * (np.float32(1.0) / np.sqrt(ms + RMS_EPS)) * gain


def _silu(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x / (np.float32(1.0) + np.exp(-x))


def _rope_tables(config: ModelConfig, start: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-width rotary tables, each [length, head_dim]: the cosine of each
    pair's angle twice, and (-sine, sine) of it."""
    half = config.head_dim // 2
    inv_freq = config.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0 / config.head_dim)
    # The long-context knob divides every rotary angle; factor 1.0 is the exact
    # unscaled baseline.
    positions = np.arange(start, start + length, dtype=np.float64)
    angles = positions[:, None] * inv_freq[None, :] / config.rope_scale_factor
    cos, sin = np.cos(angles).astype(F32), np.sin(angles).astype(F32)
    return np.repeat(cos, 2, axis=-1), np.stack([-sin, sin], axis=-1).reshape(length, -1)


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """x [batch, positions, heads, head_dim] with each (even, odd) dim pair
    rotated by its position's angle; cos and sin are _rope_tables' full-width
    [positions, head_dim] tables.

    x * cos + (x with each pair swapped) * sin, as whole-array passes into a
    contiguous result. Each element gets the float ops of the pairwise form
    (even: xe*c - xo*s, odd: xe*s + xo*c): xe*c + (-(xo*s)) is xe*c - xo*s,
    and the odd sum only swaps its terms.
    """
    swapped = np.empty_like(x)
    swapped[..., 0::2] = x[..., 1::2]
    swapped[..., 1::2] = x[..., 0::2]
    swapped *= sin[:, None]
    out = x * cos[:, None]
    out += swapped
    return out


def _attention_mask(
    variant: AttentionVariant, query_pos: np.ndarray, key_pos: np.ndarray
) -> np.ndarray:
    allowed = key_pos[None, :] <= query_pos[:, None]  # causal: key s <= query t
    if variant.kind == "window":
        allowed &= key_pos[None, :] > query_pos[:, None] - variant.window_size
    return np.where(allowed, F32(0.0), F32(-np.inf))


def _row_max(scores: np.ndarray) -> np.ndarray:
    """np.max(scores, axis=-1, keepdims=True) for a block of several query
    rows, by halving the key axis with np.maximum; an odd length folds its
    last column into column 0. A max is exact in any order (a NaN propagates
    either way), so only the sign of a zero max tied between +0 and -0 can
    differ from np.max's, and subtracting either zero from a row gives values
    that exp maps to the same bits. The whole-array passes beat NumPy's
    per-row reduction on short rows."""
    n = scores.shape[-1]
    m = scores.copy() if n == 1 else scores
    while n > 1:
        half = n // 2
        halved = np.maximum(m[..., :half], m[..., half : 2 * half])
        if n % 2:
            np.maximum(halved[..., :1], m[..., n - 1 :], out=halved[..., :1])
        m, n = halved, half
    return m


def route_tokens(
    router_logits: np.ndarray, allowed: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick top_k experts per token among allowed ones; weights renormalize to 1.

    Ties break toward the lower expert index. Returns (indices [..., k],
    weights [..., k]) with weights from a softmax over the selected logits only.

    Takes top_k argmax passes, each knocking its pick out to -inf: argmax
    returns the first of equal maxima, so this is a stable descending sort cut
    at top_k, for logits that are not NaN or -inf. The first pick is the row
    max of the selected logits, so the softmax subtracts it without reducing
    (a zero max of either sign gives the same exp).
    """
    n_allowed = int(np.count_nonzero(allowed))
    if n_allowed < top_k:
        raise MismatchError(f"only {n_allowed} experts allowed but top_k={top_k}")
    masked = np.where(allowed, router_logits, -np.inf)
    n_experts = masked.shape[-1]
    flat = masked.reshape(-1)
    row_starts = np.arange(0, flat.size, n_experts)
    idx = np.empty(masked.shape[:-1] + (top_k,), dtype=np.intp)
    selected = np.empty(idx.shape, dtype=masked.dtype)
    for j in range(top_k):
        pick = masked.argmax(axis=-1)
        idx[..., j] = pick
        at = row_starts + pick.reshape(-1)
        selected[..., j] = flat[at].reshape(pick.shape)
        flat[at] = -np.inf
    e = np.exp(selected - selected[..., :1])
    e /= np.add.reduce(e, -1, keepdims=True)
    return idx, e


def _expert_allowed_mask(layer: LayerParams, keep_set: Iterable[int], top_k: int) -> np.ndarray:
    """Read-only: which present experts `keep_set` keeps. Made once per
    (expert ids, keep set, top_k)."""
    return _allowed_mask(tuple(layer.expert_ids), tuple(keep_set), top_k)


@functools.lru_cache(maxsize=1024)
def _allowed_mask(expert_ids: tuple[int, ...], keep_set: tuple[int, ...], top_k: int) -> np.ndarray:
    keep = set(keep_set)
    missing = sorted(keep - set(expert_ids))
    if missing:
        raise MismatchError(f"architecture keeps experts {missing} absent from parameters")
    if len(keep) < top_k:
        raise MismatchError(f"architecture keeps {len(keep)} experts, fewer than top_k={top_k}")
    mask = np.array([eid in keep for eid in expert_ids], dtype=bool)
    mask.flags.writeable = False
    return mask


def _moe_layer(
    x: np.ndarray, layer: LayerParams, allowed: np.ndarray, top_k: int
) -> np.ndarray:
    """The expert mix of x [batch, positions, d_model]: each token adds, onto
    zero and in ascending expert order, routing weight * expert output for its
    top_k experts.

    A one-position forward (a decode step, or a layer's last position alone)
    runs every present expert on every row, as two products over the stacked
    experts, and gathers each token's slots. That is n_present / top_k times
    the FLOPs of running each expert on its own rows, but it has no per-expert
    loop. On the toy config (16 experts, top_k 2), timed against the grouped
    loop on the same rows on a 2-CPU host, it takes 62-91 against 127-222 us
    at batch 4 and 75-121 against 232-419 us at batch 16; from batch 48 to
    128 neither wins every time, and from batch 160 on it is about 1.7x
    slower. The toy run decodes 16 sequences a step, and its retrieval
    forwards run their last position at batch 48. A forward of several
    positions per sequence groups the (token, slot) pairs by expert and runs
    each expert on its routed rows.

    Both give the same bits: a row of a C-order GEMM does not depend on how
    many rows share it (at least 2; _matmul keeps a lone row in a GEMM) or on
    being one slice of a stacked product, as tests/test_model.py checks on the
    BLAS in use.
    """
    # a C-order copy: rows of a product with the F-order view depend on how
    # many rows share it
    logits = _dense(x, np.ascontiguousarray(layer.router.T))
    idx, weights = route_tokens(logits, allowed, top_k)
    out = np.zeros_like(x)
    flat_x = x.reshape(-1, x.shape[-1])
    flat_out = out.reshape(-1, x.shape[-1])
    if x.shape[1] == 1:
        y = _matmul(_silu(_matmul(flat_x[None], layer.w_in)), layer.w_out)  # [E, n, d]
        rows = np.arange(len(flat_x))[:, None]
        slots = idx.reshape(-1, top_k)
        ascending = np.argsort(slots, axis=-1)  # each token's slots by expert
        mixed = (weights.reshape(-1, top_k)[rows, ascending, None]
                 * y[slots[rows, ascending], rows])  # [n, top_k, d]
        for j in range(top_k):
            flat_out += mixed[:, j]
        return out
    # Group the (token, slot) pairs by expert. The sort is stable, so each
    # expert's tokens stay in ascending order and its matmul sees the same rows
    # in the same order as a scan of every token would give it; experts are
    # added in ascending order, so each token sums its slots as before. The
    # narrowest unsigned type lets NumPy's stable sort use a radix sort.
    n_present = len(layer.expert_ids)
    pairs = idx.reshape(-1).astype(np.min_scalar_type(n_present - 1))
    order = np.argsort(pairs, kind="stable")
    bounds = np.searchsorted(pairs[order], np.arange(n_present + 1))
    rows_by_expert = order // top_k
    weights_by_expert = weights.reshape(-1)[order]
    for e in np.flatnonzero(bounds[1:] > bounds[:-1]):
        lo, hi = bounds[e], bounds[e + 1]
        rows = rows_by_expert[lo:hi]
        y = _matmul(_silu(_matmul(flat_x[rows], layer.w_in[e])), layer.w_out[e])
        flat_out[rows] += weights_by_expert[lo:hi, None] * y
    return out


@dataclass
class _Pass:
    """What the layers of one forward share: the positions it runs, their
    rotary tables and the cache it writes (if any)."""

    start: int
    cos: np.ndarray
    sin: np.ndarray
    query_pos: np.ndarray
    cache: KvCache | None

    @classmethod
    def new(
        cls, c: ModelConfig, length: int, start: int = 0, cache: KvCache | None = None
    ) -> "_Pass":
        cos, sin = _rope_tables(c, start, length)
        return cls(start, cos, sin, np.arange(start, start + length), cache)


# Queries per attention block of a forward whose queries are the positions its
# keys hold; a multiple of 8, as _query_blocks needs.
QUERY_BLOCK = 32


def _query_blocks(
    variant: AttentionVariant, length: int, n_keys: int
) -> list[tuple[int, int, int, int]]:
    """The attention blocks of one layer: (a, b, lo, hi), query rows [a, b)
    against key slots [lo, hi).

    When the `length` queries are the positions the keys hold (no cache, or a
    prefill into an empty one), key slot s holds position s. Each block of
    QUERY_BLOCK queries then reads only keys up to its last query, from lo:
    0 for a global layer; for a window of W, the block's first query - W + 1,
    rounded down to a multiple of 8 and clipped at 0. The keys a block skips
    are masked for all its queries. Otherwise (queries after held slots, as in
    a decode step) one block reads every slot.

    Block bounds and lo are multiples of 8, so for rows of up to 128 keys
    NumPy's 8-lane pairwise sum and the BLAS K-loop meet a row's unmasked
    terms in the same order as over the whole masked T x T matrix, and the
    result is bit-identical to it.
    """
    if n_keys != length:
        return [(0, length, 0, n_keys)]
    blocks = []
    for a in range(0, length, QUERY_BLOCK):
        b = min(a + QUERY_BLOCK, length)
        lo = 0
        if variant.kind == "window":
            lo = max(0, (a - variant.window_size + 1) // 8 * 8)
        blocks.append((a, b, lo, b))
    return blocks


def _layer_step(
    params: ModelParams,
    i: int,
    spec: "LayerBlockSpec",
    hidden: np.ndarray,
    run: _Pass,
    first: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder layer on the residual stream `hidden` [batch, length, d_model].

    Keys and values are computed (and cached) for every position; queries,
    attention, the output projection and the FFN run for positions first..
    alone, 0 <= first < length. Returns (residual leaving the layer, FFN
    input), both [batch, length - first, d_model] and equal bit for bit to
    rows first.. of the full layer (first = 0): a query row reads the same
    keys in the same attention block, and a product row does not depend on
    the rows beside it.
    """
    c = params.config
    layer = params.layers[i]
    batch, length = hidden.shape[:2]
    group = c.n_heads // c.n_kv_heads

    def heads(x: np.ndarray, n: int) -> np.ndarray:  # -> [batch, positions, n, head_dim]
        return x.reshape(batch, -1, n, c.head_dim)

    # rotated before the head axis moves ahead of positions, while contiguous
    att_in = _rms_norm(hidden, layer.attn_norm)
    q = _apply_rope(heads(_dense(att_in[:, first:], layer.wq), c.n_heads),
                    run.cos[first:], run.sin[first:]).transpose(0, 2, 1, 3)
    k = _apply_rope(heads(_dense(att_in, layer.wk), c.n_kv_heads),
                    run.cos, run.sin).transpose(0, 2, 1, 3)
    v = heads(_dense(att_in, layer.wv), c.n_kv_heads).transpose(0, 2, 1, 3)
    key_pos = run.query_pos
    if run.cache is not None:
        k, v, key_pos = run.cache.update(i, k, v, run.start)
    # Query heads grouped by their kv head: head h reads kv head h // group,
    # so stacking each group's queries keeps GQA exact while batching GEMMs.
    q = q.reshape(batch, c.n_kv_heads, group, length - first, c.head_dim)
    ctx = np.empty_like(q)
    for a, b, lo, hi in _query_blocks(spec.attention, length, k.shape[2]):
        a = max(a, first)
        if a >= b:
            continue
        rows = slice(a - first, b - first)
        qb = q[:, :, :, rows].reshape(batch, c.n_kv_heads, group * (b - a), c.head_dim)
        scores = _matmul(qb, k[:, :, lo:hi].transpose(0, 1, 3, 2))
        scores = scores.reshape(batch, c.n_kv_heads, group, b - a, hi - lo)
        scores *= np.float32(1.0 / np.sqrt(c.head_dim))
        # A lone query of a global layer sees every key its block reads, so
        # its mask is all +0.0; adding it only turns -0.0 scores into +0.0,
        # which the softmax below cannot tell apart.
        if b - a > 1 or spec.attention.kind != "global":
            scores += _attention_mask(spec.attention, run.query_pos[a:b], key_pos[lo:hi])
        # softmax over keys, in place; masked slots exp to exactly 0
        scores -= _row_max(scores) if b - a > 1 else np.maximum.reduce(scores, -1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, -1, keepdims=True)
        out = _matmul(scores.reshape(qb.shape[:3] + (hi - lo,)), v[:, :, lo:hi])
        ctx[:, :, :, rows] = out.reshape(batch, c.n_kv_heads, group, b - a, c.head_dim)
    ctx = (
        ctx.reshape(batch, c.n_heads, length - first, c.head_dim)
        .transpose(0, 2, 1, 3)
        .reshape(batch, length - first, c.n_heads * c.head_dim)
    )
    hidden = hidden[:, first:] + _dense(ctx, layer.wo)

    ffn_in = _rms_norm(hidden, layer.ffn_norm)
    allowed_experts = _expert_allowed_mask(layer, spec.expert_keep_set, c.top_k)
    return hidden + _moe_layer(ffn_in, layer, allowed_experts, c.top_k), ffn_in


def _layer_specs(params: ModelParams, arch: "ArchitectureSpec") -> list["LayerBlockSpec"]:
    layer_specs = list(arch.layers)
    if len(layer_specs) != len(params.layers):
        raise MismatchError(
            f"architecture has {len(layer_specs)} layers, parameters have {len(params.layers)}"
        )
    return layer_specs


def _check_tokens(c: ModelConfig, tokens: np.ndarray, start: int = 0) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise MismatchError(f"forward_batch expects [batch, length] tokens, got shape {tokens.shape}")
    if tokens.size == 0:
        raise MismatchError(f"forward_batch needs at least one token, got shape {tokens.shape}")
    end = start + tokens.shape[1]
    if end > c.max_seq_len:
        raise MismatchError(f"sequence length {end} exceeds max_seq_len {c.max_seq_len}")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise MismatchError(f"tokens must be integers, got dtype {tokens.dtype}")
    if tokens.min() < 0 or tokens.max() >= c.vocab_size:
        raise MismatchError("token id out of range for vocab_size")
    return tokens


def final_hidden(params: ModelParams, hidden: np.ndarray) -> np.ndarray:
    """The final norm of the residual stream leaving the last layer."""
    return _rms_norm(hidden, params.final_norm)


def _finish(params: ModelParams, hidden: np.ndarray) -> ForwardTrace:
    final = final_hidden(params, hidden)
    return ForwardTrace(logits=_dense(final, params.lm_head), final_hidden=final)


def forward_batch(
    params: ModelParams,
    arch: "ArchitectureSpec",
    tokens: np.ndarray,
    cache: KvCache | None = None,
    start: int = 0,
    last_only: bool = False,
) -> ForwardTrace:
    """Run the model on a [batch, length] token array at positions start.. .

    Without a cache, attention reads the fresh keys/values of these tokens and
    start must be 0. With a cache holding exactly `start` positions, each layer
    writes the new keys/values into it and attends over every slot it holds.

    With last_only, the trace holds the last position alone ([batch, 1, ...]),
    bit for bit as the full trace has it: the last layer runs from its queries
    on for that position only, though it still caches every position's keys
    and values.
    """
    c = params.config
    tokens = _check_tokens(c, tokens, start)
    batch, length = tokens.shape
    layer_specs = _layer_specs(params, arch)
    if cache is None:
        if start != 0:
            raise MismatchError(f"a forward without a cache starts at position 0, not {start}")
    else:
        if cache.variants != tuple(spec.attention for spec in layer_specs):
            raise MismatchError("the cache was built for another architecture's attention")
        if cache.batch != batch:
            raise MismatchError(f"cache holds {cache.batch} sequences, tokens have {batch}")
        if start != cache.positions:
            raise MismatchError(f"cache holds {cache.positions} positions, forward starts at {start}")
        if start + length > cache.length:
            raise MismatchError(f"cache holds at most {cache.length} positions, not {start + length}")

    run = _Pass.new(c, length, start, cache)
    hidden = _last_leaving(_layer_walk(params, arch, run, params.embedding[tokens],
                                       last_only=last_only))
    if cache is not None:
        cache.positions = start + length
    return _finish(params, hidden)


def _layer_walk(
    params: ModelParams,
    arch: "ArchitectureSpec",
    run: _Pass,
    hidden: np.ndarray,
    layer: int = 0,
    first: int = 0,
    entering: list[np.ndarray] | None = None,
    last_only: bool = False,
) -> Generator[tuple[np.ndarray, np.ndarray, np.ndarray], None, np.ndarray]:
    """The one loop over a forward's layers. From `hidden` [batch, length,
    d_model], the residual stream entering layer `layer`, run layers layer..
    of `arch` over the positions of `run`, and yield for each in turn (the
    residual stream entering it, its FFN input, the residual leaving it).

    Every layer runs its queries and FFN from position `first` on
    (_layer_step), so the last two items hold rows first..; with last_only
    the last layer runs its last position alone, as forward_batch runs it. A
    layer after `layer` takes the rows before `first` of the residual
    entering it from `entering`, the residual entering each layer in some
    forward on the same tokens (as a walk from layer 0 yields it).

    When that forward ran the layers before `layer` as `arch` does, and its
    rows before `first` are those `arch` gives at every layer from `layer` on
    (first = 0, or a changed attention's first_mask_difference), every item
    equals those rows of a walk from layer 0, bit for bit.

    A layer runs only when its item is asked for, and while it runs the walk
    holds no earlier layer's item but its input. Every layer shares the
    rotary tables of `run`. The walk returns the residual leaving the last
    layer (see _last_leaving).
    """
    layer_specs = _layer_specs(params, arch)
    n, length = len(layer_specs), hidden.shape[1]
    for i in range(layer, n):
        if i > layer and first:
            hidden = np.concatenate([entering[i][:, :first], hidden], axis=1)
        step_first = length - 1 if last_only and i == n - 1 else first
        leaving, ffn_in = _layer_step(params, i, layer_specs[i], hidden, run, step_first)
        yield hidden, ffn_in, leaving
        hidden = leaving
        del ffn_in, leaving
    return hidden


def _last_leaving(walk: Generator[tuple, None, np.ndarray]) -> np.ndarray:
    """Run a _layer_walk to its end and return the residual leaving its last
    layer (the walk's return value), holding none of its items: while a
    layer runs, only its input is alive."""
    try:
        while True:
            next(walk)
    except StopIteration as end:
        return end.value


def _token_walk(
    params: ModelParams, arch: "ArchitectureSpec", tokens: np.ndarray, last_only: bool = False
) -> Generator[tuple[np.ndarray, np.ndarray, np.ndarray], None, np.ndarray]:
    """_layer_walk over every layer of a cache-free forward of [batch, length]
    `tokens`: its items are bit-identical to what forward_batch computes."""
    tokens = _check_tokens(params.config, tokens)
    run = _Pass.new(params.config, tokens.shape[1])
    return _layer_walk(params, arch, run, params.embedding[tokens], last_only=last_only)


def generate_batch(
    params: ModelParams,
    arch: "ArchitectureSpec",
    prompts: np.ndarray,
    max_new_tokens: int,
    end_token: int,
    cache: KvCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy decoding from [batch, prompt_len] prompts.

    One forward prefills the cache with the prompts; each further token is one
    single-position forward against it. `cache` must be empty and large enough
    (see KvCache.for_generation, which makes the float32 cache used when none is
    given). Pass an fp8 KvCache to decode through the 8-bit codec.

    Returns (sequences [batch, prompt_len + emitted], generated_lengths [batch]).
    A sequence stops growing once it emits end_token; generated_lengths counts
    emitted tokens including that end token.
    """
    c = params.config
    seqs = np.asarray(prompts).copy()
    batch, prompt_len = seqs.shape
    if cache is None:
        cache = KvCache.for_generation(c, arch, batch, prompt_len, max_new_tokens)
    done = np.zeros(batch, dtype=bool)
    lengths = np.zeros(batch, dtype=np.int64)
    step = seqs
    for _ in range(max_new_tokens):
        if done.all() or seqs.shape[1] >= c.max_seq_len:
            break
        trace = forward_batch(
            params, arch, step, cache=cache, start=seqs.shape[1] - step.shape[1], last_only=True
        )
        nxt = np.argmax(trace.logits[:, -1, :], axis=-1)
        nxt = np.where(done, end_token, nxt)  # finished rows just pad
        lengths += (~done).astype(np.int64)
        done |= nxt == end_token
        seqs = np.concatenate([seqs, nxt[:, None]], axis=1)
        step = nxt[:, None]
    return seqs, lengths
