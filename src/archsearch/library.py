"""Per-layer block library: attention alternatives and expert keep-count menus.

A library enumerates, for every layer, the candidate attention variants and the
candidate expert keep-counts. Keep-sets are always prefixes of a per-layer
expert ranking, so smaller keep-counts are contained in larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .model import (
    LAYER_TENSORS,
    AttentionVariant,
    ConfigError,
    LayerParams,
    MismatchError,
    ModelConfig,
    ModelParams,
    parse_json,
    read_json,
    window_attention,
    write_json,
)


# ---------------------------------------------------------------------------
# architecture specs


@dataclass(frozen=True)
class LayerBlockSpec:
    attention: AttentionVariant
    expert_keep_set: tuple[int, ...]  # ascending original expert ids
    experts_kept: int = field(init=False)  # len(expert_keep_set)

    def __post_init__(self) -> None:
        keep = tuple(sorted(set(self.expert_keep_set)))
        if len(keep) != len(self.expert_keep_set):
            raise ConfigError("expert_keep_set has duplicate ids")
        if keep and keep[0] < 0:
            raise ConfigError("expert_keep_set ids must be non-negative")
        object.__setattr__(self, "expert_keep_set", keep)
        object.__setattr__(self, "experts_kept", len(keep))

    from_json = classmethod(parse_json)


@dataclass(frozen=True)
class ArchitectureSpec:
    layers: tuple[LayerBlockSpec, ...]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def with_layer(
        self,
        index: int,
        attention: AttentionVariant | None = None,
        expert_keep_set: tuple[int, ...] | None = None,
    ) -> "ArchitectureSpec":
        old = self.layers[index]
        new = LayerBlockSpec(
            attention=attention if attention is not None else old.attention,
            expert_keep_set=expert_keep_set if expert_keep_set is not None else old.expert_keep_set,
        )
        layers = list(self.layers)
        layers[index] = new
        return ArchitectureSpec(tuple(layers))

    from_json = classmethod(parse_json)

    def save(self, path: Path | str) -> None:
        write_json(path, self)

    @staticmethod
    def load(path: Path | str) -> "ArchitectureSpec":
        return read_json(path, ArchitectureSpec.from_json)


def parent_spec(config: ModelConfig) -> ArchitectureSpec:
    """The unmodified architecture: config's attention layout, all experts kept."""
    all_experts = tuple(range(config.n_experts))
    return ArchitectureSpec(
        tuple(LayerBlockSpec(attention=v, expert_keep_set=all_experts) for v in config.attn_pattern)
    )


# ---------------------------------------------------------------------------
# expert rankings


def top_experts(order: tuple[int, ...], count: int) -> tuple[int, ...]:
    """The first `count` expert ids of a most-important-first `order`, ascending."""
    if not (1 <= count <= len(order)):
        raise ConfigError(f"keep count {count} out of range for layer with {len(order)} experts")
    return tuple(sorted(order[:count]))


@dataclass(frozen=True)
class LayerRanking:
    """One layer's expert ids, most important first, and their scores."""

    order: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.order) != len(self.scores):
            raise ConfigError("scores must have one entry per expert in order")
        if len(set(self.order)) != len(self.order):
            raise ConfigError("order has duplicate expert ids")


@dataclass(frozen=True)
class ExpertRanking:
    """Per layer, the experts' importance order and scores (ranking.json)."""

    layers: tuple[LayerRanking, ...]

    def keep_set(self, layer: int, count: int) -> tuple[int, ...]:
        """The top-`count` experts of `layer`, as an ascending id tuple."""
        return top_experts(self.layers[layer].order, count)

    from_json = classmethod(parse_json)

    def save(self, path: Path | str) -> None:
        write_json(path, self)

    @staticmethod
    def load(path: Path | str) -> "ExpertRanking":
        return read_json(path, ExpertRanking.from_json)


# ---------------------------------------------------------------------------
# library construction


@dataclass(frozen=True)
class LibraryMenu:
    """What the library offers: expert keep fractions and window alternatives."""

    keep_fractions: tuple[float, ...] = (1.0,)
    alt_windows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fr = tuple(float(f) for f in self.keep_fractions)
        for f in fr:
            if not (0.0 < f <= 1.0):
                raise ConfigError(f"keep_fractions must be in (0, 1], got {f}")
        for w in self.alt_windows:
            if not isinstance(w, int) or w < 1:
                raise ConfigError(f"alt_windows must be positive ints, got {w!r}")
        object.__setattr__(self, "keep_fractions", fr)
        object.__setattr__(self, "alt_windows", tuple(self.alt_windows))

    from_json = classmethod(parse_json)


KEEP_ID_PREFIX = "ffn:keep:"


def keep_variant_id(keep_count: int) -> str:
    """The id of an FFN keeping `keep_count` experts: a score row's variant,
    and the second half of a block variant's id."""
    return f"{KEEP_ID_PREFIX}{keep_count}"


@dataclass(frozen=True)
class BlockVariant:
    """One candidate block for one layer: an attention variant plus a keep-count."""

    attention: AttentionVariant
    keep_count: int

    @property
    def variant_id(self) -> str:
        return f"{self.attention.variant_id}+{keep_variant_id(self.keep_count)}"


@dataclass(frozen=True)
class LayerLibrary:
    attention_options: tuple[AttentionVariant, ...]  # parent option first
    keep_counts: tuple[int, ...]  # parent count first, then descending

    def block_variants(self) -> tuple[BlockVariant, ...]:
        return tuple(
            BlockVariant(attention=a, keep_count=c)
            for a in self.attention_options
            for c in self.keep_counts
        )


@dataclass(frozen=True)
class BlockLibrary:
    layers: tuple[LayerLibrary, ...]

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def keep_counts_from_fractions(n_experts: int, fractions: tuple[float, ...], top_k: int) -> tuple[int, ...]:
    """Menu fractions -> distinct keep-counts, parent count first then descending."""
    counts = set()
    for f in fractions:
        c = int(round(f * n_experts))
        if c < top_k:
            raise ConfigError(
                f"keep fraction {f} gives {c} experts, fewer than top_k={top_k}"
            )
        counts.add(c)
    counts.add(n_experts)  # parent always available
    return tuple(sorted(counts, reverse=True))


def build_library(config: ModelConfig, menu: LibraryMenu) -> BlockLibrary:
    """Enumerate per-layer candidate blocks.

    Window alternatives are offered only to layers whose parent attention is
    global (the search only ever narrows attention). The parent variant is
    always the first option in every list.
    """
    counts = keep_counts_from_fractions(config.n_experts, menu.keep_fractions, config.top_k)
    layers = []
    for parent_attn in config.attn_pattern:
        options = [parent_attn]
        if parent_attn.kind == "global":
            options.extend(window_attention(w) for w in menu.alt_windows)
        layers.append(LayerLibrary(attention_options=tuple(options), keep_counts=counts))
    return BlockLibrary(layers=tuple(layers))


# ---------------------------------------------------------------------------
# pruning and assembly


def prune_layer(layer: LayerParams, keep_set: tuple[int, ...]) -> LayerParams:
    """Drop every expert outside keep_set; router rows go with their experts."""
    keep = tuple(sorted(set(int(e) for e in keep_set)))
    if not keep:
        raise MismatchError("keep set is empty")
    present = {eid: pos for pos, eid in enumerate(layer.expert_ids)}
    missing = [e for e in keep if e not in present]
    if missing:
        raise MismatchError(f"keep set references absent experts {missing}")
    positions = [present[e] for e in keep]
    tensors = {name: getattr(layer, name).copy() for name in LAYER_TENSORS}
    tensors["router"] = layer.router[positions]
    return LayerParams(
        **tensors,
        w_in=layer.w_in[positions],
        w_out=layer.w_out[positions],
        expert_ids=keep,
    )


def assemble(parent: ModelParams, arch: ArchitectureSpec) -> ModelParams:
    """Materialize a child model: prune experts per layer, install attention layout.

    The child's config records the chosen attention pattern; its n_experts field
    keeps naming the parent expert-id space.
    """
    c = parent.config
    if arch.n_layers != c.n_layers:
        raise MismatchError(f"architecture has {arch.n_layers} layers, model has {c.n_layers}")
    for i, spec in enumerate(arch.layers):
        if spec.experts_kept < c.top_k:
            raise MismatchError(
                f"layer {i} keeps {spec.experts_kept} experts, fewer than top_k={c.top_k}"
            )
    config = replace(c, attn_pattern=tuple(spec.attention for spec in arch.layers))
    layers = [
        prune_layer(layer, spec.expert_keep_set)
        for layer, spec in zip(parent.layers, arch.layers)
    ]
    return ModelParams(
        config=config,
        embedding=parent.embedding.copy(),
        layers=layers,
        final_norm=parent.final_norm.copy(),
        lm_head=parent.lm_head.copy(),
    )


def assembled_spec(params: ModelParams) -> ArchitectureSpec:
    """The architecture a (possibly pruned) parameter set natively implements."""
    return ArchitectureSpec(
        tuple(
            LayerBlockSpec(attention=v, expert_keep_set=layer.expert_ids)
            for v, layer in zip(params.config.attn_pattern, params.layers)
        )
    )
