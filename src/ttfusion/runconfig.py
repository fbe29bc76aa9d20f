"""Flat key=value experiment configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected.  A run reads frames either from a directory (``frames_dir``) or
from a synthetic recipe (``synth_frames`` plus the ``synth_*`` knobs);
exactly one of the two must be present, and the other ``synth_*`` keys need
``synth_frames``.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

from .fusion import FusionConfig, check_field_types
from .synthetic import SynthSpec
from .toy_encoder import EncoderSpec

ATTENTION_SOURCE_TOY = "toy"
ATTENTION_SOURCE_TENSOR_FILES = "tensor_files"
ATTENTION_SOURCES = (ATTENTION_SOURCE_TOY, ATTENTION_SOURCE_TENSOR_FILES)


class ConfigError(ValueError):
    """Invalid configuration file or parameter value."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ConfigError(f"expected true/false, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected integer, got {raw!r}") from exc


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected number, got {raw!r}") from exc
    # float() also reads nan and inf; NaN compares false with every bound,
    # so the range checks downstream would let it through.
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


# A config key's parser, by the annotation of the field the key sets; an
# optional field's key parses as the type.
_TYPE_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool, "str": str}


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment configuration: each config key is the field of
    the same name here or on ``fusion``.  ``synth`` and ``encoder_spec`` are
    built from these fields, once here so that a bad value fails at load."""

    fusion: FusionConfig = FusionConfig()
    frames_dir: str | None = None
    synth_frames: int | None = None
    synth_change_fraction: float = SynthSpec.change_fraction
    synth_walker: bool = SynthSpec.walker
    synth_noise: float = SynthSpec.noise_amplitude
    seed: int = 0
    output_dir: str = "out"
    attention_source: str = ATTENTION_SOURCE_TOY
    attention_dir: str | None = None
    emit_masks: bool = False
    emit_tokens: bool = False
    token_dim: int = EncoderSpec.token_dim
    text_tokens: int = EncoderSpec.text_token_count
    heads: int = EncoderSpec.head_count

    def __post_init__(self) -> None:
        check_field_types(self)
        if (self.frames_dir is None) == (self.synth_frames is None):
            raise ConfigError("exactly one of frames_dir / synth_frames must be set")
        if self.synth_frames is None:
            # The echo says null for these, so each must hold its default.
            stray = [f.name for f in fields(self)
                     if f.name in _SYNTH_KEYS and getattr(self, f.name) != f.default]
            if stray:
                raise ConfigError(f"{', '.join(stray)} set without synth_frames")
        if self.attention_source not in ATTENTION_SOURCES:
            raise ConfigError(f"unknown attention source {self.attention_source!r}")
        if self.attention_source == ATTENTION_SOURCE_TENSOR_FILES and not self.attention_dir:
            raise ConfigError("attention_source = tensor_files requires attention_dir")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must fit in 64 bits")
        try:
            self.synth, self.encoder_spec
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def synth(self) -> SynthSpec | None:
        """The synthetic episode of the ``synth_*`` keys at the run's frame
        size and seed, or None for a run that reads ``frames_dir``."""
        if self.synth_frames is None:
            return None
        return SynthSpec(
            frame_count=self.synth_frames, width=self.fusion.width, height=self.fusion.height,
            change_fraction=self.synth_change_fraction, walker=self.synth_walker,
            noise_amplitude=self.synth_noise, seed=self.seed,
        )

    @property
    def encoder_spec(self) -> EncoderSpec:
        return EncoderSpec(token_dim=self.token_dim, seed=self.seed,
                           text_token_count=self.text_tokens, head_count=self.heads)


_RUN_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "fusion")
_SYNTH_KEYS = tuple(key for key in _RUN_KEYS if key.startswith("synth_"))
_FUSION_KEYS = tuple(f.name for f in fields(FusionConfig))
_PARSERS = {f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")]
            for f in fields(RunConfig) + fields(FusionConfig) if f.name != "fusion"}


def parse_config_text(text: str) -> dict:
    """Parse config text into a raw key/value dict (typed values)."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    return values


def build_run_config(values: dict) -> RunConfig:
    """Resolve raw values into a validated RunConfig.

    Only the keys present in ``values`` are passed on, so every absent key
    takes its dataclass field default.
    """
    unknown = set(values) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    if "synth_frames" not in values:
        stray = [k for k in _SYNTH_KEYS if k in values]
        if stray:
            raise ConfigError(f"{', '.join(stray)} set without synth_frames")
    try:
        fusion = FusionConfig(**{k: values[k] for k in _FUSION_KEYS if k in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(fusion=fusion, **{k: values[k] for k in _RUN_KEYS if k in values})


def load_config_file(path: str | os.PathLike) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return build_run_config(parse_config_text(fh.read()))


# Sweep parameter -> the config key it sets.
SWEEP_PARAMETERS = {"K": "keyframe_interval", "tau_pixel": "pixel_threshold", "k": "top_k"}


def _sweep_key(name: str) -> str:
    if name not in SWEEP_PARAMETERS:
        expected = ", ".join(SWEEP_PARAMETERS)
        raise ConfigError(f"unknown sweep parameter {name!r} (expected one of {expected})")
    return SWEEP_PARAMETERS[name]


def apply_parameter(config: RunConfig, name: str, value) -> FusionConfig:
    """The config's fusion knobs with one sweepable parameter replaced."""
    key = _sweep_key(name)
    try:
        return replace(config.fusion, **{key: value})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_sweep_values(name: str, raw_values: str) -> list:
    """Parse a comma-separated sweep value list for the given parameter.

    Every value must be distinct once parsed (``3`` and ``03`` are one
    value): each names its own output directory and summary row.
    """
    parser = _PARSERS[_sweep_key(name)]
    parts = [part.strip() for part in raw_values.split(",") if part.strip()]
    if not parts:
        raise ConfigError("sweep values list is empty")
    values = []
    for part in parts:
        value = parser(part)
        if value in values:
            raise ConfigError(f"sweep value {value!r} is listed twice")
        values.append(value)
    return values


def config_echo(config: RunConfig) -> dict:
    """JSON-ready echo of the experiment-defining settings: every config key
    but ``output_dir``, which does not influence results; leaving it out
    keeps reports byte-comparable across runs written to different places.
    The ``synth_*`` keys echo None for a run that reads frames from disk.
    """
    echo = {k: getattr(config, k) for k in _RUN_KEYS if k != "output_dir"}
    if config.synth_frames is None:
        echo.update(dict.fromkeys(_SYNTH_KEYS))
    echo.update(asdict(config.fusion))
    return echo
