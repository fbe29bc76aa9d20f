"""Flat key=value experiment configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected.  A run reads frames either from a directory (``frames_dir``) or
from a synthetic recipe (``synth_frames`` plus the ``synth_*`` knobs);
exactly one of the two must be present.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

from .fusion import FusionConfig
from .synthetic import SynthSpec

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


# A config key's parser, by the annotation of the field the key sets.
_TYPE_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": str,
    "str | None": str,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment configuration.

    The field defaults here and on ``FusionConfig`` and ``SynthSpec`` are
    the defaults of the config file keys.
    """

    fusion: FusionConfig = FusionConfig()
    frames_dir: str | None = None
    synth: SynthSpec | None = None
    seed: int = 0
    output_dir: str = "out"
    attention_source: str = ATTENTION_SOURCE_TOY
    attention_dir: str | None = None
    emit_masks: bool = False
    emit_tokens: bool = False
    text_tokens: int = 8
    heads: int = 4

    def __post_init__(self) -> None:
        if (self.frames_dir is None) == (self.synth is None):
            raise ConfigError("exactly one of frames_dir / synth_frames must be set")
        if self.attention_source not in ATTENTION_SOURCES:
            raise ConfigError(f"unknown attention source {self.attention_source!r}")
        if self.attention_source == ATTENTION_SOURCE_TENSOR_FILES and not self.attention_dir:
            raise ConfigError("attention_source = tensor_files requires attention_dir")
        if self.seed < 0 or self.seed >= (1 << 64):
            raise ConfigError("seed must fit in 64 bits")


# Config keys that are SynthSpec fields under another name.  Every other
# key is a RunConfig field (but the nested fusion and synth) or a
# FusionConfig field of the same name, and each key takes its field's type.
_SYNTH_FIELDS = {
    "synth_frames": "frame_count",
    "synth_change_fraction": "change_fraction",
    "synth_walker": "walker",
    "synth_noise": "noise_amplitude",
}
_RUN_FIELDS = [f for f in fields(RunConfig) if f.name not in ("fusion", "synth")]
_RUN_KEYS = tuple(f.name for f in _RUN_FIELDS)
_FUSION_KEYS = tuple(f.name for f in fields(FusionConfig))
_SYNTH_TYPES = {f.name: f.type for f in fields(SynthSpec)}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in _RUN_FIELDS + list(fields(FusionConfig))}
_PARSERS.update((key, _TYPE_PARSERS[_SYNTH_TYPES[f]]) for key, f in _SYNTH_FIELDS.items())


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
    takes its dataclass field default.  ``SynthSpec`` also gets the run's
    frame size and seed.
    """
    unknown = set(values) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    try:
        fusion = FusionConfig(**{k: values[k] for k in _FUSION_KEYS if k in values})
        synth = None
        if "synth_frames" in values:
            synth = SynthSpec(
                width=fusion.width,
                height=fusion.height,
                seed=values.get("seed", RunConfig.seed),
                **{f: values[k] for k, f in _SYNTH_FIELDS.items() if k in values},
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run = {k: values[k] for k in _RUN_KEYS if k in values}
    return RunConfig(fusion=fusion, synth=synth, **run)


def load_config_file(path: str | os.PathLike) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return build_run_config(parse_config_text(fh.read()))


# Sweep parameter aliases -> the config key they set.
SWEEP_PARAMETERS = {
    "keyframe_interval": "keyframe_interval",
    "K": "keyframe_interval",
    "pixel_threshold": "pixel_threshold",
    "tau_pixel": "pixel_threshold",
    "top_k": "top_k",
    "k": "top_k",
}


def _sweep_key(name: str) -> str:
    if name not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {name!r} (expected one of K, tau_pixel, k)")
    return SWEEP_PARAMETERS[name]


def apply_parameter(config: RunConfig, name: str, value) -> RunConfig:
    """A copy of the config with one sweepable fusion parameter replaced."""
    key = _sweep_key(name)
    try:
        fusion = replace(config.fusion, **{key: value})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(config, fusion=fusion)


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
    synth = config.synth
    echo.update({k: getattr(synth, f) if synth else None for k, f in _SYNTH_FIELDS.items()})
    echo.update(asdict(config.fusion))
    return echo
