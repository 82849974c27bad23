"""Run configuration: sectioned key-value files, defaults, serialization.

A run is described by an INI-style document with five sections --
[pressure], [oscillator.lower], [oscillator.upper], [elements], [output] --
all optional; an empty document means the normal-voice defaults.  Unknown
sections or keys, malformed numbers, and invariant violations raise
ConfigError naming the offending section.key and the constraint.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ModelDomainError
from .network import (DEFAULT_SAMPLE_RATE_HZ, GlottalCircuit,
                      MIN_SAMPLE_RATE_HZ, _two_fold_circuit)
from .oscillator import DEFAULT_FOLD_LAG_S, OscillatorConfig
from .pressure import PressureCmH2O, pressure_to_voltage

_GAIN_KEYS = ("lower_linear_gain", "lower_compressive_gain",
              "upper_linear_gain", "upper_expansive_gain")
_OSC_KEYS = {k: k for k in ("period_s", "pulse_duration_s", "rise_fraction",
                            "peak_current", "phase_lag_s")}

# The config format: section -> (oscillator, {key: field}), in document order.
# A section whose oscillator is None sets RunConfig fields; an
# [oscillator.*] section sets the fields of that RunConfig oscillator.  A
# value takes the type of its field's default.
_SECTIONS: dict[str, tuple[str | None, dict[str, str]]] = {
    "pressure": (None, {"cmh2o": "pressure_cmh2o"}),
    "oscillator.lower": ("lower_oscillator", _OSC_KEYS),
    "oscillator.upper": ("upper_oscillator", _OSC_KEYS),
    "elements": (None, {k: k for k in _GAIN_KEYS}),
    "output": (None, {"duration_s": "duration_s",
                      "sample_rate_hz": "sample_rate_hz",
                      "dir": "out_dir", "wav": "write_wav"}),
}


@dataclass(frozen=True)
class RunConfig:
    """One simulation run.  Use parse_config/validate_config to enforce bounds."""

    pressure_cmh2o: float = 10.0
    duration_s: float = 1.0
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
    lower_oscillator: OscillatorConfig = OscillatorConfig()
    upper_oscillator: OscillatorConfig = OscillatorConfig(
        phase_lag_s=DEFAULT_FOLD_LAG_S)
    lower_linear_gain: float = 1.0
    lower_compressive_gain: float = 1.0
    upper_linear_gain: float = 1.0
    upper_expansive_gain: float = 1.0
    out_dir: str = "out"
    write_wav: bool = False

    def build_circuit(self) -> GlottalCircuit:
        return _two_fold_circuit(
            self.pressure_cmh2o, self.lower_oscillator, self.upper_oscillator,
            *(getattr(self, key) for key in _GAIN_KEYS))


def _holder(cfg: RunConfig, osc: str | None):
    """The object that holds the fields of a section with this oscillator."""
    return cfg if osc is None else getattr(cfg, osc)


def _convert(kind: type, raw: str, label: str):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise ConfigError(
                f"{label}: expected true/false, got {raw!r}") from None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{label}: not a valid {kind.__name__}: {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key-value document into a validated RunConfig."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#", ";"), strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    defaults = RunConfig()
    values: dict[str | None, dict] = {osc: {} for osc, _ in _SECTIONS.values()}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        osc, fields = _SECTIONS[section]
        for key, raw in cp.items(section):
            if key not in fields:
                raise ConfigError(f"unknown key {section}.{key}")
            default = getattr(_holder(defaults, osc), fields[key])
            values[osc][fields[key]] = _convert(type(default), raw,
                                                f"{section}.{key}")

    kwargs = values[None]
    for section, (osc, _) in _SECTIONS.items():
        if osc is None:
            continue
        try:
            kwargs[osc] = replace(getattr(defaults, osc), **values[osc])
        except ModelDomainError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Check cross-field bounds; raises ConfigError naming section.key."""
    try:
        pressure_to_voltage(PressureCmH2O(cfg.pressure_cmh2o))
    except ModelDomainError as exc:
        raise ConfigError(f"pressure.cmh2o: {exc}") from exc
    if not math.isfinite(cfg.duration_s) or cfg.duration_s <= 0.0:
        raise ConfigError(
            f"output.duration_s: must be finite and > 0 seconds, "
            f"got {cfg.duration_s!r}")
    if (not isinstance(cfg.sample_rate_hz, int)
            or cfg.sample_rate_hz < MIN_SAMPLE_RATE_HZ):
        raise ConfigError(
            f"output.sample_rate_hz: must be an integer >= "
            f"{MIN_SAMPLE_RATE_HZ}, got {cfg.sample_rate_hz!r}")
    if round(cfg.duration_s * cfg.sample_rate_hz) < 3:
        raise ConfigError(
            f"output.duration_s: must span the 3 samples a flow derivative "
            f"needs, got {cfg.duration_s!r} s at {cfg.sample_rate_hz} Hz")
    for key in _GAIN_KEYS:
        value = getattr(cfg, key)
        if not math.isfinite(value) or value < 0.0:
            raise ConfigError(
                f"elements.{key}: must be finite and >= 0, got {value!r}")


def serialize_config(cfg: RunConfig) -> str:
    """Render cfg back to config text; parse_config(result) equals cfg."""
    blocks = []
    for section, (osc, fields) in _SECTIONS.items():
        lines = [f"[{section}]"]
        for key, field in fields.items():
            value = getattr(_holder(cfg, osc), field)
            text = str(value).lower() if isinstance(value, bool) else str(value)
            lines.append(f"{key} = {text}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
