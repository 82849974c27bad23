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
from dataclasses import dataclass

from .errors import ConfigError, ModelDomainError
from .network import (DEFAULT_SAMPLE_RATE_HZ, GlottalCircuit,
                      MIN_SAMPLE_RATE_HZ, _two_fold_circuit)
from .oscillator import DEFAULT_FOLD_LAG_S, OscillatorConfig
from .pressure import PressureCmH2O, pressure_to_voltage

_GAIN_KEYS = ("lower_linear_gain", "lower_compressive_gain",
              "upper_linear_gain", "upper_expansive_gain")
_OSC_KEYS = ("period_s", "pulse_duration_s", "rise_fraction",
             "peak_current", "phase_lag_s")

_SCHEMA: dict[str, dict[str, type]] = {
    "pressure": {"cmh2o": float},
    "oscillator.lower": {k: float for k in _OSC_KEYS},
    "oscillator.upper": {k: float for k in _OSC_KEYS},
    "elements": {k: float for k in _GAIN_KEYS},
    "output": {"duration_s": float, "sample_rate_hz": int,
               "dir": str, "wav": bool},
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


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


def _convert(kind: type, raw: str, label: str):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is bool:
        try:
            return _BOOL_WORDS[raw.lower()]
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

    values: dict[tuple[str, str], object] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values[(section, key)] = _convert(_SCHEMA[section][key], raw,
                                              f"{section}.{key}")

    defaults = RunConfig()

    def get(section: str, key: str, fallback):
        return values.get((section, key), fallback)

    def build_osc(section: str, base: OscillatorConfig) -> OscillatorConfig:
        kwargs = {k: get(section, k, getattr(base, k)) for k in _OSC_KEYS}
        try:
            return OscillatorConfig(**kwargs)
        except ModelDomainError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    cfg = RunConfig(
        pressure_cmh2o=get("pressure", "cmh2o", defaults.pressure_cmh2o),
        duration_s=get("output", "duration_s", defaults.duration_s),
        sample_rate_hz=get("output", "sample_rate_hz", defaults.sample_rate_hz),
        lower_oscillator=build_osc("oscillator.lower", defaults.lower_oscillator),
        upper_oscillator=build_osc("oscillator.upper", defaults.upper_oscillator),
        lower_linear_gain=get("elements", "lower_linear_gain", 1.0),
        lower_compressive_gain=get("elements", "lower_compressive_gain", 1.0),
        upper_linear_gain=get("elements", "upper_linear_gain", 1.0),
        upper_expansive_gain=get("elements", "upper_expansive_gain", 1.0),
        out_dir=get("output", "dir", defaults.out_dir),
        write_wav=get("output", "wav", defaults.write_wav))
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
    for key in _GAIN_KEYS:
        value = getattr(cfg, key)
        if not math.isfinite(value) or value < 0.0:
            raise ConfigError(
                f"elements.{key}: must be finite and >= 0, got {value!r}")


def serialize_config(cfg: RunConfig) -> str:
    """Render cfg back to config text; parse_config(result) equals cfg."""
    def osc_lines(section: str, osc: OscillatorConfig) -> list[str]:
        out = [f"[{section}]"]
        out += [f"{k} = {getattr(osc, k)!r}" for k in _OSC_KEYS]
        return out

    lines = ["[pressure]", f"cmh2o = {cfg.pressure_cmh2o!r}", ""]
    lines += osc_lines("oscillator.lower", cfg.lower_oscillator) + [""]
    lines += osc_lines("oscillator.upper", cfg.upper_oscillator) + [""]
    lines += ["[elements]"]
    lines += [f"{k} = {getattr(cfg, k)!r}" for k in _GAIN_KEYS]
    lines += ["", "[output]",
              f"duration_s = {cfg.duration_s!r}",
              f"sample_rate_hz = {cfg.sample_rate_hz!r}",
              f"dir = {cfg.out_dir}",
              f"wav = {'true' if cfg.write_wav else 'false'}"]
    return "\n".join(lines) + "\n"
