"""Run configuration: sectioned key-value files, defaults, serialization.

A run is described by an INI-style document with five sections --
[pressure], [oscillator.lower], [oscillator.upper], [elements], [output] --
all optional; an empty document means the normal-voice defaults.  Unknown
sections or keys, malformed numbers, and invariant violations raise
ConfigError naming the offending section.key and the constraint.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

from .analysis import MIN_DERIVATIVE_SAMPLES
from .elements import ElementKind, ResistorElement
from .errors import ConfigError, ModelDomainError
from .exporters import _check_wav_rate
from .network import (DEFAULT_SAMPLE_RATE_HZ, FoldStage, GlottalCircuit,
                      _check_flow_range, _check_grid, _check_rate)
from .oscillator import DEFAULT_FOLD_LAG_S, OscillatorConfig
from .pressure import DcVoltage, PressureCmH2O, pressure_to_voltage

# The element gains in circuit order, each with the law of its element.
_GAIN_KEYS = {"lower_linear_gain": ElementKind.LINEAR,
              "lower_compressive_gain": ElementKind.COMPRESSIVE,
              "upper_linear_gain": ElementKind.LINEAR,
              "upper_expansive_gain": ElementKind.EXPANSIVE}
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
        """Linear + compressive lower fold and linear + expansive upper fold
        in series across the drive of the lung pressure."""
        ll, lc, ul, ue = (ResistorElement(kind, getattr(self, key))
                          for key, kind in _GAIN_KEYS.items())
        return GlottalCircuit(
            lower=FoldStage(ll, lc, self.lower_oscillator),
            upper=FoldStage(ul, ue, self.upper_oscillator),
            drive=pressure_to_voltage(PressureCmH2O(self.pressure_cmh2o)))


def _holder(cfg: RunConfig, osc: str | None):
    """The object that holds the fields of a section with this oscillator."""
    return cfg if osc is None else getattr(cfg, osc)


@contextmanager
def _named(label: str):
    """Re-raise a ModelDomainError of the block as a ConfigError on label."""
    try:
        yield
    except ModelDomainError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _convert(kind: type, raw: str, label: str, booleans: dict[str, bool]):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is bool:
        try:
            return booleans[raw.lower()]
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
    # imported here: a run without a config file does not need it
    import configparser

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
            values[osc][fields[key]] = _convert(
                type(default), raw, f"{section}.{key}", cp.BOOLEAN_STATES)

    kwargs = values[None]
    for section, (osc, _) in _SECTIONS.items():
        if osc is None:
            continue
        with _named(section):
            kwargs[osc] = replace(getattr(defaults, osc), **values[osc])
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Run the model's own bound checks on cfg, each under its section.key,
    raising ConfigError.  Only two rules are the config's: the sample rate
    is an int, and the record spans the samples a flow derivative needs.
    With write_wav set, the rate must also fit a WAV header."""
    with _named("pressure.cmh2o"):
        pressure_to_voltage(PressureCmH2O(cfg.pressure_cmh2o))
    if not isinstance(cfg.sample_rate_hz, int):
        raise ConfigError(f"output.sample_rate_hz: must be an integer, "
                          f"got {cfg.sample_rate_hz!r}")
    with _named("output.sample_rate_hz"):
        _check_rate(cfg.sample_rate_hz)
        if cfg.write_wav:
            _check_wav_rate(cfg.sample_rate_hz)
    with _named("output.duration_s"):
        n, rate = _check_grid(cfg.duration_s, cfg.sample_rate_hz)
    if n < MIN_DERIVATIVE_SAMPLES:
        raise ConfigError(
            f"output.duration_s: must span the {MIN_DERIVATIVE_SAMPLES} "
            f"samples a flow derivative needs, got {cfg.duration_s!r} s at "
            f"{rate} Hz")
    for key, kind in _GAIN_KEYS.items():
        with _named(f"elements.{key}"):
            ResistorElement(kind, getattr(cfg, key))
    check_drive(cfg.build_circuit(), cfg.pressure_cmh2o, rate)


def check_drive(circuit: GlottalCircuit, pressure_cmh2o: float,
                sample_rate_hz: int) -> DcVoltage:
    """The drive of pressure_cmh2o, after the two checks of validate_config
    that depend on the pressure: the pressure itself, and the flow of
    circuit at full bias at that drive, against the float range over
    sample_rate_hz.  A sweep runs validate_config once and this at every
    point."""
    with _named("pressure.cmh2o"):
        drive = pressure_to_voltage(PressureCmH2O(pressure_cmh2o))
    with _named(f"elements: at pressure.cmh2o = {pressure_cmh2o!r}"):
        _check_flow_range(replace(circuit, drive=drive), sample_rate_hz)
    return drive


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
