"""Config parsing, validation, and serialization round-trips."""
import configparser
import re
from pathlib import Path

import pytest

from glottisim import (
    ConfigError,
    GlottalCircuit,
    RunConfig,
    parse_config,
    serialize_config,
    validate_config,
)

FULL_DOC = """\
[pressure]
cmh2o = 8.5

[oscillator.lower]
period_s = 0.01
pulse_duration_s = 0.007
rise_fraction = 0.8
peak_current = 2.0
phase_lag_s = 0.0

[oscillator.upper]
period_s = 0.01
pulse_duration_s = 0.007
rise_fraction = 0.8
peak_current = 2.0
phase_lag_s = 0.0012

[elements]
lower_linear_gain = 1.5
lower_compressive_gain = 0.5
upper_linear_gain = 2.0
upper_expansive_gain = 0.25

[output]
duration_s = 0.25
sample_rate_hz = 22050
dir = results/run1
wav = true
"""

DEFAULT_TEXT = """\
[pressure]
cmh2o = 10.0

[oscillator.lower]
period_s = 0.008
pulse_duration_s = 0.008
rise_fraction = 0.9
peak_current = 1.0
phase_lag_s = 0.0

[oscillator.upper]
period_s = 0.008
pulse_duration_s = 0.008
rise_fraction = 0.9
peak_current = 1.0
phase_lag_s = 0.001

[elements]
lower_linear_gain = 1.0
lower_compressive_gain = 1.0
upper_linear_gain = 1.0
upper_expansive_gain = 1.0

[output]
duration_s = 1.0
sample_rate_hz = 44100
dir = out
wav = false
"""


def test_empty_document_means_defaults():
    assert parse_config("") == RunConfig()


def test_defaults():
    cfg = RunConfig()
    assert cfg.pressure_cmh2o == 10.0
    assert cfg.duration_s == 1.0
    assert cfg.sample_rate_hz == 44100
    assert cfg.lower_oscillator.phase_lag_s == 0.0
    assert cfg.upper_oscillator.phase_lag_s == 0.001
    assert cfg.write_wav is False


def test_full_document():
    cfg = parse_config(FULL_DOC)
    assert cfg.pressure_cmh2o == 8.5
    assert cfg.lower_oscillator.period_s == 0.01
    assert cfg.upper_oscillator.phase_lag_s == 0.0012
    assert cfg.lower_compressive_gain == 0.5
    assert cfg.upper_expansive_gain == 0.25
    assert cfg.duration_s == 0.25
    assert cfg.sample_rate_hz == 22050
    assert cfg.out_dir == "results/run1"
    assert cfg.write_wav is True


def test_partial_document_keeps_other_defaults():
    cfg = parse_config("[pressure]\ncmh2o = 7.5\n")
    assert cfg.pressure_cmh2o == 7.5
    assert cfg.duration_s == 1.0
    assert cfg.upper_oscillator.phase_lag_s == 0.001


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("# top note\n[pressure]\n; inline section note\ncmh2o = 9\n\n")
    assert cfg.pressure_cmh2o == 9.0


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError, match=r"unknown section \[turbulence\]"):
        parse_config("[turbulence]\nlevel = 3\n")


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key pressure.psi"):
        parse_config("[pressure]\npsi = 2\n")


def test_malformed_number_names_the_key():
    with pytest.raises(ConfigError, match="pressure.cmh2o"):
        parse_config("[pressure]\ncmh2o = loud\n")
    with pytest.raises(ConfigError, match="output.sample_rate_hz"):
        parse_config("[output]\nsample_rate_hz = 44100.5\n")
    with pytest.raises(ConfigError, match="output.wav"):
        parse_config("[output]\nwav = maybe\n")


def test_malformed_syntax_is_a_config_error():
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config("pressure without a section\n")


def test_pressure_below_onset_is_rejected():
    with pytest.raises(ConfigError, match="pressure.cmh2o"):
        parse_config("[pressure]\ncmh2o = 5.0\n")


def test_oscillator_bounds_name_the_section():
    with pytest.raises(ConfigError, match="oscillator.lower"):
        parse_config("[oscillator.lower]\nrise_fraction = 0.4\n")
    with pytest.raises(ConfigError, match="oscillator.upper"):
        parse_config("[oscillator.upper]\npulse_duration_s = 0.02\n")


def test_output_bounds():
    with pytest.raises(ConfigError, match="output.duration_s"):
        parse_config("[output]\nduration_s = 0\n")
    with pytest.raises(ConfigError, match="output.sample_rate_hz"):
        parse_config("[output]\nsample_rate_hz = 4000\n")
    # two samples at 44.1 kHz; the CLI's flow derivative needs three
    with pytest.raises(ConfigError, match="output.duration_s"):
        parse_config("[output]\nduration_s = 4.5e-5\n")


def test_gain_bounds():
    with pytest.raises(ConfigError, match="elements.lower_linear_gain"):
        validate_config(RunConfig(lower_linear_gain=-1.0))
    # zero gain is a valid (silent) circuit
    validate_config(RunConfig(upper_expansive_gain=0.0))


def test_serialize_parse_round_trip_defaults():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_parse_round_trip_full():
    cfg = parse_config(FULL_DOC)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialized_text_is_pinned():
    assert serialize_config(RunConfig()) == DEFAULT_TEXT
    assert serialize_config(parse_config(FULL_DOC)) == FULL_DOC


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(block) == RunConfig()

    def layout(text):
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(text)
        return {section: list(cp[section]) for section in cp.sections()}

    assert layout(block) == layout(serialize_config(RunConfig()))


def test_serialize_parse_round_trip_awkward_floats():
    cfg = RunConfig(pressure_cmh2o=0.1 + 0.2 + 7.0, duration_s=1.0 / 3.0)
    assert parse_config(serialize_config(cfg)) == cfg


def test_build_circuit_wires_everything_through():
    cfg = parse_config(FULL_DOC)
    circuit = cfg.build_circuit()
    assert circuit.drive.value == pytest.approx((8.5 - 5.94) / 1.27, rel=1e-15)
    assert circuit.lower.linear.gain == 1.5
    assert circuit.lower.nonlinear.gain == 0.5
    assert circuit.upper.linear.gain == 2.0
    assert circuit.upper.nonlinear.gain == 0.25
    assert circuit.lower.oscillator == cfg.lower_oscillator
    assert circuit.upper.oscillator == cfg.upper_oscillator
    assert circuit.inter_fold_lag_s == pytest.approx(0.0012)
    assert RunConfig().build_circuit() == GlottalCircuit.normal_voice()
