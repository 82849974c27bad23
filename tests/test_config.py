"""Config parsing, validation, and serialization round-trips."""
import configparser
import math
import re
from pathlib import Path

import pytest

from glottisim import (
    ConfigError,
    GlottalCircuit,
    ModelDomainError,
    OscillatorConfig,
    RunConfig,
    parse_config,
    serialize_config,
    simulate_many,
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
    # the sample count overflows the float range
    with pytest.raises(ConfigError, match="output.duration_s"):
        parse_config("[output]\nduration_s = 1e305\n")
    # an integer rate beyond the float range
    with pytest.raises(ConfigError, match="output.sample_rate_hz"):
        parse_config("[output]\nsample_rate_hz = 1" + "0" * 400 + "\n")
    with pytest.raises(ConfigError, match="output.sample_rate_hz"):
        validate_config(RunConfig(sample_rate_hz=10 ** 400))
    # a second at 1e20 Hz is more samples than an array can hold
    with pytest.raises(ConfigError, match="output.duration_s"):
        parse_config("[output]\nsample_rate_hz = 1" + "0" * 20 + "\n")
    # the model would take a whole float rate; the config wants an int
    with pytest.raises(ConfigError, match="output.sample_rate_hz"):
        validate_config(RunConfig(sample_rate_hz=1e20))


@pytest.mark.parametrize("rate", [7999, 8000, 44100, 10 ** 20, 10 ** 400,
                                  math.inf, math.nan],
                         ids=["7999", "8000", "44100", "1e20", "1e400",
                              "inf", "nan"])
@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf, 1e-6,
                                      4.5e-5, 1.0, 1e305])
def test_config_and_model_agree_on_the_grid(duration, rate):
    # validate_config rejects a grid exactly when the model does, apart from
    # its own two rules: an int rate and the derivative's three samples.
    # No circuits: the model checks the grid without forming a sample.
    try:
        list(simulate_many((), duration, rate))
        model_ok = True
    except ModelDomainError:
        model_ok = False
    config_only = not isinstance(rate, int) or (
        model_ok and round(duration * rate) < 3)
    cfg = RunConfig(duration_s=duration, sample_rate_hz=rate)
    if model_ok and not config_only:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError,
                           match=r"^output\.(duration_s|sample_rate_hz): "):
            validate_config(cfg)


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
    # the normal voice, spelled out: 125 Hz pulses rising over 90 %, a 1 ms
    # upper-fold lag and unit gains, at the drive of 10 cmH2O
    nv = GlottalCircuit.normal_voice()
    pulse = dict(period_s=0.008, pulse_duration_s=0.008, rise_fraction=0.9,
                 peak_current=1.0)
    assert nv.lower.oscillator == OscillatorConfig(**pulse, phase_lag_s=0.0)
    assert nv.upper.oscillator == OscillatorConfig(**pulse, phase_lag_s=0.001)
    assert [e.gain for e in (nv.lower.linear, nv.lower.nonlinear,
                             nv.upper.linear, nv.upper.nonlinear)] == [1.0] * 4
    assert nv.drive.value == pytest.approx((10.0 - 5.94) / 1.27, rel=1e-15)
