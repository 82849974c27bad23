"""Waveform CSV, WAV, and report serialization."""
import numpy as np
import pytest

from glottisim import (
    GlottalWaveform,
    ModelDomainError,
    analyze,
    derivative,
    export_csv,
    export_wav,
    format_report,
    read_waveform_csv,
)
from glottisim.exporters import format_number
import oracles


def small_waveform():
    u = np.array([0.0, 0.2, 0.7, 1.0, 0.4, 0.0, 0.0, 0.3, 0.9, 0.1])
    ones = np.ones_like(u)
    return GlottalWaveform(10000, u, ones, ones)


# -- number formatting -------------------------------------------------------


def test_format_number_zero_is_fixed_form():
    assert format_number(0.0) == "0.000000000"
    assert format_number(-0.0) == "0.000000000"


def test_format_number_nine_significant_digits():
    assert format_number(1.0) == "1"
    assert format_number(0.125) == "0.125"
    assert format_number(1.0 / 3.0) == "0.333333333"
    assert format_number(123456789.0) == "123456789"
    assert format_number(-2.5e-7) == "-2.5e-07"


@pytest.mark.parametrize("x", [1e-30, 3.197, 44100.0, 1.0 / 44100.0, -17.25])
def test_format_number_parses_back_within_nine_digits(x):
    assert float(format_number(x)) == pytest.approx(x, rel=5e-9)


# -- CSV ---------------------------------------------------------------------


def test_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "w.csv"
    w = small_waveform()
    export_csv(w, derivative(w), path)
    raw = path.read_bytes()
    assert b"\r" not in raw  # bare LF rows
    lines = raw.decode("ascii").split("\n")
    assert lines[0] == "time_s,u_gl,du_gl_dt,g_lower,g_upper"
    assert len(lines) == len(w) + 2  # header + rows + trailing newline
    assert lines[-1] == ""
    assert lines[1].startswith("0.000000000,0.000000000,")


def test_csv_round_trip_small(tmp_path):
    path = tmp_path / "w.csv"
    w = small_waveform()
    d = derivative(w)
    export_csv(w, d, path)
    back, d_back = read_waveform_csv(path)
    assert back.sample_rate_hz == w.sample_rate_hz
    assert back.u_gl == pytest.approx(w.u_gl, rel=5e-9, abs=1e-30)
    assert d_back == pytest.approx(d, rel=5e-9, abs=1e-30)
    assert np.all(back.u_gl[w.u_gl == 0.0] == 0.0)  # exact zeros survive


def test_csv_round_trip_simulation(tmp_path, loud_waveform):
    path = tmp_path / "loud.csv"
    export_csv(loud_waveform, derivative(loud_waveform), path)
    back, _ = read_waveform_csv(path)
    assert back.sample_rate_hz == 44100
    nz = loud_waveform.u_gl != 0.0
    rel = np.abs(back.u_gl[nz] - loud_waveform.u_gl[nz]) / loud_waveform.u_gl[nz]
    assert rel.max() <= 5e-9
    assert np.array_equal(back.u_gl == 0.0, loud_waveform.u_gl == 0.0)
    # a late start leaves too few digits for the first step to give the rate
    w = loud_waveform
    late = GlottalWaveform(44100, w.u_gl, w.g_lower, w.g_upper, t0=1000.0)
    export_csv(late, derivative(late), path)
    back, _ = read_waveform_csv(path)
    assert back.sample_rate_hz == 44100
    assert back.t0 == 1000.0


def test_csv_is_deterministic(tmp_path):
    w = small_waveform()
    d = derivative(w)
    export_csv(w, d, tmp_path / "a.csv")
    export_csv(w, d, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_rejects_mismatched_derivative(tmp_path):
    w = small_waveform()
    with pytest.raises(ModelDomainError):
        export_csv(w, np.zeros(3), tmp_path / "w.csv")


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,flow\n0,0\n1,0\n")
    with pytest.raises(ModelDomainError, match="header"):
        read_waveform_csv(path)


def test_read_rejects_malformed_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,u_gl,du_gl_dt,g_lower,g_upper\n"
                    "0,0,0,1,1\nnope,0,0,1,1\n")
    with pytest.raises(ModelDomainError):
        read_waveform_csv(path)
    path.write_text("time_s,u_gl,du_gl_dt,g_lower,g_upper\n"
                    "0,0,0,1,1\n0,0,0,1,1\n")
    with pytest.raises(ModelDomainError):  # no time span to give a rate
        read_waveform_csv(path)


# -- WAV ---------------------------------------------------------------------


def test_wav_header_and_scaling(tmp_path, loud_waveform):
    path = tmp_path / "w.wav"
    export_wav(loud_waveform, path)
    info = oracles.parse_riff_wav(path)
    assert info["format_tag"] == 1  # integer PCM
    assert info["channels"] == 1
    assert info["sample_rate"] == 44100
    assert info["bits_per_sample"] == 16
    assert info["block_align"] == 2
    assert info["byte_rate"] == 44100 * 2
    assert info["data_bytes"] == 2 * len(loud_waveform)
    samples = info["samples"]
    assert samples.max() == round(0.9 * 32767)  # peak pinned to 90% full scale
    assert samples.min() == 0  # unipolar flow stays non-negative


def test_wav_tracks_the_flow_shape(tmp_path, loud_waveform):
    path = tmp_path / "w.wav"
    export_wav(loud_waveform, path)
    samples = oracles.parse_riff_wav(path)["samples"].astype(float)
    peak = float(loud_waveform.u_gl.max())
    ideal = loud_waveform.u_gl / peak * (0.9 * 32767)
    # quantization only: every sample within half an integer step
    assert np.abs(samples - ideal).max() <= 0.5 + 1e-6


def test_wav_of_silence_is_all_zero(tmp_path):
    path = tmp_path / "z.wav"
    export_wav(np.zeros(64), path, sample_rate_hz=8000)
    samples = oracles.parse_riff_wav(path)["samples"]
    assert np.all(samples == 0)


def test_wav_is_deterministic(tmp_path, loud_waveform):
    export_wav(loud_waveform, tmp_path / "a.wav")
    export_wav(loud_waveform, tmp_path / "b.wav")
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_wav_input_validation(tmp_path):
    with pytest.raises(ModelDomainError):
        export_wav(np.zeros(8), tmp_path / "w.wav")  # raw array needs a rate
    with pytest.raises(ModelDomainError):
        export_wav(np.zeros(8), tmp_path / "w.wav", sample_rate_hz=4000)
    with pytest.raises(ModelDomainError):
        export_wav(np.zeros(0), tmp_path / "w.wav", sample_rate_hz=44100)
    with pytest.raises(ModelDomainError):
        export_wav(np.array([np.nan]), tmp_path / "w.wav", sample_rate_hz=44100)


# -- report ------------------------------------------------------------------


def test_report_mentions_every_metric(loud_waveform):
    text = format_report(analyze(loud_waveform))
    for token in ("pulse_count: 125", "f0_hz: 124.929", "open_phase_count: 25",
                  "max_negative_derivative", "closed_phase_flatness"):
        assert token in text


def test_report_shows_na_without_pulses():
    u = np.zeros(16)
    ones = np.ones_like(u)
    rep = analyze(GlottalWaveform(44100, u, ones, ones))
    assert "f0_hz: n/a" in format_report(rep)
