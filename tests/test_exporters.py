"""Waveform CSV, WAV, and report serialization."""
import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glottisim import (
    GlottalCircuit,
    GlottalWaveform,
    ModelDomainError,
    analyze,
    derivative,
    export_csv,
    export_wav,
    format_report,
    read_waveform_csv,
    simulate,
)
from glottisim.config import RunConfig
from glottisim.exporters import format_number
from glottisim.oscillator import OscillatorConfig
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


# 999 999 937 Hz is prime, so its times are not short decimals.  At it,
# at 51 356 436 407 Hz and after a late start, the rounding of the span's
# two cells leaves the recovered rate off by more than half a hertz, and
# at 51 356 436 407 Hz the times fail a check that does not allow for it.
@pytest.mark.parametrize("rate, t0", [
    *itertools.product([8000, 44100, 96000, 10**9, 999_999_937],
                       [0.0, 123.456, -0.0123]),
    (51_356_436_407, 0.0)])
def test_csv_reader_takes_the_times_of_every_export(tmp_path, rate, t0):
    n = 3000
    w = GlottalWaveform(rate, np.zeros(n), np.ones(n), np.ones(n), t0=t0)
    export_csv(w, np.zeros(n), tmp_path / "w.csv")
    back, _ = read_waveform_csv(tmp_path / "w.csv")
    assert back.t0 == float(format_number(t0))
    if t0 == 0.0 and rate <= 96000:
        assert back.sample_rate_hz == rate


@pytest.mark.parametrize("rate", [8000, 44100, 10**9])
def test_csv_reader_rejects_a_time_one_sample_off(tmp_path, rate):
    n = 3000
    w = GlottalWaveform(rate, np.zeros(n), np.ones(n), np.ones(n))
    path = tmp_path / "w.csv"
    export_csv(w, np.zeros(n), path)
    lines = path.read_text().splitlines(keepends=True)
    for k in (1, 1500, n - 2):
        shifted = list(lines)
        shifted[k + 1] = format_number((k + 1) / rate) + lines[k + 1][
            lines[k + 1].index(","):]
        path.write_text("".join(shifted))
        with pytest.raises(ModelDomainError, match=f"on line {k + 2} "):
            read_waveform_csv(path)


def test_csv_is_deterministic(tmp_path):
    w = small_waveform()
    d = derivative(w)
    export_csv(w, d, tmp_path / "a.csv")
    export_csv(w, d, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# cells a random waveform mixes in: zeros of both signs, subnormals, values
# near the ends of the float range, and non-finite derivatives
SPECIAL_CELLS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, 1.0 / 3.0, 1.0, 0.5])
SPECIAL_DERIVATIVES = np.array([np.inf, -np.inf, np.nan])


@st.composite
def csv_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 1023, 1024, 1025, 2049]))
    rate = draw(st.sampled_from([8000, 44100, 48000]))
    t0 = draw(st.sampled_from([0.0, 1000.0]))
    special = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(specials=SPECIAL_CELLS):
        x = 10.0 ** rng.uniform(-323.0, 308.0, n) * rng.choice([-1.0, 1.0], n)
        pick = rng.random(n) < special
        x[pick] = rng.choice(specials, int(pick.sum()))
        return x

    # a trace is >= 0, so its negative cells are mirrored; -0.0 stays
    g_lower, g_upper = (np.where(g < 0.0, -g, g) for g in (column(), column()))
    u = np.where((g_lower != 0.0) & (g_upper != 0.0), np.abs(column()), 0.0)
    d = column(np.concatenate((SPECIAL_CELLS, SPECIAL_DERIVATIVES)))
    return GlottalWaveform(rate, u, g_lower, g_upper, t0=t0), d


@given(csv_cases())
def test_csv_matches_the_cell_by_cell_writer(tmp_path_factory, case):
    w, d = case
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    export_csv(w, d, path)
    assert path.read_bytes() == oracles.csv_text_ref(w, d).encode("ascii")


CSV_CIRCUITS = {
    "default": RunConfig(),
    "loud": RunConfig(pressure_cmh2o=11.337),
    "zero-gain": RunConfig(upper_linear_gain=0.0),
    "2ms-pulses": RunConfig(
        lower_oscillator=OscillatorConfig(pulse_duration_s=0.002),
        upper_oscillator=OscillatorConfig(pulse_duration_s=0.002,
                                          phase_lag_s=0.001)),
}


@pytest.mark.parametrize("t0", [0.0, 1000.0])
@pytest.mark.parametrize("name", list(CSV_CIRCUITS))
def test_csv_of_simulations_matches_the_cell_by_cell_writer(tmp_path, name, t0):
    w = simulate(CSV_CIRCUITS[name].build_circuit(), 0.25, 44100)
    w = GlottalWaveform(44100, w.u_gl, w.g_lower, w.g_upper, t0=t0)
    d = derivative(w)
    export_csv(w, d, tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == (
        oracles.csv_text_ref(w, d).encode("ascii"))


def test_csv_writer_memory_does_not_grow_with_the_record(tmp_path):
    w = simulate(GlottalCircuit.normal_voice(), 10.0, 44100)
    d = derivative(w)
    tracemalloc.start()
    try:
        export_csv(w, d, tmp_path / "w.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole-record writer peaked at 6.8 MiB here; one block is ~0.3 MiB
    assert peak < 2 * 2**20


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


def test_read_rejects_a_header_without_rows_and_warns_nothing(tmp_path):
    # the suite turns warnings into errors, so a leaked loadtxt warning
    # would surface here as a UserWarning instead of ModelDomainError
    path = tmp_path / "empty.csv"
    for text in ("time_s,u_gl,du_gl_dt,g_lower,g_upper\n",
                 "time_s,u_gl,du_gl_dt,g_lower,g_upper\n\n\n"):
        path.write_text(text)
        with pytest.raises(ModelDomainError, match=">= 2 rows"):
            read_waveform_csv(path)


def test_read_rejects_non_ascii(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbftime_s,u_gl,du_gl_dt,g_lower,g_upper\n"
                     b"0,0,0,1,1\n1,0,0,1,1\n")
    with pytest.raises(ModelDomainError, match="not ASCII"):
        read_waveform_csv(path)


def _assert_same_read(a, b):
    (wa, da), (wb, db) = a, b
    assert (wa.sample_rate_hz, wa.t0) == (wb.sample_rate_hz, wb.t0)
    for x, y in ((wa.u_gl, wb.u_gl), (da, db), (wa.g_lower, wb.g_lower),
                 (wa.g_upper, wb.g_upper)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.fixture
def short_csv(tmp_path, loud_waveform):
    """The first 441 samples (10 ms) of the loud run, exported."""
    w = loud_waveform
    n = 441
    short = GlottalWaveform(w.sample_rate_hz, w.u_gl[:n], w.g_lower[:n],
                            w.g_upper[:n])
    path = tmp_path / "short.csv"
    export_csv(short, derivative(short), path)
    return path


def test_read_from_a_pipe_keeps_every_row(short_csv):
    # a pipe cannot be re-opened by name without losing what the header
    # read has buffered, so the reader must parse the handle it opened
    raw = short_csv.read_bytes()
    assert len(raw) < 65536  # the whole file fits in the pipe's buffer
    r, wfd = os.pipe()
    try:
        with os.fdopen(wfd, "wb") as sink:
            sink.write(raw)
        piped = read_waveform_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert len(piped[0]) == 441
    _assert_same_read(piped, read_waveform_csv(short_csv))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_of_a_plain_csv_named_like_a_compressed_file(short_csv, tmp_path,
                                                          suffix):
    # np.loadtxt would decompress a path of these suffixes; the text within
    # must read exactly like the same file named w.csv
    plain, named = tmp_path / "w.csv", tmp_path / f"w.csv{suffix}"
    plain.write_bytes(short_csv.read_bytes())
    named.write_bytes(short_csv.read_bytes())
    _assert_same_read(read_waveform_csv(named), read_waveform_csv(plain))


class _BytesPath:
    def __init__(self, path):
        self.path = os.fsencode(path)

    def __fspath__(self):
        return self.path


@pytest.mark.parametrize("kind", ["descriptor", "bytes", "bytes-pathlike",
                                  "path", "str"])
def test_read_of_every_kind_of_name(short_csv, kind):
    # open() takes each of these; numpy reads any source but a str as an
    # iterable of lines, so only a str name may take the path route
    name = {"descriptor": lambda p: os.open(p, os.O_RDONLY),
            "bytes": os.fsencode, "bytes-pathlike": _BytesPath,
            "path": lambda p: p, "str": str}[kind](short_csv)
    _assert_same_read(read_waveform_csv(name),
                      read_waveform_csv(str(short_csv)))


def test_read_of_crlf_comments_and_blank_lines(short_csv, tmp_path):
    lines = short_csv.read_text().splitlines()
    lines[3:3] = ["# a comment line", ""]
    path = tmp_path / "crlf.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
    _assert_same_read(read_waveform_csv(path), read_waveform_csv(short_csv))


def test_analyze_of_a_read_rejects_a_nan_derivative_cell(short_csv):
    clean = analyze(read_waveform_csv(short_csv)[0])
    lines = short_csv.read_text().splitlines(keepends=True)
    fields = lines[200].split(",")
    fields[2] = "nan"
    lines[200] = ",".join(fields)
    short_csv.write_text("".join(lines))
    w, d = read_waveform_csv(short_csv)
    # the reader takes the NaN that export_csv writes
    assert np.isnan(d[199]) and np.count_nonzero(np.isnan(d)) == 1
    # analyze takes its derivative from u_gl, so the cell never reaches it
    assert repr(analyze(w)) == repr(clean)


def test_read_matches_a_float_per_cell_parse(tmp_path, loud_waveform):
    path = tmp_path / "loud.csv"
    export_csv(loud_waveform, derivative(loud_waveform), path)
    w, d = read_waveform_csv(path)
    ref = np.array(oracles.parse_csv_ref(path))
    assert ref.shape == (44100, 5)
    assert w.t0 == ref[0, 0] and w.sample_rate_hz == 44100
    for got, col in ((w.u_gl, 1), (d, 2), (w.g_lower, 3), (w.g_upper, 4)):
        assert got.tobytes() == ref[:, col].tobytes()


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
    # a zero gain opens the series circuit, so no flow passes
    w = simulate(RunConfig(upper_linear_gain=0.0).build_circuit(), 0.01, 8000)
    path = tmp_path / "z.wav"
    export_wav(w, path)
    info = oracles.parse_riff_wav(path)
    assert info["sample_rate"] == 8000
    assert len(info["samples"]) == 80
    assert np.all(info["samples"] == 0)


def test_wav_is_deterministic(tmp_path, loud_waveform):
    export_wav(loud_waveform, tmp_path / "a.wav")
    export_wav(loud_waveform, tmp_path / "b.wav")
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_wav_bytes_are_what_wave_writes_to_its_path(tmp_path, loud_waveform):
    # export_wav opens the file itself and hands wave the handle; the bytes
    # are those of wave given the path, with the peak at 90% full scale
    import wave

    export_wav(loud_waveform, tmp_path / "a.wav")
    u = loud_waveform.u_gl
    ints = np.rint(u / u.max() * (0.9 * 32767)).astype("<i2")
    with wave.open(str(tmp_path / "b.wav"), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(loud_waveform.sample_rate_hz)
        fh.writeframes(ints.tobytes())
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_wav_input_validation(tmp_path):
    # export_wav takes a GlottalWaveform, whose own checks turn away a rate
    # below the 8 kHz floor, an empty record and a non-finite flow before
    # any WAV file is opened
    path = tmp_path / "w.wav"
    for rate, u in ((4000, np.zeros(8)), (44100, np.zeros(0)),
                    (44100, np.array([np.nan]))):
        ones = np.ones_like(u)
        with pytest.raises(ModelDomainError):
            export_wav(GlottalWaveform(rate, u, ones, ones), path)
        assert not path.exists()


def test_wav_rate_bound_of_the_riff_header(tmp_path):
    # the header keeps the byte rate, 2 * rate, in 32 unsigned bits
    u = np.array([0.0, 0.5, 1.0, 0.25])
    ones = np.ones_like(u)
    path = tmp_path / "w.wav"
    export_wav(GlottalWaveform(2**31 - 1, u, ones, ones), path)
    info = oracles.parse_riff_wav(path)
    assert info["sample_rate"] == 2**31 - 1
    assert info["byte_rate"] == 2**32 - 2
    assert info["samples"].tolist() == [0, 14745, 29490, 7373]
    path.unlink()
    with pytest.raises(ModelDomainError, match="WAV"):
        export_wav(GlottalWaveform(2**31, u, ones, ones), path)
    assert not path.exists()


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
