"""Serialization of simulation results: waveform CSV, WAV audio, text report.

CSV cells carry at least nine significant digits so a parsed file reproduces
the run to analysis precision; rows always end in a bare LF.  The CSV writer
formats _CSV_BLOCK_ROWS rows at a time with one ``%`` operation, so its
temporaries stay at one block whatever the record length.  A cell is
``%.9g`` of its value, except that an exact zero (-0.0 included) is written
``0.000000000``: a block's template is built row by row from the template
for that row's pattern of zero cells, and the zeros are left out of the
values.  WAV output is RIFF/PCM, mono, 16-bit little-endian, with the
waveform peak scaled to 90% of full scale.  Both writers are deterministic
byte-for-byte.  The CSV reader hands ``np.loadtxt`` a regular file's path,
which numpy parses in chunks in C, not line by line in Python, but its open
handle for a pipe, which loses buffered rows if re-opened by name, for a
name that numpy would decompress, and for a descriptor or a bytes name.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import AnalysisReport
from .errors import ModelDomainError
from .network import GlottalWaveform, _check_rate

CSV_COLUMNS = ("time_s", "u_gl", "du_gl_dt", "g_lower", "g_upper")
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # names np.loadtxt decompresses
_CSV_BLOCK_ROWS = 1024
# The reader checks the time column this many rows at a time.
_TIME_CHECK_ROWS = 16384
_ZERO_CELL = "0.000000000"
# Row template for each pattern of zero cells: bit j of the index set means
# cell j is an exact zero.
_ROW_TEMPLATES = tuple(
    ",".join(_ZERO_CELL if code >> j & 1 else "%.9g"
             for j in range(len(CSV_COLUMNS))) + "\n"
    for code in range(1 << len(CSV_COLUMNS)))
_ZERO_BITS = 1 << np.arange(len(CSV_COLUMNS))
WAV_PEAK_FRACTION = 0.9
_FULL_SCALE = 32767
# The RIFF header holds the byte rate, 2 bytes per mono 16-bit frame, in 32
# unsigned bits, so a WAV can carry a rate up to 2**31 - 1 Hz.
_MAX_WAV_RATE_HZ = 2**31 - 1


def format_number(x: float) -> str:
    """Nine significant digits; exact zero keeps the fixed 0.000000000 form."""
    if x == 0.0:
        return _ZERO_CELL
    return format(float(x), ".9g")


def _check_derivative(w: GlottalWaveform, d) -> np.ndarray:
    """d as a float array; ModelDomainError unless it has w's shape."""
    d = np.asarray(d, dtype=float)
    if d.shape != w.u_gl.shape:
        raise ModelDomainError(
            f"derivative length {d.shape} must match waveform {w.u_gl.shape}")
    return d


def export_csv(w: GlottalWaveform, d: np.ndarray, path) -> None:
    """Write one row per sample: time, flow, flow derivative, both biases."""
    d = _check_derivative(w, d)
    n = len(w)
    rate = float(w.sample_rate_hz)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n)
            rows = np.column_stack((
                w.t0 + np.arange(start, stop) / rate,  # == w.times[start:stop]
                w.u_gl[start:stop], d[start:stop],
                w.g_lower[start:stop], w.g_upper[start:stop]))
            zero = rows == 0.0
            template = "".join([_ROW_TEMPLATES[code]
                                for code in (zero @ _ZERO_BITS).tolist()])
            fh.write(template % tuple(rows[~zero].tolist()))


def read_waveform_csv(path) -> tuple[GlottalWaveform, np.ndarray]:
    """Inverse of export_csv; returns the waveform and its derivative column.

    The sample rate is recovered from the whole time span, and each time
    must lie on its grid (see _sample_rate).
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as exc:
            raise ModelDomainError(f"waveform CSV {path} is not ASCII: {exc}") from exc
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise ModelDomainError(f"unexpected CSV header in {path}: {header!r}")
        # numpy reads a source that is not a str as an iterable of lines
        name = os.fspath(path) if isinstance(path, os.PathLike) else path
        by_path = (isinstance(name, str) and fh.seekable()
                   and not name.endswith(_COMPRESSED))
        source, skip = (name, 1) if by_path else (fh, 0)
        try:
            with warnings.catch_warnings():
                # a file without rows warns; the shape check below rejects it
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(source, delimiter=",", ndmin=2,
                                  skiprows=skip, encoding="ascii")
        except ValueError as exc:
            raise ModelDomainError(f"malformed waveform CSV {path}: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != len(CSV_COLUMNS):
        raise ModelDomainError(
            f"waveform CSV {path} needs >= 2 rows of {len(CSV_COLUMNS)} columns")
    t = data[:, 0]
    w = GlottalWaveform(sample_rate_hz=_sample_rate(t, path), u_gl=data[:, 1],
                        g_lower=data[:, 3], g_upper=data[:, 4], t0=float(t[0]))
    return w, data[:, 2]


def _sample_rate(t: np.ndarray, path) -> int:
    """The sample rate of the time column t of the CSV at path:
    (n - 1) / (t[-1] - t[0]) in whole Hz, where each t[k] must be
    t[0] + k / rate within the ``%.9g`` rounding of both cells, 5e-9 of each.

    |t[k]| <= |t[0]| + k / rate bounds the rounding of t[k].  The rounding
    of the span's two cells moves the quotient by up to a share slack of
    the rate, which rounding to whole Hz undoes where slack * rate < 1 / 4;
    elsewhere the rate may be off by 1 / 2 Hz plus slack, at most three
    times slack, and the check allows that.  It runs _TIME_CHECK_ROWS rows
    at a time, so its temporaries stay at one block, and takes 2-3 ms over
    a 10 s record at 44.1 kHz on a 2-core host.  A NaN time fails it.
    """
    t0, last = float(t[0]), float(t[-1])
    # Python floats: a span or rate beyond the float range is inf, unwarned
    span = last - t0
    if not span > 0.0:
        raise ModelDomainError(f"waveform CSV {path} has no increasing time span")
    rate = (len(t) - 1) / span
    rate = _check_rate(rate if math.isinf(rate) else round(rate))
    c = 5e-9 + 4.0 * sys.float_info.epsilon  # a few ulps beyond %.9g
    slack = c * (abs(last) + abs(t0)) / span
    slope = c + (3.0 * slack if rate * slack >= 0.25 else 0.0)
    floor = 2.0 * c * abs(t0) + 2e-323  # and four ulps of a subnormal time
    buffers = np.empty((2, min(len(t), _TIME_CHECK_ROWS)))
    for start in range(0, len(t), _TIME_CHECK_ROWS):
        cells = t[start:start + _TIME_CHECK_ROWS]
        error, tol = buffers[:, :len(cells)]
        np.divide(np.arange(start, start + len(cells)), float(rate),
                  out=error)
        np.multiply(error, slope, out=tol)
        tol += floor
        error += t0
        error -= cells
        ok = np.abs(error, out=error) <= tol
        if not ok.all():
            k = start + int(np.argmin(ok))
            raise ModelDomainError(
                f"waveform CSV {path}: the time {float(t[k])!r} s on line "
                f"{k + 2} is not {t0!r} + {k} / {rate} s")
    return rate


def _check_wav_rate(sample_rate_hz: int) -> None:
    if sample_rate_hz > _MAX_WAV_RATE_HZ:
        raise ModelDomainError(
            f"a WAV file holds a sample rate of at most {_MAX_WAV_RATE_HZ} "
            f"Hz, got {sample_rate_hz!r}")


def export_wav(w: GlottalWaveform, path) -> None:
    """Write the flow as mono 16-bit PCM at the waveform's own rate, with the
    peak at 90% full scale.  An all-zero flow stays all-zero.  A rate beyond
    what the RIFF header holds raises ModelDomainError before the file is
    opened.  The file is opened here and handed to wave, so a path that
    cannot be opened raises its OSError before any wave writer exists."""
    import wave  # only a WAV export needs it

    _check_wav_rate(w.sample_rate_hz)
    samples = w.u_gl
    peak = float(np.abs(samples).max())
    if peak == 0.0:
        ints = np.zeros(samples.size, dtype="<i2")
    else:
        ints = np.rint((samples / peak) * (WAV_PEAK_FRACTION * _FULL_SCALE))
        ints = ints.astype("<i2")
    with open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate_hz)
        fh.writeframes(ints.tobytes())


def format_report(rep: AnalysisReport) -> str:
    f0 = "n/a" if rep.f0_hz is None else format(rep.f0_hz, ".6g")
    lines = [
        "glottal source analysis",
        f"pulse_count: {rep.pulse_count}",
        f"f0_hz: {f0}",
        (f"max_negative_derivative: {rep.max_negative_derivative:.6g}"
         f" at t = {rep.max_negative_derivative_time_s:.6g} s"),
        f"open_phase_count: {rep.open_phase_count}",
        f"closed_phase_flatness: {rep.closed_phase_flatness:.3g}",
    ]
    return "\n".join(lines) + "\n"


def write_report(rep: AnalysisReport, path) -> None:
    Path(path).write_text(format_report(rep), encoding="ascii")
