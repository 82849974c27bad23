"""Serialization of simulation results: waveform CSV, WAV audio, text report.

CSV cells carry at least nine significant digits so a parsed file reproduces
the run to analysis precision; rows always end in a bare LF.  WAV output is
RIFF/PCM, mono, 16-bit little-endian, with the waveform peak scaled to 90%
of full scale.  Both writers are deterministic byte-for-byte.
"""
from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from .analysis import AnalysisReport
from .errors import ModelDomainError
from .network import GlottalWaveform, MIN_SAMPLE_RATE_HZ

CSV_COLUMNS = ("time_s", "u_gl", "du_gl_dt", "g_lower", "g_upper")
WAV_PEAK_FRACTION = 0.9
_FULL_SCALE = 32767


def format_number(x: float) -> str:
    """Nine significant digits; exact zero keeps the fixed 0.000000000 form."""
    if x == 0.0:
        return "0.000000000"
    return format(float(x), ".9g")


def export_csv(w: GlottalWaveform, d: np.ndarray, path) -> None:
    """Write one row per sample: time, flow, flow derivative, both biases."""
    d = np.asarray(d, dtype=float)
    if d.shape != w.u_gl.shape:
        raise ModelDomainError(
            f"derivative length {d.shape} must match waveform {w.u_gl.shape}")
    times = w.times
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for k in range(len(w)):
            fh.write("%s,%s,%s,%s,%s\n" % (
                format_number(times[k]), format_number(w.u_gl[k]),
                format_number(d[k]), format_number(w.g_lower[k]),
                format_number(w.g_upper[k])))


def read_waveform_csv(path) -> tuple[GlottalWaveform, np.ndarray]:
    """Inverse of export_csv; returns the waveform and its derivative column.

    The sample rate is recovered from the whole time span:
    (n - 1) / (t[-1] - t[0]).
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise ModelDomainError(f"unexpected CSV header in {path}: {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ModelDomainError(f"malformed waveform CSV {path}: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != len(CSV_COLUMNS):
        raise ModelDomainError(
            f"waveform CSV {path} needs >= 2 rows of {len(CSV_COLUMNS)} columns")
    t = data[:, 0]
    span = t[-1] - t[0]
    if not span > 0.0:
        raise ModelDomainError(f"waveform CSV {path} has no increasing time span")
    rate = round((len(t) - 1) / span)
    w = GlottalWaveform(sample_rate_hz=rate, u_gl=data[:, 1],
                        g_lower=data[:, 3], g_upper=data[:, 4], t0=float(t[0]))
    return w, data[:, 2]


def export_wav(source, path, sample_rate_hz: int | None = None) -> None:
    """Write mono 16-bit PCM with the peak at 90% full scale.

    Accepts a GlottalWaveform (flow channel, its own rate) or any 1-D sample
    array plus an explicit rate.  An all-zero signal stays all-zero.
    """
    if isinstance(source, GlottalWaveform):
        samples = source.u_gl
        rate = source.sample_rate_hz
    else:
        samples = np.asarray(source, dtype=float)
        if sample_rate_hz is None:
            raise ModelDomainError("sample_rate_hz is required for raw arrays")
        rate = sample_rate_hz
    rate = int(rate)
    if rate < MIN_SAMPLE_RATE_HZ:
        raise ModelDomainError(f"sample_rate_hz must be >= {MIN_SAMPLE_RATE_HZ}")
    if samples.ndim != 1 or samples.size == 0:
        raise ModelDomainError("need a one-dimensional, nonempty sample array")
    if not np.all(np.isfinite(samples)):
        raise ModelDomainError("samples must be finite")
    peak = float(np.abs(samples).max())
    if peak == 0.0:
        ints = np.zeros(samples.size, dtype="<i2")
    else:
        ints = np.rint((samples / peak) * (WAV_PEAK_FRACTION * _FULL_SCALE))
        ints = ints.astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(ints.tobytes())


def format_report(rep: AnalysisReport) -> str:
    f0 = "n/a" if rep.f0_hz is None else format(rep.f0_hz, ".6g")
    lines = [
        "glottal source analysis",
        f"pulse_count: {rep.pulse_count}",
        f"f0_hz: {f0}",
        (f"max_negative_derivative: {rep.max_negative_derivative:.6g}"
         f" at t = {rep.max_negative_derivative_time_s:.6g} s"),
        f"open_phase_count: {len(rep.open_phases)}",
        f"closed_phase_flatness: {rep.closed_phase_flatness:.3g}",
    ]
    return "\n".join(lines) + "\n"


def write_report(rep: AnalysisReport, path) -> None:
    Path(path).write_text(format_report(rep), encoding="ascii")
