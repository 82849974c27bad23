"""Independent reference implementations used by the tests.

Everything here is deliberately written from scratch: a scalar sawtooth
pulse and its open spans, a brute-force bisection solver with its own
inverse-law formulas, a struct-level RIFF reader that does not touch the wave
module, a circular correlator, a sample-by-sample peak picker, phase
counter and closure-instant search.  The one exception is the row-by-row CSV writer, which formats each
cell with the package's ``format_number``; the tests pin that function's
output on its own.  The suite trusts these, not the package, when checking
numbers.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from glottisim.exporters import format_number

KIND_NAMES = ("linear", "compressive", "expansive")


def pulse_ref(cfg, t: float) -> float:
    """The sawtooth of an OscillatorConfig at time t, read off its docstring:
    zero before the lag; then, with tau = (t - lag) mod period, a ramp from
    0 to the peak over [0, rise_end), a linear fall back to zero over the
    rest of the pulse, and zero from the pulse end on.  tau = 0 is zero."""
    if t < cfg.phase_lag_s:
        return 0.0
    tau = math.fmod(t - cfg.phase_lag_s, cfg.period_s)
    if tau <= 0.0 or tau >= cfg.pulse_duration_s:
        return 0.0
    rise_end = cfg.rise_fraction * cfg.pulse_duration_s
    if tau < rise_end:
        return cfg.peak_current * (tau / rise_end)
    return cfg.peak_current * ((cfg.pulse_duration_s - tau)
                               / (cfg.pulse_duration_s - rise_end))


def open_intervals_ref(cfg, t0: float, t1: float) -> list:
    """The spans of [t0, t1] where the sawtooth of an OscillatorConfig is
    nonzero, as (start, end) pairs: the pulse windows [lag + n * period,
    lag + n * period + pulse] for n = 0, 1, ..., each clipped to the query
    window, the empty ones dropped.  The pulse is positive inside each span
    and may touch zero at its ends."""
    spans = []
    n = 0
    while cfg.phase_lag_s + n * cfg.period_s < t1:
        start = cfg.phase_lag_s + n * cfg.period_s
        lo, hi = max(start, t0), min(start + cfg.pulse_duration_s, t1)
        if lo < hi:
            spans.append((lo, hi))
        n += 1
    return spans


def element_voltage_ref(kind: str, coeff: float, i: float) -> float:
    """Voltage a single two-terminal element needs to carry current i >= 0."""
    if kind == "linear":
        return i / coeff
    if kind == "compressive":
        # i = c * sqrt(v)  ->  v = (i / c) ** 2
        return (i / coeff) ** 2
    if kind == "expansive":
        # i = c * v ** 2  ->  v = sqrt(i) / sqrt(c); the quotient i / c can
        # exceed the float range where v does not
        return math.sqrt(i) / math.sqrt(coeff)
    raise ValueError(f"unknown element kind: {kind}")


def bisect_series_current(elements, v_drive, iters=200):
    """Series current by plain bisection on the voltage-balance residual.

    ``elements`` is a list of (kind_name, coefficient) pairs with every
    coefficient positive.  The residual sum(v_k(i)) - v_drive is strictly
    increasing in i, so one sign change brackets the root.
    """
    if v_drive == 0.0:
        return 0.0
    if v_drive < 0.0:
        raise ValueError("drive must be non-negative")

    def residual(i):
        return sum(element_voltage_ref(k, c, i) for k, c in elements) - v_drive

    hi = 1.0
    while residual(hi) < 0.0:
        hi *= 4.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_series_network(rng, max_elements=6):
    """Random stack of 1..max_elements elements with log-uniform coefficients."""
    count = int(rng.integers(1, max_elements + 1))
    return [
        (KIND_NAMES[int(rng.integers(0, 3))], float(10.0 ** rng.uniform(-3.0, 3.0)))
        for _ in range(count)
    ]


def circular_xcorr_peak_lag(a, b, max_lag):
    """Lag k in [0, max_lag] maximizing sum_n a[n] * b[(n - k) mod N]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    xc = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), n=n)
    return int(np.argmax(xc[: max_lag + 1]))


def find_peaks_ref(x, height, distance):
    """Peak indices by the rule of scipy.signal.find_peaks(height, distance).

    Walks the samples once: a rise followed by a run of equal samples and
    then a fall is a peak at the run's middle sample (rounded down); a run
    that reaches either end is not.  Peaks lower than `height` are dropped.
    Then, from the highest peak down (ties in the order of np.argsort,
    reversed), each peak still kept drops every other peak closer than
    `distance` samples.
    """
    x = [float(v) for v in x]
    peaks = []
    i = 1
    while i < len(x) - 1:
        if x[i - 1] < x[i]:
            end = i
            while end + 1 < len(x) - 1 and x[end + 1] == x[i]:
                end += 1
            if x[end + 1] < x[i]:
                peaks.append((i + end) // 2)
                i = end
        i += 1
    peaks = [p for p in peaks if x[p] >= height]
    keep = [True] * len(peaks)
    for j in np.argsort([x[p] for p in peaks])[::-1]:
        if keep[j]:
            for k, p in enumerate(peaks):
                if k != j and abs(p - peaks[j]) < distance:
                    keep[k] = False
    return np.array([p for p, kept in zip(peaks, keep) if kept], dtype=int)


def phases_ref(u, epsilon=1e-6):
    """(open-phase count, closed-phase flatness) of a flow, one sample at a
    time.  A sample is open when it exceeds epsilon times the peak flow, and
    an open phase is a maximal run of open samples.  The flatness is the
    largest |u| of a closed sample over the peak: 0 without a closed sample
    or without a positive peak."""
    u = [float(x) for x in u]
    peak = max(u)
    count, largest, was_open = 0, 0.0, False
    for x in u:
        is_open = x > epsilon * peak
        if is_open and not was_open:
            count += 1
        if not is_open:
            largest = max(largest, abs(x))
        was_open = is_open
    return count, (largest / peak if peak > 0.0 else 0.0)


def closure_instant_ref(d, rtol=1e-6):
    """(least value, index of the closure instant) of a flow derivative, one
    sample at a time: the index is the first sample whose value exceeds the
    least by at most rtol times the least's magnitude, or that equals an
    infinite least."""
    d = [float(x) for x in d]
    least = min(d)
    for k, x in enumerate(d):
        if x == least or (math.isfinite(least)
                          and x - least <= rtol * abs(least)):
            return least, k


def csv_text_ref(w, d):
    """The waveform CSV text written one cell at a time with format_number."""
    lines = ["time_s,u_gl,du_gl_dt,g_lower,g_upper"]
    times = w.times
    for k in range(len(w)):
        lines.append(",".join(format_number(x) for x in (
            times[k], w.u_gl[k], d[k], w.g_lower[k], w.g_upper[k])))
    return "\n".join(lines) + "\n"


def parse_csv_ref(path):
    """The cells of a waveform CSV after its header, each parsed with float();
    one row of floats per line."""
    lines = Path(path).read_text(encoding="ascii").split("\n")[1:]
    return [[float(cell) for cell in line.split(",")] for line in lines if line]


def parse_riff_wav(path):
    """Minimal RIFF/PCM reader returning header fields and int16 samples."""
    raw = Path(path).read_bytes()
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AssertionError("not a RIFF/WAVE file")
    declared = int.from_bytes(raw[4:8], "little")
    if declared != len(raw) - 8:
        raise AssertionError(f"RIFF size {declared} != {len(raw) - 8}")

    chunks = {}
    pos = 12
    while pos + 8 <= len(raw):
        tag = raw[pos : pos + 4]
        size = int.from_bytes(raw[pos + 4 : pos + 8], "little")
        chunks[tag] = raw[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    fmt = chunks[b"fmt "]
    tag, channels, rate, byte_rate, align, bits = struct.unpack("<HHIIHH", fmt[:16])
    data = chunks[b"data"]
    samples = np.frombuffer(data, dtype="<i2")
    return {
        "format_tag": tag,
        "channels": channels,
        "sample_rate": rate,
        "byte_rate": byte_rate,
        "block_align": align,
        "bits_per_sample": bits,
        "data_bytes": len(data),
        "samples": samples,
    }
