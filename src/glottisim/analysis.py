"""Waveform analysis: flow derivative, fundamental frequency, phase timing.

The flow derivative is the acoustic excitation proxy (its sharpest negative
swing marks glottal closure).  ``analyze`` given no derivative forms no
record-length one: it takes it block by block into one reused buffer, with
the differences of ``derivative``.  The closure instant is the first sample
whose derivative lies within a relative CLOSURE_INSTANT_RTOL of the least
one.  A periodic record repeats its sharpest swing, in every cycle on the
same sample phase, to within 1e-10 of it, so which of them is least is set
by rounding: the 9 significant digits of a CSV export move each derivative
by up to 1e-7 of the least, and re-analysis picked another cycle.  The
tolerance of 1e-6 lies above that and below the gap between swings on
different sample phases, at least 1e-2 of the least one for the default
oscillators from 6 to 15 cmH2O at 44.1 kHz.

F0 comes from picking flow peaks and taking the median inter-peak interval:
the middle one of an odd count, and (a + b) / 2 of the middle two of an even
count, which is how ``np.median`` forms it, so F0 keeps its bits.  The
median is taken from ``np.sort`` because ``np.median`` imports ``numpy.ma``
for a NaN check that these finite, positive intervals do not need.
Open/closed phases are runs of samples above/below a small fraction of the
peak flow: ``detect_phases`` lists their intervals, and ``analyze`` counts
the open ones from the same mask.

A pulse peak is a strict local maximum of the flow: a sample higher than
both of its neighbours, or a flat top higher than the samples on either
side, taken at its middle sample ``(left + right) // 2``.  A maximum
touching the first or last sample is not a peak.  Peaks below half the
global peak are dropped, and the rest are thinned greedily from the highest
down, equal heights in reversed ``np.argsort`` order: each kept peak removes
its neighbours closer than 1 ms.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPulsesError, ModelDomainError
from .network import GlottalWaveform

# Flow below this fraction of the peak counts as glottal closure.
CLOSURE_EPSILON = 1e-6
# The closure instant is the first derivative within this fraction of the
# least one (see the module docstring).
CLOSURE_INSTANT_RTOL = 1e-6
# A pulse peak must reach half the global peak and clear its neighbors by 1 ms.
PEAK_HEIGHT_FRACTION = 0.5
MIN_PEAK_SPACING_S = 0.001
# derivative rejects records with no interior sample to take a central
# difference at.
MIN_DERIVATIVE_SAMPLES = 3
# analyze takes the derivative this many samples at a time, and looks for
# the closure instant up to the first block that holds it: a periodic record
# holds it in one of its first cycles.
_CLOSURE_SCAN_SAMPLES = 16384


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregate description of one simulated waveform."""

    f0_hz: float | None
    max_negative_derivative: float
    max_negative_derivative_time_s: float
    open_phase_count: int
    closed_phase_flatness: float
    pulse_count: int


def derivative(w: GlottalWaveform) -> np.ndarray:
    """Sampled du_gl/dt: central differences inside, one-sided at the ends.

    Raises ModelDomainError where a difference times the rate exceeds the
    float range, which takes a peak flow above float max / rate; simulate
    rejects such circuits up front, but a waveform read from a file can
    hold one.
    """
    _check_length(w)
    return _derivative_block(w, 0, np.empty_like(w.u_gl))


def _check_length(w: GlottalWaveform) -> None:
    """ModelDomainError unless w has a sample to take a central difference
    at."""
    if len(w.u_gl) < MIN_DERIVATIVE_SAMPLES:
        raise ModelDomainError(f"derivative needs at least "
                               f"{MIN_DERIVATIVE_SAMPLES} samples, got "
                               f"{len(w.u_gl)}")


def _derivative_block(w: GlottalWaveform, start: int,
                      out: np.ndarray) -> np.ndarray:
    """Samples start to start + len(out) of derivative(w), written into
    out: the same differences, so the same bits and the same error."""
    u, rate = w.u_gl, float(w.sample_rate_hz)
    stop = start + len(out)
    # the samples with a neighbour on both sides
    lo, hi = max(start, 1), min(stop, len(u) - 1)
    try:
        with np.errstate(over="raise"):
            inner = out[lo - start:hi - start]
            np.subtract(u[lo + 1:hi + 1], u[lo - 1:hi - 1], out=inner)
            inner *= rate / 2.0
            if start == 0:
                out[0] = (u[1] - u[0]) * rate
            if stop == len(u):
                out[-1] = (u[-1] - u[-2]) * rate
    except FloatingPointError:
        raise ModelDomainError(
            f"the flow derivative exceeds the float range: a peak flow of "
            f"{float(u.max())!r} at {w.sample_rate_hz} Hz") from None
    return out


def _check_derivative(w: GlottalWaveform, d) -> np.ndarray:
    """d as a float array; ModelDomainError unless it has w's shape."""
    d = np.asarray(d, dtype=float)
    if d.shape != w.u_gl.shape:
        raise ModelDomainError(
            f"derivative length {d.shape} must match waveform {w.u_gl.shape}")
    return d


def pulse_peaks(w: GlottalWaveform) -> np.ndarray:
    """Sample indices of flow pulse peaks (may be empty)."""
    return _pulse_peaks(w, float(w.u_gl.max()))


def _pulse_peaks(w: GlottalWaveform, peak: float) -> np.ndarray:
    """pulse_peaks of w, whose flow peaks at peak."""
    if peak <= 0.0:
        return np.empty(0, dtype=int)
    # peaks lie inside the record, so a spacing of its length already
    # merges them all, and a longer one could overflow the index type
    spacing = min(max(1, round(MIN_PEAK_SPACING_S * w.sample_rate_hz)),
                  len(w.u_gl))
    return _find_peaks(w.u_gl, PEAK_HEIGHT_FRACTION * peak, spacing)


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Peaks of x at least `height` high and `distance` >= 1 samples apart."""
    mid = x[1:-1]
    # Left edges of rising tops that reach the height.
    idx = np.flatnonzero((mid > x[:-2]) & (mid >= x[2:]) & (mid >= height)) + 1
    flat = x[idx] == x[idx + 1]
    if flat.any():
        # A flat top ends at the next change point and is a peak when the
        # signal falls after it.  A top that runs into the last sample has
        # no change point after it; the last one, before it, then leads onto
        # the top itself, so the test fails.
        changes = np.flatnonzero(x[1:] != x[:-1])
        left = idx[flat]
        right = changes[np.minimum(np.searchsorted(changes, left),
                                   len(changes) - 1)]
        ok = x[right + 1] < x[left]
        idx[flat] = np.where(ok, (left + right) // 2, -1)
        idx = idx[idx >= 0]
    if len(idx) < 2 or np.diff(idx).min() >= distance:
        return idx
    keep = np.ones(len(idx), dtype=bool)
    for j in np.argsort(x[idx])[::-1]:
        if keep[j]:
            lo = np.searchsorted(idx, idx[j] - distance, side="right")
            hi = np.searchsorted(idx, idx[j] + distance, side="left")
            keep[lo:j] = keep[j + 1:hi] = False
    return idx[keep]


def estimate_f0(w: GlottalWaveform) -> float:
    """Fundamental frequency from the median inter-peak interval."""
    return _f0_of_peaks(pulse_peaks(w), w.sample_rate_hz)


def _f0_of_peaks(idx: np.ndarray, sample_rate_hz: int) -> float:
    if len(idx) < 2:
        raise InsufficientPulsesError(
            f"need at least 2 pulses to estimate F0, found {len(idx)}")
    intervals = np.sort(np.diff(idx) / float(sample_rate_hz))
    h = len(intervals) // 2
    mid = (intervals[h] if len(intervals) % 2
           else (intervals[h - 1] + intervals[h]) / 2.0)
    return 1.0 / float(mid)


def detect_phases(w: GlottalWaveform) -> tuple[list[tuple[float, float]],
                                               list[tuple[float, float]]]:
    """(open, closed) half-open time intervals that partition the record.

    Each sample owns [t_k, t_k + 1/rate); consecutive same-state samples
    merge, so the two lists together tile [t0, t0 + n/rate) exactly.
    """
    mask = w.u_gl > CLOSURE_EPSILON * float(w.u_gl.max())
    boundaries = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    edges = np.concatenate(([0], boundaries, [len(mask)]))
    times = w.t0 + edges / float(w.sample_rate_hz)
    starts, ends, is_open = times[:-1], times[1:], mask[edges[:-1]]
    return (list(zip(starts[is_open].tolist(), ends[is_open].tolist())),
            list(zip(starts[~is_open].tolist(), ends[~is_open].tolist())))


def _derivative_blocks(w: GlottalWaveform, d: np.ndarray | None
                       ) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block) over the flow derivative of w, _CLOSURE_SCAN_SAMPLES
    samples at a time: slices of d, or, where d is None, each block taken
    afresh into one reused buffer, valid until the next one."""
    n = len(w.u_gl)
    buffer = None if d is not None else np.empty(min(n, _CLOSURE_SCAN_SAMPLES))
    for start in range(0, n, _CLOSURE_SCAN_SAMPLES):
        stop = min(start + _CLOSURE_SCAN_SAMPLES, n)
        yield start, (d[start:stop] if d is not None
                      else _derivative_block(w, start, buffer[:stop - start]))


def analyze(w: GlottalWaveform, d: np.ndarray | None = None) -> AnalysisReport:
    """Full report; F0 is None (not an error) when too few pulses exist.

    d is the flow derivative of w, taken here when None; ModelDomainError
    unless it has w's shape and no NaN sample.  Where d is None no
    record-length derivative is formed: it is taken block by block into
    one reused buffer, once for its least sample and again up to the block
    that holds the closure instant.
    """
    if d is None:
        _check_length(w)
    else:
        d = _check_derivative(w, d)
    least = math.inf
    for _, block in _derivative_blocks(w, d):
        m = float(block.min())
        if math.isnan(m):  # min is NaN exactly when a sample is
            raise ModelDomainError("the flow derivative has a NaN sample")
        least = min(least, m)
    # a bound CLOSURE_INSTANT_RTOL of |least| above least, -inf for -inf
    bound = least * (1.0 + math.copysign(CLOSURE_INSTANT_RTOL, least))
    # least itself lies within the bound, so some block holds a hit
    for start, block in _derivative_blocks(w, d):
        hit = block <= bound
        i_min = int(np.argmax(hit))
        if hit[i_min]:
            i_min += start
            break
    u = w.u_gl
    peak = float(u.max())
    peaks = _pulse_peaks(w, peak)
    is_open = u > CLOSURE_EPSILON * peak
    # u >= 0, so the largest closed flow (0 if none is closed) is the
    # largest |u| up to the sign of zero, which abs sets
    flatness = (abs(float(np.max(u, where=~is_open, initial=0.0))) / peak
                if peak > 0.0 else 0.0)
    return AnalysisReport(
        f0_hz=_f0_of_peaks(peaks, w.sample_rate_hz) if len(peaks) > 1 else None,
        max_negative_derivative=least,
        max_negative_derivative_time_s=w.t0 + i_min / float(w.sample_rate_hz),
        # an open phase starts at each rising edge, and at sample 0 if open
        open_phase_count=int(np.count_nonzero(is_open[1:] > is_open[:-1])
                             + is_open[0]),
        closed_phase_flatness=flatness,
        pulse_count=int(len(peaks)))
