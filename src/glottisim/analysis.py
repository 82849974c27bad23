"""Waveform analysis: flow derivative, fundamental frequency, phase timing.

The flow derivative is the acoustic excitation proxy (its sharpest negative
swing marks glottal closure).  F0 comes from picking flow peaks and taking
the median inter-peak interval, and open/closed phases are runs of samples
above/below a small fraction of the peak flow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .errors import InsufficientPulsesError, ModelDomainError
from .network import GlottalWaveform

# Flow below this fraction of the peak counts as glottal closure.
CLOSURE_EPSILON = 1e-6
# A pulse peak must reach half the global peak and clear its neighbors by 1 ms.
PEAK_HEIGHT_FRACTION = 0.5
MIN_PEAK_SPACING_S = 0.001


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregate description of one simulated waveform."""

    f0_hz: float | None
    max_negative_derivative: float
    max_negative_derivative_time_s: float
    open_phases: list[tuple[float, float]]
    closed_phase_flatness: float
    pulse_count: int


def derivative(w: GlottalWaveform) -> np.ndarray:
    """Sampled du_gl/dt: central differences inside, one-sided at the ends."""
    u = w.u_gl
    if len(u) < 3:
        raise ModelDomainError(
            f"derivative needs at least 3 samples, got {len(u)}")
    rate = float(w.sample_rate_hz)
    d = np.empty_like(u)
    d[1:-1] = (u[2:] - u[:-2]) * (rate / 2.0)
    d[0] = (u[1] - u[0]) * rate
    d[-1] = (u[-1] - u[-2]) * rate
    return d


def pulse_peaks(w: GlottalWaveform) -> np.ndarray:
    """Sample indices of flow pulse peaks (may be empty)."""
    u = w.u_gl
    peak = float(u.max(initial=0.0))
    if peak <= 0.0:
        return np.empty(0, dtype=int)
    spacing = max(1, round(MIN_PEAK_SPACING_S * w.sample_rate_hz))
    idx, _ = find_peaks(u, height=PEAK_HEIGHT_FRACTION * peak, distance=spacing)
    return idx


def estimate_f0(w: GlottalWaveform) -> float:
    """Fundamental frequency from the median inter-peak interval."""
    return _f0_of_peaks(pulse_peaks(w), w.sample_rate_hz)


def _f0_of_peaks(idx: np.ndarray, sample_rate_hz: int) -> float:
    if len(idx) < 2:
        raise InsufficientPulsesError(
            f"need at least 2 pulses to estimate F0, found {len(idx)}")
    intervals = np.diff(idx) / float(sample_rate_hz)
    return 1.0 / float(np.median(intervals))


def _open_mask(w: GlottalWaveform) -> np.ndarray:
    peak = float(w.u_gl.max(initial=0.0))
    return w.u_gl > CLOSURE_EPSILON * peak


def detect_phases(w: GlottalWaveform) -> tuple[list[tuple[float, float]],
                                               list[tuple[float, float]]]:
    """(open, closed) half-open time intervals that partition the record.

    Each sample owns [t_k, t_k + 1/rate); consecutive same-state samples
    merge, so the two lists together tile [t0, t0 + n/rate) exactly.
    """
    return _phases(w, _open_mask(w))


def _phases(w: GlottalWaveform, mask: np.ndarray):
    n = len(mask)
    rate = float(w.sample_rate_hz)
    boundaries = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    edges = np.concatenate(([0], boundaries, [n]))
    opens: list[tuple[float, float]] = []
    closeds: list[tuple[float, float]] = []
    for a, b in zip(edges[:-1], edges[1:]):
        span = (w.t0 + a / rate, w.t0 + b / rate)
        (opens if mask[a] else closeds).append(span)
    return opens, closeds


def analyze(w: GlottalWaveform) -> AnalysisReport:
    """Full report; F0 is None (not an error) when too few pulses exist."""
    d = derivative(w)
    i_min = int(np.argmin(d))
    peaks = pulse_peaks(w)
    try:
        f0 = _f0_of_peaks(peaks, w.sample_rate_hz)
    except InsufficientPulsesError:
        f0 = None
    mask = _open_mask(w)
    open_phases, _ = _phases(w, mask)
    closed = ~mask
    peak = float(w.u_gl.max(initial=0.0))
    if peak > 0.0 and closed.any():
        flatness = float(np.abs(w.u_gl[closed]).max()) / peak
    else:
        flatness = 0.0
    return AnalysisReport(
        f0_hz=f0,
        max_negative_derivative=float(d[i_min]),
        max_negative_derivative_time_s=w.t0 + i_min / float(w.sample_rate_hz),
        open_phases=open_phases,
        closed_phase_flatness=flatness,
        pulse_count=int(len(peaks)))
