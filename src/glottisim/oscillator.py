"""Sawtooth current-pulse generator that gates the vocal-fold elements.

Each fold is opened and closed by a relaxation-oscillator current: a periodic
pulse that ramps linearly from zero to its peak over most of the pulse (slow
rise) and drops linearly back to zero over the remainder (fast fall).  The
generator is ideal: the piecewise-linear waveform is evaluated directly
instead of integrating the underlying capacitor charge/discharge.

Defaults describe a normal male voice: 8 ms period and pulse width (125 Hz),
rise over 90% of the pulse, unit peak.  The two folds run identical
generators offset by a phase lag (1 ms by default for the upper fold).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ModelDomainError

DEFAULT_PERIOD_S = 0.008
DEFAULT_RISE_FRACTION = 0.9
DEFAULT_FOLD_LAG_S = 0.001
# open_intervals lists at most this many pulses: about 11 MB of spans, or
# 800 s of the default 125 Hz pulses.
_MAX_SPANS = 100_000


class PhaseKind(Enum):
    CLOSED = "closed"
    RISING = "rising"
    FALLING = "falling"


@dataclass(frozen=True)
class OscillatorPhase:
    """Segment of the cycle at some instant, with normalized position in [0, 1]."""

    kind: PhaseKind
    position: float


@dataclass(frozen=True)
class OscillatorConfig:
    """Piecewise-linear sawtooth pulse train.

    The output at time t is zero before phase_lag_s; afterwards, with
    tau = (t - phase_lag_s) mod period_s, it ramps 0 -> peak_current over
    [0, rise_fraction * pulse_duration_s), falls linearly back to zero over
    the rest of the pulse, and is zero for tau >= pulse_duration_s.
    """

    period_s: float = DEFAULT_PERIOD_S
    pulse_duration_s: float = DEFAULT_PERIOD_S
    rise_fraction: float = DEFAULT_RISE_FRACTION
    peak_current: float = 1.0
    phase_lag_s: float = 0.0

    def __post_init__(self):
        for name in ("period_s", "pulse_duration_s", "rise_fraction",
                     "peak_current", "phase_lag_s"):
            if not math.isfinite(getattr(self, name)):
                raise ModelDomainError(f"{name} must be finite")
        if self.period_s <= 0.0:
            raise ModelDomainError(f"period_s must be > 0, got {self.period_s!r}")
        if not 0.0 < self.pulse_duration_s <= self.period_s:
            raise ModelDomainError(
                f"pulse_duration_s must lie in (0, period_s], got "
                f"{self.pulse_duration_s!r} with period_s {self.period_s!r}")
        if not 0.5 < self.rise_fraction < 1.0:
            raise ModelDomainError(
                f"rise_fraction must lie in (0.5, 1), got {self.rise_fraction!r}")
        if self.peak_current <= 0.0:
            raise ModelDomainError(
                f"peak_current must be > 0, got {self.peak_current!r}")
        if self.phase_lag_s < 0.0:
            raise ModelDomainError(
                f"phase_lag_s must be >= 0, got {self.phase_lag_s!r}")

    @property
    def rise_end_s(self) -> float:
        """Offset of the peak within the pulse (end of the rising ramp)."""
        return self.rise_fraction * self.pulse_duration_s

    def sample(self, t: float) -> float:
        """Generator output at time t (zero before the lag).  Raises
        ModelDomainError for a non-finite t."""
        return float(self.sample_times(t))

    def sample_times(self, times: np.ndarray) -> np.ndarray:
        """The output at each of times; ModelDomainError if any is not
        finite.  Before the lag t - phase_lag_s is exactly negative (x != y
        implies x - y != 0 under gradual underflow), so its fmod is <= 0 and
        the tau <= 0 test keeps those times silent."""
        t = np.asarray(times, dtype=float)
        finite = np.isfinite(t)
        if not finite.all():
            raise ModelDomainError(
                f"time must be finite, got {float(t[~finite][0])!r}")
        tau = np.fmod(t - self.phase_lag_s, self.period_s)
        rise_end = self.rise_end_s
        rising = self.peak_current * (tau / rise_end)
        falling = self.peak_current * ((self.pulse_duration_s - tau)
                                       / (self.pulse_duration_s - rise_end))
        out = np.where(tau < rise_end, rising, falling)
        return np.where((tau <= 0.0) | (tau >= self.pulse_duration_s), 0.0, out)

    def phase(self, t: float) -> OscillatorPhase:
        """Cycle segment at time t.  CLOSED exactly where sample(t) == 0."""
        silent = self.sample(t) == 0.0
        tau = math.fmod(t - self.phase_lag_s, self.period_s)
        if silent:
            # tau >= pulse_duration_s only after the lag and within a gap
            position = 0.0
            if tau >= self.pulse_duration_s:
                position = ((tau - self.pulse_duration_s)
                            / (self.period_s - self.pulse_duration_s))
            return OscillatorPhase(PhaseKind.CLOSED, position)
        rise_end = self.rise_end_s
        if tau < rise_end:
            return OscillatorPhase(PhaseKind.RISING, tau / rise_end)
        return OscillatorPhase(
            PhaseKind.FALLING,
            (tau - rise_end) / (self.pulse_duration_s - rise_end))

    def open_intervals(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Time spans within [t0, t1] where the generator output is nonzero.

        Returns the pulse windows [lag + n*period, lag + n*period + pulse]
        clipped to the query window; the output is strictly positive on the
        interior of each returned span (endpoints may touch zero).  The
        pulse count is bounded before any span is made.
        """
        if not -math.inf < t0 < t1 < math.inf:
            raise ModelDomainError(
                f"need finite t0 < t1, got [{t0!r}, {t1!r}]")
        first = max((t0 - self.phase_lag_s) / self.period_s, 0.0)
        if not (t1 - self.phase_lag_s) / self.period_s - first <= _MAX_SPANS:
            raise ModelDomainError(
                f"[{t0!r}, {t1!r}] holds more than {_MAX_SPANS} pulses of "
                f"period {self.period_s!r} s")
        spans: list[tuple[float, float]] = []
        n = max(0, math.floor(first) - 1)
        while True:
            start = self.phase_lag_s + n * self.period_s
            if start >= t1:
                break
            end = start + self.pulse_duration_s
            lo, hi = max(start, t0), min(end, t1)
            if lo < hi:
                spans.append((lo, hi))
            n += 1
        return spans
