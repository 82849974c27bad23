"""Sawtooth current-pulse generator that gates the vocal-fold elements.

Each fold is opened and closed by a relaxation-oscillator current: a periodic
pulse that ramps linearly from zero to its peak over most of the pulse (slow
rise) and drops linearly back to zero over the remainder (fast fall).  The
generator is ideal: the piecewise-linear waveform is evaluated directly
instead of integrating the underlying capacitor charge/discharge.

Defaults describe a normal male voice: 8 ms period and pulse width (125 Hz),
rise over 90% of the pulse, unit peak.  The two folds run identical
generators offset by a phase lag (1 ms by default for the upper fold).

The phase within the period is tau = fmod(t - lag, period), formed by
np.fmod, whose remainder is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelDomainError

DEFAULT_PERIOD_S = 0.008
DEFAULT_RISE_FRACTION = 0.9
DEFAULT_FOLD_LAG_S = 0.001


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
        finite.

        Every t < 0 is taken as 0, so t - phase_lag_s cannot overflow.
        This leaves the output as it was: t < 0 lies before any lag >= 0,
        and so does 0 before a positive lag, while a zero lag gives t = 0 a
        silent tau = 0.  Before the lag t - phase_lag_s is exactly negative
        (x != y implies x - y != 0 under gradual underflow), so its
        tau = fmod(t - phase_lag_s, period_s) is <= 0 and the tau <= 0 test
        keeps those times silent."""
        t = np.asarray(times, dtype=float)
        finite = np.isfinite(t)
        if not finite.all():
            raise ModelDomainError(
                f"time must be finite, got {float(t[~finite][0])!r}")
        flat = np.maximum(t.ravel(), 0.0)
        out = self._pulse(flat, np.empty(flat.size), np.empty((2, flat.size)))
        out *= self.peak_current
        return out.reshape(t.shape)

    def _pulse(self, t: np.ndarray, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
        """The output over peak_current, a pulse of unit peak, at each of the
        finite times t >= 0, written into out and returned; scratch holds two
        more arrays of t's length."""
        tau = np.fmod(np.subtract(t, self.phase_lag_s, out=out), self.period_s,
                      out=scratch[0])
        rise_end = self.rise_end_s
        pulse = self.pulse_duration_s
        # A subnormal rise_end, or a subnormal or zero fall span
        # pulse - rise_end, makes quotients overflow or divide by zero, or
        # 0 / 0 at tau = pulse, but only outside the window
        # that selects them: a selected rise value has 0 < tau < rise_end,
        # and a selected fall value rise_end <= tau < pulse, where both
        # differences are exact (Sterbenz, as rise_end >= pulse / 2, or
        # both subnormal) and pulse - tau <= pulse - rise_end, so each
        # ratio is at most 1.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.divide(tau, rise_end, out=out)
            falling = np.subtract(pulse, tau, out=scratch[1])
            falling /= pulse - rise_end
        np.copyto(out, falling, where=tau >= rise_end)
        np.copyto(out, 0.0, where=(tau <= 0.0) | (tau >= pulse))
        return out

