"""Sawtooth current-pulse generator that gates the vocal-fold elements.

Each fold is opened and closed by a relaxation-oscillator current: a periodic
pulse that ramps linearly from zero to its peak over most of the pulse (slow
rise) and drops linearly back to zero over the remainder (fast fall).  The
generator is ideal: the piecewise-linear waveform is evaluated directly
instead of integrating the underlying capacitor charge/discharge.

Defaults describe a normal male voice: 8 ms period and pulse width (125 Hz),
rise over 90% of the pulse, unit peak.  The two folds run identical
generators offset by a phase lag (1 ms by default for the upper fold).

The phase within the period, tau = fmod(t - lag, period), is the costly part
of a trace: glibc's fmod reduces bit by bit, at many times the cost of a
multiply.  _phase forms the same remainder, bitwise, by Cody-Waite argument
reduction with a Veltkamp split period = hi + lo, each half of at most 26
significant bits.  With a = |t - lag| and n = floor(a / period),
tau = (a - n * hi) - n * lo, plus period where it is negative, is exact:
- n is the true quotient q, or q + 1 where a / period rounded up to an
  integer, since rounding is monotone and integers are floats;
- for n < 2**26 both products are exact;
- a - n * hi is exact (Sterbenz): both are multiples of ulp(a), and
  0 <= n * hi <= 2a;
- the true a - n * period is the remainder, or the remainder less the
  period, and both are floats, so the last subtraction returns it.
copysign then gives tau the sign of t - lag, zeros included, as fmod does.
An array whose largest quotient reaches 2**26, or a period outside
(1e-280, 1e280), where the split could overflow or n * lo turn subnormal,
lies beyond that domain and is reduced by np.fmod itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelDomainError

DEFAULT_PERIOD_S = 0.008
DEFAULT_RISE_FRACTION = 0.9
DEFAULT_FOLD_LAG_S = 0.001
# Veltkamp's factor for binary64: with c = _SPLIT * p, hi = c - (c - p)
# keeps the leading 26 significant bits of p and lo = p - hi the rest, in 26
# bits with its sign.
_SPLIT = 2.0 ** 27 + 1.0
# Below this quotient n * hi and n * lo carry at most 52 bits, so are exact.
_EXACT_QUOTIENT = 2.0 ** 26
# Periods for which _SPLIT * p cannot overflow nor n * lo be subnormal.
_PERIOD_RANGE = (1e-280, 1e280)


def _phase(d: np.ndarray, period: float, out: np.ndarray,
           scratch: np.ndarray) -> np.ndarray:
    """np.fmod(d, period), bitwise, for the finite d, written into out and
    returned; scratch holds two more arrays of d's length.  The reduction
    and its exactness are set out in the module docstring."""
    a = np.abs(d, out=out)
    low, high = _PERIOD_RANGE
    if not (low < period < high
            and float(a.max(initial=0.0)) / period < _EXACT_QUOTIENT):
        return np.fmod(d, period, out=out)
    c = _SPLIT * period
    hi = c - (c - period)
    n, product = scratch
    np.floor(np.divide(a, period, out=n), out=n)
    a -= np.multiply(n, hi, out=product)
    a -= np.multiply(n, period - hi, out=product)
    np.add(a, period, out=a, where=a < 0.0)
    return np.copysign(a, d, out=a)


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

        tau = fmod(t - phase_lag_s, period_s) comes from an exact Cody-Waite
        reduction, bitwise np.fmod (see the module docstring): n * hi and
        n * lo are exact below a quotient n of 2**26, a - n * hi by
        Sterbenz, and the remainder is a float.  Times whose largest
        quotient reaches 2**26, or a period outside (1e-280, 1e280), are
        reduced by np.fmod.  Before the lag t - phase_lag_s is exactly
        negative (x != y implies x - y != 0 under gradual underflow), so its
        tau is <= 0 and the tau <= 0 test keeps those times silent."""
        t = np.asarray(times, dtype=float)
        finite = np.isfinite(t)
        if not finite.all():
            raise ModelDomainError(
                f"time must be finite, got {float(t[~finite][0])!r}")
        flat = t.ravel()
        out = self._pulse(flat, np.empty(flat.size), np.empty((3, flat.size)))
        out *= self.peak_current
        return out.reshape(t.shape)

    def _pulse(self, t: np.ndarray, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
        """The output over peak_current, a pulse of unit peak, at each of the
        finite times t, written into out and returned; scratch holds three
        more arrays of t's length."""
        tau = _phase(np.subtract(t, self.phase_lag_s, out=out), self.period_s,
                     scratch[0], scratch[1:])
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

