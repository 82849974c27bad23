"""Series glottal circuit and the quasi-static flow solve.

The glottis is modeled as two fold stages in series across a DC drive (the
Thevenin equivalent of the lung-pressure source): the lower fold pairs a
linear element with a compressive one, the upper fold a linear element with
an expansive one.  Each stage's oscillator throttles both of its elements
through the shared bias_scale, so the series admittance is zero outside the
pulses and glottal flow is the common series current.

Dynamics are quasi-static: at every sample time the oscillators set the
biases and the network is solved fresh for the current that satisfies the
voltage balance sum(element voltages) = drive.  The residual

    f(I) = sum_k element_voltage(e_k, I) - v_drive

is strictly increasing in I.  It is solved in s = sqrt(I), where every
element voltage is a power (s / sqrt(c))**p with p >= 1; the residual is then
convex as well, so plain Newton from an upper bound converges monotonically.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elements import ElementKind, ResistorElement
from .errors import ModelDomainError, SolverError
from .oscillator import DEFAULT_FOLD_LAG_S, OscillatorConfig
from .pressure import DcVoltage, PressureCmH2O, pressure_to_voltage

DEFAULT_SAMPLE_RATE_HZ = 44100
MIN_SAMPLE_RATE_HZ = 8000
DEFAULT_DURATION_S = 1.0

# Newton termination: residual within 1e-12 * max(v_drive, 1),
# well inside the 1e-10 voltage-balance budget of the simulate contract.
_RESIDUAL_RTOL = 1e-12
_MAX_SOLVER_STEPS = 200
# simulate solves the active samples this many at a time.  The entries are
# independent, so the result does not depend on it, and the solver's
# temporaries stay at a few MB however long the record is.
_SOLVE_BLOCK = 16384


@dataclass(frozen=True)
class FoldStage:
    """One vocal fold: linear + nonlinear element gated by one oscillator."""

    linear: ResistorElement
    nonlinear: ResistorElement
    oscillator: OscillatorConfig

    def __post_init__(self):
        if self.linear.kind is not ElementKind.LINEAR:
            raise ModelDomainError(
                f"fold linear branch must be a LINEAR element, got {self.linear.kind}")
        if self.nonlinear.kind is ElementKind.LINEAR:
            raise ModelDomainError(
                "fold nonlinear branch must be COMPRESSIVE or EXPANSIVE")


@dataclass(frozen=True)
class GlottalCircuit:
    """Two fold stages in series across the DC drive."""

    lower: FoldStage
    upper: FoldStage
    drive: DcVoltage

    def __post_init__(self):
        if self.lower.nonlinear.kind is not ElementKind.COMPRESSIVE:
            raise ModelDomainError(
                "lower fold pairs its linear element with a COMPRESSIVE one")
        if self.upper.nonlinear.kind is not ElementKind.EXPANSIVE:
            raise ModelDomainError(
                "upper fold pairs its linear element with an EXPANSIVE one")
        if self.drive.value < 0.0:
            raise ModelDomainError(
                f"drive voltage must be >= 0, got {self.drive.value!r}")

    @property
    def inter_fold_lag_s(self) -> float:
        """Phase offset of the upper fold relative to the lower one."""
        return self.upper.oscillator.phase_lag_s - self.lower.oscillator.phase_lag_s

    @classmethod
    def normal_voice(cls, pressure_cmh2o: float = 10.0) -> "GlottalCircuit":
        """Default normal-voice circuit: 125 Hz pulses, 1 ms fold lag, unit gains.

        Build any other circuit with RunConfig(...).build_circuit().
        """
        return _two_fold_circuit(
            pressure_cmh2o, OscillatorConfig(),
            OscillatorConfig(phase_lag_s=DEFAULT_FOLD_LAG_S), 1.0, 1.0, 1.0, 1.0)


def _two_fold_circuit(pressure_cmh2o: float, lower_osc: OscillatorConfig,
                     upper_osc: OscillatorConfig, lower_linear_gain: float,
                     lower_compressive_gain: float, upper_linear_gain: float,
                     upper_expansive_gain: float) -> GlottalCircuit:
    """Linear + compressive lower fold and linear + expansive upper fold in
    series across the drive of the given lung pressure."""
    return GlottalCircuit(
        lower=FoldStage(ResistorElement(ElementKind.LINEAR, lower_linear_gain),
                        ResistorElement(ElementKind.COMPRESSIVE,
                                        lower_compressive_gain),
                        lower_osc),
        upper=FoldStage(ResistorElement(ElementKind.LINEAR, upper_linear_gain),
                        ResistorElement(ElementKind.EXPANSIVE,
                                        upper_expansive_gain),
                        upper_osc),
        drive=pressure_to_voltage(PressureCmH2O(pressure_cmh2o)))


@dataclass(frozen=True, eq=False)
class GlottalWaveform:
    """Sampled simulation output: flow plus the two fold conductance traces."""

    sample_rate_hz: int
    u_gl: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        for name in ("u_gl", "g_lower", "g_upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ModelDomainError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ModelDomainError(f"{name} must be finite everywhere")
        if not (len(self.u_gl) == len(self.g_lower) == len(self.g_upper)):
            raise ModelDomainError("waveform arrays must share one length")
        if len(self.u_gl) == 0:
            raise ModelDomainError("waveform must hold at least one sample")
        if self.sample_rate_hz < MIN_SAMPLE_RATE_HZ:
            raise ModelDomainError(
                f"sample_rate_hz must be >= {MIN_SAMPLE_RATE_HZ}")
        if np.any(self.u_gl < 0.0):
            raise ModelDomainError("glottal flow is unipolar; u_gl must be >= 0")
        closed = (self.g_lower == 0.0) | (self.g_upper == 0.0)
        if np.any(self.u_gl[closed] != 0.0):
            raise ModelDomainError("flow must vanish wherever a fold bias is zero")

    def __len__(self) -> int:
        return len(self.u_gl)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.u_gl)) / float(self.sample_rate_hz)


def _series_current(kinds, coeffs, v):
    """Vectorized series current for 1-D arrays of coefficients at drive v.

    The drive and every coefficient must be strictly positive.  In
    s = sqrt(I) an element of exponent q drops (s / sqrt(c))**p with
    p = 2 / q in {2, 4, 1}, so f(s) = sum_k (s / sqrt(c_k))**p_k - v is
    convex and increasing on s >= 0, and Newton started above the root
    decreases monotonically onto it.  The start is the square root of the
    smallest single-element current at full drive, an upper bound on the
    series current because no element sees more than the whole drive.  It is
    formed as sqrt(c) * v**(q / 2), since the current c * v**q itself
    overflows once v exceeds about 1e154.  A nonlinear term may still
    overflow to inf; in a series with a linear element it is then never the
    minimum, as sqrt(c) * v**0.5 stays finite for any finite c and v.
    Converged entries leave the iteration, so each result depends on that
    entry's own inputs only.
    """
    powers = [2.0 / kind.exponent for kind in kinds]
    roots = [np.sqrt(c) for c in coeffs]
    with np.errstate(over="ignore"):
        s = functools.reduce(np.minimum, (
            r * v ** (0.5 * kind.exponent) for kind, r in zip(kinds, roots)))
    tol = _RESIDUAL_RTOL * max(v, 1.0)
    out = np.empty_like(s)
    pending = np.arange(len(s))
    for _ in range(_MAX_SOLVER_STEPS):
        terms = [(s / r) ** p for r, p in zip(roots, powers)]
        f = sum(terms) - v
        done = np.abs(f) <= tol
        out[pending[done]] = s[done]
        if done.all():
            return out * out
        if done.any():
            keep = ~done
            pending, s, f = pending[keep], s[keep], f[keep]
            roots = [r[keep] for r in roots]
            terms = [t[keep] for t in terms]
        # s - f / f'(s), with f'(s) = sum_k p_k * term_k / s
        s = s - s * f / sum(p * t for p, t in zip(powers, terms))
    raise SolverError(
        f"series current solve did not converge in {_MAX_SOLVER_STEPS} steps "
        f"(residual {float(f[0])!r} V)",
        residual=float(f[0]), index=int(pending[0]))


def solve_series_current(elements, v_drive: float) -> float:
    """Common current through a series stack of elements at a given drive.

    Returns 0 when the drive is zero or any element is open (effective
    coefficient 0); otherwise the unique I >= 0 balancing the voltage drops,
    with residual below 1e-12 * max(v_drive, 1).
    """
    elements = list(elements)
    if not elements:
        raise ModelDomainError("series network needs at least one element")
    if not math.isfinite(v_drive) or v_drive < 0.0:
        raise ModelDomainError(
            f"drive voltage must be finite and >= 0, got {v_drive!r}")
    if v_drive == 0.0:
        return 0.0
    coeffs = [e.effective_coefficient for e in elements]
    if min(coeffs) == 0.0:
        return 0.0
    arrays = [np.full(1, c, dtype=float) for c in coeffs]
    x = _series_current([e.kind for e in elements], arrays, float(v_drive))
    return float(x[0])


def _check_grid(duration_s: float, sample_rate_hz: int) -> tuple[int, int]:
    rate = int(sample_rate_hz)
    if rate != sample_rate_hz or rate < MIN_SAMPLE_RATE_HZ:
        raise ModelDomainError(
            f"sample_rate_hz must be an integer >= {MIN_SAMPLE_RATE_HZ}, "
            f"got {sample_rate_hz!r}")
    if not math.isfinite(duration_s) or duration_s <= 0.0:
        raise ModelDomainError(
            f"duration_s must be finite and > 0, got {duration_s!r}")
    samples = duration_s * rate
    if not math.isfinite(samples):
        raise ModelDomainError(
            f"duration {duration_s!r} s at {rate} Hz is more samples than a "
            f"float can count")
    n = int(round(samples))
    if n < 1:
        raise ModelDomainError(
            f"duration {duration_s!r} s is shorter than one sample at {rate} Hz")
    return n, rate


def conductance_traces(circuit: GlottalCircuit, duration_s: float = DEFAULT_DURATION_S,
                       sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bias traces (oscillator sample / peak) of both folds."""
    n, rate = _check_grid(duration_s, sample_rate_hz)
    t = np.arange(n) / float(rate)
    lower_osc = circuit.lower.oscillator
    upper_osc = circuit.upper.oscillator
    g_lower = lower_osc.sample_times(t) / lower_osc.peak_current
    g_upper = upper_osc.sample_times(t) / upper_osc.peak_current
    return g_lower, g_upper


def simulate(circuit: GlottalCircuit, duration_s: float = DEFAULT_DURATION_S,
             sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ) -> GlottalWaveform:
    """Quasi-static simulation on a uniform grid t_k = k / sample_rate_hz.

    At each sample both elements of a fold take bias_scale equal to that
    fold's normalized oscillator value, and the four-element series network
    is solved for the flow.  Output is deterministic: identical inputs give
    bit-identical arrays.
    """
    g_lower, g_upper = conductance_traces(circuit, duration_s, sample_rate_hz)
    rate = int(sample_rate_hz)
    u = np.zeros(len(g_lower))
    drive = circuit.drive.value
    elements = (circuit.lower.linear, circuit.lower.nonlinear,
                circuit.upper.linear, circuit.upper.nonlinear)
    if drive > 0.0 and min(e.gain for e in elements) > 0.0:
        active = np.flatnonzero((g_lower > 0.0) & (g_upper > 0.0))
        kinds = [e.kind for e in elements]
        for start in range(0, len(active), _SOLVE_BLOCK):
            block = active[start:start + _SOLVE_BLOCK]
            gl, gu = g_lower[block], g_upper[block]
            coeffs = [e.gain * g for e, g in zip(elements, (gl, gl, gu, gu))]
            try:
                u[block] = _series_current(kinds, coeffs, drive)
            except SolverError as exc:
                # Map the failing solve entry back to its sample time.
                k = int(block[exc.index])
                t_k = k / float(rate)
                raise SolverError(
                    f"{exc} at t = {t_k!r} s", residual=exc.residual,
                    index=k, time_s=t_k) from exc
    return GlottalWaveform(sample_rate_hz=rate, u_gl=u,
                           g_lower=g_lower, g_upper=g_upper)
