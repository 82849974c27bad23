"""Series glottal circuit and the quasi-static flow solve.

The glottis is modeled as two fold stages in series across a DC drive (the
Thevenin equivalent of the lung-pressure source): the lower fold pairs a
linear element with a compressive one, the upper fold a linear element with
an expansive one.  Each stage's oscillator throttles both of its elements
through the shared bias_scale, so the series admittance is zero outside the
pulses and glottal flow is the common series current.

Dynamics are quasi-static: at every sample time the oscillators set the
biases and the network is solved fresh for the current that satisfies the
voltage balance sum(element voltages) = drive v.  It is solved in
s = sqrt(I), where an element of law exponent q and coefficient c drops
(s / sqrt(c))**p with p = 2 / q in {2, 4, 1}, so the balance is a quartic in
s.  Alone across the whole drive an element would pass
rho = sqrt(c) * v**(q / 2), and no element of a series stack sees more than
the whole drive, so sigma = min_k rho_k bounds s from above.  In x = s / sigma
the balance divided by v reads

    g(x) = b4 * x**4 + b2 * x**2 + b1 * x - 1,
    b_p = sum of (sigma / rho_k)**p over the elements of power p,

which is convex and increasing on x >= 0 with g(1) >= 0, so Newton from
x = 1 converges monotonically from above.  The normalization is required,
not cosmetic: every sigma / rho_k lies in [0, 1], so nothing in the
iteration can overflow, whereas the raw quartic in s, with coefficients
sum c_k**(-p / 2), overflows on 56 of the 162 extreme-gain cases of the tests
(gains 1e-300, 1 and 1e300 at 6 and 15 cmH2O).

simulate streams the record: the oscillator traces and the solve run one
block of samples at a time into the preallocated output arrays, so the
temporaries stay at one block however long the record is.  The traces do not
depend on the drive, so simulate_many forms them once for circuits that
differ only in their drive and shares them, read-only, among its waveforms.
"""
from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .elements import ElementKind, ResistorElement
from .errors import ModelDomainError, SolverError
from .oscillator import OscillatorConfig
from .pressure import DcVoltage

DEFAULT_SAMPLE_RATE_HZ = 44100
MIN_SAMPLE_RATE_HZ = 8000
DEFAULT_DURATION_S = 1.0

# Newton termination: residual within 1e-12 * max(v_drive, 1),
# well inside the 1e-10 voltage-balance budget of the simulate contract.
_RESIDUAL_RTOL = 1e-12
_MAX_SOLVER_STEPS = 200
# simulate forms the traces and solves them this many samples at a time.
# The samples are independent, so the result does not depend on it, and the
# temporaries stay at a few MB however long the record is.
_SOLVE_BLOCK = 16384
# A current I = s * s is finite while s <= _SQRT_MAX.
_SQRT_MAX = math.sqrt(sys.float_info.max)
# The most float64 samples whose byte count numpy can index.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8


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
        # config builds on this module, so it is imported at call time
        from .config import RunConfig
        return RunConfig(pressure_cmh2o=pressure_cmh2o).build_circuit()


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
        object.__setattr__(self, "sample_rate_hz",
                           _check_rate(self.sample_rate_hz))
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


def _quartic(kinds, coeffs, v):
    """sigma = min_k rho_k and the coefficients (b4, b2, b1) of the
    normalized voltage balance g(x) (see the module docstring)."""
    with np.errstate(over="ignore"):
        rhos = [np.sqrt(c) * v ** (0.5 * kind.exponent)
                for kind, c in zip(kinds, coeffs)]
    sigma = functools.reduce(np.minimum, rhos)
    b = {1.0: 0.0, 2.0: 0.0, 4.0: 0.0}
    for kind, rho in zip(kinds, rhos):
        # 1 where rho is the minimum, which covers sigma = rho = 0 or inf
        r = np.divide(sigma, rho, out=np.ones_like(sigma), where=rho > sigma)
        p = 2.0 / kind.exponent
        term = r if p == 1.0 else r * r
        b[p] = b[p] + (term * term if p == 4.0 else term)
    return sigma, b[4.0], b[2.0], b[1.0]


def _series_root(kinds, coeffs, v):
    """Square root s = sqrt(I) of the series current, for 1-D arrays of
    coefficients at drive v > 0: the normalized quartic Newton kernel.

    The coefficients of g come from _quartic, in which elements of one law
    fold into one b_p; g and g' are evaluated by Horner.  The root lies in
    [1 / n, 1] for n elements, and a rho_k beyond the float range only adds
    0 to its b_p.  Converged entries are frozen in place rather than removed,
    and the loop uses only correctly rounded operations, so each result
    depends on that entry's own inputs only, whatever the batch size.  s
    comes out as inf, without a warning, where sigma is beyond the float
    range.  The stopping test |g| <= 1e-12 * max(v, 1) / v is the voltage
    residual within 1e-12 * max(v, 1).
    """
    sigma, b4, b2, b1 = _quartic(kinds, coeffs, v)
    d4, d2 = 4.0 * b4, 2.0 * b2
    tol = _RESIDUAL_RTOL * max(v, 1.0) / v
    x = np.ones_like(sigma)
    for _ in range(_MAX_SOLVER_STEPS):
        y = x * x
        g = (b4 * y + b2) * y + b1 * x - 1.0
        done = np.abs(g) <= tol
        if done.all():
            return sigma * x
        x = np.where(done, x, x - g / ((d4 * y + d2) * x + b1))
    k = int(np.argmin(done))
    residual = float(g[k]) * v
    raise SolverError(
        f"series current solve did not converge in {_MAX_SOLVER_STEPS} steps "
        f"(residual {residual!r} V)", residual=residual, index=k)


def solve_series_current(elements, v_drive: float) -> float:
    """Common current through a series stack of elements at a given drive.

    Returns 0 when the drive is zero or any element is open (effective
    coefficient 0); otherwise the unique I >= 0 balancing the voltage drops,
    with residual below 1e-12 * max(v_drive, 1).  Raises ModelDomainError
    when that current exceeds the float range.
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
    s = float(_series_root([e.kind for e in elements], arrays,
                           float(v_drive))[0])
    current = s * s
    if not math.isfinite(current):
        raise ModelDomainError(
            f"series current at a drive of {v_drive!r} V exceeds the float "
            f"range")
    return current


def _check_rate(sample_rate_hz) -> int:
    """The rate as an int: whole Hz from 8 kHz up to the float range."""
    if (not MIN_SAMPLE_RATE_HZ <= sample_rate_hz <= sys.float_info.max
            or int(sample_rate_hz) != sample_rate_hz):
        raise ModelDomainError(
            f"sample_rate_hz must be an integer in [{MIN_SAMPLE_RATE_HZ}, "
            f"{sys.float_info.max!r}], got {sample_rate_hz!r}")
    return int(sample_rate_hz)


def _check_grid(duration_s: float, sample_rate_hz: int) -> tuple[int, int]:
    """The sample count and rate of a record: at least one sample, and few
    enough for a float64 array."""
    rate = _check_rate(sample_rate_hz)
    if not math.isfinite(duration_s) or duration_s <= 0.0:
        raise ModelDomainError(
            f"duration_s must be finite and > 0, got {duration_s!r}")
    samples = duration_s * rate
    if not samples <= _MAX_SAMPLES:
        raise ModelDomainError(
            f"duration {duration_s!r} s at {rate} Hz is more samples than an "
            f"array can hold")
    n = int(round(samples))
    if n < 1:
        raise ModelDomainError(
            f"duration {duration_s!r} s is shorter than one sample at {rate} Hz")
    return n, rate


def conductance_traces(circuit: GlottalCircuit, duration_s: float = DEFAULT_DURATION_S,
                       sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bias traces (oscillator sample / peak) of both folds over
    the record, formed one block of samples at a time."""
    n, rate = _check_grid(duration_s, sample_rate_hz)
    g_lower, g_upper = np.empty(n), np.empty(n)
    for start in range(0, n, _SOLVE_BLOCK):
        t = np.arange(start, min(start + _SOLVE_BLOCK, n)) / float(rate)
        for g, fold in ((g_lower, circuit.lower), (g_upper, circuit.upper)):
            osc = fold.oscillator
            g[start:start + len(t)] = osc.sample_times(t) / osc.peak_current
    return g_lower, g_upper


def _series_elements(circuit: GlottalCircuit) -> tuple[ResistorElement, ...]:
    return (circuit.lower.linear, circuit.lower.nonlinear,
            circuit.upper.linear, circuit.upper.nonlinear)


def _check_flow_range(circuit: GlottalCircuit) -> None:
    """Raise ModelDomainError if the flow at full bias, the most the circuit
    can carry, exceeds the float range.

    The flow (sigma * x)**2 overflows when x exceeds x_c = _SQRT_MAX / sigma,
    and since g increases, that is when g(x_c) < 0; so no Newton is needed.
    """
    elements = _series_elements(circuit)
    sigma, b4, b2, b1 = (float(a) for a in _quartic(
        [e.kind for e in elements], [np.float64(e.gain) for e in elements],
        circuit.drive.value))
    if sigma > _SQRT_MAX:
        x = _SQRT_MAX / sigma
        if (b4 * x * x + b2) * x * x + b1 * x < 1.0:
            raise ModelDomainError(
                f"the flow at full bias exceeds the float range (drive "
                f"{circuit.drive.value!r} V, gains "
                f"{tuple(e.gain for e in elements)!r})")


def _solve_flow(circuit: GlottalCircuit, g_lower: np.ndarray,
                g_upper: np.ndarray, rate: int) -> np.ndarray:
    """The flow of circuit over full-record bias traces, solved one block of
    samples at a time; a SolverError names the sample time that failed."""
    elements = _series_elements(circuit)
    kinds = [e.kind for e in elements]
    drive = circuit.drive.value
    u = np.zeros(len(g_lower))
    if not (drive > 0.0 and min(e.gain for e in elements) > 0.0):
        return u
    for start in range(0, len(u), _SOLVE_BLOCK):
        gl = g_lower[start:start + _SOLVE_BLOCK]
        gu = g_upper[start:start + _SOLVE_BLOCK]
        active = np.flatnonzero((gl > 0.0) & (gu > 0.0))
        gl, gu = gl[active], gu[active]
        coeffs = [e.gain * g for e, g in zip(elements, (gl, gl, gu, gu))]
        del gl, gu  # freed before the solve's temporaries peak
        try:
            s = _series_root(kinds, coeffs, drive)
        except SolverError as exc:
            # Map the failing solve entry back to its sample time.
            k = start + int(active[exc.index])
            t_k = k / float(rate)
            raise SolverError(
                f"{exc} at t = {t_k!r} s", residual=exc.residual,
                index=k, time_s=t_k) from exc
        u[start + active] = s * s
    return u


def simulate_many(circuits: Iterable[GlottalCircuit],
                  duration_s: float = DEFAULT_DURATION_S,
                  sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
                  ) -> Iterator[GlottalWaveform]:
    """simulate for each of circuits that differ only in their drive,
    yielding the waveforms in order; each is bitwise equal to
    simulate(circuit, duration_s, sample_rate_hz).

    The oscillator traces are formed once, one block of samples at a time,
    and every waveform shares them as read-only arrays; each flow is then
    solved block by block.  Only the waveform being yielded is built, so
    memory does not grow with the number of circuits.  On the first next(),
    before any trace is formed, the grid and every circuit are checked:
    ModelDomainError is raised when two circuits differ in anything but the
    drive, or when a flow at full bias exceeds the float range.
    """
    n, rate = _check_grid(duration_s, sample_rate_hz)
    circuits = list(circuits)
    if not circuits:
        return
    first = circuits[0]
    for k, circuit in enumerate(circuits):
        if (circuit.lower, circuit.upper) != (first.lower, first.upper):
            raise ModelDomainError(
                f"simulate_many needs circuits that differ only in their "
                f"drive; circuit {k} differs from circuit 0 in its "
                f"oscillators or gains")
        _check_flow_range(circuit)
    g_lower, g_upper = conductance_traces(first, duration_s, rate)
    g_lower.flags.writeable = False
    g_upper.flags.writeable = False
    for circuit in circuits:
        yield GlottalWaveform(
            sample_rate_hz=rate, g_lower=g_lower, g_upper=g_upper,
            u_gl=_solve_flow(circuit, g_lower, g_upper, rate))


def simulate(circuit: GlottalCircuit, duration_s: float = DEFAULT_DURATION_S,
             sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ) -> GlottalWaveform:
    """Quasi-static simulation on a uniform grid t_k = k / sample_rate_hz.

    At each sample both elements of a fold take bias_scale equal to that
    fold's normalized oscillator value, and the four-element series network
    is solved for the flow.  The traces and the solve run one block of
    samples at a time, so the temporaries stay at one block however long the
    record is; the waveform's trace arrays are read-only.  Output is
    deterministic: identical inputs give bit-identical arrays.  Raises
    ModelDomainError up front when the flow at full bias exceeds the float
    range.
    """
    return next(simulate_many((circuit,), duration_s, sample_rate_hz))
