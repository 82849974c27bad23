"""Series glottal circuit and the quasi-static flow solve.

The glottis is modeled as two fold stages in series across a DC drive (the
Thevenin equivalent of the lung-pressure source): the lower fold pairs a
linear element with a compressive one, the upper fold a linear element with
an expansive one.  Each stage's oscillator trace, its bias, multiplies the
gains of both of its elements, so the series admittance is zero outside the
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

which is convex and increasing on x >= 0 with g(1) >= 0.  The normalization
is required, not cosmetic: every sigma / rho_k = t_f * (kappa_min,f / kappa_k)
of the factored set-up below lies in [0, 1], each factor as rounded too, and
is exactly 1 for the least rho, so nothing in the iteration can overflow,
whereas the raw quartic in s, with coefficients sum c_k**(-p / 2),
overflows on 56 of the 162 extreme-gain cases of the tests (gains 1e-300, 1
and 1e300 at 6 and 15 cmH2O).

The root is found by Halley steps

    x <- x - g * g' / (g'**2 - g * (6 * b4 * x**2 + b2))

from a start: the root table below in a flow solve, and x_q = sqrt(z_q) in
solve_series_current and the table's own nodes, where
z_q = 2 / (B + sqrt(B**2 + 4 * b4)), B = b2 + b1, is the positive root of
b4 * z**2 + B * z - 1.  Proved:
- x_q bounds the root r from above, up to rounding.  For x <= 1,
  b1 * x >= b1 * x**2, so g(x) >= b4 * x**4 + B * x**2 - 1; and
  b4 + b2 + b1 >= 1, because the element with the least rho contributes
  exactly 1.  So r and z_q lie in (0, 1], and r**2 <= z_q.
- The denominator is positive for every x > 0.  Where g < 0 it is at least
  g'**2.  Where g >= 0, with P, Q, R = b4 * x**4, b2 * x**2, b1 * x, twice
  x**2 times it is at least 2 * (4P + 2Q + R)**2 - (P + Q + R)(12P + 2Q)
  = 20P**2 + 6Q**2 + 2R**2 + 18PQ + 4PR + 6QR > 0.
- Halley is Newton on f = g / sqrt(g'), and f' is that denominator over
  g'**1.5, so f increases on both sides of the root, its only zero: each
  step moves x down where g > 0 and up where g < 0, and near the root the
  convergence is cubic.
Not proved are a step count and that every iterate stays in x > 0.  Unlike
Newton from above, a Halley step may overshoot below the root (where b1
dominates and b2 is near 0), and the next step comes back up.  The tests
back both: from x_q no entry of the circuit's folds takes more than 3 steps
from 6 to 100 cmH2O, and more than 2 only from about 6.67 to 7.77 cmH2O, nor
more than 3 at the corners of the coefficient domain, with gains from
1e-300 to 1e300, or in the property test over every accepted input.

Every flow solve starts its entries from a root table built once per flowing
drive (see _root_table).  In the two folds of the circuit, the fold that
holds sigma has t_f = 1, so the root is a function of
z = t_lower - t_upper + 1 in [0, 2] alone, and a cubic Hermite table of
2 * 1024 intervals with a node at the kink z = 1 starts every entry within
0.09 of the tolerance at unit gains from 6 to 100 cmH2O: there, and at the
gain corners of the tests, the residual check passes at once, with 0 steps,
which a dense-grid test pins on records of 10 ms, 0.1 s and 1 s.  The start
is clipped to [1 / 4, 1], where the root lies, and an entry it does not
start close enough still takes Halley steps, up to the same cap.  The flows
differ from x_q's in their last digits, by at most 2e-12 relative from 6 to
100 cmH2O.  The build costs about 0.2-0.35 ms per drive, which a record
shorter than about one solve block does not win back: at 4 410 samples the
solve takes about 0.39 ms against 0.20 ms from x_q.

Both elements of a fold share its bias g_f, so c_k = gain_k * g_f and
rho_k = sqrt(g_f) * kappa_k, where kappa_k = sqrt(gain_k) * v**(q_k / 2) is
one number per drive.  The fold's least rho is rho_f = sqrt(g_f) *
kappa_min,f, and

    t_f = fmin(sigma / rho_f, 1),
    sigma / rho_k = t_f * (kappa_min,f / kappa_k),
    b_p = sum over folds f of C_f,p * t_f**p,

where C_f,p, the sum of (kappa_min,f / kappa_k)**p over the fold's elements
of power p, is a scalar per drive, with a ratio of exactly 1 where
kappa_k = kappa_min,f (which covers a kappa of 0 or inf).  A sample then
needs sqrt(g_f), one product rho_f and one divide per fold, sigma as the
least rho_f, and the powers of t_f times scalars.  The fold that holds sigma
has t_f = 1 exactly, and fmin makes it 1 also where sigma = rho_f = 0 or
inf, whose quotient is NaN.  The scalar solve makes a fold of each run of
consecutive elements that share one gain c, and starts a new fold where a
law repeats (g_f = c, kappa_k = v**(q_k / 2)), so that it is bitwise the
kernel from x_q on the circuit's two folds (see solve_series_current).  The
full-bias range check is the case g_f = 1, so all three share this set-up.

simulate streams the record: the oscillator traces and the solve run one
block of samples at a time into the preallocated output arrays, so the
temporaries stay at one block however long the record is.  The traces do not
depend on the drive, only on the two oscillators and the sample grid, so
conductance_traces keeps the last pair it formed and returns the same
read-only arrays to a later call with equal oscillators and grid: simulate
at a new pressure skips the trace pass, and simulate_many takes the traces
once for one circuit at many drives.  The memo holds one entry, dropped
before a new pair is formed, and no pair longer than _TRACE_MEMO_SAMPLES
(2**22) samples per trace.  With a pair it keeps what GlottalWaveform checks
of the traces alone: that both are finite, and the indices of the closed
samples, where a trace is 0, as int32 (4 bytes per closed sample, at worst
16 MiB at the cap beside the pair's 64 MiB; 56 indices over 60 s at the
defaults).  A waveform whose trace arrays are the memo's, the same objects,
then checks only its flow.  Each result of the kernel depends on its own
entry's inputs only, so simulate_many also finds the distinct active
(g_lower, g_upper) pairs once and, at each drive, solves only those and
spreads their flows over the record; the flows are bitwise those of
simulate.
"""
from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .elements import ElementKind, ResistorElement
from .errors import ModelDomainError, SolverError
from .oscillator import OscillatorConfig
from .pressure import DcVoltage

DEFAULT_SAMPLE_RATE_HZ = 44100
MIN_SAMPLE_RATE_HZ = 8000
DEFAULT_DURATION_S = 1.0

# Solver termination: residual within 1e-12 * max(v_drive, 1),
# well inside the 1e-10 voltage-balance budget of the simulate contract.
_RESIDUAL_RTOL = 1e-12
_MAX_SOLVER_STEPS = 200
# simulate forms the traces and solves them this many samples at a time, and
# simulate_many solves its distinct bias pairs this many at a time.  The
# entries are independent, so the result does not depend on it, and the
# temporaries stay at a few MB however long the record is.
_SOLVE_BLOCK = 16384
# The root table has this many intervals per unit of its z in [0, 2].
_ROOT_TABLE_STEPS = 1024
# The most float64 samples whose byte count numpy can index.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8
# conductance_traces keeps a pair of at most this many samples per trace: 64
# MiB for the pair, about 95 s at 44.1 kHz.  It bounds what the process holds
# beyond the arrays its callers keep.
_TRACE_MEMO_SAMPLES = 2 ** 22
# The last pair conductance_traces kept, as ((lower oscillator, upper
# oscillator, n, rate), (g_lower, g_upper), closed), or None, where closed
# holds the int32 indices of the samples at which a trace is 0 if both
# traces are finite, else None.  It is read once into a local and replaced
# by one assignment, so threads need no lock.
_trace_memo = None


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
    """Sampled simulation output: flow plus the two fold conductance traces.

    Each array must be one-dimensional and finite, of one nonempty length,
    with u_gl >= 0 and u_gl == 0 wherever a trace is 0.  Trace arrays that
    are the pair conductance_traces keeps, the same objects, are not checked
    again: the memo holds their finiteness and closed samples, so only the
    flow is checked, with the same errors in the same order.
    """

    sample_rate_hz: int
    u_gl: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        # the memo's own traces come with their checks (see _trace_memo)
        memo = _trace_memo
        closed = (memo[2] if memo is not None and self.g_lower is memo[1][0]
                  and self.g_upper is memo[1][1] else None)
        names = ("u_gl", "g_lower", "g_upper") if closed is None else ("u_gl",)
        for name in names:
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
        if not math.isfinite(self.t0):
            raise ModelDomainError(f"t0 must be finite, got {self.t0!r}")
        if np.any(self.u_gl < 0.0):
            raise ModelDomainError("glottal flow is unipolar; u_gl must be >= 0")
        if closed is None:
            closed = _closed(self.g_lower, self.g_upper)
        if self.u_gl[closed].any():
            raise ModelDomainError("flow must vanish wherever a fold bias is zero")

    def __len__(self) -> int:
        return len(self.u_gl)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.u_gl)) / float(self.sample_rate_hz)


def _closed(g_lower: np.ndarray, g_upper: np.ndarray) -> np.ndarray:
    """The mask of the samples where a fold is closed: its trace is 0."""
    closed = g_lower == 0.0
    closed |= g_upper == 0.0
    return closed


def _fold_coefficients(elements, least) -> dict:
    """C_p of one fold: the sum of (least / kappa_k)**p over its elements of
    power p, a scalar per drive, with a ratio of exactly 1 where kappa_k is
    the least (which covers a kappa of 0 or inf)."""
    c = {}
    for kind, kappa in elements:
        r = 1.0 if kappa == least else least / kappa
        p = 2.0 / kind.exponent
        term = r if p == 1.0 else r * r
        c[p] = c.get(p, 0.0) + (term * term if p == 4.0 else term)
    return c


def _quartic(folds):
    """sigma = min_k rho_k, the coefficients (b4, b2, b1) of the
    normalized voltage balance g(x) (see the module docstring) and the t_f
    of each fold.

    Each fold is (root, [(kind, kappa), ...]): its elements share one bias,
    root is its square root, and element k has rho_k = root * kappa_k.  So a
    fold's least rho is rho_f = root * min(kappa), and sigma / rho_k is
    t_f * (min(kappa) / kappa_k) with t_f = fmin(sigma / rho_f, 1): one
    array divide per fold, and b_p = sum over folds of C_p * t_f**p with
    the scalars C_p of _fold_coefficients.  fmin turns the 0 / 0 or
    inf / inf of a fold that holds sigma = 0 or inf into 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        least = [min(kappa for _, kappa in elements) for _, elements in folds]
        rhos = [root * k for (root, _), k in zip(folds, least)]
        sigma = functools.reduce(np.minimum, rhos)
        t = [np.fmin(sigma / rho, 1.0) for rho in rhos]
    coefficients = [_fold_coefficients(elements, k)
                    for (_, elements), k in zip(folds, least)]
    return (sigma, *_powers(coefficients, t), t)


def _powers(coefficients, t):
    """(b4, b2, b1): b_p = sum over folds of C_p * t_f**p, for the C_p of
    _fold_coefficients of each fold and its t_f."""
    b = {}
    for c_f, t_f in zip(coefficients, t):
        powers = {1.0: t_f}
        top = max(c_f)
        if top > 1.0:
            powers[2.0] = t_f * t_f
        if top > 2.0:
            powers[4.0] = powers[2.0] * powers[2.0]
        for p, c in c_f.items():
            term = powers[p] if c == 1.0 else c * powers[p]
            b[p] = b[p] + term if p in b else term
    return b.get(4.0, 0.0), b.get(2.0, 0.0), b.get(1.0, 0.0)


def _table_start(table, t):
    """The start x read from a root table of _root_table at
    z = t_lower - t_upper + 1 (see there), clipped to [1 / 4, 1], where
    the root lies."""
    u = np.subtract(t[0], t[1])
    u += 1.0
    u *= _ROOT_TABLE_STEPS
    i = np.floor(u)
    u -= i
    # each entry's interval: its four coefficients in one gather
    c = table.take(i.astype(np.intp), axis=0, mode="clip")
    x = np.multiply(c[:, 3], u, out=i)
    for k in (2, 1):
        x += c[:, k]
        x *= u
    x += c[:, 0]
    return np.clip(x, 0.25, 1.0, out=x)


def _root_table(circuit: GlottalCircuit) -> np.ndarray:
    """The start table of the flow solve at circuit's drive v > 0: a row
    per interval of 1 / _ROOT_TABLE_STEPS of [0, 2] that holds the cubic
    coefficients, in increasing power, of the root x over z.

    In the two folds, the fold that holds sigma has t = 1, so the root is
    a function of z = t_lower - t_upper + 1 alone: t_lower = z on [0, 1]
    and t_upper = 2 - z on [1, 2], with a kink at the node z = 1.  The
    nodes are solved by the kernel from x_q and then taken one Newton step
    past its tolerance, and each interval is the cubic Hermite interpolant
    of its end nodes and their one-sided slopes dx/dz = -(dg/dz) / g'.  A
    last interval of width 0 holds the node z = 2.  With g written as
    sum_f phi_f(t_f * x) - 1, phi_f(w) = sum_p C_f,p * w**p, the partials
    are dg/dt_f = x * phi_f'(t_f * x) and g' = sum_f t_f * phi_f'(t_f * x).
    """
    v = circuit.drive.value
    n = _ROOT_TABLE_STEPS
    z = np.arange(2 * n + 1) / n
    t = [np.minimum(z, 1.0), np.minimum(2.0 - z, 1.0)]
    coefficients = [_fold_coefficients(elements, min(k for _, k in elements))
                    for elements in _fold_elements(circuit)]
    b4, b2, b1 = _powers(coefficients, t)
    x = _halley(b4, b2, b1, v, z)
    g, dg, dt = -1.0, 0.0, []
    for c_f, t_f in zip(coefficients, t):
        w = t_f * x
        g = g + sum(c * w ** p for p, c in c_f.items())
        d = sum(p * c * w ** (p - 1.0) for p, c in c_f.items())
        dg = dg + t_f * d
        dt.append(x * d)
    x -= g / dg
    # the slopes in units of one interval: z rises with t_lower on the left
    # half and falls with t_upper on the right one
    left, right = -dt[0] / (dg * n), dt[1] / (dg * n)
    m0 = np.concatenate((left[:n], right[n:-1]))
    m1 = np.concatenate((left[1:n + 1], right[n + 1:]))
    step = np.diff(x)
    table = np.zeros((2 * n + 1, 4))
    table[:, 0] = x
    table[:-1, 1] = m0
    table[:-1, 2] = 3.0 * step - 2.0 * m0 - m1
    table[:-1, 3] = m0 + m1 - 2.0 * step
    return table


def _halley(b4, b2, b1, v, like, x=None):
    """The normalized root x of g for coefficients (b4, b2, b1) at drive
    v > 0, shaped like like, by Halley steps in place from the start x, or
    from x_q where x is None (see the module docstring).

    g, g' and g'' / 2 are evaluated by Horner into buffers allocated once
    per call.  Converged entries are frozen in place rather than removed,
    which gives the same bits.  The loop uses only correctly rounded
    operations, so each result depends on that entry's own inputs only,
    whatever the batch.  The stopping test |g| <= 1e-12 * max(v, 1) / v is
    the voltage residual within 1e-12 * max(v, 1).  A SolverError gives the
    batch index of the first entry that failed and how many failed.
    """
    d4, d2, d6 = 4.0 * b4, 2.0 * b2, 6.0 * b4
    tol = _RESIDUAL_RTOL * max(v, 1.0) / v
    y, g, dg, h = (np.empty_like(like) for _ in range(4))
    done, todo = np.empty(len(y), bool), np.empty(len(y), bool)
    if x is None:
        # x_q = sqrt(z_q), z_q = 2 / (B + sqrt(B**2 + 4 * b4)), B = b2 + b1
        x = np.empty_like(like)
        np.add(b2, b1, out=h)
        np.multiply(h, h, out=y)
        y += d4
        np.sqrt(y, out=y)
        y += h
        np.sqrt(np.divide(2.0, y, out=x), out=x)
    for _ in range(_MAX_SOLVER_STEPS):
        np.multiply(x, x, out=y)
        np.multiply(b4, y, out=g)
        g += b2
        g *= y
        g += np.multiply(b1, x, out=dg)
        g -= 1.0
        np.less_equal(np.abs(g, out=dg), tol, out=done)
        if done.all():
            return x
        # g' = (4 b4 y + 2 b2) x + b1 and g * g'' / 2 = g (6 b4 y + b2)
        np.multiply(d4, y, out=dg)
        dg += d2
        dg *= x
        dg += b1
        np.multiply(d6, y, out=h)
        h += b2
        h *= g
        # x - g g' / (g'**2 - g g'' / 2), kept only where not done
        np.subtract(np.multiply(dg, dg, out=y), h, out=y)
        np.multiply(g, dg, out=dg)
        dg /= y
        np.subtract(x, dg, out=dg)
        np.copyto(x, dg, where=np.logical_not(done, out=todo))
    k = int(np.argmin(done))
    failed = len(done) - int(np.count_nonzero(done))
    residual = float(g[k]) * v
    raise SolverError(
        f"series current solve did not converge in {_MAX_SOLVER_STEPS} steps "
        f"for {failed} of {len(done)} entries (residual {residual!r} V)",
        residual=residual, index=k, failed=failed)


def _series_root(folds, v, table=None):
    """Square root s = sqrt(I) of the series current at drive v > 0, for the
    folds of _quartic over 1-D bias roots: the normalized quartic Halley
    kernel.

    The coefficients of g come from _quartic, in which elements of one law
    fold into one b_p.  The root lies in [1 / n, 1] for n elements, and a
    rho_k beyond the float range only adds 0 to its b_p.  The steps start
    from x_q, or, given the root table of a two-fold circuit at drive v,
    from the table (see _root_table).  s comes out as inf, without a
    warning, where sigma is beyond the float range.
    """
    sigma, b4, b2, b1, t = _quartic(folds)
    x = _halley(b4, b2, b1, v, sigma,
                None if table is None else _table_start(table, t))
    return np.multiply(sigma, x, out=x)


def solve_series_current(elements, v_drive: float) -> float:
    """Common current through a series stack of elements at a given drive.

    Returns 0 when the drive is zero or any element is open (gain 0, so
    the kernel's sigma is 0); otherwise the unique I >= 0 balancing the
    voltage drops, with residual below 1e-12 * max(v_drive, 1).  Raises
    ModelDomainError when that current exceeds the float range.

    Each run of consecutive elements with one gain is a fold of _quartic,
    and a repeated law starts the next fold; so the four elements of a
    circuit at unit gains, each taking its fold's bias (g_lower or g_upper)
    as its gain, give its two folds.  The current is then bitwise the
    kernel's from x_q on those folds, and within 2e-12 relative of the
    flow, whose solve starts from the root table instead.
    """
    elements = list(elements)
    if not elements:
        raise ModelDomainError("series network needs at least one element")
    if not math.isfinite(v_drive) or v_drive < 0.0:
        raise ModelDomainError(
            f"drive voltage must be finite and >= 0, got {v_drive!r}")
    if v_drive == 0.0:
        return 0.0
    v = float(v_drive)
    # a run of elements with one gain c is a fold of bias c, and
    # kappa_k = v**(q_k / 2); a repeated law starts the next fold
    folds, last = [], None
    for e in elements:
        if e.gain != last or any(kind is e.kind for kind, _ in folds[-1][1]):
            folds.append((np.sqrt(np.full(1, e.gain)), []))
            last = e.gain
        folds[-1][1].append((e.kind, v ** (0.5 * e.kind.exponent)))
    s = float(_series_root(folds, v)[0])
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
    the record, formed one block of samples at a time by the unit-peak
    pulse, as read-only arrays whose writeable flag cannot be set again.

    The traces depend only on the two oscillators and the grid, and their
    formation is deterministic, so the last pair formed is kept and a call
    with equal oscillators, sample count and rate returns the same array
    objects, bitwise what a fresh formation gives (a phase lag of -0.0
    equals 0.0 and gives equal traces).  One pair is kept at a time: a call
    with another key drops it before forming its own, and a pair longer
    than _TRACE_MEMO_SAMPLES samples per trace is not kept.  A kept pair
    also keeps GlottalWaveform's checks of it (see _trace_memo).
    """
    global _trace_memo
    n, rate = _check_grid(duration_s, sample_rate_hz)
    key = (circuit.lower.oscillator, circuit.upper.oscillator, n, rate)
    memo = _trace_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    # drop the old pair first, so that a miss never holds two
    _trace_memo = memo = None
    g_lower, g_upper = np.empty(n), np.empty(n)
    # the block's times and the pulse's two scratch arrays
    buffers = np.empty((3, min(n, _SOLVE_BLOCK)))
    for start in range(0, n, _SOLVE_BLOCK):
        stop = min(start + _SOLVE_BLOCK, n)
        block = buffers[:, :stop - start]
        t = np.divide(np.arange(start, stop), float(rate), out=block[0])
        for g, fold in ((g_lower, circuit.lower), (g_upper, circuit.upper)):
            fold.oscillator._pulse(t, g[start:stop], block[1:])
    g_lower.flags.writeable = g_upper.flags.writeable = False
    # views of read-only arrays cannot be made writeable by a caller
    traces = g_lower.view(), g_upper.view()
    if n <= _TRACE_MEMO_SAMPLES:
        closed = None
        if np.isfinite(g_lower).all() and np.isfinite(g_upper).all():
            closed = np.flatnonzero(_closed(g_lower, g_upper)).astype(np.int32)
        _trace_memo = key, traces, closed
    return traces


def _series_elements(circuit: GlottalCircuit) -> tuple[ResistorElement, ...]:
    return (circuit.lower.linear, circuit.lower.nonlinear,
            circuit.upper.linear, circuit.upper.nonlinear)


def _fold_elements(circuit: GlottalCircuit) -> list:
    """[(kind, kappa), ...] of the lower and the upper fold of circuit, with
    kappa_k = sqrt(gain_k) * v**(q_k / 2) at its drive v."""
    v = circuit.drive.value
    return [[(e.kind, math.sqrt(e.gain) * v ** (0.5 * e.kind.exponent))
             for e in (fold.linear, fold.nonlinear)]
            for fold in (circuit.lower, circuit.upper)]


def _folds(circuit: GlottalCircuit, roots) -> list:
    """The folds of _quartic for circuit, with bias roots (lower, upper)."""
    return list(zip(roots, _fold_elements(circuit)))


def _check_flow_range(circuit: GlottalCircuit, rate: int) -> None:
    """Raise ModelDomainError if the flow at full bias, the most the circuit
    can carry, exceeds float max / rate, beyond which the flow derivative
    (a difference of flows times the rate) can overflow.

    That flow (sigma * x)**2 exceeds the bound when x exceeds
    x_c = sqrt(float max / rate) / sigma, and since g increases, that is
    when g(x_c) < 0; so no solve is needed.
    """
    full = np.float64(1.0)
    sigma, b4, b2, b1 = (float(a) for a in _quartic(
        _folds(circuit, (full, full)))[:4])
    top = math.sqrt(sys.float_info.max / rate)
    if sigma > top:
        x = top / sigma
        if (b4 * x * x + b2) * x * x + b1 * x < 1.0:
            raise ModelDomainError(
                f"the flow at full bias exceeds the float range over the "
                f"sample rate of {rate} Hz, where its derivative overflows "
                f"(drive {circuit.drive.value!r} V, gains "
                f"{tuple(e.gain for e in _series_elements(circuit))!r})")


def _distinct_pairs(g_lower: np.ndarray, g_upper: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bias roots of the distinct active (g_lower, g_upper) pairs, and a
    slot per sample: 0 where a fold is closed, else 1 + its pair's index.

    The pairs are found by sorting the complex key g_lower + 1j * g_upper,
    which is freed before any solve.
    """
    active = np.flatnonzero((g_lower > 0.0) & (g_upper > 0.0))
    key = np.empty(len(active), complex)
    key.real = g_lower[active]
    key.imag = g_upper[active]
    order = np.argsort(key)
    key = key[order]
    new = np.empty(len(key), bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    slot = np.zeros(len(g_lower),
                    np.int32 if len(g_lower) <= np.iinfo(np.int32).max
                    else np.intp)
    slot[active[order]] = np.cumsum(new)
    first = active[order[new]]
    return np.sqrt(g_lower[first]), np.sqrt(g_upper[first]), slot


def _solve_flow(circuit: GlottalCircuit, g_lower: np.ndarray,
                g_upper: np.ndarray, rate: int,
                pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
    """The flow of circuit over full-record bias traces; a SolverError names
    the earliest sample time that failed.

    Every solve starts from the one root table built here for the drive.
    Without pairs, the record is solved one block of samples at a time: a
    block whose samples are all open is solved as it stands, and any other
    block's open samples are gathered first and scattered back.  With
    pairs = _distinct_pairs(g_lower, g_upper), each distinct pair is
    solved once, one block of pairs at a time, and np.take spreads the flows
    over the record.  A failure there is solved again block by block, which
    meets the samples in time order.
    """
    drive = circuit.drive.value
    if not (drive > 0.0
            and min(e.gain for e in _series_elements(circuit)) > 0.0):
        return np.zeros(len(g_lower))
    table = _root_table(circuit)

    def solve(roots):
        return _series_root(_folds(circuit, roots), drive, table)

    if pairs is not None:
        root_lower, root_upper, slot = pairs
        flows = np.zeros(len(root_lower) + 1)
        try:
            for start in range(0, len(root_lower), _SOLVE_BLOCK):
                s = solve((root_lower[start:start + _SOLVE_BLOCK],
                           root_upper[start:start + _SOLVE_BLOCK]))
                np.multiply(s, s, out=flows[1 + start:1 + start + len(s)])
            return np.take(flows, slot)
        except SolverError:
            pass  # solved again below, block by block
    u = np.zeros(len(g_lower))
    for start in range(0, len(u), _SOLVE_BLOCK):
        gl = g_lower[start:start + _SOLVE_BLOCK]
        gu = g_upper[start:start + _SOLVE_BLOCK]
        active = (gl > 0.0) & (gu > 0.0)
        is_open = bool(active.all())
        if not is_open:
            gl, gu = gl[active], gu[active]
        try:
            s = solve((np.sqrt(gl), np.sqrt(gu)))
        except SolverError as exc:
            # Map the failing solve entry back to its sample time.
            k = start + (exc.index if is_open
                         else int(np.flatnonzero(active)[exc.index]))
            t_k = k / float(rate)
            raise SolverError(
                f"{exc} at t = {t_k!r} s", residual=exc.residual, index=k,
                time_s=t_k, failed=exc.failed) from exc
        if is_open:
            np.multiply(s, s, out=u[start:start + _SOLVE_BLOCK])
        else:
            u[start:start + _SOLVE_BLOCK][active] = np.multiply(s, s, out=s)
    return u


def simulate_many(circuit: GlottalCircuit, drives: Iterable[DcVoltage],
                  duration_s: float = DEFAULT_DURATION_S,
                  sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
                  ) -> Iterator[GlottalWaveform]:
    """simulate of circuit at each of drives, yielding the waveforms in
    order; each is bitwise equal to
    simulate(replace(circuit, drive=d), duration_s, sample_rate_hz).

    The oscillator traces come from one call of conductance_traces, which
    forms them one block of samples at a time or returns the pair it kept
    from an earlier call with equal oscillators and grid, and every waveform
    shares them as read-only arrays.  With two or more drives, the distinct
    active bias pairs are found once and each flow solves only those; a
    single drive is solved block by block.  Only the waveform being yielded
    is built, so memory does not grow with the number of drives.  On the
    first next(), before any trace is formed, the grid and every drive are
    checked: ModelDomainError is raised for a negative drive, or when a flow
    at full bias exceeds float max / rate.
    """
    _, rate = _check_grid(duration_s, sample_rate_hz)
    circuits = [replace(circuit, drive=d) for d in drives]
    for c in circuits:
        _check_flow_range(c, rate)
    if not circuits:
        return
    g_lower, g_upper = conductance_traces(circuit, duration_s, rate)
    pairs = _distinct_pairs(g_lower, g_upper) if len(circuits) > 1 else None
    for c in circuits:
        yield GlottalWaveform(
            sample_rate_hz=rate, g_lower=g_lower, g_upper=g_upper,
            u_gl=_solve_flow(c, g_lower, g_upper, rate, pairs))


def simulate(circuit: GlottalCircuit, duration_s: float = DEFAULT_DURATION_S,
             sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ) -> GlottalWaveform:
    """Quasi-static simulation on a uniform grid t_k = k / sample_rate_hz.

    At each sample the gains of both elements of a fold are multiplied by
    that fold's normalized oscillator value, and the four-element series
    network is solved for the flow.  The traces and the solve run one block of
    samples at a time, so the temporaries stay at one block however long the
    record is.  The waveform's trace arrays are read-only, and a later call
    with equal oscillators and grid shares them (see conductance_traces).
    The solve starts from a root table built once per drive (see the module
    docstring).  Output is deterministic: identical inputs give
    bit-identical arrays.  Raises
    ModelDomainError up front when the flow at full bias exceeds float max
    / rate, beyond which its derivative overflows.
    """
    return next(simulate_many(circuit, (circuit.drive,), duration_s,
                              sample_rate_hz))
