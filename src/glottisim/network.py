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

A table start is checked first on the folds' own sums, which need no b_p:
g = sum_f phi_f(t_f * x) - 1, phi_f(w) = sum_p C_f,p * w**p (_residual).
An entry with |g| <= tol / 2, tol = 1e-12 * max(v, 1) / v, is accepted with
0 steps, and only the others get their b_p and go to the Halley kernel,
which applies its own test |g| <= tol to them and steps them.  That keeps
every bit: t_f <= 1, x <= 1 and each C_f,p is at most its count of
elements, so both forms of g round to within about 100 eps * (1 + n)
~ 1.1e-13 of the exact value for n = 4 elements, and tol >= 1e-12; an
accepted entry so passes the kernel's test at its start, where the kernel
returns it unchanged, and each kernel result depends on its own entry
alone.  Over 60 s from 6 to 100 cmH2O the starts reach at most 0.004-0.076
of tol, so at the defaults no entry goes to the kernel, which a counting
test pins from 6 to 15 cmH2O over 1 s.

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
inf, whose quotient is NaN.  kappa_min,f and the C_f,p are the fold's
set-up (_fold_setup), formed once per drive: a flow solve hands the two
folds' set-up to its root table and to every block, the full-bias range
check takes it at g_f = 1, and solve_series_current solves its whole stack
as one fold at g_f = 1, each element with its own gain_k.

simulate streams the record: the oscillator traces and the solve run one
block of samples at a time into the preallocated output arrays, so the
temporaries stay at a fixed set of block-length rows allocated once per
drive, however long the record is.  The traces do not depend on the drive,
only on the two oscillators and the sample grid, so conductance_traces
keeps the last pair it formed and returns the same read-only arrays to a
later call with equal oscillators and grid: simulate at a new pressure
skips the trace pass, and simulate_many takes the traces once for one
circuit at many drives.  The memo holds one entry, dropped
before a new pair is formed, and no pair longer than _TRACE_MEMO_SAMPLES
(2**22) samples per trace.  Every pair formed, kept or not, is checked
there to be finite and >= 0, with GlottalWaveform's errors, so no solve
takes the root of a NaN or negative bias.  With a pair the memo keeps the
indices of the closed samples, where a trace is 0, as int32 (4 bytes per
closed sample, at worst 16 MiB at the cap beside the pair's 64 MiB; 56
indices over 60 s at the defaults), and a waveform whose trace arrays are
the memo's, the same objects, checks only its flow.

The block solve takes every sample as it stands, closed ones too: a closed
fold is an open branch of the series string, and the kernel gives it a flow
of exactly +0.0.  Each fold's least kappa is at most its linear element's,
sqrt(gain) * sqrt(v), which is below float max, so a bias root of 0 gives
rho_f = 0 * kappa_min,f = 0 and sigma = 0.  fmin then puts t_f at 1 for a
closed fold (0 / 0) and at 0 for an open one, so z is 0, 1 or 2, a node of
the root table, where the start is that node's root itself, finite and
accepted with 0 steps (at most 2.3e-4 of tol at the gain corners, 6 to 100
cmH2O); and s = sigma * x = +0.0.  Each result of the kernel depends on its
own entry's inputs only, so simulate_many also finds the distinct active
(g_lower, g_upper) pairs once, in the order of their first samples, and, at
each drive, solves only those and spreads their flows over the record; the
flows are bitwise those of simulate, and a failure names the same sample.
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
# temporaries stay at a few MB however long the record is.  With 16 000, a
# fresh 91-point sweep took 5 957-6 621 minor page faults over the 62
# environment sizes of tools/fault_scan.py; with 16 384, 6 016-30 359.
_SOLVE_BLOCK = 16000
# The root table has this many intervals per unit of its z in [0, 2].
_ROOT_TABLE_STEPS = 1024
# A table start is accepted with 0 steps where |g| at it, summed fold by
# fold, is within this share of the tolerance (see the module docstring).
_ACCEPT_SHARE = 0.5
# A table-path solve works in this many float rows of the batch's length,
# allocated once per solved drive: the two t_f, sigma, the start x and three
# rows of work space, one of which also serves as the int64 index.
_WORK_ROWS = 7
# The most float64 samples whose byte count numpy can index.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8
# conductance_traces keeps a pair of at most this many samples per trace: 64
# MiB for the pair, about 95 s at 44.1 kHz.  It bounds what the process holds
# beyond the arrays its callers keep.
_TRACE_MEMO_SAMPLES = 2 ** 22
# The last pair conductance_traces kept, as ((lower oscillator, upper
# oscillator, n, rate), (g_lower, g_upper), closed), or None, where closed
# holds the int32 indices of the samples at which a trace is 0; both traces
# were checked finite and >= 0 when they were formed.  It is read once into
# a local and replaced by one assignment, so threads need no lock.
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

    Each array must be real, one-dimensional and finite, of one nonempty
    length, with u_gl >= 0, both traces >= 0, and u_gl == 0 wherever a trace
    is 0, where its fold is closed.  Trace arrays that are the pair
    conductance_traces keeps, the same objects, are not checked again: the
    memo holds their checks and closed samples, so only the flow is checked,
    with the same errors in the same order.
    """

    sample_rate_hz: int
    u_gl: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        memo = _trace_memo
        shared = (memo is not None and self.g_lower is memo[1][0]
                  and self.g_upper is memo[1][1])
        names = ("u_gl",) if shared else ("u_gl", "g_lower", "g_upper")
        negative = []  # the finite arrays that hold a sample below 0
        for name in names:
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "biuf":
                raise ModelDomainError(
                    f"{name} must hold real numbers, got dtype {arr.dtype}")
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ModelDomainError(f"{name} must be one-dimensional")
            if not _finite_and_nonnegative(arr):
                if not np.all(np.isfinite(arr)):
                    raise ModelDomainError(f"{name} must be finite everywhere")
                negative.append(name)
        if not (len(self.u_gl) == len(self.g_lower) == len(self.g_upper)):
            raise ModelDomainError("waveform arrays must share one length")
        if len(self.u_gl) == 0:
            raise ModelDomainError("waveform must hold at least one sample")
        object.__setattr__(self, "sample_rate_hz",
                           _check_rate(self.sample_rate_hz))
        if not math.isfinite(self.t0):
            raise ModelDomainError(f"t0 must be finite, got {self.t0!r}")
        if negative:
            name = negative[0]
            raise ModelDomainError(
                "glottal flow is unipolar; u_gl must be >= 0" if name == "u_gl"
                else f"{name} must be >= 0; a fold is closed where its trace "
                     f"is 0")
        closed = memo[2] if shared else _closed(self.g_lower, self.g_upper)
        if self.u_gl[closed].any():
            raise ModelDomainError("flow must vanish wherever a fold bias is zero")

    def __len__(self) -> int:
        return len(self.u_gl)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.u_gl)) / float(self.sample_rate_hz)


def _finite_and_nonnegative(a: np.ndarray) -> bool:
    """Whether every sample of a is finite and >= 0, in two reductions; a
    NaN fails either comparison, and an empty a passes."""
    return 0.0 <= a.min(initial=0.0) and a.max(initial=0.0) < math.inf


def _closed(g_lower: np.ndarray, g_upper: np.ndarray) -> np.ndarray:
    """The mask of the samples where a fold is closed: its trace is 0."""
    closed = g_lower == 0.0
    closed |= g_upper == 0.0
    return closed


def _fold_setup(elements, v) -> tuple:
    """(least, C) of a fold of elements sharing one bias, at drive v: the
    least kappa_k = sqrt(gain_k) * v**(q_k / 2), and C_p, the sum of
    (least / kappa_k)**p over the elements of power p, with a ratio of
    exactly 1 where kappa_k is the least (which covers a kappa of 0 or inf)."""
    kappas = [(e.kind, math.sqrt(e.gain) * v ** (0.5 * e.kind.exponent))
              for e in elements]
    least = min(kappa for _, kappa in kappas)
    c = {}
    for kind, kappa in kappas:
        r = 1.0 if kappa == least else least / kappa
        p = 2.0 / kind.exponent
        term = r if p == 1.0 else r * r
        c[p] = c.get(p, 0.0) + (term * term if p == 4.0 else term)
    return least, c


def _circuit_setup(circuit: GlottalCircuit) -> list:
    """The _fold_setup of the lower and the upper fold of circuit at its
    drive."""
    return [_fold_setup((fold.linear, fold.nonlinear), circuit.drive.value)
            for fold in (circuit.lower, circuit.upper)]


def _fold_ratios(roots, setup, out=None):
    """sigma = min_k rho_k and the t_f of each fold (see the module
    docstring), for the folds' bias roots and their _fold_setup.

    Element k of fold f has rho_k = root_f * kappa_k, so rho_f =
    root_f * least_f and sigma / rho_k = t_f * (least_f / kappa_k) with
    t_f = fmin(sigma / rho_f, 1): one array divide per fold.  fmin turns
    the 0 / 0 or inf / inf of a fold that holds sigma = 0 or inf into 1.
    out is None or a row for sigma and one for each of two or more folds,
    which holds its rho_f and then its t_f (a root may be that row itself).
    """
    sigma, *rows = out or [None] * (1 + len(roots))
    with np.errstate(over="ignore", invalid="ignore"):
        rhos = [np.multiply(root, least, out=row)
                for root, (least, _), row in zip(roots, setup, rows)]
        sigma = functools.reduce(functools.partial(np.minimum, out=sigma),
                                 rhos)
        t = [np.fmin(np.divide(sigma, rho, out=row), 1.0, out=row)
             for rho, row in zip(rhos, rows)]
    return sigma, t


def _powers(coefficients, t):
    """(b4, b2, b1): b_p = sum over folds of C_p * t_f**p, for the C of
    _fold_setup of each fold and its t_f."""
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


def _residual(coefficients, t, x, rows=None):
    """g(x) = sum_f phi_f(t_f * x) - 1 for the folds' C of _fold_setup and
    their t_f, where phi_f(w) = sum_p C_f,p * w**p.  A fold of the circuit
    has power 2 (its linear element) and 4 or 1 (the other), so phi_f is
    (C_4 * w**2 + C_2) * w**2 or (C_2 * w + C_1) * w, by Horner's rule with
    no product by a C_p of 1.  g is written into the first of rows, three
    rows of x's length (allocated here where None), and the other two are
    work space."""
    g, w, term = np.empty((3, len(x))) if rows is None else rows
    for f, (c, t_f) in enumerate(zip(coefficients, t)):
        np.multiply(t_f, x, out=w)
        if 4.0 in c:
            np.multiply(w, w, out=w)  # Horner in w**2
            top, low = c[4.0], c[2.0]
        else:
            top, low = c[2.0], c[1.0]
        np.add(w if top == 1.0 else np.multiply(top, w, out=term), low,
               out=term)
        term *= w
        if f:
            g += term
        else:
            np.add(term, -1.0, out=g)
    return g


def _table_start(table, t, x, u, scratch, index):
    """The start x read from a root table of _root_table at
    z = t_lower - t_upper + 1 (see there), clipped to [1 / 4, 1], where
    the root lies, written into the row x; u and scratch are float rows
    and index an int64 row of work space."""
    np.subtract(t[0], t[1], out=u)
    u += 1.0
    u *= _ROOT_TABLE_STEPS
    # u >= 0, so its floor is its truncation, and u less it is exact
    np.floor(u, out=scratch)
    u -= scratch
    np.copyto(index, scratch, casting="unsafe")
    # each entry's cubic by Horner's rule, one coefficient gathered at a time
    np.take(table[3], index, out=x, mode="clip")
    x *= u
    for k in (2, 1):
        x += np.take(table[k], index, out=scratch, mode="clip")
        x *= u
    x += np.take(table[0], index, out=scratch, mode="clip")
    return np.clip(x, 0.25, 1.0, out=x)


def _root_table(setup, v: float) -> np.ndarray:
    """The start table of the flow solve of the two folds of setup at drive
    v > 0: row p holds the coefficient of power p of the cubic of the root
    x over z on each interval of 1 / _ROOT_TABLE_STEPS of [0, 2].

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
    n = _ROOT_TABLE_STEPS
    z = np.arange(2 * n + 1) / n
    t = [np.minimum(z, 1.0), np.minimum(2.0 - z, 1.0)]
    coefficients = [c for _, c in setup]
    b4, b2, b1 = _powers(coefficients, t)
    x = _halley(b4, b2, b1, v)
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
    table = np.zeros((4, 2 * n + 1))
    table[0] = x
    table[1, :-1] = m0
    table[2, :-1] = 3.0 * step - 2.0 * m0 - m1
    table[3, :-1] = m0 + m1 - 2.0 * step
    return table


def _halley(b4, b2, b1, v, x=None):
    """The normalized root x of g for coefficients (b4, b2, b1) at drive
    v > 0, by Halley steps from the start x, or from x_q where x is None
    (see the module docstring).

    Each step evaluates g, g' and g'' / 2 by Horner over the whole batch,
    and np.where keeps the converged entries with the same bits.  The loop
    uses only correctly rounded operations, so each result depends on that
    entry's own inputs only, whatever the batch.  The stopping test
    |g| <= 1e-12 * max(v, 1) / v is the voltage residual within
    1e-12 * max(v, 1).  A SolverError gives the batch index of the first
    entry that failed and how many failed.
    """
    tol = _tolerance(v)
    if x is None:
        # x_q = sqrt(z_q), z_q = 2 / (B + sqrt(B**2 + 4 * b4)), B = b2 + b1
        B = b2 + b1
        x = np.sqrt(2.0 / (np.sqrt(B * B + 4.0 * b4) + B))
    for _ in range(_MAX_SOLVER_STEPS):
        y = x * x
        g = (b4 * y + b2) * y + b1 * x - 1.0
        done = np.abs(g) <= tol
        if done.all():
            return x
        dg = (4.0 * b4 * y + 2.0 * b2) * x + b1
        x = np.where(done, x, x - g * dg / (dg * dg - (6.0 * b4 * y + b2) * g))
    k = int(np.argmin(done))
    raise _unconverged(len(done) - int(np.count_nonzero(done)), len(done),
                       float(g[k]) * v, k)


def _tolerance(v):
    """The bound on |g| of the stopping test at drive v > 0: the voltage
    residual within 1e-12 * max(v, 1)."""
    return _RESIDUAL_RTOL * max(v, 1.0) / v


def _unconverged(failed, entries, residual, index):
    """The SolverError of a batch of entries in which failed entries, the
    first at index with residual in volts, did not converge."""
    return SolverError(
        f"series current solve did not converge in {_MAX_SOLVER_STEPS} steps "
        f"for {failed} of {entries} entries (residual {residual!r} V)",
        residual=residual, index=index, failed=failed)


def _work_rows(entries):
    """The _WORK_ROWS float rows of entries each that the table path of
    _series_root works in, one array per row."""
    return [np.empty(entries) for _ in range(_WORK_ROWS)]


def _series_root(roots, setup, v, table=None, rows=None):
    """Square root s = sqrt(I) of the series current at drive v > 0, for
    1-D bias roots of the folds of setup: the normalized quartic Halley
    kernel.

    sigma and the t_f come from _fold_ratios, and the coefficients of g
    from _powers, in which elements of one law fold into one b_p.  The root
    lies in [1 / n, 1] for n elements, and a rho_k beyond the float range
    only adds 0 to its b_p.  Without a table the steps start from x_q.
    Given the root table of a two-fold circuit at drive v, each entry starts
    from the table (see _root_table), and its start is accepted as it stands
    where the folds' own sums put |g| within _ACCEPT_SHARE of the tolerance;
    only the other entries get their b_p and Halley's exact test and steps,
    and a SolverError counts and indexes them within the whole batch (see
    the module docstring).  The table path writes every temporary into
    rows, _work_rows of the batch's length (allocated here where None),
    whose first two rows may be the roots themselves, and returns s in one
    of them.  s comes out as inf, without a warning, where sigma is beyond
    the float range.
    """
    coefficients = [c for _, c in setup]
    if table is None:
        sigma, t = _fold_ratios(roots, setup)
        x = _halley(*_powers(coefficients, t), v)
    else:
        if rows is None:
            rows = _work_rows(len(roots[0]))
        t_lower, t_upper, sigma, x, a, b, c = rows
        sigma, t = _fold_ratios(roots, setup, (sigma, t_lower, t_upper))
        # the index row is free again once the start is read, and holds g
        _table_start(table, t, x, a, b, c.view(np.int64))
        g = _residual(coefficients, t, x, (c, a, b))
        bound = _ACCEPT_SHARE * _tolerance(v)
        # a NaN fails both sides, as it fails |g| <= bound
        if not (-bound <= g.min() and g.max() <= bound):
            todo = np.flatnonzero(~(np.abs(g, out=g) <= bound))
            try:
                x[todo] = _halley(*_powers(coefficients,
                                           [t_f[todo] for t_f in t]),
                                  v, x[todo])
            except SolverError as exc:
                raise _unconverged(exc.failed, len(x), exc.residual,
                                   int(todo[exc.index])) from None
    return np.multiply(sigma, x, out=x)


def solve_series_current(elements, v_drive: float) -> float:
    """Common current through a series stack of elements at a given drive.

    Returns 0 when the drive is zero or any element is open (gain 0, so
    the kernel's sigma is 0); otherwise the unique I >= 0 balancing the
    voltage drops, with residual below 1e-12 * max(v_drive, 1).  Raises
    ModelDomainError when that current exceeds the float range.

    The stack is one fold at full bias (root 1), whose set-up is
    _fold_setup of all its elements, solved by the kernel from x_q.  The
    four elements of a circuit, each taking its fold's bias as its gain,
    so give the flow within 2e-12 relative: the flow solve splits the same
    balance into two folds and starts from the root table.
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
    s = float(_series_root((np.ones(1),), [_fold_setup(elements, v)], v)[0])
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
    if not all(map(_finite_and_nonnegative, traces)):
        # a waveform on these traces raises its own error for them
        GlottalWaveform(rate, np.zeros(n), *traces)
    if n <= _TRACE_MEMO_SAMPLES:
        closed = np.flatnonzero(_closed(g_lower, g_upper)).astype(np.int32)
        _trace_memo = key, traces, closed
    return traces


def _series_elements(circuit: GlottalCircuit) -> tuple[ResistorElement, ...]:
    return (circuit.lower.linear, circuit.lower.nonlinear,
            circuit.upper.linear, circuit.upper.nonlinear)


def _check_flow_range(circuit: GlottalCircuit, rate: int) -> None:
    """Raise ModelDomainError if the flow at full bias, the most the circuit
    can carry, exceeds float max / rate, beyond which the flow derivative
    (a difference of flows times the rate) can overflow.

    That flow (sigma * x)**2 exceeds the bound when x exceeds
    x_c = sqrt(float max / rate) / sigma, and since g increases, that is
    when g(x_c) < 0; so no solve is needed.
    """
    full = np.float64(1.0)
    setup = _circuit_setup(circuit)
    sigma, t = _fold_ratios((full, full), setup)
    b4, b2, b1 = (float(b) for b in _powers([c for _, c in setup], t))
    top = math.sqrt(sys.float_info.max / rate)
    if sigma > top:
        x = top / float(sigma)
        if (b4 * x * x + b2) * x * x + b1 * x < 1.0:
            raise ModelDomainError(
                f"the flow at full bias exceeds the float range over the "
                f"sample rate of {rate} Hz, where its derivative overflows "
                f"(drive {circuit.drive.value!r} V, gains "
                f"{tuple(e.gain for e in _series_elements(circuit))!r})")


def _distinct_pairs(g_lower: np.ndarray, g_upper: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bias roots of the distinct active (g_lower, g_upper) pairs in
    the order of their first samples, and a slot per sample: 0 where a fold
    is closed, else 1 + its pair's index.

    The pairs are found by a stable sort of the complex key
    g_lower + 1j * g_upper, which is freed before any solve.
    """
    active = np.flatnonzero((g_lower > 0.0) & (g_upper > 0.0))
    key = np.empty(len(active), complex)
    key.real = g_lower[active]
    key.imag = g_upper[active]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(len(key), bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    slot = np.zeros(len(g_lower),
                    np.int32 if len(g_lower) <= np.iinfo(np.int32).max
                    else np.intp)
    first = active[order[new]]
    mark = np.bincount(first, minlength=len(g_lower))
    pair = np.flatnonzero(mark)
    slot[active[order]] = np.cumsum(mark, out=mark)[first][np.cumsum(new) - 1]
    return np.sqrt(g_lower[pair]), np.sqrt(g_upper[pair]), slot


def _solve_flow(circuit: GlottalCircuit, g_lower: np.ndarray,
                g_upper: np.ndarray, rate: int,
                pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
    """The flow of circuit over full-record bias traces; a SolverError names
    the earliest sample time that failed.

    Every solve starts from the one root table built here for the drive.
    Without pairs, the record is solved one block of samples at a time,
    each sample as it stands: a closed one comes out of the kernel as +0.0
    (see the module docstring).  With pairs = _distinct_pairs(g_lower,
    g_upper), each distinct pair is solved once, one block of pairs at a
    time, and np.take spreads the flows over the record.  Both loops meet
    their entries in the order of their first samples, so the first entry
    that fails names the earliest one.  Every block works in one fixed set
    of block-length rows from _work_rows, allocated here once per drive,
    and squares its s straight into the output.
    """
    drive = circuit.drive.value
    if not (drive > 0.0
            and min(e.gain for e in _series_elements(circuit)) > 0.0):
        return np.zeros(len(g_lower))
    setup = _circuit_setup(circuit)
    try:
        table = _root_table(setup, drive)
    except SolverError as exc:
        raise SolverError(f"the root table at {drive!r} V failed: {exc}",
                          residual=exc.residual, failed=exc.failed) from exc
    if pairs is not None:
        root_lower, root_upper, slot = pairs
        flows = np.zeros(len(root_lower) + 1)
        out = flows[1:]
    else:
        out = np.empty(len(g_lower))
    rows = _work_rows(min(len(out), _SOLVE_BLOCK))
    try:
        for start in range(0, len(out), _SOLVE_BLOCK):
            stop = min(start + _SOLVE_BLOCK, len(out))
            block = [row[:stop - start] for row in rows]
            if pairs is not None:
                roots = root_lower[start:stop], root_upper[start:stop]
            else:
                roots = (np.sqrt(g_lower[start:stop], out=block[0]),
                         np.sqrt(g_upper[start:stop], out=block[1]))
            s = _series_root(roots, setup, drive, table, block)
            np.multiply(s, s, out=out[start:stop])
    except SolverError as exc:
        # Map the failing entry back to its (first) sample time.
        if pairs is not None:
            k = int(np.argmax(slot == start + exc.index + 1))
        else:
            k = start + exc.index
        t_k = k / float(rate)
        raise SolverError(
            f"{exc} at t = {t_k!r} s", residual=exc.residual, index=k,
            time_s=t_k, failed=exc.failed) from exc
    return out if pairs is None else np.take(flows, slot)


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
    samples at a time, so the temporaries stay at a fixed set of
    block-length rows allocated once per call, however long the record is.
    The waveform's trace arrays are read-only, and a later call with equal
    oscillators and grid shares them (see conductance_traces).  The solve
    starts from a root table built once per drive (see the module
    docstring).  Output is deterministic: identical inputs give
    bit-identical arrays.  Raises ModelDomainError up front when the flow
    at full bias exceeds float max / rate, beyond which its derivative
    overflows.
    """
    return next(simulate_many(circuit, (circuit.drive,), duration_s,
                              sample_rate_hz))
