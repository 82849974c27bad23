"""Voltage-controlled resistor elements and their translinear realization.

Each vocal-fold branch is a two-terminal element whose current law is set by
a translinear function block: linear (I = G*v), compressive
(I = K*sign(v)*sqrt|v|) or expansive (I = K*sign(v)*v^2).  All laws are odd
in v, so behavior is symmetric for either polarity; a gain of 0 is an open
branch.

The circuit-level mechanism behind those laws is also emulated here:
a square-law device acts as the resistor, and a feedback loop charges its
gate capacitor until the device's current matches the translinear target
computed from the rectified terminal voltage (settle_feedback).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ElementOpenError, FeedbackSettleError, ModelDomainError

# Relative settling tolerance of the feedback loop: 0.1% of the target current.
SETTLE_REL_TOL = 1e-3
# Absolute floor so a zero target (v_xy = 0) counts as settled.
SETTLE_ABS_TOL = 1e-18


def _in_float_range(law, what: str) -> float:
    """law(), or ModelDomainError where its result exceeds the float range,
    which ** and math.ldexp report as OverflowError and * and / as inf."""
    try:
        result = law()
    except OverflowError:
        result = math.inf
    if math.isinf(result):
        raise ModelDomainError(f"{what} exceeds the float range")
    return result


class ElementKind(Enum):
    """Branch law I = c * sign(v) * |v|**q, keyed by name with exponent q."""

    LINEAR = ("linear", 1.0)
    COMPRESSIVE = ("compressive", 0.5)
    EXPANSIVE = ("expansive", 2.0)

    def __new__(cls, name: str, exponent: float):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.exponent = exponent
        return kind


@dataclass(frozen=True)
class ResistorElement:
    """One fold branch: a current law and its gain."""

    kind: ElementKind
    gain: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.gain) or self.gain < 0.0:
            raise ModelDomainError(
                f"gain must be finite and >= 0, got {self.gain!r}")

    def current(self, v: float) -> float:
        """Branch current at terminal voltage v (odd in v)."""
        if not math.isfinite(v):
            raise ModelDomainError(f"terminal voltage must be finite, got {v!r}")
        if self.gain == 0.0:
            return 0.0
        return math.copysign(_in_float_range(
            lambda: self.gain * abs(v) ** self.kind.exponent,
            f"branch current at {v!r} V"), v)

    def voltage(self, i: float) -> float:
        """Terminal voltage sustaining branch current i (inverse of current)."""
        if not math.isfinite(i):
            raise ModelDomainError(f"branch current must be finite, got {i!r}")
        if self.gain == 0.0:
            if i != 0.0:
                raise ElementOpenError(
                    f"element open (gain 0) cannot carry {i!r} A")
            return 0.0
        return math.copysign(_in_float_range(
            lambda: (abs(i) / self.gain) ** (1.0 / self.kind.exponent),
            f"terminal voltage for {i!r} A"), i)


@dataclass(frozen=True)
class TranslinearSpec:
    """Current-mode function block: identity, geometric-mean or squaring.

    Output for input current i_in >= 0:
        LINEAR       i_in
        COMPRESSIVE  sqrt(i_in * i_ref)
        EXPANSIVE    i_in^2 / i_ref
    The reference current i_ref sets the fixed point: both nonlinear kinds
    return i_in unchanged at i_in = i_ref.
    """

    kind: ElementKind
    i_ref: float = 1.0

    def __post_init__(self):
        if self.kind is not ElementKind.LINEAR:
            if not math.isfinite(self.i_ref) or self.i_ref <= 0.0:
                raise ModelDomainError(
                    f"i_ref must be finite and > 0, got {self.i_ref!r}")

    def output(self, i_in: float) -> float:
        if not math.isfinite(i_in) or i_in < 0.0:
            raise ModelDomainError(
                f"block input current must be finite and >= 0, got {i_in!r}")
        what = f"block output for {i_in!r} A"
        if self.kind is ElementKind.EXPANSIVE:
            # i_in * (i_in / i_ref) on the frexp mantissas, which lie in
            # [0.5, 1): neither the square nor the quotient can leave the
            # float range before the result does, and i_in = i_ref is exact.
            (m, e), (r, f) = math.frexp(i_in), math.frexp(self.i_ref)
            return _in_float_range(lambda: math.ldexp(m * (m / r), 2 * e - f),
                                   what)
        # i_ref ** 0 is 1 for any i_ref, so LINEAR stays an exact identity.
        q = self.kind.exponent
        return _in_float_range(lambda: i_in ** q * self.i_ref ** (1.0 - q),
                               what)


def rectify(v_xy: float, transconductance: float) -> float:
    """Full-wave rectified sense current g*|v_xy| feeding a function block."""
    if not math.isfinite(transconductance) or transconductance <= 0.0:
        raise ModelDomainError(
            f"transconductance must be finite and > 0, got {transconductance!r}")
    if not math.isfinite(v_xy):
        raise ModelDomainError(f"terminal voltage must be finite, got {v_xy!r}")
    return transconductance * abs(v_xy)


@dataclass(frozen=True)
class FeedbackState:
    """Gate node of the emulated resistor device.

    The device obeys an abstract square-law: each side saturates at
    0.5 * device_beta * max(v_gate - device_vth - v_terminal, 0)^2, and the
    branch current is the difference of the two sides' saturation currents
    with the terminals held at +/- v_xy / 2.
    """

    v_gate: float = 0.5
    cap_farads: float = 1e-5
    device_beta: float = 1.0
    device_vth: float = 0.5

    def __post_init__(self):
        for name in ("v_gate", "cap_farads", "device_beta", "device_vth"):
            if not math.isfinite(getattr(self, name)):
                raise ModelDomainError(f"{name} must be finite")
        if self.cap_farads <= 0.0:
            raise ModelDomainError(
                f"cap_farads must be > 0, got {self.cap_farads!r}")
        if self.device_beta <= 0.0:
            raise ModelDomainError(
                f"device_beta must be > 0, got {self.device_beta!r}")


def _saturation_current(beta: float, overdrive: float) -> float:
    if overdrive <= 0.0:
        return 0.0
    return 0.5 * beta * overdrive * overdrive


def device_current(fb: FeedbackState, v_xy: float) -> float:
    """Emulated element current at the present gate bias (odd in v_xy)."""
    half = 0.5 * abs(v_xy)
    u = fb.v_gate - fb.device_vth
    i_source = _saturation_current(fb.device_beta, u + half)
    i_drain = _saturation_current(fb.device_beta, u - half)
    return math.copysign(i_source - i_drain, v_xy)


def settle_feedback(spec: TranslinearSpec, fb: FeedbackState, v_xy: float,
                    dt: float, max_steps: int,
                    transconductance: float = 1.0) -> FeedbackState:
    """Charge the gate capacitor until the device realizes the target law.

    The loop senses the rectified terminal voltage, pushes it through the
    translinear block to get the target current i_target, and integrates

        dV_gate/dt = (i_target - |device current|) / C

    with forward Euler steps of dt seconds.  Settled means the magnitude
    mismatch is below 0.1% of i_target; at that point the device current
    reproduces the element's I/V characteristic at v_xy to the same margin.

    Raises FeedbackSettleError (carrying the residual) if max_steps forward
    steps do not reach the tolerance.
    """
    if not math.isfinite(dt) or dt <= 0.0:
        raise ModelDomainError(f"dt must be finite and > 0, got {dt!r}")
    if max_steps < 0:
        raise ModelDomainError(f"max_steps must be >= 0, got {max_steps!r}")
    i_target = spec.output(rectify(v_xy, transconductance))
    v_gate = fb.v_gate
    residual = 0.0
    for step in range(max_steps + 1):
        state = replace(fb, v_gate=v_gate)
        residual = i_target - abs(device_current(state, v_xy))
        if abs(residual) <= SETTLE_REL_TOL * i_target + SETTLE_ABS_TOL:
            return state
        if step == max_steps:
            break
        v_gate += dt * residual / fb.cap_farads
    raise FeedbackSettleError(
        f"feedback did not settle within {max_steps} steps "
        f"(residual {residual!r} A against target {i_target!r} A)",
        residual=residual)
