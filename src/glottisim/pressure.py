"""Lung-pressure quantities and their DC drive-voltage equivalent.

The simulator is driven by a DC source standing in for steady subglottal
(lung) pressure.  The two scales are related by the fitted line

    pressure[cmH2O] = 1.27 * voltage[V] + 5.94

so a pressure maps to voltage as (p - 5.94) / 1.27.  The intercept is the
voicing onset: pressures below 5.94 cmH2O have no voltage equivalent and are
rejected.  The mapping is physiologically meaningful for roughly
5.94-15 cmH2O; the normal speaking range is 7-10 cmH2O.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelDomainError

CMH2O_PER_VOLT = 1.27
ONSET_INTERCEPT_CMH2O = 5.94


@dataclass(frozen=True)
class PressureCmH2O:
    """Steady subglottal pressure in cmH2O."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ModelDomainError(
                f"pressure must be finite and >= 0 cmH2O, got {self.value!r}")


@dataclass(frozen=True)
class DcVoltage:
    """DC drive voltage in volts."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ModelDomainError(f"voltage must be finite, got {self.value!r}")


def pressure_to_voltage(p: PressureCmH2O) -> DcVoltage:
    """Equivalent DC drive for a lung pressure.

    Raises ModelDomainError for pressures below the voicing-onset intercept
    (5.94 cmH2O), where the fitted line would give a negative voltage.
    """
    if p.value < ONSET_INTERCEPT_CMH2O:
        raise ModelDomainError(
            f"pressure {p.value} cmH2O is below voicing-onset intercept "
            f"({ONSET_INTERCEPT_CMH2O} cmH2O); no drive-voltage equivalent")
    return DcVoltage((p.value - ONSET_INTERCEPT_CMH2O) / CMH2O_PER_VOLT)


def voltage_to_pressure(v: DcVoltage) -> PressureCmH2O:
    """Lung pressure equivalent to a DC drive voltage (v >= 0)."""
    if v.value < 0.0:
        raise ModelDomainError(
            f"drive voltage must be >= 0 V, got {v.value!r}")
    return PressureCmH2O(CMH2O_PER_VOLT * v.value + ONSET_INTERCEPT_CMH2O)
