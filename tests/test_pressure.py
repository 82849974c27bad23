"""Lung-pressure <-> supply-voltage mapping."""
import math

import pytest
from hypothesis import example, given, strategies as st

from glottisim import (
    DcVoltage,
    ModelDomainError,
    PressureCmH2O,
    pressure_to_voltage,
    voltage_to_pressure,
)
from glottisim.pressure import CMH2O_PER_VOLT, ONSET_INTERCEPT_CMH2O


def test_calibration_anchor_ten_cmh2o():
    v = pressure_to_voltage(PressureCmH2O(10.0)).value
    assert v == pytest.approx(3.1969, abs=1e-4)
    assert v == pytest.approx((10.0 - 5.94) / 1.27, rel=1e-15)


def test_onset_pressure_maps_to_zero_volts():
    assert pressure_to_voltage(PressureCmH2O(5.94)).value == 0.0


def test_one_volt_point():
    # 1.27 * 1 + 5.94 = 7.21
    assert pressure_to_voltage(PressureCmH2O(7.21)).value == pytest.approx(1.0, rel=1e-12)
    assert voltage_to_pressure(DcVoltage(1.0)).value == pytest.approx(7.21, rel=1e-12)


def test_zero_volts_is_onset_pressure():
    assert voltage_to_pressure(DcVoltage(0.0)).value == pytest.approx(5.94, rel=1e-15)


def test_below_onset_rejected():
    with pytest.raises(ModelDomainError, match="below voicing-onset intercept"):
        pressure_to_voltage(PressureCmH2O(5.0))
    with pytest.raises(ModelDomainError):
        pressure_to_voltage(PressureCmH2O(5.9399))


def test_negative_voltage_rejected():
    with pytest.raises(ModelDomainError):
        voltage_to_pressure(DcVoltage(-0.1))


def test_nonfinite_and_negative_quantities_rejected():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ModelDomainError):
            PressureCmH2O(bad)
    with pytest.raises(ModelDomainError):
        DcVoltage(float("nan"))


def test_constants():
    assert CMH2O_PER_VOLT == 1.27
    assert ONSET_INTERCEPT_CMH2O == 5.94


@given(st.floats(min_value=5.94, max_value=15.0))
def test_round_trip_over_supported_span(p):
    back = voltage_to_pressure(pressure_to_voltage(PressureCmH2O(p))).value
    assert back == pytest.approx(p, rel=1e-12)


@given(
    st.floats(min_value=5.94, max_value=15.0),
    st.floats(min_value=5.94, max_value=15.0),
)
@example(14.999999999999998, 15.0)
def test_mapping_is_strictly_monotone(p1, p2):
    # Strict except between adjacent floats: from about 13.95 cmH2O up,
    # p - 5.94 reaches 8, where every exact difference is a tie between two
    # floats, and round-half-even sends every other pair of neighbouring
    # pressures to one voltage.  Pressures two ulps apart never tie.
    p1, p2 = sorted((p1, p2))
    v1 = pressure_to_voltage(PressureCmH2O(p1)).value
    v2 = pressure_to_voltage(PressureCmH2O(p2)).value
    assert v1 <= v2
    if p2 > math.nextafter(p1, math.inf):
        assert v1 < v2
    elif p1 == p2:
        assert v1 == v2


@given(st.floats(min_value=0.0, max_value=10.0))
def test_constant_slope(v):
    # one extra volt always buys 1.27 cmH2O
    p1 = voltage_to_pressure(DcVoltage(v)).value
    p2 = voltage_to_pressure(DcVoltage(v + 1.0)).value
    assert p2 - p1 == pytest.approx(1.27, rel=1e-9)
