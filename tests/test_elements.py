"""Element current laws, translinear blocks, and the feedback emulation."""
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from glottisim import (
    ElementKind,
    ElementOpenError,
    FeedbackSettleError,
    FeedbackState,
    ModelDomainError,
    ResistorElement,
    TranslinearSpec,
    device_current,
    rectify,
    settle_feedback,
)

KINDS = (ElementKind.LINEAR, ElementKind.COMPRESSIVE, ElementKind.EXPANSIVE)

gain_st = st.floats(min_value=1e-3, max_value=1e3)
voltage_st = st.floats(min_value=1e-6, max_value=1e3)


def test_linear_law():
    e = ResistorElement(ElementKind.LINEAR, gain=2.0)
    assert e.current(3.0) == 6.0
    assert e.current(-3.0) == -6.0
    assert e.current(0.0) == 0.0


def test_compressive_law_microamp_example():
    # 1 uA/sqrt(V) device: 1 V -> 1 uA, 4 V -> 2 uA (current doubles)
    e = ResistorElement(ElementKind.COMPRESSIVE, gain=1e-6)
    assert e.current(1.0) == pytest.approx(1e-6, rel=1e-12)
    assert e.current(4.0) == pytest.approx(2e-6, rel=1e-12)


def test_compressive_doubles_per_voltage_quadrupling():
    e = ResistorElement(ElementKind.COMPRESSIVE, gain=0.7)
    for v in np.logspace(-6, 3, 28):
        assert e.current(4.0 * v) == pytest.approx(2.0 * e.current(v), rel=1e-12)


def test_expansive_quadruples_per_voltage_doubling():
    e = ResistorElement(ElementKind.EXPANSIVE, gain=0.7)
    assert e.current(2.0) == pytest.approx(0.7 * 4.0, rel=1e-12)
    for v in np.logspace(-6, 3, 28):
        assert e.current(2.0 * v) == pytest.approx(4.0 * e.current(v), rel=1e-12)


def test_zero_bias_is_an_open_branch():
    e = ResistorElement(ElementKind.COMPRESSIVE, gain=0.0)
    assert e.current(7.0) == 0.0
    assert e.voltage(0.0) == 0.0
    with pytest.raises(ElementOpenError):
        e.voltage(1e-9)


def test_inverse_points():
    lin = ResistorElement(ElementKind.LINEAR, gain=2.0)
    assert lin.voltage(3.0) == 1.5
    comp = ResistorElement(ElementKind.COMPRESSIVE, gain=1.0)
    assert comp.voltage(2.0) == pytest.approx(4.0, rel=1e-12)
    exp = ResistorElement(ElementKind.EXPANSIVE, gain=1.0)
    assert exp.voltage(3.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_validation():
    with pytest.raises(ModelDomainError):
        ResistorElement(ElementKind.LINEAR, gain=-1.0)
    with pytest.raises(ModelDomainError):
        ResistorElement(ElementKind.LINEAR, gain=float("nan"))
    with pytest.raises(ModelDomainError):
        ResistorElement(ElementKind.LINEAR).current(float("inf"))
    with pytest.raises(ModelDomainError):
        ResistorElement(ElementKind.LINEAR).voltage(float("nan"))


@pytest.mark.parametrize("block, law, x", [
    (ResistorElement(ElementKind.EXPANSIVE), "current", 1e200),
    (ResistorElement(ElementKind.COMPRESSIVE), "voltage", 1e200),
    (ResistorElement(ElementKind.LINEAR, 1e300), "current", 1e300),
    (ResistorElement(ElementKind.LINEAR, 5e-324), "voltage", 1e300),
    (TranslinearSpec(ElementKind.EXPANSIVE, i_ref=1e-300), "output", 1e300)])
def test_results_beyond_the_float_range_are_rejected(block, law, x):
    # finite inputs whose result ** overflows or * and / round to inf
    with pytest.raises(ModelDomainError, match="exceeds the float range"):
        getattr(block, law)(x)


@given(kind=st.sampled_from(KINDS), gain=gain_st, v=voltage_st)
def test_odd_symmetry_is_exact(kind, gain, v):
    e = ResistorElement(kind, gain=gain)
    assert e.current(-v) == -e.current(v)
    i = e.current(v)
    assert e.voltage(-i) == -e.voltage(i)


@given(kind=st.sampled_from(KINDS), gain=gain_st, v=voltage_st,
       flip=st.booleans())
def test_voltage_inverts_current(kind, gain, v, flip):
    if flip:
        v = -v
    e = ResistorElement(kind, gain=gain)
    assert e.voltage(e.current(v)) == pytest.approx(v, rel=1e-12)


@given(kind=st.sampled_from(KINDS), gain=gain_st, v1=voltage_st, v2=voltage_st)
def test_current_monotone_increasing(kind, gain, v1, v2):
    e = ResistorElement(kind, gain=gain)
    lo, hi = sorted((v1, v2))
    assert e.current(lo) <= e.current(hi)
    # strict once the inputs are separated beyond rounding noise
    if hi - lo > 1e-9 * hi:
        assert e.current(lo) < e.current(hi)


# -- translinear function blocks ---------------------------------------------


def test_translinear_linear_is_identity():
    block = TranslinearSpec(ElementKind.LINEAR)
    for i in (0.0, 1e-9, 0.5, 3.0):
        assert block.output(i) == i


def test_translinear_fixed_point_exact_at_reference():
    # i_ref values with exact square roots keep the fixed point bitwise
    for i_ref in (0.25, 1.0, 4.0, 1024.0):
        comp = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=i_ref)
        exp = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=i_ref)
        assert comp.output(i_ref) == i_ref
        assert exp.output(i_ref) == i_ref


def test_translinear_geometric_mean_and_square():
    comp = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=4.0)
    assert comp.output(1.0) == 2.0
    assert comp.output(9.0) == 6.0
    exp = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=4.0)
    assert exp.output(2.0) == 1.0
    assert exp.output(6.0) == 9.0


@given(i_ref=st.sampled_from([0.125, 0.5, 1.0, 2.0, 32.0]),
       i_in=st.floats(min_value=1e-9, max_value=1e6))
def test_translinear_duality(i_ref, i_in):
    comp = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=i_ref)
    exp = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=i_ref)
    assert exp.output(comp.output(i_in)) == pytest.approx(i_in, rel=1e-12)
    assert comp.output(exp.output(i_in)) == pytest.approx(i_in, rel=1e-12)


@given(i_in=st.floats(min_value=0.0, max_value=sys.float_info.max),
       i_ref=st.floats(min_value=0.0, max_value=sys.float_info.max,
                       exclude_min=True))
@example(i_in=1e-200, i_ref=1e-300)  # i_in ** 2 underflows
@example(i_in=1e-200, i_ref=5e-324)  # i_ref ** -1 overflows
@example(i_in=1e-10, i_ref=1e-320)   # i_in / i_ref overflows
def test_expansive_block_is_within_two_ulps_of_the_exact_square(i_in, i_ref):
    block = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=i_ref)
    exact = Fraction(i_in) ** 2 / Fraction(i_ref)
    top = Fraction(sys.float_info.max)
    if exact > top:
        # only float max itself lies within 2 ulps of a result just above it
        if exact - top > 2 * math.ulp(sys.float_info.max):
            with pytest.raises(ModelDomainError, match="float range"):
                block.output(i_in)
        return
    got = block.output(i_in)
    # 2 ulps of the result, or of the subnormal spacing below the normal range
    ulp = math.ulp(max(float(exact), sys.float_info.min))
    assert abs(Fraction(got) - exact) <= 2 * ulp
    if i_in == i_ref:
        assert got == i_in


def test_translinear_rejects_bad_inputs():
    with pytest.raises(ModelDomainError):
        TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=0.0)
    with pytest.raises(ModelDomainError):
        TranslinearSpec(ElementKind.EXPANSIVE, i_ref=-1.0)
    block = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=1.0)
    with pytest.raises(ModelDomainError):
        block.output(-1e-3)
    with pytest.raises(ModelDomainError):
        block.output(float("inf"))


def test_rectify():
    assert rectify(3.0, 2.0) == 6.0
    assert rectify(-3.0, 2.0) == 6.0
    assert rectify(0.0, 2.0) == 0.0
    with pytest.raises(ModelDomainError):
        rectify(1.0, 0.0)
    with pytest.raises(ModelDomainError):
        rectify(float("nan"), 1.0)


# -- feedback emulation of the element laws ----------------------------------


def element_for(spec: TranslinearSpec, transconductance=1.0) -> ResistorElement:
    """ResistorElement whose law the settled feedback loop should realize."""
    if spec.kind is ElementKind.LINEAR:
        return ResistorElement(ElementKind.LINEAR, transconductance)
    if spec.kind is ElementKind.COMPRESSIVE:
        gain = math.sqrt(transconductance * spec.i_ref)
        return ResistorElement(ElementKind.COMPRESSIVE, gain)
    gain = transconductance ** 2 / spec.i_ref
    return ResistorElement(ElementKind.EXPANSIVE, gain)


@pytest.mark.parametrize("kind", KINDS)
def test_feedback_settles_to_element_law(kind):
    spec = TranslinearSpec(kind, i_ref=1.0)
    target = element_for(spec)
    fb = FeedbackState()
    for v in np.linspace(0.05, 0.5, 10):
        settled = settle_feedback(spec, fb, float(v), dt=1e-6, max_steps=10000)
        got = device_current(settled, float(v))
        want = target.current(float(v))
        assert got == pytest.approx(want, rel=1e-2)
        fb = settled  # warm start keeps later points cheap


def test_feedback_matches_compressive_scaling():
    # quadrupling the voltage should double the settled current (0.1% loop
    # tolerance on each endpoint bounds the ratio error by ~0.2%)
    spec = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=1.0)
    fb = FeedbackState()
    a = device_current(settle_feedback(spec, fb, 0.1, 1e-6, 10000), 0.1)
    b = device_current(settle_feedback(spec, fb, 0.4, 1e-6, 10000), 0.4)
    assert b / a == pytest.approx(2.0, rel=5e-3)


def test_feedback_is_odd_in_terminal_voltage():
    spec = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=1.0)
    settled = settle_feedback(spec, FeedbackState(), 0.3, 1e-6, 10000)
    assert device_current(settled, -0.3) == -device_current(settled, 0.3)


def test_feedback_zero_voltage_settles_immediately():
    spec = TranslinearSpec(ElementKind.LINEAR)
    fb = FeedbackState(v_gate=0.5)
    settled = settle_feedback(spec, fb, 0.0, 1e-6, max_steps=0)
    assert settled.v_gate == fb.v_gate  # zero target, zero current: no steps


def test_feedback_reports_non_convergence():
    spec = TranslinearSpec(ElementKind.LINEAR)
    with pytest.raises(FeedbackSettleError) as err:
        settle_feedback(spec, FeedbackState(), 0.3, dt=1e-6, max_steps=3)
    assert err.value.residual is not None
    assert math.isfinite(err.value.residual)


def test_feedback_validates_step_parameters():
    spec = TranslinearSpec(ElementKind.LINEAR)
    with pytest.raises(ModelDomainError):
        settle_feedback(spec, FeedbackState(), 0.1, dt=0.0, max_steps=10)
    with pytest.raises(ModelDomainError):
        settle_feedback(spec, FeedbackState(), 0.1, dt=1e-6, max_steps=-1)


def test_feedback_state_validation():
    with pytest.raises(ModelDomainError):
        FeedbackState(cap_farads=0.0)
    with pytest.raises(ModelDomainError):
        FeedbackState(device_beta=-1.0)
    with pytest.raises(ModelDomainError):
        FeedbackState(v_gate=float("nan"))
