"""Sawtooth pulse generator."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glottisim import ModelDomainError, OscillatorConfig, PhaseKind
import oracles


def test_default_shape_points():
    cfg = OscillatorConfig()
    assert cfg.period_s == 0.008
    assert cfg.pulse_duration_s == 0.008
    assert cfg.sample(0.0) == 0.0
    assert cfg.sample(cfg.rise_end_s) == 1.0  # peak lands exactly at rise end
    assert cfg.sample(0.008) == 0.0
    # halfway up the ramp
    assert cfg.sample(0.0036) == pytest.approx(0.5, rel=1e-12)
    # halfway down the fall: (0.008 - 0.0076) / (0.008 - 0.0072)
    assert cfg.sample(0.0076) == pytest.approx(0.5, rel=1e-9)


def test_slow_rise_fast_fall():
    cfg = OscillatorConfig()
    rise_slope = 1.0 / cfg.rise_end_s
    fall_slope = 1.0 / (cfg.pulse_duration_s - cfg.rise_end_s)
    assert fall_slope == pytest.approx(9.0 * rise_slope, rel=1e-9)


def test_validation():
    with pytest.raises(ModelDomainError):
        OscillatorConfig(period_s=0.0)
    with pytest.raises(ModelDomainError):
        OscillatorConfig(period_s=-1.0)
    with pytest.raises(ModelDomainError):
        OscillatorConfig(pulse_duration_s=0.009)  # longer than the period
    with pytest.raises(ModelDomainError):
        OscillatorConfig(pulse_duration_s=0.0)
    with pytest.raises(ModelDomainError, match="rise_fraction"):
        OscillatorConfig(rise_fraction=0.3)
    with pytest.raises(ModelDomainError):
        OscillatorConfig(rise_fraction=0.5)  # boundary excluded
    with pytest.raises(ModelDomainError):
        OscillatorConfig(rise_fraction=1.0)
    with pytest.raises(ModelDomainError):
        OscillatorConfig(peak_current=0.0)
    with pytest.raises(ModelDomainError):
        OscillatorConfig(phase_lag_s=-1e-9)
    with pytest.raises(ModelDomainError):
        OscillatorConfig(period_s=float("nan"))


def test_silent_before_lag():
    cfg = OscillatorConfig(phase_lag_s=0.001)
    for t in (0.0, 0.0005, 0.000999):
        assert cfg.sample(t) == 0.0
    assert cfg.phase(0.0005).kind is PhaseKind.CLOSED


@given(
    t_units=st.integers(min_value=0, max_value=1 << 20),
    period_units=st.integers(min_value=1, max_value=64),
    lag_units=st.integers(min_value=0, max_value=64),
    rise=st.sampled_from([0.625, 0.75, 0.875]),
    pulse_frac=st.sampled_from([0.5, 0.75, 1.0]),
)
def test_exact_periodicity_on_binary_grid(t_units, period_units, lag_units,
                                          rise, pulse_frac):
    # binary-fraction times keep every sum and difference exact, so the
    # one-period shift must reproduce the sample bit for bit
    scale = 2.0 ** -10
    period = period_units * scale
    cfg = OscillatorConfig(period_s=period,
                           pulse_duration_s=period * pulse_frac,
                           rise_fraction=rise,
                           phase_lag_s=lag_units * scale)
    t = cfg.phase_lag_s + t_units * (2.0 ** -20)
    assert cfg.sample(t + period) == cfg.sample(t)


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=0.05),
)
def test_lag_only_shifts_the_waveform(t, lag):
    base = OscillatorConfig()
    lagged = OscillatorConfig(phase_lag_s=lag)
    tt = t + lag
    assert lagged.sample(tt) == base.sample(tt - lag)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_output_bounded_by_peak(t):
    cfg = OscillatorConfig(period_s=0.008, pulse_duration_s=0.006,
                           rise_fraction=0.8, peak_current=2.5,
                           phase_lag_s=0.0015)
    out = cfg.sample(t)
    assert 0.0 <= out <= 2.5


def test_vectorized_matches_scalar_bitwise():
    cfg = OscillatorConfig(period_s=0.008, pulse_duration_s=0.0065,
                           rise_fraction=0.77, peak_current=1.3,
                           phase_lag_s=0.0012)
    lag = cfg.phase_lag_s
    # the grid, plus times at, just before and just after the lag
    t = np.concatenate((np.linspace(0.0, 0.05, 1111),
                        [lag, np.nextafter(lag, 0.0), np.nextafter(lag, 1.0),
                         lag + 0.008, -1e-300]))
    ref = np.array([oracles.pulse_ref(cfg, float(x)) for x in t])
    assert np.array_equal(cfg.sample_times(t), ref)
    assert [cfg.sample(float(x)) for x in t] == ref.tolist()
    # the smallest lag: t = 0 lies before it and t = 5e-324 at it, both silent
    tiny = OscillatorConfig(phase_lag_s=5e-324)
    t = np.array([0.0, 5e-324, 1e-323, 1e-300])
    ref = np.array([oracles.pulse_ref(tiny, float(x)) for x in t])
    assert ref[0] == ref[1] == 0.0
    assert np.array_equal(tiny.sample_times(t), ref)
    assert tiny.sample(0.0) == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_rejected(t):
    cfg = OscillatorConfig(phase_lag_s=0.001)
    with pytest.raises(ModelDomainError, match="time must be finite"):
        cfg.sample(t)
    with pytest.raises(ModelDomainError, match="time must be finite"):
        cfg.phase(t)
    with pytest.raises(ModelDomainError, match="time must be finite"):
        cfg.sample_times(np.array([0.0, t]))


def test_phase_kinds_on_default_cycle():
    cfg = OscillatorConfig()
    assert cfg.phase(0.0).kind is PhaseKind.CLOSED
    assert cfg.phase(0.0036).kind is PhaseKind.RISING
    assert cfg.phase(0.0036).position == pytest.approx(0.5, rel=1e-12)
    assert cfg.phase(0.0076).kind is PhaseKind.FALLING
    assert cfg.phase(0.008).kind is PhaseKind.CLOSED


def test_phase_closed_gap_position():
    cfg = OscillatorConfig(pulse_duration_s=0.006)
    ph = cfg.phase(0.007)  # midway through the 2 ms closed gap
    assert ph.kind is PhaseKind.CLOSED
    assert ph.position == pytest.approx(0.5, rel=1e-9)


def test_phase_closed_exactly_where_output_is_zero():
    cfg = OscillatorConfig(period_s=0.008, pulse_duration_s=0.006,
                           rise_fraction=0.75, phase_lag_s=0.0005)
    for t in np.linspace(0.0, 0.05, 2001):
        ph = cfg.phase(float(t))
        assert (ph.kind is PhaseKind.CLOSED) == (cfg.sample(float(t)) == 0.0)
        assert 0.0 <= ph.position <= 1.0


def test_open_intervals_basic():
    cfg = OscillatorConfig(pulse_duration_s=0.006)
    flat = [x for ab in cfg.open_intervals(0.0, 0.016) for x in ab]
    assert flat == pytest.approx([0.0, 0.006, 0.008, 0.014])


def test_open_intervals_with_lag_and_clipping():
    cfg = OscillatorConfig(pulse_duration_s=0.006, phase_lag_s=0.001)
    flat = [x for ab in cfg.open_intervals(0.0, 0.008) for x in ab]
    assert flat == pytest.approx([0.001, 0.007])
    # query window entirely inside the closed gap
    assert cfg.open_intervals(0.0072, 0.0078) == []
    # clipped on both sides
    flat = [x for ab in cfg.open_intervals(0.002, 0.004) for x in ab]
    assert flat == pytest.approx([0.002, 0.004])


def test_open_intervals_rejects_empty_window():
    cfg = OscillatorConfig()
    with pytest.raises(ModelDomainError):
        cfg.open_intervals(1.0, 1.0)
    with pytest.raises(ModelDomainError):
        cfg.open_intervals(2.0, 1.0)
    # an infinite end would make the pulse list endless
    for t0, t1 in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ModelDomainError, match="finite"):
            cfg.open_intervals(t0, t1)


def test_open_intervals_cover_positive_output():
    cfg = OscillatorConfig(period_s=0.008, pulse_duration_s=0.005,
                           rise_fraction=0.8, phase_lag_s=0.0007)
    t0, t1 = 0.0003, 0.0403
    spans = cfg.open_intervals(t0, t1)
    probe = np.linspace(t0, t1, 4001)
    inside = np.zeros(len(probe), dtype=bool)
    near_edge = np.zeros(len(probe), dtype=bool)
    for a, b in spans:
        inside |= (probe > a) & (probe < b)
        near_edge |= (np.abs(probe - a) < 1e-9) | (np.abs(probe - b) < 1e-9)
    positive = cfg.sample_times(probe) > 0.0
    assert np.array_equal(positive[~near_edge], inside[~near_edge])
