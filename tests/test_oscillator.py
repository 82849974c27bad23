"""Sawtooth pulse generator."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from glottisim import (GlottalCircuit, ModelDomainError, OscillatorConfig,
                       conductance_traces)
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
        cfg.sample_times(np.array([0.0, t]))


@given(
    period=st.one_of(st.floats(min_value=1e-4, max_value=0.1),
                     st.sampled_from([1e-300, 1e300, 1e308])),
    # large quotients, and times anywhere in the float range
    d_over_period=st.one_of(st.integers(-2 ** 40, 2 ** 40),
                            st.floats(min_value=-2.0 ** 40, max_value=2.0 ** 40)),
    anywhere=st.one_of(st.none(), st.floats(allow_nan=False,
                                            allow_infinity=False)),
    lag=st.floats(min_value=0.0, max_value=1.0),
)
@example(period=0.0071, d_over_period=2 ** 35 + 0.5, anywhere=None, lag=0.0)
@example(period=0.0071, d_over_period=2 ** 26 - 0.5, anywhere=None, lag=0.0)
@example(period=1e-300, d_over_period=12.25, anywhere=None, lag=0.5)
@example(period=1e300, d_over_period=-12.25, anywhere=None, lag=0.5)
@example(period=1e308, d_over_period=0.5, anywhere=None, lag=0.5)
# t - lag overflowed to -inf before negative times were taken as 0
@example(period=1e308, d_over_period=0, anywhere=-1.7976931348623157e308,
         lag=0.7771329603035184)
def test_sample_matches_the_oracle_for_periods_up_to_float_max(
        period, d_over_period, anywhere, lag):
    d = d_over_period * period if anywhere is None else anywhere
    assume(math.isfinite(d))
    cfg = OscillatorConfig(period_s=period, pulse_duration_s=0.75 * period,
                           rise_fraction=0.8, phase_lag_s=lag * period)
    t = d + cfg.phase_lag_s
    assume(math.isfinite(t))
    assert cfg.sample(t) == oracles.pulse_ref(cfg, t)


def test_silent_more_than_float_max_before_the_lag():
    # for the first two times t - lag lies below -float max, where it would
    # overflow to -inf with a warning, which the test config makes an error
    cfg = OscillatorConfig(phase_lag_s=1e308)
    t = np.array([-1e308, -1.7976931348623157e308, -5e-324, 0.0])
    value = cfg.sample(-1e308)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert cfg.sample_times(t).tobytes() == np.zeros(len(t)).tobytes()


def test_traces_match_an_fmod_evaluation_of_the_pulse():
    # the documented pulse, evaluated with np.fmod one block at a time
    def pulse(osc, t):
        tau = np.fmod(t - osc.phase_lag_s, osc.period_s)
        rise_end = osc.rise_fraction * osc.pulse_duration_s
        rising = osc.peak_current * (tau / rise_end)
        falling = osc.peak_current * ((osc.pulse_duration_s - tau)
                                      / (osc.pulse_duration_s - rise_end))
        out = np.where(tau < rise_end, rising, falling)
        out = np.where((tau <= 0.0) | (tau >= osc.pulse_duration_s), 0.0, out)
        return out / osc.peak_current

    circuit = GlottalCircuit.normal_voice(10.0)
    traces = conductance_traces(circuit, 60.0, 44100)
    n = 60 * 44100
    for start in range(0, n, 1 << 18):
        t = np.arange(start, min(start + (1 << 18), n)) / 44100.0
        for g, fold in zip(traces, (circuit.lower, circuit.upper)):
            want = pulse(fold.oscillator, t)
            assert g[start:start + len(t)].tobytes() == want.tobytes()


def test_open_intervals_cover_positive_output():
    cfg = OscillatorConfig(period_s=0.008, pulse_duration_s=0.005,
                           rise_fraction=0.8, phase_lag_s=0.0007)
    t0, t1 = 0.0003, 0.0403
    spans = oracles.open_intervals_ref(cfg, t0, t1)
    assert len(spans) == 5 and spans[0] == (0.0007, 0.0057)
    probe = np.linspace(t0, t1, 4001)
    inside = np.zeros(len(probe), dtype=bool)
    near_edge = np.zeros(len(probe), dtype=bool)
    for a, b in spans:
        inside |= (probe > a) & (probe < b)
        near_edge |= (np.abs(probe - a) < 1e-9) | (np.abs(probe - b) < 1e-9)
    positive = cfg.sample_times(probe) > 0.0
    assert np.array_equal(positive[~near_edge], inside[~near_edge])


@pytest.mark.parametrize("pulse", [1e-298, 2e-312])
def test_subnormal_rise_end_or_fall_span_leaks_no_warning(pulse):
    # rise_end or the fall span pulse - rise_end is subnormal or 0, so the
    # unselected quotients overflow or divide by zero
    cfg = OscillatorConfig(pulse_duration_s=pulse,
                           rise_fraction=0.9999999999999999,
                           phase_lag_s=0.001)
    t = np.arange(441) / 44100.0
    ref = np.array([oracles.pulse_ref(cfg, float(x)) for x in t])
    assert np.array_equal(cfg.sample_times(t), ref)
