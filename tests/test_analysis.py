"""Derivative, F0 estimation, peak picking and phase detection."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glottisim import (
    GlottalCircuit,
    GlottalWaveform,
    InsufficientPulsesError,
    ModelDomainError,
    analyze,
    derivative,
    detect_phases,
    estimate_f0,
    pulse_peaks,
    simulate,
)
from glottisim import analysis
from glottisim.analysis import (_CLOSURE_SCAN_SAMPLES, _f0_of_peaks,
                                 _find_peaks)
from glottisim.config import RunConfig
from glottisim.exporters import (export_csv, format_report,
                                 read_waveform_csv)
from glottisim.oscillator import OscillatorConfig
import oracles


def make_waveform(u, rate=44100):
    """Waveform wrapper for synthetic flow arrays (folds held open)."""
    u = np.asarray(u, dtype=float)
    ones = np.ones_like(u)
    return GlottalWaveform(rate, u, ones, ones)


# -- derivative ----------------------------------------------------------------


def test_derivative_of_constant_is_zero():
    d = derivative(make_waveform(np.full(64, 0.37)))
    assert np.all(d == 0.0)


def test_derivative_of_ramp_is_slope():
    rate = 10000
    slope = 3.0
    t = np.arange(50) / rate
    d = derivative(make_waveform(slope * t, rate=rate))
    assert d == pytest.approx(np.full(50, slope), rel=1e-9)


def test_derivative_endpoints_are_one_sided():
    rate = 10000
    u = np.array([0.0, 1.0, 4.0, 9.0])  # t^2 on an integer grid
    d = derivative(make_waveform(u, rate=rate))
    assert d[0] == pytest.approx((u[1] - u[0]) * rate)
    assert d[-1] == pytest.approx((u[-1] - u[-2]) * rate)
    assert d[1] == pytest.approx((u[2] - u[0]) * rate / 2.0)


def test_derivative_needs_three_samples():
    with pytest.raises(ModelDomainError):
        derivative(make_waveform([0.0, 1.0]))


@pytest.mark.parametrize("u", [
    pytest.param([0.0, 1e308, 0.0, 0.0], id="inside"),
    pytest.param([1e308, 0.0, 0.0, 0.0], id="first"),
    pytest.param([0.0, 0.0, 0.0, 1e308], id="last")])
def test_derivative_beyond_the_float_range_is_a_domain_error(u, tmp_path):
    # a flow read back from a file, whose swing times 44.1 kHz overflows
    path = tmp_path / "w.csv"
    path.write_text("time_s,u_gl,du_gl_dt,g_lower,g_upper\n" + "".join(
        f"{k / 44100!r},{x!r},0,1,1\n" for k, x in enumerate(u)))
    w, _ = read_waveform_csv(path)
    with pytest.raises(ModelDomainError, match="float range"):
        derivative(w)
    # the same flow at its peak throughout has a derivative of 0
    assert not derivative(make_waveform(np.full(4, 1e308))).any()


def test_derivative_is_linear():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, 200)
    b = rng.uniform(0.0, 1.0, 200)
    da = derivative(make_waveform(a))
    db = derivative(make_waveform(b))
    dsum = derivative(make_waveform(a + b))
    assert dsum == pytest.approx(da + db, abs=1e-6)


# -- F0 ------------------------------------------------------------------------


def test_f0_of_synthetic_100hz_train():
    u = np.zeros(4410)
    u[220::441] = 1.0  # spikes every 441 samples at 44.1 kHz
    w = make_waveform(u)
    assert estimate_f0(w) == pytest.approx(100.0, rel=1e-9)
    assert len(pulse_peaks(w)) == 10


def test_f0_needs_two_pulses():
    with pytest.raises(InsufficientPulsesError):
        estimate_f0(make_waveform(np.zeros(100)))
    single = np.zeros(100)
    single[50] = 1.0
    with pytest.raises(InsufficientPulsesError):
        estimate_f0(make_waveform(single))


def test_f0_ignores_sub_threshold_ripple():
    u = np.zeros(4410)
    u[220::441] = 1.0
    u[100::441] = 0.3  # below half the peak: not pulses
    assert estimate_f0(make_waveform(u)) == pytest.approx(100.0, rel=1e-9)


def test_default_run_f0(loud_waveform, soft_waveform):
    f_loud = estimate_f0(loud_waveform)
    f_soft = estimate_f0(soft_waveform)
    assert f_loud == pytest.approx(44100.0 / 353.0, rel=1e-12)
    assert f_soft == f_loud  # pressure moves amplitude, not timing
    assert abs(f_loud - 125.0) <= 1.0


# small gaps tie often; odd and even interval counts alternate with the length
@given(start=st.integers(0, 10**6),
       gaps=st.lists(st.one_of(st.integers(1, 8), st.integers(1, 10**9)),
                     min_size=1, max_size=80),
       rate=st.integers(8000, 10**300))
@example(start=0, gaps=[441], rate=44100)
@example(start=5, gaps=[352, 353], rate=44100)
@example(start=0, gaps=[3, 3, 3, 3], rate=8000)
def test_f0_of_peaks_is_bitwise_one_over_the_numpy_median(start, gaps, rate):
    idx = start + np.cumsum([0] + gaps)
    want = 1.0 / float(np.median(np.diff(idx) / float(rate)))
    got = _f0_of_peaks(idx, rate)
    assert type(got) is float
    assert got.hex() == want.hex()


# -- peak picking ----------------------------------------------------------


@st.composite
def runs_of_levels(draw):
    """Short integer-valued signals built from runs, so that plateaus and
    ties between peaks are common."""
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
                         max_size=8))
    return np.array([level for level, n in runs for _ in range(n)],
                    dtype=float)


PEAK_CASES = dict(x=runs_of_levels(), height=st.integers(-1, 4),
                  distance=st.integers(1, 8))


@settings(max_examples=400)
@given(**PEAK_CASES)
@example(x=np.array([]), height=0, distance=1)
@example(x=np.array([1.0]), height=0, distance=1)
@example(x=np.array([0.0, 1.0]), height=0, distance=1)
@example(x=np.array([0.0, 1.0, 0.0]), height=0, distance=1)
@example(x=np.full(6, 2.0), height=0, distance=1)
@example(x=np.array([2.0, 2.0, 1.0, 3.0, 0.0]), height=0, distance=1)
@example(x=np.array([0.0, 1.0, 3.0, 3.0]), height=0, distance=1)
@example(x=np.array([0.0, 2.0, 2.0, 2.0, 2.0, 1.0]), height=0, distance=1)
@example(x=np.array([0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0]), height=3,
         distance=3)
@example(x=np.array([0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 1.0, 0.0]), height=0,
         distance=3)
def test_peak_picker_matches_reference(x, height, distance):
    got = _find_peaks(x, height, distance)
    assert np.array_equal(got, oracles.find_peaks_ref(x, height, distance))


@pytest.fixture(scope="module")
def scipy_find_peaks():
    return pytest.importorskip("scipy.signal").find_peaks


@given(**PEAK_CASES)
def test_peak_picker_matches_scipy(scipy_find_peaks, x, height, distance):
    want, _ = scipy_find_peaks(x, height=height, distance=distance)
    assert np.array_equal(_find_peaks(x, height, distance), want)
    assert np.array_equal(oracles.find_peaks_ref(x, height, distance), want)


def test_pulse_peaks_of_default_run_match_reference(loud_waveform):
    u = loud_waveform.u_gl
    want = oracles.find_peaks_ref(u, 0.5 * u.max(), 44)
    assert np.array_equal(pulse_peaks(loud_waveform), want)


# -- phases ----------------------------------------------------------------


def test_phases_of_silence():
    w = make_waveform(np.zeros(100))
    opens, closeds = detect_phases(w)
    assert opens == []
    assert len(closeds) == 1
    assert closeds[0] == (0.0, pytest.approx(100.0 / 44100.0))


def test_phases_partition_the_record():
    rng = np.random.default_rng(3)
    u = np.where(rng.uniform(size=300) > 0.5, rng.uniform(0.5, 1.0, 300), 0.0)
    w = make_waveform(u)
    opens, closeds = detect_phases(w)
    spans = sorted(opens + closeds)
    assert spans[0][0] == 0.0
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 == b0  # half-open intervals, no gap and no overlap
    assert spans[-1][1] == pytest.approx(300.0 / 44100.0)
    # alternation: adjacent spans belong to different lists
    open_set = set(opens)
    for prev, cur in zip(spans, spans[1:]):
        assert (prev in open_set) != (cur in open_set)


def test_phases_match_a_per_span_loop(loud_waveform):
    # the spans one at a time, in the same IEEE operations
    def loop(w, mask):
        rate = float(w.sample_rate_hz)
        edges = np.flatnonzero(np.diff(mask.astype(np.int8))) + 1
        edges = [0, *edges.tolist(), len(mask)]
        opens, closeds = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            span = (w.t0 + np.int64(a) / rate, w.t0 + np.int64(b) / rate)
            (opens if mask[a] else closeds).append(span)
        return opens, closeds

    rng = np.random.default_rng(5)
    u = np.where(rng.uniform(size=3000) > 0.5, 1.0, 0.0)
    for w in (loud_waveform, make_waveform(u),
              GlottalWaveform(8000, u, np.ones(3000), np.ones(3000), t0=0.1)):
        opens, closeds = detect_phases(w)
        want = loop(w, w.u_gl > 1e-6 * w.u_gl.max())
        assert (opens, closeds) == want
        assert all(type(x) is float for span in opens + closeds for x in span)


def test_default_run_phase_counts(loud_waveform):
    opens, closeds = detect_phases(loud_waveform)
    assert len(opens) == 25
    rep = analyze(loud_waveform)
    assert rep.pulse_count == 125
    assert rep.open_phase_count == 25


TWO_MS_PULSES = RunConfig(
    lower_oscillator=OscillatorConfig(pulse_duration_s=0.002),
    upper_oscillator=OscillatorConfig(pulse_duration_s=0.002,
                                      phase_lag_s=0.001)).build_circuit()


def _csv_round_trip(tmp_path):
    w = simulate(GlottalCircuit.normal_voice(10.0), 10.0, 44100)
    export_csv(w, derivative(w), tmp_path / "w.csv")
    return read_waveform_csv(tmp_path / "w.csv")[0]


# name: (open phases, waveform from the loud run and a scratch directory)
PHASE_CASES = {
    "loud": (25, lambda loud, _: loud),
    "silence": (0, lambda *_: simulate(GlottalCircuit.normal_voice(5.94),
                                       0.02, 44100)),
    "all-open": (1, lambda *_: make_waveform(np.linspace(0.5, 1.0, 50))),
    "starts-open": (2, lambda *_: make_waveform(
        [2.0, 1.0, 0.0, 0.0, 3.0, 0.0, 1e-7])),
    "ends-open": (2, lambda *_: make_waveform(
        [0.0, 5e-7, 1.0, 0.0, 0.0, 2.0, 2.0])),
    "negative-zeros": (2, lambda *_: make_waveform(
        [-0.0, 1.0, -0.0, 0.0, 1.0, -0.0])),
    "2ms-pulses": (125, lambda *_: simulate(TWO_MS_PULSES, 1.0, 44100)),
    "csv-10s": (250, lambda _, tmp_path: _csv_round_trip(tmp_path)),
}


@pytest.mark.parametrize("name", list(PHASE_CASES))
def test_open_phase_count_and_flatness_match_a_sample_loop(name, loud_waveform,
                                                           tmp_path):
    want, build = PHASE_CASES[name]
    w = build(loud_waveform, tmp_path)
    count, flatness = oracles.phases_ref(w.u_gl)
    rep = analyze(w)
    assert rep.open_phase_count == count == len(detect_phases(w)[0]) == want
    assert type(rep.open_phase_count) is int
    # repr: bitwise, the sign of zero included
    assert repr(rep.closed_phase_flatness) == repr(flatness)


def _assert_closure_instant_of_the_whole_derivative(w):
    """analyze(w) reports the sharpest swing and the closure instant of the
    record-length derivative(w), bitwise."""
    least, k = oracles.closure_instant_ref(derivative(w))
    rep = analyze(w)
    assert repr(rep.max_negative_derivative) == repr(least)
    assert rep.max_negative_derivative_time_s == w.t0 + k / w.sample_rate_hz


@pytest.mark.parametrize("name", list(PHASE_CASES))
def test_closure_instant_matches_a_sample_loop(name, loud_waveform, tmp_path):
    _assert_closure_instant_of_the_whole_derivative(
        PHASE_CASES[name][1](loud_waveform, tmp_path))


def _swings(n, swings):
    """n derivative samples of 0, but for the swings {index: value}."""
    d = np.zeros(n)
    d[list(swings)] = list(swings.values())
    return d


@pytest.mark.parametrize("d, want", [
    # the least sits 1.1e-6 below the first swing and 6e-7 below the second
    ([0.0, -1.0, 0.0, -1.0000005, 0.0, -1.0000011, 0.0], 3),
    ([0.0, -1.0000002, 0.0, -1.0000009, 0.0, -1.0000011, 0.0], 1),
    ([2.0, 3.0, 2.000001, 2.0000021], 0),
    ([1.0, 0.0, -0.0, 0.0], 1),
    ([3.0, -np.inf, -1e308, -np.inf], 1),
    # analyze scans 16 384 samples at a time: swings in later blocks, and
    # on either side of a block edge
    *(pytest.param(_swings(45000, swings), want, id=name)
      for name, swings, want in (
          ("third-block", {40000: -1.0}, 40000),
          ("second-block-near", {20000: -1.0000005, 40000: -1.0000011},
           20000),
          ("block-end", {16383: -1.0, 16384: -1.0}, 16383),
          ("block-start", {16384: -1.0, 44999: -1.0}, 16384))),
])
def test_closure_instant_is_the_first_swing_near_the_least(d, want,
                                                           monkeypatch):
    def given_block(w, start, out):
        out[:] = d[start:start + len(out)]
        return out

    # analyze takes its derivative blocks from d in place of the flow's
    monkeypatch.setattr(analysis, "_derivative_block", given_block)
    w = make_waveform(np.ones(len(d)))
    least, k = oracles.closure_instant_ref(d)
    rep = analyze(w)
    assert k == want
    assert rep.max_negative_derivative == least == min(d)
    assert rep.max_negative_derivative_time_s == k / w.sample_rate_hz


@pytest.mark.parametrize("duration", [1.0, 10.0])
@pytest.mark.parametrize("pressure", [6.5, 7.21, 10.3, 15.0])
def test_csv_round_trip_gives_the_run_report(pressure, duration, tmp_path):
    w = simulate(GlottalCircuit.normal_voice(pressure), duration, 44100)
    d = derivative(w)
    export_csv(w, d, tmp_path / "w.csv")
    back, _ = read_waveform_csv(tmp_path / "w.csv")
    want = format_report(analyze(w)).splitlines()
    assert format_report(analyze(back)).splitlines() == want


def test_fully_open_oscillators_leave_thin_closures(loud_waveform):
    # default pulses span the whole period, so closure is only the fall/rise
    # seam; open time dominates
    opens, _ = detect_phases(loud_waveform)
    open_time = sum(b - a for a, b in opens)
    assert open_time > 0.98


def test_closed_samples_match_tiny_bias(loud_waveform):
    # flow threshold closure coincides with the oscillator-bias view of it
    w = loud_waveform
    peak = float(w.u_gl.max())
    from_flow = w.u_gl <= 1e-6 * peak
    from_bias = np.minimum(w.g_lower, w.g_upper) <= 1e-6
    assert np.array_equal(from_flow, from_bias)
    assert int(from_flow.sum()) == 69


# -- full report -----------------------------------------------------------


def test_analyze_of_default_run(loud_waveform):
    rep = analyze(loud_waveform)
    assert rep.f0_hz == pytest.approx(44100.0 / 353.0, rel=1e-12)
    assert rep.max_negative_derivative == pytest.approx(-1576.1414273443647,
                                                        rel=1e-9)
    assert rep.max_negative_derivative_time_s == pytest.approx(
        0.03997732426303855, abs=1e-12)
    assert rep.closed_phase_flatness <= 1e-6
    assert rep.pulse_count == 125


def test_closure_instant_sits_in_the_fall_segment(loud_waveform):
    # sharpest negative flow swing happens while the lower-fold pulse falls
    rep = analyze(loud_waveform)
    osc = GlottalCircuit.normal_voice().lower.oscillator
    tau = rep.max_negative_derivative_time_s % osc.period_s
    assert osc.rise_end_s <= tau < osc.pulse_duration_s


def test_louder_voice_closes_more_sharply(loud_waveform, soft_waveform):
    loud = analyze(loud_waveform)
    soft = analyze(soft_waveform)
    assert soft.max_negative_derivative == pytest.approx(-558.5350616456474,
                                                         rel=1e-9)
    assert abs(loud.max_negative_derivative) > abs(soft.max_negative_derivative)
    # closure lands at the same grid instant regardless of level
    assert (loud.max_negative_derivative_time_s
            == soft.max_negative_derivative_time_s)


def test_analyze_handles_silence():
    w = simulate(GlottalCircuit.normal_voice(5.94), 0.02, 44100)
    rep = analyze(w)
    assert rep.f0_hz is None
    assert rep.pulse_count == 0
    assert rep.max_negative_derivative == 0.0
    assert rep.closed_phase_flatness == 0.0
    assert rep.open_phase_count == 0


# -- analyze without a record-length derivative ------------------------------


@pytest.mark.parametrize("duration", [1.0, 60.0])
@pytest.mark.parametrize("pressure", [6.5, 10.0, 15.0])
def test_block_scan_is_the_report_of_the_whole_derivative(pressure, duration):
    w = simulate(GlottalCircuit.normal_voice(pressure), duration, 44100)
    _assert_closure_instant_of_the_whole_derivative(w)


def _one_fall(n, k):
    """n flow samples of 1 that fall to 0.5 after sample k, or at it if it
    is the last, so the closure instant is sample k."""
    u = np.ones(n)
    u[min(k + 1, n - 1):] = 0.5
    return u


@pytest.mark.parametrize("k", [0, _CLOSURE_SCAN_SAMPLES - 1,
                               _CLOSURE_SCAN_SAMPLES,
                               _CLOSURE_SCAN_SAMPLES + 1, 40000 - 1])
def test_block_scan_finds_a_closure_instant_anywhere(k):
    w = make_waveform(_one_fall(40000, k))
    _assert_closure_instant_of_the_whole_derivative(w)
    assert analyze(w).max_negative_derivative_time_s == k / 44100


def test_block_scan_of_a_three_sample_record():
    _assert_closure_instant_of_the_whole_derivative(
        make_waveform([1.0, 0.25, 0.5]))
    with pytest.raises(ModelDomainError, match="at least 3 samples"):
        analyze(make_waveform([1.0, 0.5]))


def test_block_scan_raises_the_derivatives_overflow():
    # a rise of 1e308 in the third block overflows times 44.1 kHz, while
    # every fall, and so the least, stays finite
    u = np.zeros(40000)
    u[35000] = 1e308
    w = make_waveform(u)
    with pytest.raises(ModelDomainError) as want:
        derivative(w)
    with pytest.raises(ModelDomainError) as got:
        analyze(w)
    assert str(got.value) == str(want.value)
    assert "float range" in str(got.value)


def test_analyze_holds_no_record_length_derivative():
    w = simulate(GlottalCircuit.normal_voice(), 10.0, 44100)
    tracemalloc.start()
    try:
        analyze(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole derivative took 1.26 x the flow's bytes
    assert peak < 0.5 * w.u_gl.nbytes
