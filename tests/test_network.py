"""Series network solve and the quasi-static simulation."""
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from glottisim import (
    ConfigError,
    DcVoltage,
    ElementKind,
    FoldStage,
    GlottalCircuit,
    GlottalWaveform,
    ModelDomainError,
    OscillatorConfig,
    PressureCmH2O,
    ResistorElement,
    RunConfig,
    SolverError,
    conductance_traces,
    pressure_to_voltage,
    simulate,
    simulate_many,
    solve_series_current,
    validate_config,
)
from glottisim import network
import oracles

L, C, E = ElementKind.LINEAR, ElementKind.COMPRESSIVE, ElementKind.EXPANSIVE
GAIN_NAMES = ("lower_linear_gain", "lower_compressive_gain",
              "upper_linear_gain", "upper_expansive_gain")


def test_single_linear_element():
    i = solve_series_current([ResistorElement(L, gain=2.0)], 3.0)
    assert i == pytest.approx(6.0, rel=1e-12)


def test_single_compressive_element():
    i = solve_series_current([ResistorElement(C, gain=1.0)], 4.0)
    assert i == pytest.approx(2.0, rel=1e-12)


def test_linear_plus_compressive_example():
    # v(I) = I + I^2 = 2  ->  I = 1
    els = [ResistorElement(L, 1.0), ResistorElement(C, 1.0)]
    assert solve_series_current(els, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_zero_drive_gives_zero_current():
    els = [ResistorElement(L, 1.0), ResistorElement(E, 1.0)]
    assert solve_series_current(els, 0.0) == 0.0


def test_open_element_blocks_the_stack():
    els = [ResistorElement(L, 1.0),
           ResistorElement(C, 1.0, bias_scale=0.0)]
    assert solve_series_current(els, 5.0) == 0.0


def test_solver_input_validation():
    with pytest.raises(ModelDomainError):
        solve_series_current([], 1.0)
    with pytest.raises(ModelDomainError):
        solve_series_current([ResistorElement(L, 1.0)], -1.0)
    with pytest.raises(ModelDomainError):
        solve_series_current([ResistorElement(L, 1.0)], float("nan"))
    # the current, about 1e600 A, is beyond the float range
    with pytest.raises(ModelDomainError, match="float range"):
        solve_series_current([ResistorElement(E, 1e300)], 1e150)


def test_residual_meets_contract():
    els = [ResistorElement(L, 0.013), ResistorElement(C, 7.5),
           ResistorElement(E, 0.2), ResistorElement(L, 40.0)]
    for v in (1e-6, 0.1, 1.0, 42.0, 900.0):
        i = solve_series_current(els, v)
        total = sum(e.voltage(i) for e in els)
        assert abs(total - v) <= 1e-12 * max(v, 1.0)


def test_matches_independent_bisection_oracle():
    rng = np.random.default_rng(977)
    for _ in range(150):
        desc = oracles.random_series_network(rng)
        v = float(rng.uniform(0.0, 10.0))
        els = [ResistorElement(ElementKind(k), gain=c) for k, c in desc]
        got = solve_series_current(els, v)
        want = oracles.bisect_series_current(desc, v)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-30)


def test_current_increases_with_drive():
    els = [ResistorElement(L, 1.0), ResistorElement(C, 2.0),
           ResistorElement(E, 0.5)]
    drives = np.linspace(0.1, 8.0, 40)
    currents = [solve_series_current(els, float(v)) for v in drives]
    assert all(a < b for a, b in zip(currents, currents[1:]))


def test_current_decreases_when_any_bias_drops():
    els = [ResistorElement(L, 1.0), ResistorElement(C, 2.0)]
    full = solve_series_current(els, 3.0)
    half = solve_series_current([e.with_bias(0.5) for e in els], 3.0)
    assert 0.0 < half < full


# -- circuit construction -----------------------------------------------------


def test_normal_voice_layout():
    c = GlottalCircuit.normal_voice()
    assert c.lower.nonlinear.kind is C
    assert c.upper.nonlinear.kind is E
    assert c.lower.oscillator.phase_lag_s == 0.0
    assert c.inter_fold_lag_s == 0.001
    assert c.drive.value == pytest.approx((10.0 - 5.94) / 1.27, rel=1e-15)


def test_fold_stage_rejects_misplaced_kinds():
    osc = OscillatorConfig()
    with pytest.raises(ModelDomainError):
        FoldStage(ResistorElement(C, 1.0), ResistorElement(C, 1.0), osc)
    with pytest.raises(ModelDomainError):
        FoldStage(ResistorElement(L, 1.0), ResistorElement(L, 1.0), osc)


def test_circuit_rejects_swapped_folds():
    osc = OscillatorConfig()
    lower = FoldStage(ResistorElement(L, 1.0), ResistorElement(C, 1.0), osc)
    upper = FoldStage(ResistorElement(L, 1.0), ResistorElement(E, 1.0), osc)
    with pytest.raises(ModelDomainError):
        GlottalCircuit(lower=upper, upper=lower, drive=DcVoltage(1.0))


def test_waveform_invariants():
    with pytest.raises(ModelDomainError):
        GlottalWaveform(44100, [-1.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ModelDomainError):
        GlottalWaveform(44100, [0.0, 1.0], [1.0], [1.0, 1.0])
    with pytest.raises(ModelDomainError):  # flow through a zero-bias fold
        GlottalWaveform(44100, [0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ModelDomainError):
        GlottalWaveform(4000, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ModelDomainError):
        GlottalWaveform(44100, [], [], [])
    with pytest.raises(ModelDomainError):
        GlottalWaveform(44100, [np.nan], [1.0], [1.0])
    with pytest.raises(ModelDomainError, match="t0 must be finite"):
        GlottalWaveform(44100, [1.0], [1.0], [1.0], t0=np.inf)
    w = GlottalWaveform(44100, [0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0])
    assert len(w) == 3
    assert w.times[1] == pytest.approx(1.0 / 44100.0)


# -- simulate ------------------------------------------------------------------


def test_simulate_grid_and_determinism():
    c = GlottalCircuit.normal_voice()
    a = simulate(c, 0.1, 44100)
    b = simulate(c, 0.1, 44100)
    assert len(a) == 4410
    assert np.array_equal(a.u_gl, b.u_gl)
    assert np.array_equal(a.g_lower, b.g_lower)
    assert np.array_equal(a.g_upper, b.g_upper)


def test_simulate_validation():
    c = GlottalCircuit.normal_voice()
    with pytest.raises(ModelDomainError):
        simulate(c, 0.0, 44100)
    with pytest.raises(ModelDomainError):
        simulate(c, -1.0, 44100)
    with pytest.raises(ModelDomainError):
        simulate(c, 1.0, 7999)
    with pytest.raises(ModelDomainError):
        simulate(c, 1.0, 44100.5)
    with pytest.raises(ModelDomainError, match="more samples"):
        simulate(c, 1e305, 44100)  # the sample count overflows
    # more samples than a float64 array can hold, raised before any is made
    for rate in (10 ** 20, 1e20):
        with pytest.raises(ModelDomainError, match="more samples"):
            simulate(c, 1.0, rate)
    # rates beyond the float range, as an integer and as a float
    for rate in (10 ** 400, float("inf"), float("nan")):
        with pytest.raises(ModelDomainError, match="sample_rate_hz"):
            simulate(c, 1.0, rate)


def test_flow_vanishes_exactly_where_a_fold_bias_is_zero(loud_waveform):
    w = loud_waveform
    blocked = (w.g_lower == 0.0) | (w.g_upper == 0.0)
    assert np.all(w.u_gl[blocked] == 0.0)
    assert np.all(w.u_gl[~blocked] > 0.0)
    assert blocked.any() and (~blocked).any()


def test_voltage_balance_across_the_record(loud_waveform):
    # independent KVL check: per-sample element voltages must sum to the drive
    w = loud_waveform
    drive = (10.0 - 5.94) / 1.27
    active = np.flatnonzero(w.u_gl > 0.0)[::97]
    for k in active:
        i = float(w.u_gl[k])
        desc = [("linear", float(w.g_lower[k])),
                ("compressive", float(w.g_lower[k])),
                ("linear", float(w.g_upper[k])),
                ("expansive", float(w.g_upper[k]))]
        total = sum(oracles.element_voltage_ref(kind, c, i) for kind, c in desc)
        assert abs(total - drive) <= 1e-10 * drive


def test_simulated_samples_match_scalar_solver(loud_waveform):
    w = loud_waveform
    for k in (45, 100, 317, 1000, 7321, 44099):
        gl, gu = float(w.g_lower[k]), float(w.g_upper[k])
        if gl == 0.0 or gu == 0.0:
            continue
        els = [ResistorElement(L, 1.0, gl), ResistorElement(C, 1.0, gl),
               ResistorElement(L, 1.0, gu), ResistorElement(E, 1.0, gu)]
        want = solve_series_current(els, (10.0 - 5.94) / 1.27)
        assert float(w.u_gl[k]) == want  # same code path, bitwise equal


def test_solve_blocks_do_not_change_the_flow(monkeypatch, loud_waveform):
    # 1000 and 16384 leave a short last block; 44101 covers the record
    for block in (1000, 16384, 44101):
        monkeypatch.setattr(network, "_SOLVE_BLOCK", block)
        w = simulate(GlottalCircuit.normal_voice(10.0), 1.0, 44100)
        assert np.array_equal(w.u_gl, loud_waveform.u_gl)
        assert np.array_equal(w.g_lower, loud_waveform.g_lower)
        assert np.array_equal(w.g_upper, loud_waveform.g_upper)


def test_simulate_memory_is_one_block_beyond_its_output():
    c = GlottalCircuit.normal_voice()
    tracemalloc.start()
    try:
        w = simulate(c, 10.0, 44100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = w.u_gl.nbytes + w.g_lower.nbytes + w.g_upper.nbytes
    # full-record traces and index took 13.9 MiB beyond the output here;
    # one block of traces and solve temporaries plus the checks is ~3 MiB
    assert peak - output < 5 * 2**20


def test_peak_flow_regression(loud_waveform, soft_waveform):
    assert float(loud_waveform.u_gl.max()) == pytest.approx(0.768331638276445,
                                                            rel=1e-9)
    assert float(soft_waveform.u_gl.max()) == pytest.approx(0.16835662788326425,
                                                            rel=1e-9)


def test_more_pressure_means_more_flow(loud_waveform, soft_waveform):
    assert np.all(soft_waveform.u_gl <= loud_waveform.u_gl)
    peaks = []
    for p in (7.0, 8.5, 10.0):
        w = simulate(GlottalCircuit.normal_voice(p), 0.05, 44100)
        peaks.append(float(w.u_gl.max()))
    assert peaks[0] < peaks[1] < peaks[2]


def test_onset_pressure_yields_silence():
    w = simulate(GlottalCircuit.normal_voice(5.94), 0.05, 44100)
    assert np.all(w.u_gl == 0.0)
    assert w.g_lower.max() > 0.99  # oscillators still run


def test_zero_gain_blocks_flow():
    c = RunConfig(pressure_cmh2o=10.0, upper_linear_gain=0.0).build_circuit()
    w = simulate(c, 0.05, 44100)
    assert np.all(w.u_gl == 0.0)


def test_flow_confined_to_pulse_overlap_windows():
    # 6 ms pulses, 1 ms upper lag: folds overlap on (1 ms, 6 ms) mod 8 ms
    c = RunConfig(pressure_cmh2o=10.0,
                  lower_oscillator=OscillatorConfig(pulse_duration_s=0.006),
                  upper_oscillator=OscillatorConfig(pulse_duration_s=0.006,
                                                    phase_lag_s=0.001)
                  ).build_circuit()
    w = simulate(c, 0.032, 44100)
    dt = 1.0 / 44100.0
    pos = np.flatnonzero(w.u_gl > 0.0)
    runs = np.split(pos, np.flatnonzero(np.diff(pos) > 1) + 1)
    assert len(runs) == 4
    t = w.times
    for m, run in enumerate(runs):
        start, end = 0.001 + 0.008 * m, 0.006 + 0.008 * m
        assert abs(t[run[0]] - start) <= dt
        assert abs(t[run[-1]] - end) <= dt
        lo = c.lower.oscillator.open_intervals(start - 0.002, end + 0.002)
        up = c.upper.oscillator.open_intervals(start - 0.002, end + 0.002)
        # the flow run sits inside both folds' pulse windows
        eps = 1e-12
        assert any(a - eps <= t[run[0]] and t[run[-1]] <= b + eps for a, b in lo)
        assert any(a - eps <= t[run[0]] and t[run[-1]] <= b + eps for a, b in up)


def test_conductance_traces_match_waveform(loud_waveform):
    c = GlottalCircuit.normal_voice()
    gl, gu = conductance_traces(c, 1.0, 44100)
    assert np.array_equal(gl, loud_waveform.g_lower)
    assert np.array_equal(gu, loud_waveform.g_upper)
    # the grid straddles the exact ramp peak but must come close
    assert gl.max() > 0.999 and gu.max() > 0.999
    assert gl.max() <= 1.0 and gu.max() <= 1.0


def test_peak_current_scales_bias_not_flow():
    # doubling the oscillator peak doubles the raw pulse but the normalized
    # bias trace, and therefore the flow, must not change
    base = GlottalCircuit.normal_voice()
    big_osc = OscillatorConfig(peak_current=2.0)
    big = GlottalCircuit(
        lower=FoldStage(base.lower.linear, base.lower.nonlinear, big_osc),
        upper=FoldStage(base.upper.linear, base.upper.nonlinear,
                        OscillatorConfig(peak_current=2.0, phase_lag_s=0.001)),
        drive=base.drive)
    wa = simulate(base, 0.02, 44100)
    wb = simulate(big, 0.02, 44100)
    assert np.array_equal(wa.u_gl, wb.u_gl)


@pytest.mark.parametrize("pressure", [6.0, 15.0])
@pytest.mark.parametrize("gains",
                         itertools.product((1e-300, 1.0, 1e300), repeat=4),
                         ids=lambda g: ",".join(f"{x:g}" for x in g))
def test_extreme_gains_keep_the_voltage_balance(gains, pressure):
    c = RunConfig(pressure_cmh2o=pressure,
                  **dict(zip(GAIN_NAMES, gains))).build_circuit()
    _assert_voltage_balance(c, simulate(c, 0.01, 44100), gains)


@pytest.mark.parametrize("pressure, gains", [
    *(pytest.param(p, (1.0,) * 4, id=f"{p:g}") for p in (1e160, 1e200, 1e300)),
    # the expansive term of the start bound exceeds the float range here
    *(pytest.param(p, (1.0, 1.0, 1.0, 1e300), id=f"{p:g}-expansive-1e+300")
      for p in (1e200, 1e300)),
])
def test_huge_drives_keep_the_voltage_balance(pressure, gains):
    # v**2 overflows here; the solver must neither warn nor lose the balance.
    c = RunConfig(pressure_cmh2o=pressure,
                  **dict(zip(GAIN_NAMES, gains))).build_circuit()
    _assert_voltage_balance(c, simulate(c, 0.01, 44100), gains)


# The gain corners whose flow at full bias exceeds the float range.
BEYOND_FLOAT_RANGE = [
    pytest.param(p, (1e300, 1e300, 1e300, g), id=f"{p:g}-expansive-{g:g}")
    for p in (1e200, 1e300) for g in (1.0, 1e300)]


@pytest.mark.parametrize("pressure, gains", BEYOND_FLOAT_RANGE)
def test_flows_beyond_the_float_range_are_rejected_up_front(
        monkeypatch, pressure, gains):
    cfg = RunConfig(pressure_cmh2o=pressure, **dict(zip(GAIN_NAMES, gains)))
    with pytest.raises(ConfigError, match="elements: .*float range"):
        validate_config(cfg)

    def no_solve(*args):
        raise AssertionError("solved a circuit that should be rejected")
    monkeypatch.setattr(network, "_series_root", no_solve)
    with pytest.raises(ModelDomainError, match="float range"):
        simulate(cfg.build_circuit(), 0.01, 44100)


_GAINS = st.one_of(st.just(0.0),
                   st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
_PRESSURES = st.one_of(st.floats(0.0, 20.0),
                       st.floats(0.0, 300.0).map(lambda e: 10.0 ** e))


@given(gains=st.tuples(_GAINS, _GAINS, _GAINS, _GAINS), pressure=_PRESSURES)
# an overflowing start bound and a solve that did not converge, seen before
@example(gains=(1.0, 1e300, 1.0, 1.0), pressure=1e300)
@example(gains=(1e300, 1e300, 1e300, 1.0), pressure=1e200)
def test_accepted_domain_gives_a_balanced_flow(gains, pressure):
    # every input either yields a finite, balanced flow or is rejected up
    # front by both the config and simulate; SolverError and warnings fail
    cfg = RunConfig(pressure_cmh2o=pressure, duration_s=0.01,
                    **dict(zip(GAIN_NAMES, gains)))
    try:
        validate_config(cfg)
    except ConfigError:
        with pytest.raises(ModelDomainError):
            simulate(cfg.build_circuit(), cfg.duration_s, cfg.sample_rate_hz)
        return
    c = cfg.build_circuit()
    w = simulate(c, cfg.duration_s, cfg.sample_rate_hz)
    if min(gains) == 0.0:
        assert not w.u_gl.any()
    else:
        _assert_voltage_balance(c, w, gains)


def _assert_voltage_balance(c, w, gains):
    assert np.all(np.isfinite(w.u_gl))
    drive = c.drive.value
    kinds = ("linear", "compressive", "linear", "expansive")
    for k in np.flatnonzero((w.g_lower > 0.0) & (w.g_upper > 0.0)):
        i = float(w.u_gl[k])
        biases = (w.g_lower[k], w.g_lower[k], w.g_upper[k], w.g_upper[k])
        total = sum(oracles.element_voltage_ref(kind, gain * float(b), i)
                    for kind, gain, b in zip(kinds, gains, biases))
        assert abs(total - drive) <= 1e-10 * max(drive, 1.0)


def test_iteration_cap_names_the_failing_sample(monkeypatch):
    c = GlottalCircuit.normal_voice()
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    with pytest.raises(SolverError) as info:
        simulate(c, 0.01, 44100)
    exc = info.value
    gl, gu = conductance_traces(c, 0.01, 44100)
    assert gl[exc.index] > 0.0 and gu[exc.index] > 0.0
    assert exc.time_s == exc.index / 44100.0
    assert exc.residual > 0.0  # Newton approaches the root from above
    assert f"at t = {exc.time_s!r} s" in str(exc)


# -- simulate_many ---------------------------------------------------------


def _drives(pressures):
    """The drive of each pressure; 0 cmH2O, below onset, stands for 0 V."""
    return [DcVoltage(0.0) if p == 0.0 else
            pressure_to_voltage(PressureCmH2O(p)) for p in pressures]


TWO_MS_PULSES = RunConfig(
    lower_oscillator=OscillatorConfig(pulse_duration_s=0.002),
    upper_oscillator=OscillatorConfig(pulse_duration_s=0.002,
                                      phase_lag_s=0.001)).build_circuit()


@pytest.mark.parametrize("samples", [16383, 16384, 16385])
@pytest.mark.parametrize("circuit", [
    pytest.param(GlottalCircuit.normal_voice(), id="normal"),
    pytest.param(RunConfig(upper_linear_gain=0.0).build_circuit(),
                 id="zero-gain"),
    pytest.param(TWO_MS_PULSES, id="2ms-pulses")])
def test_simulate_many_is_bitwise_simulate(circuit, samples):
    drives = _drives((0.0, 6.0, 10.0, 15.0))
    duration = samples / 44100
    t = np.arange(samples) / 44100.0
    gl, gu = (fold.oscillator.sample_times(t) / fold.oscillator.peak_current
              for fold in (circuit.lower, circuit.upper))
    waveforms = list(simulate_many(circuit, drives, duration, 44100))
    assert len(waveforms) == len(drives)
    for d, w in zip(drives, waveforms):
        want = simulate(replace(circuit, drive=d), duration, 44100)
        assert len(w) == samples and w.sample_rate_hz == 44100
        for name in ("u_gl", "g_lower", "g_upper"):
            assert getattr(w, name).tobytes() == getattr(want, name).tobytes()
        # the traces formed in one pass over the whole record
        assert w.g_lower.tobytes() == gl.tobytes()
        assert w.g_upper.tobytes() == gu.tobytes()
    assert not waveforms[0].u_gl.any()  # 0 V drives no flow
    if circuit.upper.linear.gain > 0.0:
        assert waveforms[-1].u_gl.any()


def test_simulate_many_shares_read_only_traces():
    c = GlottalCircuit.normal_voice()
    assert list(simulate_many(c, (), 0.01, 44100)) == []
    a, b = simulate_many(c, _drives((7.0, 9.0)), 0.05, 44100)
    assert a.g_lower is b.g_lower and a.g_upper is b.g_upper
    for arr in (a.g_lower, a.g_upper):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert not np.shares_memory(a.u_gl, b.u_gl)
    a.u_gl[:] = 0.0  # each flow is the caller's own
    assert b.u_gl.any()


def test_simulate_many_checks_every_drive_before_any_trace(monkeypatch):
    def no_traces(*args):
        raise AssertionError("formed traces for a drive that is rejected")
    monkeypatch.setattr(network, "conductance_traces", no_traces)
    ok = pressure_to_voltage(PressureCmH2O(10.0))
    huge = RunConfig(pressure_cmh2o=1e300,
                     **dict.fromkeys(GAIN_NAMES, 1e300)).build_circuit()
    cases = [(GlottalCircuit.normal_voice(), DcVoltage(-1.0), "drive"),
             (huge, huge.drive, "float range")]
    for circuit, bad, match in cases:
        with pytest.raises(ModelDomainError, match=match):
            next(simulate_many(circuit, (ok, bad), 0.01, 44100))


def test_simulate_many_names_the_failing_sample_time(monkeypatch):
    # the failing sample lies in the third block of the second drive
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 20)
    c = GlottalCircuit.normal_voice()
    waveforms = simulate_many(c, _drives((0.0, 10.0)), 0.01, 44100)
    assert not next(waveforms).u_gl.any()
    with pytest.raises(SolverError) as info:
        next(waveforms)
    exc = info.value
    gl, gu = conductance_traces(c, 0.01, 44100)
    assert exc.index == np.flatnonzero((gl > 0.0) & (gu > 0.0))[0] >= 40
    assert exc.time_s == exc.index / 44100.0
    assert f"at t = {exc.time_s!r} s" in str(exc)


def test_simulate_many_memory_does_not_grow_with_the_circuit_count():
    c = GlottalCircuit.normal_voice()
    drives = _drives([6.0 + 0.1 * k for k in range(91)])
    tracemalloc.start()
    try:
        for w in simulate_many(c, drives, 1.0, 44100):
            del w
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 91 simulate calls over these circuits, each waveform dropped before
    # the next call, peaked here at 3 700 540 bytes before simulate_many
    # existed: one waveform (1.06 MB) plus one block of solve temporaries
    assert peak <= 3_700_540
