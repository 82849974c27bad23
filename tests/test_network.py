"""Series network solve and the quasi-static simulation."""
import itertools
import sys
import tracemalloc
import weakref
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
    derivative,
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
    els = [ResistorElement(L, 1.0), ResistorElement(C, 0.0)]
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
    half = solve_series_current(
        [replace(e, gain=0.5 * e.gain) for e in els], 3.0)
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
    with pytest.raises(ModelDomainError, match="g_upper must be >= 0"):
        GlottalWaveform(44100, [0.0, 0.0], [1.0, 1.0], [1.0, -1e-300])
    w = GlottalWaveform(44100, [0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0])
    assert len(w) == 3
    assert w.times[1] == pytest.approx(1.0 / 44100.0)


def test_waveform_rejects_complex_and_non_numeric_arrays():
    # no ComplexWarning, and no imaginary part dropped
    ones = np.ones(3)
    with pytest.raises(ModelDomainError, match="u_gl must hold real"):
        GlottalWaveform(44100, np.array([0.5 + 1j, 0.0, 0.0]), ones, ones)
    with pytest.raises(ModelDomainError, match="g_lower must hold real"):
        GlottalWaveform(44100, ones, np.array(["1", "1", "1"]), ones)
    # beside the memo's own traces, which are not checked again
    gl, gu = conductance_traces(GlottalCircuit.normal_voice(), 0.01, 44100)
    with pytest.raises(ModelDomainError, match="u_gl must hold real"):
        GlottalWaveform(44100, np.zeros(len(gl), complex), gl, gu)


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


def _flow_from_x_q(circuit, g_lower, g_upper):
    """The flow solve of circuit over bias arrays without a root table: the
    kernel from x_q on the circuit's two folds."""
    roots = np.sqrt(g_lower), np.sqrt(g_upper)
    s = network._series_root(roots, network._circuit_setup(circuit),
                             circuit.drive.value)
    return s * s


def test_simulated_samples_match_scalar_solver(loud_waveform):
    w = loud_waveform
    c = GlottalCircuit.normal_voice(10.0)
    for k in (45, 100, 317, 1000, 7321, 44099):
        gl, gu = float(w.g_lower[k]), float(w.g_upper[k])
        if gl == 0.0 or gu == 0.0:
            continue
        els = [ResistorElement(L, gl), ResistorElement(C, gl),
               ResistorElement(L, gu), ResistorElement(E, gu)]
        want = solve_series_current(els, (10.0 - 5.94) / 1.27)
        # the scalar solve is the same balance as one fold
        assert float(_flow_from_x_q(c, np.full(1, gl), np.full(1, gu))[0]) \
            == pytest.approx(want, rel=4e-15, abs=0.0)
    # the flows start from the root table instead and stay within 1e-11
    active = (w.g_lower > 0.0) & (w.g_upper > 0.0)
    want = _flow_from_x_q(c, w.g_lower[active], w.g_upper[active])
    assert w.u_gl[active].tobytes() != want.tobytes()
    np.testing.assert_allclose(w.u_gl[active], want, rtol=1e-11, atol=0.0)


def test_solve_blocks_do_not_change_the_flow(monkeypatch, loud_waveform):
    # 1000 and one more than the default leave a short last block, and the
    # latter moves every block edge; 44101 covers the record.  The
    # normal-voice blocks are all open but the first, and the 2 ms pulses
    # close part of every block.
    cases = [(GlottalCircuit.normal_voice(10.0), loud_waveform),
             (TWO_MS_PULSES, simulate(TWO_MS_PULSES, 1.0, 44100))]
    for block in (1000, network._SOLVE_BLOCK + 1, 44101):
        monkeypatch.setattr(network, "_SOLVE_BLOCK", block)
        for circuit, want in cases:
            w = simulate(circuit, 1.0, 44100)
            assert np.array_equal(w.u_gl, want.u_gl)
            assert np.array_equal(w.g_lower, want.g_lower)
            assert np.array_equal(w.g_upper, want.g_upper)


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
        lo, up = (oracles.open_intervals_ref(fold.oscillator, start - 0.002,
                                             end + 0.002)
                  for fold in (c.lower, c.upper))
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


def test_flows_whose_derivative_overflows_are_rejected_up_front(monkeypatch):
    # all gains at 1e300 and 4.1e16 cmH2O give a peak flow of 1.79e308,
    # inside the float range, but that flow times 44 100 Hz is not
    cfg = RunConfig(pressure_cmh2o=4.1e16, duration_s=0.01,
                    **dict.fromkeys(GAIN_NAMES, 1e300))
    with pytest.raises(ConfigError, match="elements: .*sample rate"):
        validate_config(cfg)

    def no_solve(*args):
        raise AssertionError("solved a circuit that should be rejected")
    with monkeypatch.context() as m:
        m.setattr(network, "_series_root", no_solve)
        with pytest.raises(ModelDomainError, match="sample rate"):
            simulate(cfg.build_circuit(), 0.01, 44100)
    # 1e-10 of that pressure gives 1e-5 of that flow, which passes, and
    # its derivative is finite
    cfg = replace(cfg, pressure_cmh2o=4.1e6)
    validate_config(cfg)
    w = simulate(cfg.build_circuit(), 0.01, 44100)
    assert 1e303 < w.u_gl.max() and np.isfinite(derivative(w)).all()


_GAINS = st.one_of(st.just(0.0),
                   st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
_PRESSURES = st.one_of(st.floats(0.0, 20.0),
                       st.floats(0.0, 300.0).map(lambda e: 10.0 ** e))


@given(gains=st.tuples(_GAINS, _GAINS, _GAINS, _GAINS), pressure=_PRESSURES)
# an overflowing start bound and a solve that did not converge, seen before
@example(gains=(1.0, 1e300, 1.0, 1.0), pressure=1e300)
@example(gains=(1e300, 1e300, 1e300, 1.0), pressure=1e200)
# a flow inside the float range whose derivative overflows, seen before
@example(gains=(1e300, 1e300, 1e300, 1e300), pressure=4.1e16)
def test_accepted_domain_gives_a_balanced_flow(gains, pressure):
    _assert_accepted_or_rejected(gains, pressure)


def _assert_accepted_or_rejected(gains, pressure):
    # every input either yields a finite, balanced flow with a finite
    # derivative or is rejected up front by both the config and simulate;
    # SolverError and warnings fail
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
    assert np.isfinite(derivative(w)).all()


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


def _coarse_tables(monkeypatch):
    """Have every flow solve start from a root table of 16 intervals per
    unit of z, whose nodes are solved at full cap, so that the step cap
    set afterwards fails the entries it starts too far from their root."""
    _table_builds(monkeypatch)
    monkeypatch.setattr(network, "_ROOT_TABLE_STEPS", 16)


def test_iteration_cap_names_the_failing_sample(monkeypatch):
    c = GlottalCircuit.normal_voice()
    _coarse_tables(monkeypatch)
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    with pytest.raises(SolverError) as info:
        simulate(c, 0.01, 44100)
    exc = info.value
    gl, gu = conductance_traces(c, 0.01, 44100)
    active = np.count_nonzero((gl > 0.0) & (gu > 0.0))
    assert gl[exc.index] > 0.0 and gu[exc.index] > 0.0
    assert exc.time_s == exc.index / 44100.0
    assert f"at t = {exc.time_s!r} s" in str(exc)
    # the record is one block, solved whole: each closed sample starts on a
    # node of the table and converges there, and no active sample does
    assert exc.failed == active
    assert f"for {active} of {len(gl)} entries" in str(exc)


def test_iteration_cap_names_the_failing_sample_of_an_open_block(
        monkeypatch):
    # every sample is open; at 1e16 V the upper fold holds sigma, and until
    # sample 47 z lies within 1e-11 of the node z = 0, so those samples
    # converge at their start, and from 47 on z = 0.1 lies inside an
    # interval of the coarse table
    _coarse_tables(monkeypatch)
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 20)
    c = replace(GlottalCircuit.normal_voice(), drive=DcVoltage(1e16))
    gl = np.ones(100)
    gu = np.full(100, 1e-30)
    gu[47:] = 1e-10
    with pytest.raises(SolverError) as info:
        network._solve_flow(c, gl, gu, 44100)
    exc = info.value
    assert exc.index == 47  # entry 7 of the block that starts at 40
    assert exc.time_s == 47 / 44100.0
    assert f"at t = {exc.time_s!r} s" in str(exc)
    assert exc.failed == 13
    assert "for 13 of 20 entries" in str(exc)


def test_pairs_and_blocks_name_the_same_failing_sample(monkeypatch):
    # at 1e16 V the samples from 30 on fail from the coarse table; the pair
    # of samples 30 to 59 is the second in time but, with g_upper 3e-10
    # above the 1e-10 of samples 60 to 99, the last in key order
    _coarse_tables(monkeypatch)
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 20)
    c = replace(GlottalCircuit.normal_voice(), drive=DcVoltage(1e16))
    gl = np.ones(100)
    gu = np.full(100, 1e-30)
    gu[30:] = 3e-10
    gu[60:] = 1e-10
    errors = []
    for pairs in (None, network._distinct_pairs(gl, gu)):
        with pytest.raises(SolverError) as info:
            network._solve_flow(c, gl, gu, 44100, pairs)
        errors.append(info.value)
    blocks, pairs = errors
    assert blocks.index == pairs.index == 30
    assert blocks.time_s == pairs.time_s == 30 / 44100.0
    assert blocks.residual == pairs.residual
    # the failing batch's entries: samples 30 to 39 of the block from 20,
    # and the pairs from 30 and from 60
    assert (blocks.failed, pairs.failed) == (10, 2)


def test_root_table_failure_names_no_sample(monkeypatch):
    # a cap of 1 fails the table's nodes, solved from x_q: the error counts
    # nodes, not samples, and names no sample
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    c = GlottalCircuit.normal_voice()
    with pytest.raises(SolverError) as info:
        simulate(c, 0.01, 44100)
    exc = info.value
    assert exc.index is None and exc.time_s is None
    assert str(exc).startswith(
        f"the root table at {c.drive.value!r} V failed: ")
    assert exc.failed == 2 * network._ROOT_TABLE_STEPS
    assert f"for {exc.failed} of {exc.failed + 1} entries" in str(exc)
    assert "at t =" not in str(exc)


# -- the series-root kernel -------------------------------------------------

SERIES_KINDS = ((L, "linear"), (C, "compressive"), (L, "linear"),
                (E, "expansive"))
# Element coefficients (gain times bias) from 1e-300 to 1e300: every
# element in turn holds sigma, and the others sit at every ratio to it.
CORNER_COEFFS = (1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300)
CORNER_DRIVES = (1e-3, 3.2, 1e3, 1e150)


def _element_folds(coeffs, v):
    """The bias roots and set-up of _series_root for one element of unit
    gain per fold, over arrays of coefficients."""
    return ([np.sqrt(c) for c in coeffs],
            [network._fold_setup([ResistorElement(kind)], v)
             for kind, _ in SERIES_KINDS])


def _corner_coeffs():
    return np.array(list(itertools.product(CORNER_COEFFS, repeat=4))).T


@pytest.mark.parametrize("v", CORNER_DRIVES)
def test_series_root_converges_within_three_steps_at_the_corners(
        monkeypatch, v):
    # a cap of 4 passes after at most 3 steps
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 4)
    coeffs = _corner_coeffs()
    s = network._series_root(*_element_folds(coeffs, v), v)
    with np.errstate(over="ignore"):
        current = s * s
    assert np.isfinite(current).sum() > 0.9 * len(current)
    for k in np.flatnonzero(np.isfinite(current)):
        total = sum(oracles.element_voltage_ref(name, float(c[k]),
                                                float(current[k]))
                    for (_, name), c in zip(SERIES_KINDS, coeffs))
        assert abs(total - v) <= 1e-10 * max(v, 1.0)


@pytest.mark.parametrize("v", CORNER_DRIVES)
def test_scalar_solve_converges_within_three_steps_at_the_corners(
        monkeypatch, v):
    # the same corners through solve_series_current, which solves its stack
    # as one fold at full bias; a cap of 4 passes after at most 3 steps
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 4)
    finite = 0
    for coeffs in _corner_coeffs().T:
        els = [ResistorElement(kind, c)
               for (kind, _), c in zip(SERIES_KINDS, coeffs)]
        try:
            current = solve_series_current(els, v)
        except ModelDomainError:
            continue  # beyond the float range
        finite += 1
        total = sum(oracles.element_voltage_ref(name, c, current)
                    for (_, name), c in zip(SERIES_KINDS, coeffs))
        assert abs(total - v) <= 1e-10 * max(v, 1.0)
    assert finite > 0.9 * len(CORNER_COEFFS) ** 4


@pytest.mark.parametrize("v", CORNER_DRIVES)
def test_series_root_starts_above_the_root(monkeypatch, v):
    # with a cap of 1 the kernel stops at its start x_q, and an entry not
    # already converged there reports g(x_q) * v, which is positive; at the
    # corners one element often carries the drive and x_q is the root, so
    # elements whose rho = sqrt(c) * v**(q / 2) lie within 1e2 of each other
    # are drawn too
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    rho = 10.0 ** np.random.default_rng(13).uniform(-1.0, 1.0, (4, 1000))
    near = [(r / v ** (0.5 * kind.exponent)) ** 2
            for (kind, _), r in zip(SERIES_KINDS, rho)]
    above = 0
    for coeffs in np.hstack([_corner_coeffs(), near]).T:
        folds = _element_folds([np.full(1, c) for c in coeffs], v)
        try:
            network._series_root(*folds, v)
        except SolverError as exc:
            assert exc.residual > 0.0
            above += 1
    assert above >= 1000


def test_series_root_comes_back_up_after_an_overshoot(monkeypatch):
    # linear coefficients of 1e300 leave b2 at 2e-300, the expansive
    # element holds sigma (b1 = 1) and the compressive one gives b4 = 0.01:
    # the first step lands below the root and the second comes back up
    coeffs = [np.full(1, c) for c in (1e300, 10.0, 1e300, 1.0)]
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 2)
    with pytest.raises(SolverError) as info:
        network._series_root(*_element_folds(coeffs, 1.0), 1.0)
    assert info.value.residual < 0.0
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 4)
    current = float(network._series_root(
        *_element_folds(coeffs, 1.0), 1.0)[0]) ** 2
    want = oracles.bisect_series_current(
        [(name, float(c[0])) for (_, name), c in zip(SERIES_KINDS, coeffs)],
        1.0)
    assert current == pytest.approx(want, rel=1e-12)


def _assert_batch_independent(roots, setup, v, table=None):
    """_series_root of the batch is, bit for bit, each entry solved alone,
    and under some step cap the batch holds converged entries beside
    pending ones, which np.where must keep."""
    together = network._series_root(roots, setup, v, table)
    alone = [network._series_root([r[k:k + 1] for r in roots], setup, v, table)
             for k in range(len(together))]
    assert together.tobytes() == np.concatenate(alone).tobytes()
    failed = []
    with pytest.MonkeyPatch.context() as m:
        for cap in (1, 2, 3):
            m.setattr(network, "_MAX_SOLVER_STEPS", cap)
            try:
                network._series_root(roots, setup, v, table)
            except SolverError as exc:
                failed.append(exc.failed)
    assert any(0 < f < len(together) for f in failed)


@pytest.mark.parametrize("v", [3.2, 1e3])
def test_series_root_from_x_q_is_independent_of_the_batch(v):
    # the corners take 0 to 3 steps, so np.where keeps converged entries
    # while the others step
    _assert_batch_independent(*_element_folds(_corner_coeffs(), v), v)


@pytest.mark.parametrize("pressure", [6.0, 15.0])
def test_series_root_from_the_root_table_is_independent_of_the_batch(
        monkeypatch, pressure):
    # from the coarse table a few entries meet the tolerance at their start
    # and the others take one step
    _coarse_tables(monkeypatch)
    circuit = GlottalCircuit.normal_voice(pressure)
    v = circuit.drive.value
    setup = network._circuit_setup(circuit)
    root_lower, root_upper, _ = network._distinct_pairs(
        *conductance_traces(circuit, 0.02, 44100))
    _assert_batch_independent((root_lower, root_upper), setup, v,
                              network._root_table(setup, v))


def _x_q_failures(pressures):
    """The pressures at which the kernel from x_q, without a root table,
    raises SolverError on the normal-voice circuit's folds over the
    distinct active bias pairs of a 0.1 s record."""
    circuit = GlottalCircuit.normal_voice()
    gl, gu = conductance_traces(circuit, 0.1, 44100)
    root_lower, root_upper, _ = network._distinct_pairs(gl, gu)
    failed = []
    for p, d in zip(pressures, _drives(pressures)):
        setup = network._circuit_setup(replace(circuit, drive=d))
        try:
            network._series_root((root_lower, root_upper), setup, d.value)
        except SolverError:
            failed.append(p)
    return failed


@pytest.mark.parametrize("pressure", [6.0, 6.5, 10.0, 15.0, 100.0])
def test_voice_pressures_take_at_most_two_steps(monkeypatch, pressure):
    # a cap of 3 passes after at most 2 steps
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 3)
    assert _x_q_failures([pressure]) == []


def test_three_steps_from_6_67_to_7_77_cmh2o_only(monkeypatch):
    # a dense grid of 0.1 s records: from 6 to 16 cmH2O by 0.01, a cap of 3
    # (at most 2 steps) fails at exactly 6.67 to 7.77 cmH2O and a cap of 4
    # (at most 3 steps) nowhere; from 16 to 100 cmH2O a cap of 3 passes
    pressures = [k / 100 for k in range(600, 1601)]
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 4)
    assert _x_q_failures(pressures) == []
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 3)
    assert _x_q_failures(pressures) == [k / 100 for k in range(667, 778)]
    assert _x_q_failures(np.linspace(16.0, 100.0, 400).tolist()) == []


# -- simulate_many ---------------------------------------------------------


def _drives(pressures):
    """The drive of each pressure; 0 cmH2O, below onset, stands for 0 V."""
    return [DcVoltage(0.0) if p == 0.0 else
            pressure_to_voltage(PressureCmH2O(p)) for p in pressures]


TWO_MS_PULSES = RunConfig(
    lower_oscillator=OscillatorConfig(pulse_duration_s=0.002),
    upper_oscillator=OscillatorConfig(pulse_duration_s=0.002,
                                      phase_lag_s=0.001)).build_circuit()


# records that end one sample before, at and one sample after the first
# block edge, and records that leave a short last block
@pytest.mark.parametrize("samples", [
    network._SOLVE_BLOCK - 1, network._SOLVE_BLOCK, network._SOLVE_BLOCK + 1,
    16383, 16384, 16385])
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


def test_closed_samples_solved_as_they_stand_give_positive_zero(monkeypatch):
    # 87.5 % of the 2 ms pulses' samples are closed: simulate solves every
    # sample of each block, with no mask, and simulate_many's pairs only
    # the active ones, and both give each closed sample a flow of +0.0
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 1000)
    entries = []
    series_root = network._series_root

    def counted(roots, setup, v, table=None, rows=None):
        entries.append(len(roots[0]))
        return series_root(roots, setup, v, table, rows)

    monkeypatch.setattr(network, "_series_root", counted)
    drives = _drives((6.5, 10.0, 15.0))
    many = list(simulate_many(TWO_MS_PULSES, drives, 1.0, 44100))
    gl, gu = many[0].g_lower, many[0].g_upper
    closed = (gl == 0.0) | (gu == 0.0)
    assert np.count_nonzero(closed) / len(gl) > 0.87
    for d, w in zip(drives, many):
        del entries[:]
        u = simulate(replace(TWO_MS_PULSES, drive=d), 1.0, 44100).u_gl
        assert sum(entries) == len(gl)
        assert u.tobytes() == w.u_gl.tobytes()
        assert u[closed].tobytes() == bytes(8 * np.count_nonzero(closed))
        assert u[~closed].all()


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
    # the failing sample lies in the third block of samples of the second
    # drive; its pair is the first in the order of first samples, and the
    # pair solve names it
    _coarse_tables(monkeypatch)
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
    assert 0 < exc.failed <= 20
    assert f"for {exc.failed} of " in str(exc)


SEVEN_MS_PULSES = RunConfig(
    lower_oscillator=OscillatorConfig(period_s=0.0071, pulse_duration_s=0.0071),
    upper_oscillator=OscillatorConfig(period_s=0.0071, pulse_duration_s=0.0071,
                                      phase_lag_s=0.00093)).build_circuit()


@pytest.mark.parametrize("circuit, rate, share", [
    # an incommensurate period: every active pair is distinct
    pytest.param(SEVEN_MS_PULSES, 44100, 1.0, id="7.1ms-44.1kHz"),
    # 8 ms pulses on an 8 kHz grid repeat most pairs
    pytest.param(GlottalCircuit.normal_voice(), 8000, 0.153, id="8ms-8kHz")])
def test_simulate_many_is_bitwise_simulate_over_distinct_pairs(
        circuit, rate, share):
    gl, gu = conductance_traces(circuit, 1.0, rate)
    root_lower, _, slot = network._distinct_pairs(gl, gu)
    active = (gl > 0.0) & (gu > 0.0)
    assert len(root_lower) / np.count_nonzero(active) == pytest.approx(
        share, abs=1e-3)
    assert np.array_equal(slot > 0, active)
    # the pairs are numbered in the order of their first samples
    slots, first = np.unique(slot, return_index=True)
    assert np.array_equal(slots[slots > 0], np.arange(1, len(root_lower) + 1))
    assert np.all(np.diff(first[slots > 0]) > 0)
    drives = _drives((6.0, 10.0, 15.0))
    for d, w in zip(drives, simulate_many(circuit, drives, 1.0, rate)):
        want = simulate(replace(circuit, drive=d), 1.0, rate)
        assert w.u_gl.tobytes() == want.u_gl.tobytes()


def test_simulate_many_solves_each_distinct_pair_once(monkeypatch):
    entries = []
    series_root = network._series_root

    def counted(roots, setup, v, table=None, rows=None):
        entries.append(len(roots[0]))
        return series_root(roots, setup, v, table, rows)

    monkeypatch.setattr(network, "_series_root", counted)
    c = GlottalCircuit.normal_voice()
    drives = _drives([6.0 + 0.1 * k for k in range(91)])
    for _ in simulate_many(c, drives, 1.0, 44100):
        pass
    gl, gu = conductance_traces(c, 1.0, 44100)
    active = np.count_nonzero((gl > 0.0) & (gu > 0.0))
    # 26 050 distinct pairs among 44 050 active samples
    assert sum(entries) / len(drives) == 26050 < active == 44050


def test_simulate_many_solves_no_sample_block_after_a_pair_block_fails(
        monkeypatch):
    entries = []
    series_root = network._series_root

    def counted(roots, setup, v, table=None, rows=None):
        entries.append(len(roots[0]))
        return series_root(roots, setup, v, table, rows)

    _coarse_tables(monkeypatch)
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 20)
    monkeypatch.setattr(network, "_series_root", counted)
    c = GlottalCircuit.normal_voice()
    with pytest.raises(SolverError) as info:
        list(simulate_many(c, _drives((0.0, 10.0)), 0.01, 44100))
    root_lower, _, slot = network._distinct_pairs(
        *conductance_traces(c, 0.01, 44100))
    # the first active sample fails, and its pair is the first: one block
    # of pairs was solved, and nothing after it
    assert slot[info.value.index] == 1
    assert entries == [min(20, len(root_lower))]


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


# -- the root table ----------------------------------------------------------


def _table_builds(monkeypatch):
    """Build each root table at the step cap it was given whatever cap the
    entries get later, and return the list of the drives a table was built
    for."""
    build, cap, drives = network._root_table, network._MAX_SOLVER_STEPS, []

    def at_full_cap(setup, v):
        drives.append(v)
        with monkeypatch.context() as m:
            m.setattr(network, "_MAX_SOLVER_STEPS", cap)
            return build(setup, v)
    monkeypatch.setattr(network, "_root_table", at_full_cap)
    return drives


def test_root_table_starts_need_no_step_from_6_to_100_cmh2o(monkeypatch):
    # a cap of 1 passes only where every entry meets the tolerance at its
    # start, with 0 steps: on 10 ms, 0.1 s and 1 s records, at every
    # 0.01 cmH2O from 6 to 16 and at 400 drives from 16 to 100 cmH2O
    drives = _table_builds(monkeypatch)
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    pressures = [k / 100 for k in range(600, 1601)]
    pressures += np.linspace(16.0, 100.0, 400).tolist()
    for duration in (0.01, 0.1, 1.0):
        waveforms = simulate_many(GlottalCircuit.normal_voice(),
                                  _drives(pressures), duration, 44100)
        assert sum(bool(w.u_gl.any()) for w in waveforms) == 1401
    assert len(drives) == 3 * 1401


@pytest.mark.parametrize("pressure", [6.0, 15.0, 1e3, 1e100])
def test_root_table_starts_need_no_step_at_the_gain_corners(monkeypatch,
                                                           pressure):
    _table_builds(monkeypatch)
    monkeypatch.setattr(network, "_MAX_SOLVER_STEPS", 1)
    for gains in itertools.product((1e-300, 1.0, 1e300), repeat=4):
        cfg = RunConfig(pressure_cmh2o=pressure, duration_s=0.01,
                        **dict(zip(GAIN_NAMES, gains)))
        try:
            validate_config(cfg)
        except ConfigError:
            continue
        c = cfg.build_circuit()
        _assert_voltage_balance(c, simulate(c, 0.01, 44100), gains)


@pytest.mark.parametrize("circuit", [
    pytest.param(GlottalCircuit.normal_voice(), id="normal"),
    pytest.param(RunConfig(upper_linear_gain=0.0).build_circuit(),
                 id="zero-gain"),
    pytest.param(TWO_MS_PULSES, id="2ms-pulses")])
def test_simulate_many_is_bitwise_simulate_from_the_root_table(
        monkeypatch, circuit):
    tables = _table_builds(monkeypatch)
    drives = _drives((0.0, 6.0, 10.0, 15.0))
    waveforms = list(simulate_many(circuit, drives, 16385 / 44100, 44100))
    for d, w in zip(drives, waveforms):
        want = simulate(replace(circuit, drive=d), 16385 / 44100, 44100)
        assert w.u_gl.tobytes() == want.u_gl.tobytes()
    # one table per flowing drive on each side; 0 V and an open element
    # carry no flow and need none
    assert len(tables) == (6 if circuit.upper.linear.gain > 0.0 else 0)


# -- the accept test of a table start ----------------------------------------


@given(gains=st.tuples(*[st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)]
                       * 4),
       v=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
def test_start_residual_is_the_kernels_within_a_quarter_tolerance(gains, v):
    # over t_f (one fold at 1, the other in [0, 1]) and x in [1/4, 1], where
    # the table's starts lie, the folds' own sums give the kernel's g within
    # tol / 4, so an accepted start, |g| <= tol / 2, passes the kernel's
    # test too
    setup = [network._fold_setup((ResistorElement(L, gains[0]),
                                  ResistorElement(C, gains[1])), v),
             network._fold_setup((ResistorElement(L, gains[2]),
                                  ResistorElement(E, gains[3])), v)]
    coefficients = [c for _, c in setup]
    other, x = np.meshgrid(np.linspace(0.0, 1.0, 257),
                           np.linspace(0.25, 1.0, 193))
    other, x = other.ravel(), x.ravel()
    for t in ([np.ones_like(x), other], [other, np.ones_like(x)]):
        # the kernel's g, from its coefficients (see _halley)
        b4, b2, b1 = network._powers(coefficients, t)
        y = x * x
        kernel = (b4 * y + b2) * y + b1 * x - 1.0
        ours = network._residual(coefficients, t, x)
        assert np.max(np.abs(ours - kernel)) <= network._tolerance(v) / 4


@pytest.mark.parametrize("pressure", [6.0, 15.0])
def test_every_entry_from_the_table_meets_the_kernels_test(monkeypatch,
                                                          pressure):
    # from the coarse table, the starts of the distinct pairs of a 1 s record
    # lie from within tol / 2 to far beyond tol, 30 of them between 1.2 and
    # 2 tol: accepted at its start or stepped, each entry leaves with the
    # kernel's |g| <= tol, up to the rounding of s / sigma
    _coarse_tables(monkeypatch)
    circuit = GlottalCircuit.normal_voice(pressure)
    v = circuit.drive.value
    setup = network._circuit_setup(circuit)
    roots = network._distinct_pairs(
        *conductance_traces(circuit, 1.0, 44100))[:2]
    s = network._series_root(roots, setup, v, network._root_table(setup, v))
    sigma, t = network._fold_ratios(roots, setup)
    x = s / sigma
    b4, b2, b1 = network._powers([c for _, c in setup], t)
    y = x * x
    g = (b4 * y + b2) * y + b1 * x - 1.0
    assert np.abs(g).max() <= 1.01 * network._tolerance(v)


@pytest.mark.parametrize("circuit", [
    pytest.param(GlottalCircuit.normal_voice(), id="normal"),
    pytest.param(RunConfig(upper_linear_gain=0.0).build_circuit(),
                 id="zero-gain"),
    pytest.param(TWO_MS_PULSES, id="2ms-pulses")])
def test_starts_sent_to_the_kernel_keep_every_flow(monkeypatch, circuit):
    # an accept bound below 0 sends every table start to the kernel, which
    # accepts it there by its own test or steps it: each flow keeps its
    # bits, through simulate (the blocks span a block edge) and through
    # simulate_many's pairs
    drives = _drives((6.5, 10.0, 15.0))
    duration = (network._SOLVE_BLOCK + 1) / 44100
    want = [simulate(replace(circuit, drive=d), duration, 44100).u_gl.tobytes()
            for d in drives]
    starts = []
    halley = network._halley

    def counted(b4, b2, b1, v, x=None):
        if x is not None:
            starts.append(len(x))
        return halley(b4, b2, b1, v, x)

    monkeypatch.setattr(network, "_halley", counted)
    monkeypatch.setattr(network, "_ACCEPT_SHARE", -1.0)
    got = [simulate(replace(circuit, drive=d), duration, 44100).u_gl.tobytes()
           for d in drives]
    many = [w.u_gl.tobytes()
            for w in simulate_many(circuit, drives, duration, 44100)]
    assert got == want and many == want
    # simulate solves every sample, closed ones too, and the pairs only
    # the active ones
    gl, gu = conductance_traces(circuit, duration, 44100)
    pairs = len(network._distinct_pairs(gl, gu)[0])
    flowing = circuit.upper.linear.gain > 0.0
    assert sum(starts) == (3 * (len(gl) + pairs) if flowing else 0)


def test_default_starts_take_no_kernel_call(monkeypatch):
    # from 6 to 15 cmH2O every table start of a 1 s record is accepted, so
    # the kernel runs only for the root tables' nodes
    callers = []
    halley = network._halley

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return halley(*args)

    monkeypatch.setattr(network, "_halley", traced)
    c = GlottalCircuit.normal_voice()
    drives = _drives([6.0 + 0.1 * k for k in range(91)])
    for _ in simulate_many(c, drives, 1.0, 44100):
        pass
    for d in drives[::30]:
        simulate(replace(c, drive=d), 1.0, 44100)
    assert callers == ["_root_table"] * (91 + 4)


# -- the trace memo ----------------------------------------------------------


def test_memo_traces_and_their_copies_give_the_same_flow(monkeypatch):
    # in blocks of 1 000 samples, the closed samples of a 0.1 s record (the
    # upper fold's silence before its lag and two pulse starts) lie in
    # blocks 0, 1 and 3 of 5: the memo's traces and their copies are
    # solved whole, block by block, closed samples and all
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 1000)
    monkeypatch.setattr(network, "_trace_memo", None)
    entries = []
    series_root = network._series_root

    def counted(roots, setup, v, table=None, rows=None):
        entries.append(len(roots[0]))
        return series_root(roots, setup, v, table, rows)

    monkeypatch.setattr(network, "_series_root", counted)
    c = GlottalCircuit.normal_voice()
    gl, gu = conductance_traces(c, 0.1, 44100)
    assert sorted(set((network._trace_memo[2] // 1000).tolist())) == [0, 1, 3]
    for d in _drives((6.5, 10.0, 15.0)):
        circuit = replace(c, drive=d)
        shared = network._solve_flow(circuit, gl, gu, 44100)
        copies = network._solve_flow(circuit, gl.copy(), gu.copy(), 44100)
        assert shared.any() and shared.tobytes() == copies.tobytes()
    assert entries == ([1000] * 4 + [410]) * 6


def _fresh(circuit, duration, rate, monkeypatch):
    """simulate of circuit with a trace memo that keeps nothing."""
    with monkeypatch.context() as m:
        m.setattr(network, "_trace_memo", None)
        m.setattr(network, "_TRACE_MEMO_SAMPLES", 0)
        return simulate(circuit, duration, rate)


def test_simulate_shares_the_traces_across_pressures(monkeypatch):
    monkeypatch.setattr(network, "_trace_memo", None)
    soft = simulate(GlottalCircuit.normal_voice(7.0), 0.5, 44100)
    loud = simulate(GlottalCircuit.normal_voice(10.0), 0.5, 44100)
    assert loud.g_lower is soft.g_lower and loud.g_upper is soft.g_upper
    for arr in (loud.g_lower, loud.g_upper):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    for p, w in ((7.0, soft), (10.0, loud)):
        want = _fresh(GlottalCircuit.normal_voice(p), 0.5, 44100, monkeypatch)
        assert w.g_lower is not want.g_lower
        for name in ("u_gl", "g_lower", "g_upper"):
            assert getattr(w, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("change, hit", [
    pytest.param({}, True, id="equal"),
    pytest.param({"duration_s": 0.02 + 1e-9}, True, id="same-count"),
    pytest.param({"lower_oscillator": OscillatorConfig(phase_lag_s=-0.0)},
                 True, id="negative-zero-lag"),
    pytest.param({"lower_oscillator": OscillatorConfig(pulse_duration_s=0.007)},
                 False, id="lower-oscillator"),
    pytest.param({"upper_oscillator": OscillatorConfig(phase_lag_s=0.002)},
                 False, id="upper-oscillator"),
    pytest.param({"duration_s": 0.03}, False, id="count"),
    # 882 samples, as at the base's 0.02 s at 44.1 kHz
    pytest.param({"duration_s": 882 / 48000, "sample_rate_hz": 48000}, False,
                 id="rate")])
def test_trace_memo_hits_only_on_equal_oscillators_and_grid(
        change, hit, monkeypatch):
    monkeypatch.setattr(network, "_trace_memo", None)
    base = RunConfig(duration_s=0.02)
    first = simulate(base.build_circuit(), base.duration_s, base.sample_rate_hz)
    cfg = replace(base, **change)
    w = simulate(cfg.build_circuit(), cfg.duration_s, cfg.sample_rate_hz)
    assert (w.g_lower is first.g_lower) is hit
    assert (w.g_upper is first.g_upper) is hit
    want = _fresh(cfg.build_circuit(), cfg.duration_s, cfg.sample_rate_hz,
                  monkeypatch)
    assert w.g_lower.tobytes() == want.g_lower.tobytes()
    assert w.g_upper.tobytes() == want.g_upper.tobytes()


def test_trace_memo_frees_the_pair_it_drops(monkeypatch):
    monkeypatch.setattr(network, "_trace_memo", None)
    c = GlottalCircuit.normal_voice()
    w = simulate(c, 0.02, 44100)
    refs = [weakref.ref(w.g_lower), weakref.ref(w.g_upper)]
    simulate(c, 0.03, 44100)  # a miss drops the memo's hold on the pair
    assert all(ref() is not None for ref in refs)
    del w
    assert all(ref() is None for ref in refs)


def test_trace_memo_keeps_no_pair_beyond_its_cap(monkeypatch):
    monkeypatch.setattr(network, "_trace_memo", None)
    monkeypatch.setattr(network, "_TRACE_MEMO_SAMPLES", 441)
    c = GlottalCircuit.normal_voice()
    kept = conductance_traces(c, 0.01, 44100)
    assert conductance_traces(c, 0.01, 44100) is kept
    refs = [weakref.ref(g) for g in kept]
    del kept
    large = conductance_traces(c, 0.02, 44100)
    # the kept pair was dropped, and the larger one is not kept
    assert network._trace_memo is None
    assert all(ref() is None for ref in refs)
    again = conductance_traces(c, 0.02, 44100)
    assert again[0] is not large[0] and again[1] is not large[1]
    assert again[0].tobytes() == large[0].tobytes()
    assert again[1].tobytes() == large[1].tobytes()


def test_trace_memo_keeps_the_closed_samples_as_int32(monkeypatch):
    monkeypatch.setattr(network, "_trace_memo", None)
    g_lower, g_upper = conductance_traces(GlottalCircuit.normal_voice(),
                                          0.05, 44100)
    closed = network._trace_memo[2]
    assert closed.dtype == np.int32
    want = np.flatnonzero((g_lower == 0.0) | (g_upper == 0.0))
    assert closed.tolist() == want.tolist()
    # the upper fold is silent before its 1 ms lag, and both pulses touch
    # zero at their starts
    assert len(closed) > 44


def _flow_with(defect, u, closed):
    """u with one defect: flow on a closed sample, a negative, a NaN or a
    -inf flow on an open one, a negative flow before a NaN one, or one
    sample too few."""
    u = u.copy()
    k = np.argmax(u)
    if defect == "closed":
        u[closed[-1]] = 0.5
    elif defect == "negative":
        u[k] = -1.0
    elif defect == "nan":
        u[k] = np.nan
    elif defect == "-inf":
        u[k] = -np.inf
    elif defect == "negative-then-nan":
        u[k - 1], u[k] = -1.0, np.nan
    else:
        u = u[:-1]
    return u


@pytest.mark.parametrize("defect, match", [
    pytest.param(defect, match, id=defect) for defect, match in (
        ("closed", "flow must vanish wherever a fold bias is zero"),
        ("negative", "glottal flow is unipolar; u_gl must be >= 0"),
        ("nan", "u_gl must be finite everywhere"),
        ("-inf", "u_gl must be finite everywhere"),
        # the finiteness check comes before the sign check
        ("negative-then-nan", "u_gl must be finite everywhere"),
        ("length", "waveform arrays must share one length"))])
def test_waveform_on_memo_traces_checks_its_flow(defect, match, monkeypatch):
    monkeypatch.setattr(network, "_trace_memo", None)
    w = simulate(GlottalCircuit.normal_voice(), 0.05, 44100)
    assert network._trace_memo[1] == (w.g_lower, w.g_upper)
    u = _flow_with(defect, w.u_gl, network._trace_memo[2])
    with pytest.raises(ModelDomainError) as copies:
        GlottalWaveform(44100, u, w.g_lower.copy(), w.g_upper.copy())
    with pytest.raises(ModelDomainError) as shared:
        GlottalWaveform(44100, u, w.g_lower, w.g_upper)
    assert str(shared.value) == str(copies.value) == match


def test_waveform_on_memo_traces_takes_the_kept_checks(monkeypatch):
    # a waveform on the memo's own arrays reads the closed samples from the
    # memo and does not test the traces again
    monkeypatch.setattr(network, "_trace_memo", None)
    w = simulate(GlottalCircuit.normal_voice(), 0.05, 44100)
    key, traces, _ = network._trace_memo
    j = int(np.argmax(w.u_gl))
    monkeypatch.setattr(network, "_trace_memo",
                        (key, traces, np.array([j], np.int32)))
    with pytest.raises(ModelDomainError, match="flow must vanish"):
        GlottalWaveform(44100, w.u_gl, w.g_lower, w.g_upper)
    GlottalWaveform(44100, w.u_gl, w.g_lower.copy(), w.g_upper.copy())


def _assert_traces_rejected(monkeypatch, cap, last, match):
    """simulate with a trace memo of cap samples, whose lower pulse ends in
    last, raises ModelDomainError matching match where the traces are
    formed: no pair is kept and no flow is solved."""
    monkeypatch.setattr(network, "_trace_memo", None)
    monkeypatch.setattr(network, "_TRACE_MEMO_SAMPLES", cap)
    pulse = OscillatorConfig._pulse

    def bad_pulse(self, t, out, scratch):
        pulse(self, t, out, scratch)
        out[-1] = last
        return out

    solves = []
    series_root = network._series_root

    def counted(*args):
        solves.append(len(args[0][0]))
        return series_root(*args)

    monkeypatch.setattr(OscillatorConfig, "_pulse", bad_pulse)
    monkeypatch.setattr(network, "_series_root", counted)
    with pytest.raises(ModelDomainError, match=match):
        simulate(GlottalCircuit.normal_voice(), 0.05, 44100)
    assert network._trace_memo is None
    assert solves == []


@pytest.mark.parametrize("cap", [0, network._TRACE_MEMO_SAMPLES],
                         ids=["kept-nothing", "kept"])
def test_non_finite_traces_are_rejected(cap, monkeypatch):
    _assert_traces_rejected(monkeypatch, cap, np.nan, "g_lower must be finite")


@pytest.mark.parametrize("cap", [0, network._TRACE_MEMO_SAMPLES],
                         ids=["kept-nothing", "kept"])
def test_negative_traces_are_rejected(cap, monkeypatch):
    _assert_traces_rejected(monkeypatch, cap, -0.5, "g_lower must be >= 0")


@pytest.mark.parametrize("drives, duration", [
    pytest.param([6.0 + 0.1 * k for k in range(91)], 1.0, id="91-drives"),
    pytest.param([10.0], 60.0, id="60s")])
def test_each_solved_drive_allocates_its_work_rows_once(monkeypatch, drives,
                                                        duration):
    calls = []
    work_rows = network._work_rows

    def counted(entries):
        calls.append(entries)
        return work_rows(entries)

    monkeypatch.setattr(network, "_work_rows", counted)
    for _ in simulate_many(GlottalCircuit.normal_voice(), _drives(drives),
                           duration, 44100):
        pass
    assert calls == [network._SOLVE_BLOCK] * len(drives)
