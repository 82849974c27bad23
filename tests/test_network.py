"""Series network solve and the quasi-static simulation."""
import itertools

import numpy as np
import pytest

from glottisim import (
    DcVoltage,
    ElementKind,
    FoldStage,
    GlottalCircuit,
    GlottalWaveform,
    ModelDomainError,
    OscillatorConfig,
    ResistorElement,
    RunConfig,
    SolverError,
    conductance_traces,
    simulate,
    solve_series_current,
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
    monkeypatch.setattr(network, "_SOLVE_BLOCK", 1000)
    w = simulate(GlottalCircuit.normal_voice(10.0), 1.0, 44100)
    assert np.array_equal(w.u_gl, loud_waveform.u_gl)


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
