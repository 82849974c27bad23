"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one
"[acceptance] criterion N (...): PASS/FAIL" line per criterion.
Tolerances are pinned here and should not be loosened.
"""
import io
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from glottisim import (
    DcVoltage,
    ElementKind,
    FeedbackSettleError,
    FeedbackState,
    GlottalCircuit,
    PressureCmH2O,
    ResistorElement,
    TranslinearSpec,
    analyze,
    derivative,
    detect_phases,
    device_current,
    estimate_f0,
    pressure_to_voltage,
    settle_feedback,
    simulate,
    solve_series_current,
    voltage_to_pressure,
)
from glottisim.cli import main as cli_main
from glottisim.exporters import read_waveform_csv
import oracles

RATE = 44100
PERIOD_S = 0.008


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {n:2d} ({label}): PASS")


def per_cycle_argmin_offsets(w):
    """Within-period offset of each cycle's steepest flow-derivative drop."""
    d = derivative(w)
    n = len(d)
    offsets = []
    for k in range(int(round(n / (PERIOD_S * RATE)))):
        i0 = math.ceil(k * PERIOD_S * RATE - 1e-9)
        i1 = min(n, math.ceil((k + 1) * PERIOD_S * RATE - 1e-9))
        j = i0 + int(np.argmin(d[i0:i1]))
        offsets.append((j / RATE) % PERIOD_S)
    return offsets


def test_criterion_01_pressure_voltage_mapping():
    with criterion(1, "pressure-to-voltage mapping"):
        v = pressure_to_voltage(PressureCmH2O(10.0)).value
        assert abs(v - 3.1969) <= 1e-4
        for p in (5.94, 7.0, 8.5, 10.0, 15.0):
            back = voltage_to_pressure(
                pressure_to_voltage(PressureCmH2O(p))).value
            assert abs(back - p) <= 1e-12 * max(p, 1.0)
        v0 = voltage_to_pressure(DcVoltage(0.0)).value
        assert abs(v0 - 5.94) <= 1e-12


def test_criterion_02_default_run_f0(loud_waveform):
    with criterion(2, "default run produces ~125 Hz pulses in under 1 s"):
        t0 = time.perf_counter()
        w = simulate(GlottalCircuit.normal_voice(), 1.0, RATE)
        f0 = estimate_f0(w)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"simulation + F0 took {elapsed:.3f} s"
        assert abs(f0 - 125.0) <= 1.0
        assert np.array_equal(w.u_gl, loud_waveform.u_gl)  # deterministic


def test_criterion_03_closed_phase_flatness(loud_waveform):
    with criterion(3, "flow during closed phases stays below 1e-6 of peak"):
        w = loud_waveform
        peak = float(w.u_gl.max())
        assert peak > 0.0
        _, closed_spans = detect_phases(w)
        assert closed_spans, "expected at least one closed phase"
        t = w.times
        worst = 0.0
        for a, b in closed_spans:
            inside = (t >= a) & (t < b)
            worst = max(worst, float(np.abs(w.u_gl[inside]).max()))
        assert worst <= 1e-6 * peak
        assert analyze(w).closed_phase_flatness <= 1e-6


def test_criterion_04_inter_fold_lag(loud_waveform):
    with criterion(4, "conductance traces are offset by 1 ms"):
        w = loud_waveform
        max_lag = int(PERIOD_S * RATE)  # search within one cycle
        lag = oracles.circular_xcorr_peak_lag(w.g_upper, w.g_lower, max_lag)
        assert abs(lag / RATE - 0.001) <= 1.0 / RATE


def test_criterion_05_closure_sharpness_tracks_pressure():
    with criterion(5, "closure steepens with pressure, inside the fall segment"):
        t0 = time.perf_counter()
        osc = GlottalCircuit.normal_voice().lower.oscillator
        drops = []
        for p in (7.0, 8.5, 10.0):
            w = simulate(GlottalCircuit.normal_voice(p), 1.0, RATE)
            for tau in per_cycle_argmin_offsets(w):
                assert osc.rise_end_s - 1e-9 <= tau < osc.pulse_duration_s, (
                    f"cycle minimum at offset {tau * 1e3:.3f} ms is outside "
                    f"the fall segment at {p} cmH2O")
            drops.append(analyze(w).max_negative_derivative)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"three runs + analysis took {elapsed:.3f} s"
        assert abs(drops[0]) < abs(drops[1]) < abs(drops[2])
        assert all(d < 0.0 for d in drops)


def test_criterion_06_solver_matches_bisection_oracle():
    with criterion(6, "network solve agrees with brute-force bisection"):
        rng = np.random.default_rng(20260814)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            desc = oracles.random_series_network(rng)
            v = float(rng.uniform(0.0, 10.0))
            els = [ResistorElement(ElementKind(k), gain=c) for k, c in desc]
            got = solve_series_current(els, v)
            want = oracles.bisect_series_current(desc, v)
            if want != 0.0:
                worst = max(worst, abs(got - want) / abs(want))
            else:
                assert got == 0.0
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst relative error {worst:g}"
        assert elapsed < 5.0, f"1000 networks took {elapsed:.3f} s"


def test_criterion_07_element_laws():
    with criterion(7, "element current laws hold to 1e-12 over nine decades"):
        voltages = np.logspace(-6.0, 3.0, 19)
        for gain in (1e-3, 1.0, 1e3):
            for bias in (1.0, 0.5):
                # the coefficient of an element of this gain at this bias
                c = gain * bias
                lin = ResistorElement(ElementKind.LINEAR, c)
                comp = ResistorElement(ElementKind.COMPRESSIVE, c)
                exp = ResistorElement(ElementKind.EXPANSIVE, c)
                for v in voltages:
                    v = float(v)
                    assert abs(lin.current(v) - c * v) <= 1e-12 * abs(c * v)
                    want = c * math.sqrt(v)
                    assert abs(comp.current(v) - want) <= 1e-12 * want
                    want = c * v * v
                    assert abs(exp.current(v) - want) <= 1e-12 * want
                    for e in (lin, comp, exp):
                        # odd symmetry is exact, inversion is within 1e-12
                        assert e.current(-v) == -e.current(v)
                        assert abs(e.voltage(e.current(v)) - v) <= 1e-12 * v
                    # compressive: current doubles when voltage quadruples
                    ratio = comp.current(4.0 * v) / comp.current(v)
                    assert abs(ratio - 2.0) <= 1e-12
                    # expansive: current quadruples when voltage doubles
                    ratio = exp.current(2.0 * v) / exp.current(v)
                    assert abs(ratio - 4.0) <= 1e-12


def test_criterion_08_translinear_blocks():
    with criterion(8, "translinear blocks: exact fixed points, dual to 1e-12"):
        for i_ref in (0.25, 1.0, 4.0, 1024.0):  # exact square roots
            comp = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=i_ref)
            exp = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=i_ref)
            assert comp.output(i_ref) == i_ref
            assert exp.output(i_ref) == i_ref
        for i_ref in (0.5, 1.0, 2.0):
            comp = TranslinearSpec(ElementKind.COMPRESSIVE, i_ref=i_ref)
            exp = TranslinearSpec(ElementKind.EXPANSIVE, i_ref=i_ref)
            for i_in in np.logspace(-9.0, 6.0, 16):
                i_in = float(i_in)
                assert abs(exp.output(comp.output(i_in)) - i_in) <= 1e-12 * i_in
                assert abs(comp.output(exp.output(i_in)) - i_in) <= 1e-12 * i_in
        ident = TranslinearSpec(ElementKind.LINEAR)
        assert ident.output(0.37) == 0.37


def test_criterion_09_feedback_emulation():
    with criterion(9, "feedback emulation reaches each law within 1%"):
        t0 = time.perf_counter()
        for kind in (ElementKind.LINEAR, ElementKind.COMPRESSIVE,
                     ElementKind.EXPANSIVE):
            spec = TranslinearSpec(kind, i_ref=1.0)
            fb = FeedbackState()
            for v in np.linspace(0.05, 0.5, 10):
                v = float(v)
                settled = settle_feedback(spec, fb, v, dt=1e-6,
                                          max_steps=10000)
                got = device_current(settled, v)
                if kind is ElementKind.LINEAR:
                    want = v
                elif kind is ElementKind.COMPRESSIVE:
                    want = math.sqrt(v)
                else:
                    want = v * v
                assert abs(got - want) <= 1e-2 * want
                fb = settled
        with pytest.raises(FeedbackSettleError):
            settle_feedback(TranslinearSpec(ElementKind.LINEAR),
                            FeedbackState(), 0.3, dt=1e-6, max_steps=3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"feedback settling took {elapsed:.3f} s"


def test_criterion_10_cli_determinism_and_formats(tmp_path, loud_waveform):
    with criterion(10, "CLI reruns are byte-identical and formats validate"):
        for name in ("a", "b"):
            with redirect_stdout(io.StringIO()):
                rc = cli_main(["simulate", "--out", str(tmp_path / name),
                               "--wav"])
            assert rc == 0
        for f in ("waveform.csv", "waveform.wav", "report.txt"):
            assert ((tmp_path / "a" / f).read_bytes()
                    == (tmp_path / "b" / f).read_bytes()), f
        info = oracles.parse_riff_wav(tmp_path / "a" / "waveform.wav")
        assert info["format_tag"] == 1
        assert info["channels"] == 1
        assert info["sample_rate"] == RATE
        assert info["bits_per_sample"] == 16
        assert info["data_bytes"] == 2 * RATE
        assert info["samples"].max() == round(0.9 * 32767)
        assert info["samples"].min() >= 0
        back, _ = read_waveform_csv(tmp_path / "a" / "waveform.csv")
        nz = loud_waveform.u_gl != 0.0
        rel = (np.abs(back.u_gl[nz] - loud_waveform.u_gl[nz])
               / loud_waveform.u_gl[nz])
        assert rel.max() <= 5e-9  # nine significant digits survive the trip
        with redirect_stdout(io.StringIO()):
            rc = cli_main(["sweep", "--out", str(tmp_path / "s")])
        assert rc == 0
        lines = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["7", "8", "9", "10"]
        peaks = [float(r[2]) for r in rows]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
