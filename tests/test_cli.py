"""End-to-end CLI behavior and exit codes."""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from glottisim import RunConfig, analysis, cli, network
from glottisim.cli import main
from glottisim.exporters import read_waveform_csv
import oracles


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_short_run(tmp_path, capsys):
    out = tmp_path / "run"
    rc, stdout, _ = run(capsys, "simulate", "--duration", "0.1",
                        "--out", str(out))
    assert rc == 0
    assert "f0_hz:" in stdout
    assert (out / "report.txt").read_text() == stdout
    assert not (out / "waveform.wav").exists()
    w, d = read_waveform_csv(out / "waveform.csv")
    assert len(w) == 4410
    assert w.sample_rate_hz == 44100
    assert len(d) == len(w)


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, glottisim, glottisim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    child = subprocess.run([sys.executable, "-c", code],
                           env=dict(os.environ, PYTHONPATH=str(src)),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_simulate_takes_the_derivative_once(tmp_path, capsys, monkeypatch):
    calls = []
    derivative = analysis.derivative

    def counted(w):
        calls.append(len(w))
        return derivative(w)

    reports = []
    analyze = analysis.analyze

    def counted_analyze(w, d=None):
        reports.append(d is not None)
        return analyze(w, d)

    monkeypatch.setattr(cli, "derivative", counted)
    monkeypatch.setattr(analysis, "derivative", counted)
    monkeypatch.setattr(cli, "analyze", counted_analyze)
    rc, _, _ = run(capsys, "simulate", "--duration", "0.05",
                   "--out", str(tmp_path / "o"))
    assert rc == 0
    assert calls == [2205]
    assert reports == [True]  # one analyze call, handed the derivative


def test_simulate_at_a_huge_pressure(tmp_path, capsys):
    out = tmp_path / "huge"
    rc, _, err = run(capsys, "simulate", "--pressure", "1e300",
                     "--duration", "0.01", "--out", str(out), "--wav")
    assert rc == 0, err
    w, d = read_waveform_csv(out / "waveform.csv")
    assert np.all(np.isfinite(w.u_gl)) and np.all(np.isfinite(d))


def test_simulate_wav_flag(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run(capsys, "simulate", "--duration", "0.05",
                   "--out", str(out), "--wav")
    assert rc == 0
    info = oracles.parse_riff_wav(out / "waveform.wav")
    assert info["sample_rate"] == 44100
    assert info["channels"] == 1


def test_simulate_wav_rate_beyond_the_riff_header_exits_2(tmp_path, capsys):
    # the RIFF header keeps the byte rate, 2 * rate, in 32 bits
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[output]\nsample_rate_hz = 2147483648\n"
                   "duration_s = 2e-9\n")
    rc, _, err = run(capsys, "simulate", "--config", str(cfg),
                     "--out", str(out), "--wav")
    assert rc == 2
    assert "output.sample_rate_hz" in err
    assert not out.exists()
    # without a WAV file the rate is valid
    rc, _, err = run(capsys, "simulate", "--config", str(cfg),
                     "--out", str(out))
    assert rc == 0, err
    assert (out / "waveform.csv").exists() and not (out / "waveform.wav").exists()


def test_simulate_reads_config_file(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pressure]\ncmh2o = 7\n"
                   "[output]\nduration_s = 1.0\ndir = %s\n" % out)
    rc, _, _ = run(capsys, "simulate", "--config", str(cfg))
    assert rc == 0
    w, _ = read_waveform_csv(out / "waveform.csv")
    assert float(w.u_gl.max()) == pytest.approx(0.16835662788326425, rel=5e-9)


def test_pressure_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pressure]\ncmh2o = 10\n")
    out = tmp_path / "x"
    rc, _, err = run(capsys, "simulate", "--config", str(cfg),
                     "--pressure", "5.0", "--out", str(out),
                     "--duration", "0.02")
    assert rc == 2
    assert "voicing-onset" in err
    assert not out.exists()  # validation failed before any output


def test_invalid_duration_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    # 4.5e-5 s is two samples, one short of the flow derivative's three;
    # 1e305 s is more samples than a float holds
    for duration in ("0", "4.5e-5", "1e305"):
        rc, _, err = run(capsys, "simulate", "--duration", duration,
                         "--out", str(out))
        assert rc == 2
        assert "output.duration_s" in err
        assert not out.exists()


def test_sample_rate_beyond_the_float_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x"
    # a rate beyond the float range, and one that makes a second more
    # samples than an array can hold
    for rate, key in (("1" + "0" * 400, "output.sample_rate_hz"),
                      ("1" + "0" * 20, "output.duration_s")):
        cfg.write_text(f"[output]\nsample_rate_hz = {rate}\n")
        rc, _, err = run(capsys, "simulate", "--config", str(cfg),
                         "--out", str(out))
        assert rc == 2
        assert key in err
        assert not out.exists()


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[pressure]\npsi = 2\n")
    rc, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert rc == 2
    assert "unknown key" in err


def test_missing_config_exits_4(tmp_path, capsys):
    rc, _, err = run(capsys, "simulate",
                     "--config", str(tmp_path / "absent.cfg"))
    assert rc == 4
    assert "i/o error" in err


def test_out_dir_collision_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    rc, _, err = run(capsys, "simulate", "--duration", "0.01",
                     "--out", str(blocker))
    assert rc == 4
    assert "i/o error" in err


def test_reruns_are_byte_identical(tmp_path, capsys):
    for name in ("a", "b"):
        rc, _, _ = run(capsys, "simulate", "--duration", "0.05",
                       "--out", str(tmp_path / name), "--wav")
        assert rc == 0
    for f in ("waveform.csv", "waveform.wav", "report.txt"):
        assert ((tmp_path / "a" / f).read_bytes()
                == (tmp_path / "b" / f).read_bytes())


# -- analyze -------------------------------------------------------------------


def test_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    rc, sim_stdout, _ = run(capsys, "simulate", "--duration", "0.2",
                            "--out", str(out))
    assert rc == 0
    rc, stdout, _ = run(capsys, "analyze", "--csv",
                        str(out / "waveform.csv"))
    assert rc == 0
    assert "pulse_count:" in stdout
    # re-analysis of the exported file reproduces the original F0 line
    f0_line = [l for l in sim_stdout.splitlines() if l.startswith("f0_hz")][0]
    assert f0_line in stdout


def test_analyze_missing_csv_exits_4(tmp_path, capsys):
    rc, _, err = run(capsys, "analyze", "--csv", str(tmp_path / "nope.csv"))
    assert rc == 4
    assert "i/o error" in err


def test_analyze_foreign_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    rc, _, err = run(capsys, "analyze", "--csv", str(path))
    assert rc == 2


def test_analyze_csv_with_a_tiny_time_span_exits_2(tmp_path, capsys):
    # (n - 1) / span is beyond the float range, so no rate can be recovered
    path = tmp_path / "tiny.csv"
    path.write_text("time_s,u_gl,du_gl_dt,g_lower,g_upper\n"
                    "0,0,0,0,0\n1e-320,0,0,0,0\n")
    rc, _, err = run(capsys, "analyze", "--csv", str(path))
    assert rc == 2
    assert "sample_rate_hz" in err


# -- sweep ---------------------------------------------------------------------


def read_sweep(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "pressure_cmh2o,drive_v,peak_flow,f0_hz,max_negative_derivative"
    return [line.split(",") for line in lines[1:]]


def test_sweep_default_range(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "sweep", "--out", str(tmp_path))
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep_summary.csv")
    assert [r[0] for r in rows] == ["7", "8", "9", "10"]
    peaks = [float(r[2]) for r in rows]
    assert peaks == sorted(peaks)
    assert peaks[0] < peaks[-1]
    f0s = {r[3] for r in rows}
    assert len(f0s) == 1  # level does not move the fundamental
    assert stdout.strip().splitlines()[1:] == [",".join(r) for r in rows]


def test_sweep_endpoint_inclusion(tmp_path, capsys):
    rc, _, _ = run(capsys, "sweep", "--from", "7", "--to", "8",
                   "--step", "0.5", "--out", str(tmp_path))
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep_summary.csv")
    assert [r[0] for r in rows] == ["7", "7.5", "8"]


def test_sweep_single_point(tmp_path, capsys):
    rc, _, _ = run(capsys, "sweep", "--from", "9", "--to", "9",
                   "--out", str(tmp_path))
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep_summary.csv")
    assert len(rows) == 1
    assert rows[0][0] == "9"


def test_sweep_invalid_range_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "sweep", "--from", "9", "--to", "7",
                     "--out", str(tmp_path))
    assert rc == 2
    assert not (tmp_path / "sweep_summary.csv").exists()
    rc, _, err = run(capsys, "sweep", "--step", "0", "--out", str(tmp_path))
    assert rc == 2
    assert not (tmp_path / "sweep_summary.csv").exists()
    # unbounded ranges and steps, which used to append points without end
    # and finite ones too long to list or with a step that cannot advance
    # --from; each is rejected before any point or output directory is made
    out = tmp_path / "points"
    for args in (["--to=inf"], ["--from=-inf"], ["--step=inf"],
                 ["--to=1e300"], ["--from=1e17", "--to=2e17"],
                 ["--to=1e7"]):
        begin = time.perf_counter()
        rc, _, err = run(capsys, "sweep", *args, "--out", str(out))
        assert time.perf_counter() - begin < 1.0
        assert rc == 2
        assert "config error: sweep" in err
        assert not out.exists()


def test_sweep_pressure_below_onset_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "sweep", "--from", "5", "--to", "6",
                     "--out", str(tmp_path))
    assert rc == 2
    assert "pressure.cmh2o" in err
    assert not (tmp_path / "sweep_summary.csv").exists()


def test_sweep_forms_the_traces_once(tmp_path, capsys, monkeypatch):
    calls, builds = [], []
    traces = network.conductance_traces
    build = RunConfig.build_circuit

    def counted(*args):
        calls.append(args)
        return traces(*args)

    def counted_build(cfg):
        builds.append(cfg)
        return build(cfg)

    monkeypatch.setattr(network, "conductance_traces", counted)
    monkeypatch.setattr(RunConfig, "build_circuit", counted_build)
    rc, _, _ = run(capsys, "sweep", "--out", str(tmp_path))
    assert rc == 0
    assert len(read_sweep(tmp_path / "sweep_summary.csv")) == 4
    # one call for the whole record, not one per pressure
    assert len(calls) == 1
    # one build per point to check it, and one circuit for every drive
    assert len(builds) == 5


def test_sweep_drive_column_matches_pressure_line(tmp_path, capsys):
    rc, _, _ = run(capsys, "sweep", "--from", "7", "--to", "10",
                   "--step", "3", "--out", str(tmp_path))
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep_summary.csv")
    for row in rows:
        p, v = float(row[0]), float(row[1])
        assert v == pytest.approx((p - 5.94) / 1.27, rel=1e-8)
