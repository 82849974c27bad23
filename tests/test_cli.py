"""End-to-end CLI behavior and exit codes."""
import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from glottisim import RunConfig, analysis, cli, network
from glottisim.cli import main
from glottisim.exporters import format_number, read_waveform_csv
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


# Modules a default CLI call must not load: scipy is a test dependency
# only, np.median imports numpy.ma, only --config needs configparser and
# only a WAV export needs wave.
_WATCHED_MODULES = ("scipy", "numpy.ma", "configparser", "wave")


@pytest.mark.parametrize("argv, loaded", [
    (["simulate", "--wav"], ["wave"]),
    (["simulate"], []),
    (["sweep", "--from", "7", "--to", "9", "--step", "1"], []),
    (["analyze", "--csv", "waveform.csv"], []),
    (["simulate", "--config", "run.ini"], ["configparser", "wave"]),
], ids=["simulate", "simulate-without-wav", "sweep", "analyze",
        "simulate-config"])
def test_cli_call_loads_only_what_it_runs(tmp_path, argv, loaded):
    # the inputs of the analyze and --config cases
    assert main(["simulate", "--duration", "0.1", "--out", str(tmp_path)]) == 0
    (tmp_path / "run.ini").write_text("[output]\nwav = true\n")
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from glottisim.cli import main; "
            f"rc = main({argv!r}); "
            f"print(rc, sorted({{n for n in {_WATCHED_MODULES!r} "
            "for m in sys.modules if m == n or m.startswith(n + '.')}), "
            "file=sys.stderr)")
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                           env=dict(os.environ, PYTHONPATH=str(src)),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stderr.splitlines()[-1] == f"0 {loaded}"


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


def _child(cwd, *argv, **kwargs):
    """A fresh `python -m glottisim` process on argv, run in cwd."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "glottisim", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120, **kwargs)


def test_wav_path_failure_prints_one_line(tmp_path):
    # a directory where waveform.wav goes: the call fails before it renames
    # any output, and no wave writer's __del__ adds a traceback
    (tmp_path / "o" / "waveform.wav").mkdir(parents=True)
    child = _child(tmp_path, "simulate", "--duration", "0.1", "--out", "o",
                   "--wav")
    assert child.returncode == 4
    assert child.stderr.startswith("i/o error: ")
    assert len(child.stderr.splitlines()) == 1, child.stderr


def _fail_report(path):
    path.write_text("part of a report")
    raise OSError(28, "No space left on device", str(path))


@pytest.mark.parametrize("wav_dir, report", [
    (True, None), (False, _fail_report)],
    ids=["wav-directory", "report-write"])
def test_failed_rerun_leaves_the_earlier_outputs(tmp_path, capsys, monkeypatch,
                                                 wav_dir, report):
    # the 12 cmH2O rerun writes every file under a temporary name before it
    # renames any, so its failure, at the rename of waveform.wav onto a
    # directory or at the write of report.txt, leaves the 7 cmH2O files
    out = tmp_path / "o"
    rc, _, _ = run(capsys, "simulate", "--pressure", "7", "--duration", "0.1",
                   "--out", str(out))
    assert rc == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == ["report.txt", "waveform.csv"]
    if wav_dir:
        (out / "waveform.wav").mkdir()
    if report is not None:
        monkeypatch.setattr(cli, "write_report",
                            lambda rep, path: report(path))
    rc, stdout, err = run(capsys, "simulate", "--pressure", "12", "--duration",
                          "0.1", "--out", str(out), "--wav")
    assert rc == 4 and stdout == ""
    assert err.startswith("i/o error: ") and len(err.splitlines()) == 1
    left = sorted(p.name for p in out.iterdir())
    assert left == sorted([*first, "waveform.wav"] if wav_dir else first)
    assert {name: (out / name).read_bytes() for name in first} == first
    if wav_dir:
        assert not any((out / "waveform.wav").iterdir())


def test_sweep_onto_a_directory_exits_4_and_leaves_no_file(tmp_path, capsys):
    (tmp_path / "sweep_summary.csv").mkdir()
    rc, stdout, err = run(capsys, "sweep", "--from", "7", "--to", "7",
                          "--out", str(tmp_path))
    assert rc == 4 and stdout == "" and err.startswith("i/o error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_summary.csv"]


def test_out_of_memory_exits_2_in_one_line(tmp_path):
    # 100 000 s at 44.1 kHz passes the config checks, but its traces do not
    # fit in the child's address space, limited to 2 GiB there alone
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    child = _child(tmp_path, "simulate", "--duration", "100000", "--out",
                   "o", preexec_fn=limit)
    assert child.returncode == 2
    assert child.stderr.startswith("config error: ")
    assert len(child.stderr.splitlines()) == 1, child.stderr
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("config", [
    pytest.param("[oscillator.upper]\npulse_duration_s = 1e-298\n"
                 "rise_fraction = 0.9999999999999999\n[output]\n"
                 "duration_s = 0.01\n", id="subnormal-fall-span"),
    pytest.param("[oscillator.upper]\npulse_duration_s = 2e-312\n"
                 "rise_fraction = 0.9999999999999999\n[output]\n"
                 "duration_s = 0.01\n", id="subnormal-rise-end"),
    # a 1 ms peak spacing beyond the index range at 1e22 Hz
    pytest.param("[oscillator.lower]\nperiod_s = 1e-20\n"
                 "pulse_duration_s = 1e-20\n[oscillator.upper]\n"
                 "period_s = 1e-20\npulse_duration_s = 1e-20\n"
                 "phase_lag_s = 2e-21\n[output]\nduration_s = 1e-19\n"
                 "sample_rate_hz = 10000000000000000000000\n",
                 id="spacing-beyond-int64")])
def test_simulate_at_extreme_oscillators_exits_0(config, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "x"
    rc, stdout, err = run(capsys, "simulate", "--config", str(cfg),
                          "--out", str(out))
    assert rc == 0, err
    assert (out / "report.txt").read_text() == stdout


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


def test_analyze_csv_whose_derivative_overflows_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("time_s,u_gl,du_gl_dt,g_lower,g_upper\n"
                    "0,0,0,1,1\n2.2675736961451248e-05,1e308,0,1,1\n"
                    "4.5351473922902495e-05,0,0,1,1\n")
    rc, _, err = run(capsys, "analyze", "--csv", str(path))
    assert rc == 2
    assert "float range" in err


def test_analyze_csv_with_a_negative_trace_exits_2(tmp_path, capsys):
    # simulate takes g <= 0 as closed, so a waveform takes only g >= 0
    out = tmp_path / "run"
    assert run(capsys, "simulate", "--duration", "0.01",
               "--out", str(out))[0] == 0
    path = out / "waveform.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[100].split(",")
    fields[3] = "-0.5"
    lines[100] = ",".join(fields)
    path.write_text("".join(lines))
    rc, stdout, err = run(capsys, "analyze", "--csv", str(path))
    assert rc == 2 and stdout == ""
    assert err.splitlines() == [
        "config error: g_lower must be >= 0; a fold is closed where its "
        "trace is 0"]


def _analyze(text, path):
    """(exit code, stdout, stderr) of analyze --csv of text written to path."""
    path.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        rc = main(["analyze", "--csv", str(path)])
    return rc, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def short_export(tmp_path_factory):
    """The lines of a 10 ms export, 441 rows, and analyze --csv's report."""
    out = tmp_path_factory.mktemp("export")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--duration", "0.01", "--out", str(out)]) == 0
    lines = (out / "waveform.csv").read_text().splitlines(keepends=True)
    rc, report, _ = _analyze("".join(lines), out / "same.csv")
    assert rc == 0
    return lines, report


# (row, column, change): a column of None deletes an interior row, a float
# moves the row's time by that many samples, and a str replaces the cell
EXPORT_MUTATIONS = st.one_of(
    st.tuples(st.integers(1, 439), st.none(), st.none()),
    st.tuples(st.integers(0, 440), st.just(0),
              st.floats(0.01, 3.0) | st.floats(-3.0, -0.01)),
    st.tuples(st.integers(0, 440), st.integers(0, 4),
              st.sampled_from(["nan", "inf", "-inf", "-0.5"])))


@given(mutation=EXPORT_MUTATIONS)
@example(mutation=(100, None, None))
@example(mutation=(100, 0, "nan"))
@example(mutation=(100, 2, "nan"))
@example(mutation=(100, 3, "-0.5"))
def test_analyze_csv_of_a_mutated_export_exits_2_or_reports_the_same(
        tmp_path_factory, short_export, mutation):
    # analyze --csv takes its own derivative, so only a du_gl_dt cell may
    # change and leave the report as it was
    lines, report = short_export
    row, column, change = mutation
    lines = list(lines)
    fields = lines[row + 1].rstrip("\n").split(",")
    if column is None:
        del lines[row + 1]
    else:
        fields[column] = (change if isinstance(change, str) else
                          format_number(float(fields[0]) + change / 44100))
        lines[row + 1] = ",".join(fields) + "\n"
    rc, stdout, err = _analyze("".join(lines),
                               tmp_path_factory.mktemp("mutated") / "w.csv")
    if column == 2:
        assert (rc, stdout, err) == (0, report, "")
    else:
        assert rc == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")


def test_analyze_csv_of_times_off_their_rate_exits_2(tmp_path, capsys):
    # the span gives 8 000 Hz, but the second time is a tenth of 1 / 8 000
    path = tmp_path / "off.csv"
    path.write_text("time_s,u_gl,du_gl_dt,g_lower,g_upper\n" + "".join(
        f"{t},0,0,1,1\n" for t in ("0", "1.25e-5", "2e-4", "3.75e-4")))
    rc, stdout, err = run(capsys, "analyze", "--csv", str(path))
    assert rc == 2 and stdout == ""
    assert err.splitlines() == [
        f"config error: waveform CSV {path}: the time 1.25e-05 s on line 3 "
        f"is not 0.0 + 1 / 8000 s"]


def test_analyze_non_ascii_csv_exits_2(tmp_path):
    # a UTF-8 byte-order mark in the header is bad input, not a crash
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbftime_s,u_gl,du_gl_dt,g_lower,g_upper\n"
                     b"0,0,0,1,1\n1,0,0,1,1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-m", "glottisim", "analyze", "--csv", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert child.returncode == 2
    assert child.stderr.startswith("config error:")
    assert "Traceback" not in child.stderr


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


def test_sweep_point_beyond_the_float_range_exits_2(tmp_path, capsys):
    # the first point passes the whole check; the second's flow overflows
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[elements]\n" + "".join(
        f"{key} = 1e300\n" for key in ("lower_linear_gain",
                                       "lower_compressive_gain",
                                       "upper_linear_gain",
                                       "upper_expansive_gain")))
    out = tmp_path / "out"
    rc, _, err = run(capsys, "sweep", "--config", str(cfg), "--from", "10",
                     "--to", "1e200", "--step", "1e196", "--out", str(out))
    assert rc == 2
    assert err.startswith("config error: elements: at pressure.cmh2o = "
                          "1e+196: the flow at full bias exceeds the float "
                          "range")
    assert not out.exists()


def test_sweep_forms_the_traces_once(tmp_path, capsys, monkeypatch):
    calls, builds, validations = [], [], []
    traces = network.conductance_traces
    build = RunConfig.build_circuit
    validate = cli.validate_config

    def counted(*args):
        calls.append(args)
        return traces(*args)

    def counted_build(cfg):
        builds.append(cfg)
        return build(cfg)

    def counted_validate(cfg):
        validations.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(network, "conductance_traces", counted)
    monkeypatch.setattr(RunConfig, "build_circuit", counted_build)
    monkeypatch.setattr(cli, "validate_config", counted_validate)
    rc, _, _ = run(capsys, "sweep", "--out", str(tmp_path))
    assert rc == 0
    assert len(read_sweep(tmp_path / "sweep_summary.csv")) == 4
    # one call for the whole record, not one per pressure
    assert len(calls) == 1
    # the whole config is checked once, at the first point, and each point
    # only for its pressure; one build for that check and one circuit for
    # every drive (5 builds and 4 checks when every point was checked whole)
    assert len(validations) == 1
    assert len(builds) == 2


def test_sweep_drive_column_matches_pressure_line(tmp_path, capsys):
    rc, _, _ = run(capsys, "sweep", "--from", "7", "--to", "10",
                   "--step", "3", "--out", str(tmp_path))
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep_summary.csv")
    for row in rows:
        p, v = float(row[0]), float(row[1])
        assert v == pytest.approx((p - 5.94) / 1.27, rel=1e-8)
