"""The benchmark's own tests: metric output, the output gate, and inputs.

    python3 -m pytest perfbench/selftest.py

The file is named so that the package's test suite does not collect it;
pytest runs it when it is named on the command line.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
from glottisim import GlottalCircuit, derivative, export_csv, simulate  # noqa: E402
from glottisim.cli import main as cli_main  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared()[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_declared_workloads_are_the_commands():
    assert [w["name"] for w in declared()["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli_simulate", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_same_seed_same_inputs_other_seed_other_pressure():
    for workload in ("cli_simulate", "long_record", "cli_reanalyze"):
        for k in (1, 3):
            first = run.pick_pressures(workload, 7, k)
            assert first == run.pick_pressures(workload, 7, k)
            assert all(a != b for a, b in
                       zip(first, run.pick_pressures(workload, 8, k)))
            lo, hi = run.PRESSURE_RANGE_CMH2O
            assert all(lo <= p <= hi for p in first)
            assert first == sorted(first)


@pytest.fixture(scope="module")
def waveform():
    return simulate(GlottalCircuit.normal_voice(9.0), 0.1, gate.RATE_HZ)


def test_gate_accepts_a_simulated_waveform(waveform):
    gate.check_waveform(waveform.u_gl, waveform.g_lower, waveform.g_upper,
                        gate.drive_voltage(9.0), waveform.sample_rate_hz)


def test_gate_rejects_one_sample_perturbed_by_1e_6(waveform):
    u = waveform.u_gl.copy()
    k = int(np.argmax(u))
    u[k] *= 1 + 1e-6
    with pytest.raises(gate.GateError, match="voltage balance"):
        gate.check_waveform(u, waveform.g_lower, waveform.g_upper,
                            gate.drive_voltage(9.0), waveform.sample_rate_hz)


def test_gate_rejects_a_wrong_drive(waveform):
    with pytest.raises(gate.GateError, match="voltage balance"):
        gate.check_waveform(waveform.u_gl, waveform.g_lower, waveform.g_upper,
                            gate.drive_voltage(9.001), waveform.sample_rate_hz)


def test_gate_rejects_a_truncated_csv(waveform, tmp_path):
    path = tmp_path / "waveform.csv"
    export_csv(waveform, derivative(waveform), path)
    rows = len(waveform)
    gate.check_waveform_csv(path, rows, 9.0)
    text = path.read_text()
    for cut in (text[:text.rindex("\n", 0, -1) + 1],  # last row dropped
                text[:len(text) - 7]):                  # last row cut short
        path.write_text(cut)
        with pytest.raises(gate.GateError):
            gate.check_waveform_csv(path, rows, 9.0)


def test_gate_rejects_a_perturbed_csv_cell(waveform, tmp_path):
    path = tmp_path / "waveform.csv"
    export_csv(waveform, derivative(waveform), path)
    lines = path.read_text().splitlines(keepends=True)
    k = 1 + int(np.argmax(waveform.u_gl))
    cells = lines[k].split(",")
    cells[1] = format(float(cells[1]) * (1 + 1e-6), ".9g")
    lines[k] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(gate.GateError, match="voltage balance"):
        gate.check_waveform_csv(path, len(waveform), 9.0)


def test_gate_rejects_a_sweep_with_a_row_missing(tmp_path):
    grid = gate.sweep_grid(6.0, 6.5, 0.1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["sweep", "--from", "6", "--to", "6.5", "--step",
                         "0.1", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "sweep_summary.csv").read_text()
    gate.check_sweep(text, grid)
    lines = text.splitlines(keepends=True)
    with pytest.raises(gate.GateError, match="rows"):
        gate.check_sweep("".join(lines[:3] + lines[4:]), grid)
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    with pytest.raises(gate.GateError):
        gate.check_sweep("".join(swapped), grid)


def test_repeated_ops_must_agree():
    ops = [run.Op(1.0, "a"), run.Op(1.0, "a"), run.Op(1.0, "b"),
           run.Op(1.0, "c", key="7.0"), run.Op(1.0, "c", key="7.0")]
    run.mark_repeats(ops)
    assert [op.error is None for op in ops] == [True, True, False, True, True]


def test_tail_has_ten_samples_above_it_or_is_the_median():
    assert run.tail(list(range(9))) == 4
    assert run.tail(list(range(40))) == 29
