#!/usr/bin/env python3
"""glottisim benchmark: one command, four workloads, a closed loop.

    python3 perfbench/run.py --workload cli_simulate --seed 1 --seconds 18 --trace 0

Run it from the root of a checkout; it imports the package from `src/` and
writes only under `.perfbench_work/`.  One client runs one op at a time,
with at most one child process and no threads, until `--seconds` have
passed (and at least twice, so repeated outputs can be compared).  Every op
is checked by `gate.py`.  The seed picks the lung pressure; the package
only sees the generated inputs.

`--trace 0` times the ops untraced and reports the end-to-end metrics.
`--trace 1` reports the per-layer metrics: it re-runs each op in this
process through `glottisim.cli.main(argv)` (or `simulate` + `analyze`),
once untraced and once with spans around the package's public functions,
and parses `python -X importtime` for the import split.  Metric names and
units are those declared in BENCHMARK.json.  The last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import gate
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PRESSURE_RANGE_CMH2O = (6.5, 15.0)
MIN_OPS = 2  # the hash check needs a repeated op
SETUP_CODE = ("import time; t = time.perf_counter(); import glottisim; "
              "print(time.perf_counter() - t)")
ALLOC_OP = -1  # op id of the tracemalloc run, kept out of the timings
LAYERS = ("cli", "config", "oscillator", "network", "analysis", "exporters")


@dataclass(frozen=True)
class Size:
    simulate_s: float        # cli_simulate record length
    long_record_s: float     # long_record record length
    sweep: tuple[float, float, float]  # cli_sweep --from, --to, --step
    reanalyze_s: float       # length of the CSV that cli_reanalyze reads
    setup_repeats: int       # fresh-interpreter imports per run


FULL = Size(1.0, 60.0, (6.0, 15.0, 0.1), 10.0, 3)
TINY = Size(0.05, 0.5, (6.0, 6.2, 0.1), 0.2, 1)


def pick_pressures(workload: str, seed: int, k: int = 1) -> list[float]:
    """The seed's lung pressures for a workload, in cmH2O (3 decimals):
    one uniform pick in each of k equal slices of the pressure range."""
    rng = random.Random(f"{workload}/{seed}")
    lo, hi = PRESSURE_RANGE_CMH2O
    width = (hi - lo) / k
    return [round(rng.uniform(lo + j * width, lo + (j + 1) * width), 3)
            for j in range(k)]


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@dataclass
class Op:
    wall_s: float
    digest: str | None = None
    error: str | None = None
    rss_mib: float = 0.0
    yardstick_s: float = 0.0
    key: str = ""  # the op's input, where a run has several


@dataclass
class Child:
    wall_s: float
    rss_mib: float
    code: int
    out: str
    err: str


def child_env() -> dict[str, str]:
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_child(argv: list[str], tmp: Path) -> Child:
    """Run one child to completion; its peak RSS comes from wait4."""
    out_path, err_path = tmp / "child.out", tmp / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=tmp)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def run_cli_child(args: list[str], tmp: Path) -> Child:
    return run_child([sys.executable, "-m", "glottisim", *args], tmp)


class CliWorkload:
    """One `glottisim` CLI call (`args`); `check(stdout)` gates it and
    returns the digest of its outputs."""

    def __init__(self, size: Size, seed: int, tmp: Path):
        self.size, self.tmp = size, tmp
        self.out = tmp / "out"

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        """Remove the last op's outputs so that no stale file is checked."""
        shutil.rmtree(self.out, ignore_errors=True)

    def child_op(self) -> Op:
        """The op as users run it: a fresh `python -m glottisim`."""
        self.prepare()
        child = run_cli_child(self.args, self.tmp)
        op = Op(child.wall_s, rss_mib=child.rss_mib)
        if child.code != 0:
            op.error = f"exit code {child.code}: {child.err[-500:]}"
            return op
        try:
            op.digest = self.check(child.out)
        except (gate.GateError, OSError) as exc:
            op.error = str(exc)
        return op

    def inproc_op(self, package, main) -> Op:
        """The op in this process, through `main` (traced or not)."""
        self.prepare()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = main(list(self.args))
            wall = time.perf_counter() - start
        op = Op(wall)
        if code != 0:
            op.error = f"main returned {code}"
            return op
        try:
            op.digest = self.check(buf.getvalue())
        except (gate.GateError, OSError) as exc:
            op.error = str(exc)
        return op


class CliSimulate(CliWorkload):
    def __init__(self, size, seed, tmp):
        super().__init__(size, seed, tmp)
        self.pressure, = pick_pressures("cli_simulate", seed)
        self.samples = round(size.simulate_s * gate.RATE_HZ)
        self.args = ["simulate", "--wav", "--out", str(self.out),
                     "--pressure", repr(self.pressure),
                     "--duration", repr(size.simulate_s)]

    def check(self, stdout: str) -> str:
        csv, wav, report = (self.out / f for f in
                            ("waveform.csv", "waveform.wav", "report.txt"))
        gate.check_waveform_csv(csv, self.samples, self.pressure)
        gate.check_wav(wav, self.samples)
        text = report.read_text()
        if stdout != text:
            raise gate.GateError("stdout differs from report.txt")
        gate.check_report(text)
        return gate.digest(csv, wav, text)


class CliSweep(CliWorkload):
    def __init__(self, size, seed, tmp):
        super().__init__(size, seed, tmp)
        self.grid = gate.sweep_grid(*size.sweep)
        self.samples = len(self.grid) * gate.RATE_HZ  # 1 s per point
        start, stop, step = size.sweep
        self.args = ["sweep", "--from", repr(start), "--to", repr(stop),
                     "--step", repr(step), "--out", str(self.out)]

    def check(self, stdout: str) -> str:
        text = (self.out / "sweep_summary.csv").read_text()
        if stdout != text:
            raise gate.GateError("stdout differs from sweep_summary.csv")
        gate.check_sweep(text, self.grid)
        return gate.digest(text)


class CliReanalyze(CliWorkload):
    def __init__(self, size, seed, tmp):
        super().__init__(size, seed, tmp)
        self.pressure, = pick_pressures("cli_reanalyze", seed)
        self.samples = round(size.reanalyze_s * gate.RATE_HZ)  # rows read
        self.source = tmp / "source"
        self.args = ["analyze", "--csv", str(self.source / "waveform.csv")]

    def setup(self) -> None:
        """Write the record once, untimed; its report is the reference."""
        child = run_cli_child(
            ["simulate", "--out", str(self.source),
             "--pressure", repr(self.pressure),
             "--duration", repr(self.size.reanalyze_s)], self.tmp)
        if child.code != 0:
            raise gate.GateError(f"set-up simulate exited {child.code}: "
                                 f"{child.err[-500:]}")
        gate.check_waveform_csv(self.source / "waveform.csv", self.samples,
                                self.pressure)
        self.reference = gate.check_report(
            (self.source / "report.txt").read_text())

    def prepare(self) -> None:
        pass

    def check(self, stdout: str) -> str:
        fields = gate.check_report(stdout)
        for key in ("pulse_count", "f0_hz"):
            if fields[key] != self.reference[key]:
                raise gate.GateError(
                    f"re-analysis {key} {fields[key]} differs from the "
                    f"in-memory analysis ({self.reference[key]})")
        return gate.digest(stdout)


class LongRecord:
    """`simulate` + `analyze` of a long record, untraced in a warm worker.

    The solve's cost depends on the pressure, so ops cycle through a low, a
    middle and a high pressure, and every run does a like mix of work.  The
    per-op counts of the traced run do not depend on the pressure."""

    def __init__(self, size: Size, seed: int, tmp: Path):
        self.tmp = tmp
        self.pressures = pick_pressures("long_record", seed, 3)
        self.ops_started = 0
        self.duration_s = size.long_record_s
        self.samples = round(size.long_record_s * gate.RATE_HZ)

    def setup(self) -> None:
        pass

    def next_pressure(self) -> float:
        self.ops_started += 1
        return self.pressures[(self.ops_started - 1) % len(self.pressures)]

    def worker_ops(self, seconds: float) -> tuple[list[Op], float]:
        """Ops timed inside the worker, and the worker's peak RSS in MiB."""
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=child_env(), cwd=self.tmp, text=True)

        def op() -> Op:
            p = self.next_pressure()
            proc.stdin.write(json.dumps({"pressure_cmh2o": p,
                                         "duration_s": self.duration_s}) + "\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            return Op(reply["wall_s"], reply["digest"], reply["error"],
                      yardstick_s=reply["yardstick_s"], key=repr(p))

        try:
            ops = loop(seconds, op)
            proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        return ops, usage.ru_maxrss / 1024

    def inproc_op(self, package, main) -> Op:
        # The cli bindings are the ones the tracer wraps while installed.
        p = self.next_pressure()
        start = time.perf_counter()
        w, rep = worker.long_record(package, package.cli.simulate,
                                    package.cli.analyze, p, self.duration_s)
        op = Op(time.perf_counter() - start, key=repr(p))
        try:
            op.digest = worker.check_long_record(w, rep, p, self.duration_s)
        except gate.GateError as exc:
            op.error = str(exc)
        return op


WORKLOADS = {"cli_simulate": CliSimulate, "long_record": LongRecord,
             "cli_sweep": CliSweep, "cli_reanalyze": CliReanalyze}


def loop(seconds: float, op) -> list:
    """Closed loop: call op() until `seconds` have passed and MIN_OPS ran."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_OPS or time.perf_counter() < deadline:
        results.append(op())
    return results


def mark_repeats(ops: list[Op]) -> None:
    """Ops on the same input must give the same outputs."""
    first: dict[str, str] = {}
    for op in ops:
        if op.error is None and first.setdefault(op.key, op.digest) != op.digest:
            op.error = "output differs from an earlier op on the same input"


def tail(values: list[float]) -> float:
    """Highest nearest-rank percentile with at least ten samples above it,
    but never below the median (up to 21 samples give the median)."""
    v = sorted(values)
    return v[max(len(v) - 11, len(v) // 2)]


def setup_times(tmp: Path, repeats: int) -> list[float]:
    """Wall time of `import glottisim` in fresh interpreters."""
    times = []
    for _ in range(repeats):
        child = run_child([sys.executable, "-c", SETUP_CODE], tmp)
        if child.code != 0:
            raise RuntimeError(f"import glottisim failed: {child.err[-500:]}")
        times.append(float(child.out))
    return times


def import_split(tmp: Path) -> dict[str, float]:
    """import.total_s from the glottisim line of `-X importtime`; scipy and
    numpy as the sum of the self times of their modules."""
    child = run_child([sys.executable, "-X", "importtime", "-c",
                       "import glottisim"], tmp)
    if child.code != 0:
        raise RuntimeError(f"import glottisim failed: {child.err[-500:]}")
    split = {"import.total_s": 0.0, "import.scipy_s": 0.0,
             "import.numpy_s": 0.0}
    for line in child.err.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        top = name.partition(".")[0]
        if name == "glottisim":
            split["import.total_s"] = cum_us / 1e6
        elif top in ("scipy", "numpy"):
            split[f"import.{top}_s"] += self_us / 1e6
    return split


def yardstick_op(wl: CliWorkload) -> Op:
    """A child op followed by a yardstick child, one at a time."""
    op = wl.child_op()
    child = run_child([sys.executable, str(HERE / "yardstick.py")], wl.tmp)
    if child.code != 0:
        raise RuntimeError(f"yardstick failed: {child.err[-500:]}")
    op.yardstick_s = child.wall_s
    return op


def untraced(wl, size: Size, seconds: float, tmp: Path):
    setup = setup_times(tmp, size.setup_repeats)
    wl.setup()
    if isinstance(wl, LongRecord):
        ops, rss = wl.worker_ops(seconds)
    else:
        ops = loop(seconds, lambda: yardstick_op(wl))
        rss = statistics.median(op.rss_mib for op in ops)
    mark_repeats(ops)
    walls = [op.wall_s for op in ops]
    wall = statistics.median(walls)
    print("# yardstick walls (s): "
          + " ".join(f"{op.yardstick_s:.3f}" for op in ops))
    print(f"# wall time, not drift-corrected: op {wall:.6g} s, tail "
          f"{tail(walls):.6g} s, {wl.samples / wall:.6g} samples/s")
    # Each op over the yardstick timed right after it: adjacent pairs see
    # the same host speed.
    ratios = [op.wall_s / op.yardstick_s for op in ops]
    return ops, {
        "op_wall_rel": statistics.median(ratios),
        "op_wall_rel_tail": tail(ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss,
    }


def traced(wl, size: Size, seconds: float, tmp: Path, spans_path: Path):
    imports = [import_split(tmp) for _ in range(size.setup_repeats)]
    wl.setup()
    sys.path.insert(0, str(SRC))
    import glottisim
    import glottisim.cli

    tracer = spans.Tracer(glottisim)
    main = tracer.traced(glottisim.cli.main, "cli.main")
    children, plain, timed = [], [], []

    def one_round():
        # Untraced child op (CLI only), untraced in-process op, traced op.
        if isinstance(wl, CliWorkload):
            children.append(wl.child_op())
        plain.append(wl.inproc_op(glottisim, glottisim.cli.main))
        tracer.op = len(timed)
        tracer.install()
        try:
            timed.append(wl.inproc_op(glottisim, main))
        finally:
            tracer.uninstall()

    loop(seconds, one_round)
    # One more traced op under tracemalloc for simulate's allocation peak.
    tracer.op, tracer.alloc = ALLOC_OP, True
    tracemalloc.start()
    tracer.install()
    try:
        alloc_op = wl.inproc_op(glottisim, main)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    tracer.dump(spans_path)

    ops = children + plain + timed + [alloc_op]
    mark_repeats(ops)
    per = spans.per_op(tracer.spans)
    op_layers = [per[k] for k in range(len(timed))]

    def med(*keys):
        return statistics.median(sum(d.get(k, 0.0) for k in keys)
                                 for d in op_layers)

    untraced_inproc = statistics.median(op.wall_s for op in plain)
    proc_overhead = (statistics.median(op.wall_s for op in children)
                     - untraced_inproc) if children else 0.0
    m = {key: statistics.median(d[key] for d in imports) for key in imports[0]}
    m.update({
        "config.parse_s": med("config.parse_s", "config.validate_s"),
        "config.calls": med("config.parse.calls", "config.validate.calls"),
        "oscillator.traces_s": med("oscillator.traces_s"),
        "oscillator.samples": med("oscillator.traces.count"),
        "network.simulate_s": med("network.simulate_s"),
        "network.validate_s": med("network.validate_s"),
        "network.solve_s": med("network.simulate_s") - med(
            "oscillator.traces_s") - med("network.validate_s"),
        "network.active_samples": med("network.simulate.count"),
        "network.alloc_peak_mib": tracer.alloc_peaks.get(ALLOC_OP, 0) / 2**20,
        "network.solver_errors": max(d.get("network.solver_errors", 0.0)
                                     for d in op_layers),
        "exporters.csv_write_s": med("exporters.csv_write_s"),
        "exporters.csv_bytes": med("exporters.csv_write.count"),
        "exporters.wav_write_s": med("exporters.wav_write_s"),
        "exporters.report_write_s": med("exporters.report_write_s"),
        "exporters.csv_read_s": med("exporters.csv_read_s"),
        "exporters.rows_read": med("exporters.csv_read.count"),
        "cli.main_s": med("cli.main_s"),
        "cli.proc_overhead_s": proc_overhead,
        "trace.overhead_s": (statistics.median(op.wall_s for op in timed)
                             - untraced_inproc),
        "trace.untraced_op_s": untraced_inproc + proc_overhead,
    })
    for fn in ("analyze", "derivative", "pulse_peaks", "detect_phases"):
        m[f"analysis.{fn}_s"] = med(f"analysis.{fn}_s")
        m[f"analysis.{fn}.calls"] = med(f"analysis.{fn}.calls")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = med(f"{layer}.self_s")
    m["trace.self_sum_s"] = proc_overhead + sum(
        m[f"{layer}.self_s"] for layer in LAYERS)
    return ops, m


def report(ops: list[Op], metrics: dict, units: dict) -> dict:
    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"# FAILED: {op.error}")
    print("# op walls (s): " + " ".join(f"{op.wall_s:.3f}" for op in ops))
    print(f"# ops: {len(ops)} attempted, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(ops):.3g})")
    values = {}
    for name, unit in units.items():
        value = metrics[name]
        values[name] = round(value) if unit in ("count", "bytes") else value
        label = " (derived)" if name == "network.solve_s" else ""
        print(f"# {name:30s} {values[name]:14.6g} {unit}{label}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="short records, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "glottisim" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run it from the root "
              "of a glottisim checkout", file=sys.stderr)
        return 2
    size = TINY if args.tiny else FULL
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](size, args.seed, tmp)
        if args.trace:
            ops, metrics = traced(
                wl, size, args.seconds, tmp,
                WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            units = declared_units("per_layer")
        else:
            ops, metrics = untraced(wl, size, args.seconds, tmp)
            units = declared_units("end_to_end")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report(ops, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
