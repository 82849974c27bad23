"""Command-line front end: simulate, sweep, analyze.

Exit codes: 0 success, 2 configuration error, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import analyze, derivative
from .config import RunConfig, check_drive, parse_config, validate_config
from .errors import ConfigError, ModelDomainError
from .exporters import (export_csv, export_wav, format_number, format_report,
                        read_waveform_csv, write_report)
from .network import simulate, simulate_many

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4

SWEEP_COLUMNS = ("pressure_cmh2o", "drive_v", "peak_flow", "f0_hz",
                 "max_negative_derivative")
# A sweep checks every point and holds each point's drive and circuit
# before it solves one; 100 000 of them take about 24 MiB (tracemalloc) and
# their solves about 4.5 minutes (2.6 ms a point of 1 s at 44.1 kHz on a
# 2-core Xeon), and both grow with the list.
_MAX_SWEEP_POINTS = 100_000


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _write_outputs(out: Path, writes) -> None:
    """Write each (name, write) of writes into the directory out, made if
    need be, so that a failed call leaves the files of an earlier run as
    they were: write(path) writes its file under a temporary name, and only
    once every write has succeeded is each renamed into place, in order.  A
    name held by a directory, which no rename can replace, fails before the
    first rename, and the temporaries are unlinked on any failure."""
    out.mkdir(parents=True, exist_ok=True)
    moves = []
    try:
        for name, write in writes:
            moves.append((out / f".{name}.{os.getpid()}.tmp", out / name))
            write(moves[-1][0])
        for _, path in moves:
            if path.is_dir():
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in moves:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)
        raise


def cmd_simulate(args: argparse.Namespace) -> int:
    # an option left unset keeps the config's value; --wav only turns WAV on
    overrides = {"pressure_cmh2o": args.pressure, "duration_s": args.duration,
                 "out_dir": args.out, "write_wav": args.wav or None}
    cfg = replace(_load_config(args.config),
                  **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)

    w = simulate(cfg.build_circuit(), cfg.duration_s, cfg.sample_rate_hz)
    d = derivative(w)
    rep = analyze(w, d)
    writes = [("waveform.csv", lambda path: export_csv(w, d, path))]
    if cfg.write_wav:
        writes.append(("waveform.wav", lambda path: export_wav(w, path)))
    writes.append(("report.txt", lambda path: write_report(rep, path)))
    _write_outputs(Path(cfg.out_dir), writes)
    sys.stdout.write(format_report(rep))
    return EXIT_OK


def _sweep_pressures(start: float, stop: float, step: float) -> list[float]:
    """The points start + k * step up to stop, which is always the last
    point when the range is within 1e-9 step of a whole number of steps.
    The point count is found arithmetically and bounded before any point is
    made."""
    if not -math.inf < start <= stop < math.inf:
        raise ConfigError(f"sweep needs finite --from <= --to, got --from "
                          f"{start!r} --to {stop!r}")
    if not 0.0 < step < math.inf:
        raise ConfigError(f"sweep --step must be finite and > 0, got {step!r}")
    if start + step == start:
        raise ConfigError(f"sweep --step {step!r} is too small to advance "
                          f"--from {start!r}")
    steps = (stop - start) / step
    if not steps < _MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep from {start!r} to {stop!r} by {step!r} has "
                          f"more than {_MAX_SWEEP_POINTS} points")

    def beyond(k: int) -> bool:
        return start + k * step > stop + 1e-9 * step

    # The count is the first k beyond stop.  floor(steps) + 1 is that up to
    # rounding, and start + k * step never decreases with k, so a few steps
    # either way settle it exactly.
    count = math.floor(steps) + 1
    while not beyond(count):
        count += 1
    while count > 1 and beyond(count - 1):
        count -= 1
    return [min(start + k * step, stop) for k in range(count)]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    pressures = _sweep_pressures(args.start, args.stop, args.step)
    # The checks that do not depend on the pressure run once.
    first = replace(cfg, pressure_cmh2o=pressures[0])
    validate_config(first)
    circuit = first.build_circuit()
    drives = [check_drive(circuit, p, cfg.sample_rate_hz) for p in pressures]

    # Each waveform is dropped once its summary line is formatted.
    lines = [",".join(SWEEP_COLUMNS)]
    waveforms = simulate_many(circuit, drives, cfg.duration_s,
                              cfg.sample_rate_hz)
    for p, v, w in zip(pressures, drives, waveforms):
        rep = analyze(w)
        lines.append(",".join((
            format_number(p), format_number(v.value),
            format_number(float(w.u_gl.max())),
            "nan" if rep.f0_hz is None else format_number(rep.f0_hz),
            format_number(rep.max_negative_derivative))))

    text = "\n".join(lines) + "\n"
    _write_outputs(Path(cfg.out_dir), [(
        "sweep_summary.csv",
        lambda path: path.write_text(text, encoding="ascii", newline=""))])
    sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    w, _ = read_waveform_csv(args.csv)
    sys.stdout.write(format_report(analyze(w)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glottisim",
        description="Simulate the glottal voice source as a driven circuit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and export it")
    sim.add_argument("--config", metavar="PATH",
                     help="run configuration file (defaults apply when omitted)")
    sim.add_argument("--pressure", type=float, metavar="CMH2O",
                     help="override lung pressure")
    sim.add_argument("--duration", type=float, metavar="SECONDS",
                     help="override simulated duration")
    sim.add_argument("--out", metavar="DIR", help="output directory")
    sim.add_argument("--wav", action="store_true",
                     help="also write waveform.wav")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="summary table over a pressure range")
    sweep.add_argument("--config", metavar="PATH")
    sweep.add_argument("--from", dest="start", type=float, default=7.0,
                       metavar="CMH2O")
    sweep.add_argument("--to", dest="stop", type=float, default=10.0,
                       metavar="CMH2O")
    sweep.add_argument("--step", type=float, default=1.0, metavar="CMH2O")
    sweep.add_argument("--out", metavar="DIR", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="re-analyze an exported waveform CSV")
    an.add_argument("--csv", required=True, metavar="PATH")
    an.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a record too large for this machine's memory is a config error here
    except (ConfigError, ModelDomainError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
