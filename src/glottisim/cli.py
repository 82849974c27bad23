"""Command-line front end: simulate, sweep, analyze.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import _analyze, analyze, derivative
from .config import RunConfig, parse_config, validate_config
from .errors import ConfigError, ModelDomainError, SolverError
from .exporters import (export_csv, export_wav, format_number, format_report,
                        read_waveform_csv, write_report)
from .network import simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

SWEEP_COLUMNS = ("pressure_cmh2o", "drive_v", "peak_flow", "f0_hz",
                 "max_negative_derivative")


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def cmd_simulate(args: argparse.Namespace) -> int:
    # an option left unset keeps the config's value; --wav only turns WAV on
    overrides = {"pressure_cmh2o": args.pressure, "duration_s": args.duration,
                 "out_dir": args.out, "write_wav": args.wav or None}
    cfg = replace(_load_config(args.config),
                  **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)

    w = simulate(cfg.build_circuit(), cfg.duration_s, cfg.sample_rate_hz)
    d = derivative(w)
    rep = _analyze(w, d)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_csv(w, d, out / "waveform.csv")
    if cfg.write_wav:
        export_wav(w, out / "waveform.wav")
    write_report(rep, out / "report.txt")
    sys.stdout.write(format_report(rep))
    return EXIT_OK


def _sweep_pressures(start: float, stop: float, step: float) -> list[float]:
    if not start <= stop:
        raise ConfigError(f"sweep needs --from <= --to, got {start!r} > {stop!r}")
    if not step > 0.0:
        raise ConfigError(f"sweep --step must be > 0, got {step!r}")
    points: list[float] = []
    k = 0
    while True:
        p = start + k * step
        if p > stop + 1e-9 * step:
            break
        points.append(min(p, stop))
        k += 1
    return points


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    pressures = _sweep_pressures(args.start, args.stop, args.step)

    rows: list[tuple[float, float, float, float | None, float]] = []
    for p in pressures:
        cfg_p = replace(cfg, pressure_cmh2o=p)
        validate_config(cfg_p)
        circuit = cfg_p.build_circuit()
        w = simulate(circuit, cfg_p.duration_s, cfg_p.sample_rate_hz)
        rep = analyze(w)
        rows.append((p, circuit.drive.value, float(w.u_gl.max()),
                     rep.f0_hz, rep.max_negative_derivative))

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep_summary.csv"
    header = ",".join(SWEEP_COLUMNS)
    lines = [header]
    for p, v, peak, f0, mnd in rows:
        lines.append(",".join((
            format_number(p), format_number(v), format_number(peak),
            "nan" if f0 is None else format_number(f0), format_number(mnd))))
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    sys.stdout.write("\n".join(lines) + "\n")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return EXIT_IO
    except ModelDomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
