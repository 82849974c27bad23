"""Output gate: checks every benchmark op against the physics, not bytes.

The checks are written here from the model's published laws, independent of
the package code they check:

- pressure line: drive voltage = (p - 5.94) / 1.27
- element voltages at series current I and fold bias g: I/(G*g) for the
  linear elements, (I/(K*g))**2 for the compressive one and sqrt(I/(K*g))
  for the expansive one; their sum is the drive voltage at active samples
- the default 8 ms oscillators give F0 = 44100/353 Hz at 44.1 kHz

Only numpy and the standard library are used, so the gate also runs in
run.py's own process, which never imports the package in an untraced run.
"""
from __future__ import annotations

import hashlib
import wave
from pathlib import Path

import numpy as np

CMH2O_PER_VOLT = 1.27
ONSET_CMH2O = 5.94
GAINS = (1.0, 1.0, 1.0, 1.0)  # lower linear, compressive, upper linear, expansive

RATE_HZ = 44100
EXPECTED_F0_HZ = 44100 / 353
F0_RTOL = 0.005
# In-memory waveforms must meet the simulate contract.
BALANCE_RTOL = 1e-10
# CSV cells carry nine significant digits (relative error <= 5e-9 each); the
# compressive term squares that error, so a correct file stays below 2e-8.
CSV_BALANCE_RTOL = 3e-8

CSV_HEADER = "time_s,u_gl,du_gl_dt,g_lower,g_upper"
SWEEP_HEADER = "pressure_cmh2o,drive_v,peak_flow,f0_hz,max_negative_derivative"
WAV_PEAK = round(0.9 * 32767)


class GateError(Exception):
    """An op's output broke a physical or format check."""


def drive_voltage(pressure_cmh2o: float) -> float:
    return (pressure_cmh2o - ONSET_CMH2O) / CMH2O_PER_VOLT


def series_voltage(u: np.ndarray, g_lower: np.ndarray,
                   g_upper: np.ndarray) -> np.ndarray:
    """Sum of the four element voltages carrying current u (all g > 0)."""
    g1, k1, g2, k2 = GAINS
    return (u / (g1 * g_lower) + (u / (k1 * g_lower)) ** 2
            + u / (g2 * g_upper) + np.sqrt(u / (k2 * g_upper)))


def check_f0(f0_hz: float, what: str) -> None:
    if not abs(f0_hz - EXPECTED_F0_HZ) <= F0_RTOL * EXPECTED_F0_HZ:
        raise GateError(f"{what}: F0 {f0_hz!r} Hz is not within "
                        f"{F0_RTOL:.1%} of {EXPECTED_F0_HZ:.4f} Hz")


def flow_f0(u: np.ndarray, rate_hz: float) -> float:
    """F0 from the median spacing of local flow maxima above half the peak."""
    peak = u.max(initial=0.0)
    inner = u[1:-1]
    idx = np.flatnonzero((inner > u[:-2]) & (inner >= u[2:])
                         & (inner > 0.5 * peak)) + 1
    if len(idx) < 2:
        raise GateError(f"only {len(idx)} flow pulses; cannot estimate F0")
    return rate_hz / float(np.median(np.diff(idx)))


def check_waveform(u, g_lower, g_upper, drive_v: float, rate_hz: float,
                   rtol: float = BALANCE_RTOL) -> None:
    """Flow is finite, unipolar, zero where a fold is shut, and balances."""
    u, g_lower, g_upper = (np.asarray(a, dtype=float)
                           for a in (u, g_lower, g_upper))
    for name, arr in (("u_gl", u), ("g_lower", g_lower), ("g_upper", g_upper)):
        if not np.all(np.isfinite(arr)):
            raise GateError(f"{name} has non-finite samples")
    if np.any(u < 0.0):
        raise GateError("u_gl has negative samples")
    active = (g_lower > 0.0) & (g_upper > 0.0)
    if np.any(u[~active] != 0.0):
        raise GateError("u_gl is nonzero where a fold bias is zero")
    resid = series_voltage(u[active], g_lower[active], g_upper[active]) - drive_v
    worst = float(np.abs(resid).max(initial=0.0))
    if not worst <= rtol * max(drive_v, 1.0):
        k = int(np.flatnonzero(active)[np.argmax(np.abs(resid))])
        raise GateError(f"voltage balance off by {worst:.3g} V at sample {k} "
                        f"(limit {rtol:g} * max(v, 1), v = {drive_v!r} V)")
    check_f0(flow_f0(u, rate_hz), "flow")


def check_waveform_csv(path, rows: int, pressure_cmh2o: float) -> None:
    """A waveform CSV: header, row count, time grid, and the physics."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise GateError(f"{path}: unexpected header {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GateError(f"{path}: malformed row: {exc}") from exc
    if data.shape != (rows, 5):
        raise GateError(f"{path}: {data.shape[0]} rows of {data.shape[1]} "
                        f"columns, expected {rows} rows of 5")
    grid = np.arange(rows) / RATE_HZ
    if not np.allclose(data[:, 0], grid, rtol=1e-8, atol=0.0):
        raise GateError(f"{path}: time column is off the {RATE_HZ} Hz grid")
    check_waveform(data[:, 1], data[:, 3], data[:, 4],
                   drive_voltage(pressure_cmh2o), RATE_HZ, CSV_BALANCE_RTOL)


def check_wav(path, frames: int) -> None:
    """Mono 16-bit PCM at 44.1 kHz with the flow peak at 90 % full scale."""
    try:
        with wave.open(str(path), "rb") as fh:
            params = fh.getparams()
            pcm = np.frombuffer(fh.readframes(params.nframes), dtype="<i2")
    except (wave.Error, EOFError) as exc:
        raise GateError(f"{path}: not a readable WAV file: {exc}") from exc
    got = (params.nchannels, params.sampwidth, params.framerate, params.nframes)
    if got != (1, 2, RATE_HZ, frames):
        raise GateError(f"{path}: (channels, width, rate, frames) = {got}, "
                        f"expected {(1, 2, RATE_HZ, frames)}")
    if len(pcm) != frames or int(pcm.max(initial=0)) != WAV_PEAK or pcm.min() < 0:
        raise GateError(f"{path}: samples are not a unipolar flow peaking "
                        f"at {WAV_PEAK}")


def check_report(text: str) -> dict[str, str]:
    """A text report with a good F0; returns its key/value lines as printed."""
    fields = {}
    for line in text.splitlines()[1:]:
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    if not text.startswith("glottal source analysis\n") or not {
            "pulse_count", "f0_hz"} <= fields.keys():
        raise GateError(f"not an analysis report: {text[:80]!r}")
    try:
        check_f0(float(fields["f0_hz"]), "report")
    except ValueError as exc:
        raise GateError(f"report F0 {fields['f0_hz']!r} is not a number") from exc
    return fields


def sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


def check_sweep(text: str, grid: np.ndarray) -> None:
    """Sweep summary: one row per grid pressure, flow rising with pressure."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise GateError("sweep summary has an unexpected header")
    try:
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]], dtype=float).reshape(-1, 5)
    except ValueError as exc:
        raise GateError(f"sweep summary has a malformed row: {exc}") from exc
    if len(rows) != len(grid):
        raise GateError(f"sweep summary has {len(rows)} rows, "
                        f"expected {len(grid)}")
    p, v, peak, f0, mnd = rows.T
    if not np.all(np.isfinite(rows)):
        raise GateError("sweep summary has non-finite cells")
    if not np.allclose(p, grid, rtol=1e-8, atol=0.0):
        raise GateError("sweep pressures are off the requested grid")
    if not np.allclose(v, drive_voltage(grid), rtol=1e-8, atol=0.0):
        raise GateError("sweep drive_v does not follow the pressure line")
    if np.any(np.diff(peak) < 0.0) or np.any(peak <= 0.0):
        raise GateError("sweep peak_flow is not positive and non-decreasing")
    if np.any(mnd >= 0.0):
        raise GateError("sweep max_negative_derivative is not negative")
    for value in f0:
        check_f0(float(value), "sweep row")


def digest(*parts) -> str:
    """sha256 over byte strings, texts and files, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            part = part.read_bytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()
