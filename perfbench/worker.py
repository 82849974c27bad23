"""Warm worker for the long_record workload.

Run as a child of run.py with the package importable.  It imports glottisim
once, then serves one op per JSON line on stdin ({"pressure_cmh2o": p,
"duration_s": d}) and answers one JSON line on stdout with the op's wall
time, the sha256 of its outputs, any gate failure and the wall time of
`yardstick.kernel()` run after it.  It exits at end of input.  run.py also
imports the op and its check for the traced run.
"""
from __future__ import annotations

import json
import sys
import time

import gate
import yardstick


def long_record(package, simulate, analyze, pressure_cmh2o: float,
                duration_s: float):
    """The op: simulate a long record of the normal voice, then analyze it."""
    circuit = package.GlottalCircuit.normal_voice(pressure_cmh2o)
    w = simulate(circuit, duration_s, gate.RATE_HZ)
    return w, analyze(w)


def check_long_record(w, rep, pressure_cmh2o: float, duration_s: float) -> str:
    """Gate the op's waveform and report; return the digest of both."""
    samples = round(duration_s * gate.RATE_HZ)
    if len(w.u_gl) != samples or w.sample_rate_hz != gate.RATE_HZ:
        raise gate.GateError(f"waveform has {len(w.u_gl)} samples at "
                             f"{w.sample_rate_hz} Hz, expected {samples}")
    gate.check_waveform(w.u_gl, w.g_lower, w.g_upper,
                        gate.drive_voltage(pressure_cmh2o), gate.RATE_HZ)
    if rep.f0_hz is None:
        raise gate.GateError("analyze found no F0")
    gate.check_f0(rep.f0_hz, "analyze")
    return gate.digest(w.u_gl.tobytes(), w.g_lower.tobytes(),
                       w.g_upper.tobytes(), repr(rep))


def main() -> int:
    import glottisim

    for line in sys.stdin:
        req = json.loads(line)
        p, d = req["pressure_cmh2o"], req["duration_s"]
        start = time.perf_counter()
        w, rep = long_record(glottisim, glottisim.simulate, glottisim.analyze,
                             p, d)
        wall = time.perf_counter() - start
        try:
            reply = {"wall_s": wall, "digest": check_long_record(w, rep, p, d),
                     "error": None}
        except gate.GateError as exc:
            reply = {"wall_s": wall, "digest": None, "error": str(exc)}
        del w, rep
        start = time.perf_counter()
        yardstick.kernel(round(d * gate.RATE_HZ))
        reply["yardstick_s"] = time.perf_counter() - start
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
