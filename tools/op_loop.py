#!/usr/bin/env python3
"""Time the long_record op in one fresh process per checkout.

    python3 tools/op_loop.py --runs 20 CHECKOUT [CHECKOUT]

For each checkout (a directory holding `src/glottisim` and
`perfbench/yardstick.py`), one fresh child imports that checkout's package
and runs the op of perfbench's long_record workload, `simulate` of the
normal voice at 10 cmH2O over `--duration` seconds at 44.1 kHz and then
`analyze`, `--runs` times, with `yardstick.kernel` after each op as the
benchmark's worker does.  With two checkouts the children run one op at a
time, alternately: the first checkout first in even rounds and the second
first in odd ones, so that a drift of the host does not favour one side.
Each child reports, per op, its wall time, the yardstick's wall time and
the minor page faults of the op (`resource.getrusage`); the parent prints,
per checkout, the median op time, the median op/yardstick ratio and the
median minor faults per op.  Only the Python standard library and the
package are used.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, resource, sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import glottisim
import yardstick
duration = float(sys.argv[2])
for line in sys.stdin:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    w = glottisim.simulate(glottisim.GlottalCircuit.normal_voice(10.0),
                           duration, 44100)
    glottisim.analyze(w)
    op = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    del w
    start = time.perf_counter()
    yardstick.kernel(round(duration * 44100))
    ruler = time.perf_counter() - start
    print(json.dumps({"op_s": op, "yardstick_s": ruler, "faults": faults}),
          flush=True)
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--duration", type=float, default=60.0)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")

    children = [subprocess.Popen(
        [sys.executable, "-c", CHILD, str(path.resolve()), str(args.duration)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for path in args.checkouts]
    results = [[] for _ in children]
    try:
        for r in range(args.runs):
            order = list(zip(children, results))
            for child, out in order if r % 2 == 0 else order[::-1]:
                child.stdin.write("\n")
                child.stdin.flush()
                out.append(json.loads(child.stdout.readline()))
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    for path, out in zip(args.checkouts, results):
        op = statistics.median(r["op_s"] for r in out)
        rel = statistics.median(r["op_s"] / r["yardstick_s"] for r in out)
        faults = statistics.median(r["faults"] for r in out)
        print(f"{path}: op {1e3 * op:.2f} ms, op/yardstick {rel:.4f}, "
              f"{faults:g} minor faults per op ({len(out)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
