#!/usr/bin/env python3
"""Count the minor page faults of fresh `glottisim sweep` runs on two commits.

    python3 tools/fault_scan.py --base HEAD~1 --head HEAD --workdir /tmp/scan

Each commit's committed tree is extracted with `extract` of
tools/bench_pair.py into its own directory under `--workdir`.  For each
environment size N = 0, 97, 194, ... (SIZES of them, STEP bytes apart),
each side runs one fresh `python -m glottisim sweep --from 6 --to 15 --step
0.1` with one extra environment variable whose value is N bytes long, base
first at even sizes and head first at odd ones, and reads the child's minor
page faults and CPU time (user + system) from `os.wait4`.  Where glibc
trims its heap and regrows it depends on where the heap top lies, which the
size of the environment and the checkout path move, so a run that trims
shows as an outlier in faults; scan from workdirs whose paths differ in
length too.
Each line printed holds a size and each side's faults and CPU seconds; a
summary per side follows: the medians, the least fault count, and the
sizes whose faults exceed 1.2 x that least count, so a trim at most sizes
shows as well as one at a few.  Only the Python standard library is used.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path

from bench_pair import extract, git

SWEEP = ("sweep", "--from", "6", "--to", "15", "--step", "0.1")
# the extra environment variable that moves the heap
PAD = "FAULT_SCAN_PAD"
SIZES = 62
STEP = 97  # bytes between environment sizes
OUTLIER = 1.2


def run_sweep(checkout: Path, size: int, out: Path) -> tuple[int, float]:
    """(minor faults, CPU seconds) of one fresh sweep of `checkout`, run
    with `PAD` set to `size` bytes and writing into `out`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env[PAD] = "x" * size
    argv = [sys.executable, "-m", "glottisim", *SWEEP, "--out", str(out)]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"sweep of {checkout} at size {size} failed "
                           f"with status {status}")
    return usage.ru_minflt, usage.ru_utime + usage.ru_stime


def summarize(counts: dict[int, tuple[int, float]]) -> dict:
    """The median faults and CPU seconds of one side's counts, given as
    {size: (faults, cpu_s)}, its least faults, and the sizes whose faults
    exceed OUTLIER x the least."""
    least = min(f for f, _ in counts.values())
    return {"median_faults": statistics.median(f for f, _ in counts.values()),
            "median_cpu_s": statistics.median(c for _, c in counts.values()),
            "least_faults": least,
            "outliers": sorted(n for n, (f, _) in counts.items()
                               if f > OUTLIER * least)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", required=True, help="changed commit")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="where the two checkouts are extracted")
    args = parser.parse_args(argv)

    checkouts = {}
    for side, ref in (("base", args.base), ("head", args.head)):
        commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode()
        checkouts[side] = args.workdir / side
        extract(commit.strip(), checkouts[side])
    out = args.workdir / "out"
    counts = {side: {} for side in checkouts}
    print("size base_faults base_cpu_s head_faults head_cpu_s")
    for k in range(SIZES):
        size = k * STEP
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            counts[side][size] = run_sweep(checkouts[side], size, out)
        print(size, *(f"{counts[side][size][0]} {counts[side][size][1]:.3f}"
                      for side in checkouts), flush=True)
    for side in checkouts:
        s = summarize(counts[side])
        print(f"{side}: median {s['median_faults']} faults, "
              f"{s['median_cpu_s']:.3f} s CPU; least {s['least_faults']} "
              f"faults; above {OUTLIER} x the least: {s['outliers']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
