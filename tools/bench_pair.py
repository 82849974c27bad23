#!/usr/bin/env python3
"""Run perfbench on two commits in alternating pairs and write a BENCH file.

    python3 tools/bench_pair.py --base HEAD~1 --head HEAD --pairs 10 \\
        --seconds 18 --out BENCH_6.json --trace long_record \\
        long_record cli_sweep

Each commit's committed files are extracted with `git archive` into its own
directory under `--workdir`, so both sides run exactly what git holds and
the repository's own checkout and `.git` are left alone.  For every
workload, pair i runs `perfbench/run.py --seed <seed0 + i>` once on each
side, base first in even pairs and head first in odd ones, so that a drift
of the host does not favour one side.  Each side runs its own
`perfbench/run.py`, which benchmarks the sources next to it.

The output holds both commit ids, the settings, the machine, every run's
final JSON line and, per workload and metric, each side's median and
quartiles and the pairs the head won.  A metric's direction and bound come
from BENCHMARK.json.  `gain` is true where the head won at least nine
tenths of the pairs and its median beats the base's by more than the base's
interquartile range.  `regressed` is true where the head's median is worse
than the base's by more than bound x the base median, and `unresolved` where
the base's interquartile range is wider than that margin and not every head
run beats every base run, so the runs spread too widely to rule a
regression out.  Each `--trace WORKLOAD` adds, after all the untraced
pairs, one `perfbench/run.py --trace 1` run per side, base first, with seed
seed0 + pairs; its final JSON lines go under `trace_<workload>` with the
command, for the per-layer metrics.  Only the Python standard library is
used.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(commit: str, dest: Path) -> None:
    """The committed tree of `commit`, written to the fresh directory `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")


def perfbench_args(workload: str, seed: int, seconds: float,
                   trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run of `checkout`; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, *perfbench_args(workload, seed, seconds, trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Each side's op counts and, per metric, each side's quartiles, the
    head's wins and the verdicts; `regressed` and `unresolved` are None for
    a metric without a bound."""
    bounds = bounds or {}
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    ops = {side: {key: sum(p[side][key] for p in pairs.values())
                  for key in ("attempted", "failed")}
           for side in ("base", "head")}
    metrics = {}
    for name, direction in better.items():
        sides = {side: [p[side]["metrics"][name]["value"]
                        for p in pairs.values()] for side in ("base", "head")}
        sign = 1.0 if direction == "lower" else -1.0
        diffs = [sign * (b - h) for b, h in zip(sides["base"], sides["head"])]
        base, head = quartiles(sides["base"]), quartiles(sides["head"])
        wins = sum(d > 0 for d in diffs)
        regressed = unresolved = None
        if name in bounds:
            margin = bounds[name] * abs(base["median"])
            regressed = sign * (head["median"] - base["median"]) > margin
            unresolved = base["q3"] - base["q1"] > margin and not all(
                sign * (b - h) > 0 for b in sides["base"] for h in sides["head"])
        metrics[name] = {
            "better": direction, "base": base, "head": head,
            "head_wins": wins, "ties": sum(d == 0 for d in diffs),
            "pairs": len(diffs),
            "median_change_rel": (head["median"] / base["median"] - 1.0
                                  if base["median"] else None),
            "gain": (wins >= 0.9 * len(diffs) and sign * (
                base["median"] - head["median"]) > base["q3"] - base["q1"]),
            "bound": bounds.get(name), "regressed": regressed,
            "unresolved": unresolved,
        }
    return {"ops": ops, "metrics": metrics}


def machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info["numpy"] = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip() or None
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", required=True, help="changed commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--seed0", type=int, default=101)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="where the two checkouts are extracted")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="append", default=[],
                        metavar="WORKLOAD",
                        help="add one traced run per side of WORKLOAD")
    args = parser.parse_args(argv)

    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               .decode().strip()
               for side, ref in (("base", args.base), ("head", args.head))}
    checkouts = {side: args.workdir / side for side in commits}
    for side, commit in commits.items():
        extract(commit, checkouts[side])
    declared = json.loads((checkouts["base"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]
              if "bound" in m}

    doc = {"base": commits["base"], "head": commits["head"],
           "settings": {"pairs": args.pairs, "seconds": args.seconds,
                        "seed0": args.seed0, "trace": 0,
                        "order": "base first in even pairs"},
           "machine": machine(), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(checkouts[side], workload,
                                  args.seed0 + pair, args.seconds)
                runs.append({"pair": pair, "side": side,
                             "seed": args.seed0 + pair, "result": result})
                print(f"{workload} pair {pair} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
        doc["workloads"][workload] = {"runs": runs,
                                      **summarize(runs, better, bounds)}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    seed = args.seed0 + args.pairs
    for workload in args.trace:
        block = {"command": " ".join(["python3", *perfbench_args(
            workload, seed, args.seconds, 1)])}
        for side in ("base", "head"):
            block[side] = run_once(checkouts[side], workload, seed,
                                   args.seconds, trace=1)
            print(f"{workload} traced {side}", flush=True)
        doc[f"trace_{workload}"] = block
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
