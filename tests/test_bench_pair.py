"""The pair summary and the traced runs of tools/bench_pair.py."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def _runs(base, head):
    runs = []
    for pair, (b, h) in enumerate(zip(base, head)):
        for side, value in (("base", b), ("head", h)):
            runs.append({"pair": pair, "side": side, "result": {
                "attempted": 5, "failed": 0,
                "metrics": {"t": {"value": value, "unit": "s"}}}})
    return runs


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    base = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    faster = [0.8] * 9 + [1.3]
    out = bench_pair.summarize(_runs(base, faster), {"t": "lower"})
    assert out["ops"]["head"] == {"attempted": 50, "failed": 0}
    t = out["metrics"]["t"]
    assert (t["head_wins"], t["ties"], t["pairs"]) == (9, 0, 10)
    assert t["base"]["median"] == pytest.approx(1.1)
    assert t["gain"]
    # a win in only 8 of 10 pairs is no gain, however large the gap
    out = bench_pair.summarize(_runs(base, [0.5] * 8 + [2.0] * 2),
                               {"t": "lower"})
    assert not out["metrics"]["t"]["gain"]
    # for a metric where higher is better the same numbers are a loss
    out = bench_pair.summarize(_runs(base, faster), {"t": "higher"})
    t = out["metrics"]["t"]
    assert t["head_wins"] == 1 and not t["gain"]


def test_gap_within_the_base_spread_is_no_gain():
    base = [1.0, 2.0] * 5
    out = bench_pair.summarize(_runs(base, [b - 0.1 for b in base]),
                               {"t": "lower"})
    assert out["metrics"]["t"]["head_wins"] == 10
    assert not out["metrics"]["t"]["gain"]


def test_regression_beyond_the_bound():
    base = [1.0, 1.01, 1.02] * 3 + [1.01]
    out = bench_pair.summarize(_runs(base, [b * 1.3 for b in base]),
                               {"t": "lower"}, {"t": 0.25})
    t = out["metrics"]["t"]
    assert t["bound"] == 0.25
    assert t["regressed"] and not t["unresolved"]
    # 20 % worse is within a 25 % bound
    out = bench_pair.summarize(_runs(base, [b * 1.2 for b in base]),
                               {"t": "lower"}, {"t": 0.25})
    assert not out["metrics"]["t"]["regressed"]
    # where higher is better, a lower head is the regression
    out = bench_pair.summarize(_runs(base, [b * 0.7 for b in base]),
                               {"t": "higher"}, {"t": 0.25})
    assert out["metrics"]["t"]["regressed"]
    # without a bound there is no verdict
    t = bench_pair.summarize(_runs(base, base), {"t": "lower"})["metrics"]["t"]
    assert t["bound"] is t["regressed"] is t["unresolved"] is None


def test_base_spread_beyond_the_bound_is_unresolved():
    base = [1.0, 2.0] * 5  # IQR 1.0, beyond 0.25 x the median 1.5
    out = bench_pair.summarize(_runs(base, base), {"t": "lower"}, {"t": 0.25})
    t = out["metrics"]["t"]
    assert t["unresolved"] and not t["regressed"]
    # unless every head run beats every base run
    out = bench_pair.summarize(_runs(base, [0.9] * 10), {"t": "lower"},
                               {"t": 0.25})
    assert not out["metrics"]["t"]["unresolved"]
    # a tight base resolves whatever the head does
    tight = [1.0, 1.01] * 5
    out = bench_pair.summarize(_runs(tight, base), {"t": "lower"}, {"t": 0.25})
    assert not out["metrics"]["t"]["unresolved"]


def test_trace_option_adds_one_traced_run_per_side(tmp_path, monkeypatch):
    calls = []

    def fake_extract(commit, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "t", "better": "lower", "bound": 0.25}]}')

    def fake_run_once(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        return {"attempted": 1, "failed": 0,
                "metrics": {"t": {"value": 1.0, "unit": "s"}}}

    monkeypatch.setattr(bench_pair, "git", lambda *args: b"c0ffee\n")
    monkeypatch.setattr(bench_pair, "extract", fake_extract)
    monkeypatch.setattr(bench_pair, "machine", dict)
    monkeypatch.setattr(bench_pair, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pair.main([
        "cli_sweep", "--base", "b", "--head", "h", "--pairs", "2",
        "--seconds", "3", "--seed0", "7", "--workdir", str(tmp_path / "w"),
        "--out", str(out), "--trace", "cli_sweep", "--trace", "long_record"]) == 0
    # the untraced pairs first, then base and head traced at seed0 + pairs
    assert calls == [("base", "cli_sweep", 7, 0), ("head", "cli_sweep", 7, 0),
                     ("head", "cli_sweep", 8, 0), ("base", "cli_sweep", 8, 0),
                     ("base", "cli_sweep", 9, 1), ("head", "cli_sweep", 9, 1),
                     ("base", "long_record", 9, 1),
                     ("head", "long_record", 9, 1)]
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"cli_sweep"}
    block = doc["trace_long_record"]
    assert set(block) == {"command", "base", "head"}
    assert block["command"] == ("python3 perfbench/run.py --workload "
                                "long_record --seed 9 --seconds 3.0 --trace 1")
    assert block["base"]["metrics"]["t"]["value"] == 1.0
