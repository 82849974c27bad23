"""The per-side summary of tools/fault_scan.py."""
import importlib
from pathlib import Path

import pytest

_TOOLS = Path(__file__).parent.parent / "tools"


@pytest.fixture
def fault_scan(monkeypatch):
    # the tool imports bench_pair from its own directory
    monkeypatch.syspath_prepend(str(_TOOLS))
    return importlib.import_module("fault_scan")


def test_summary_names_the_sizes_above_the_outlier_bound(fault_scan):
    counts = {0: (6000, 0.40), 97: (6100, 0.41), 194: (20000, 0.45),
              291: (7200, 0.39), 388: (7201, 0.42)}
    s = fault_scan.summarize(counts)
    assert s["median_faults"] == 7200 and s["least_faults"] == 6000
    assert s["median_cpu_s"] == pytest.approx(0.41)
    # 1.2 x 6000 = 7200: 7200 is not above it, 7201 and 20000 are
    assert s["outliers"] == [194, 388]
    assert fault_scan.summarize({0: (5, 0.1)})["outliers"] == []


def test_summary_names_a_trim_at_most_sizes(fault_scan):
    # a trim at 3 of 4 sizes moves the median with it
    counts = {0: (19515, 0.47), 97: (19513, 0.50), 194: (6010, 0.44),
              291: (19512, 0.41)}
    s = fault_scan.summarize(counts)
    assert s["median_faults"] == 19512.5
    assert s["outliers"] == [0, 97, 291]
