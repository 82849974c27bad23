"""A smoke run of tools/op_loop.py on this checkout."""
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).parent.parent


def test_op_loop_prints_one_summary_per_checkout():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "op_loop.py"), "--runs", "2",
         "--duration", "0.5", str(_ROOT)],
        capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert "op/yardstick" in lines[0] and "(2 runs)" in lines[0]
