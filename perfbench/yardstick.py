"""A fixed task that does not use glottisim, timed beside the ops.

The host's speed drifts by tens of percent over minutes, and the drift
slows CPU time as well as wall time.  Each run therefore times this task
alternately with its ops and reports op times as multiples of it, which
cancels most of the drift.  Its work resembles the ops': importing
scipy.signal (which dominates a CLI call today), vectorized float work like
the series solve, and writing and parsing CSV rows like the exporters.  It
must not change when glottisim does.

    python perfbench/yardstick.py    # the child form, used beside CLI ops
"""
from __future__ import annotations

import io

import numpy as np


def kernel(n: int = 1_000_000) -> float:
    """Solver-like float work on n-element arrays, then writing and parsing
    24 000 five-column CSV rows; returns a checksum."""
    x = np.linspace(1e-3, 1.0, n)
    total = 0.0
    for _ in range(6):
        v = x / 1.3 + (x / 0.7) ** 2 + np.sqrt(x / 1.1)
        x = np.where(v > 1.0, x * 0.999, x * 1.001)
        total += float(v.sum())
    text = "".join("%s,%s,%s,%s,%s\n" % tuple(format(float(c), ".9g")
                                              for c in row)
                   for row in x[:120_000].reshape(-1, 5))
    back = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    return total + float(back.sum())


if __name__ == "__main__":
    import scipy.signal  # noqa: F401

    kernel()
