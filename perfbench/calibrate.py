"""Host speed, measured next to every timed operation.

On a few cores of a shared host the same code runs up to 2x slower for
minutes at a time, in CPU time as well as wall time, because of what else
runs on the host.  A median over a run does not remove that: a whole run
can fall into a slow stretch.  So a fixed probe that never touches
bergerhelix is timed right before every operation and once after the last,
and each latency is divided by the mean of the two host factors around it
(probe time over the probe's reference time).  The result reads as the
latency the operation would have had at the reference host speed.  A change
to the program moves the operation and not the probe, so it shows in full; a
slow stretch of the host moves both and cancels.

There are four probes, because the host's slow stretches do not slow every
kind of work alike: they slow interpreter-bound work by up to 2x and
large-array numpy work much less.  Each workload uses the probe that
does the kind of work its operations do.  ``compute_factor`` runs Python
calls and float arithmetic, small numpy products and norms, and float
formatting, like verify's per-point checks.  ``text_factor`` formats 15,000
numpy floats into CSV rows, like the exports.
``arrays_factor`` runs element-wise functions, a 4x4 contraction and norms
over an 8 MB array, like verify's grid path on a fine grid.
``spawn_factor`` starts and ends a bare interpreter, like every CLI call and
every set-up does before its imports.  Each probe is the faster of two
runs, so that caches the operation before it left cold do not count.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# the probes' times on the reference host, a 2-core Xeon VM; they set the
# scale of the reported figures and nothing else
COMPUTE_REFERENCE_S = 4.0e-3
ARRAYS_REFERENCE_S = 50e-3
TEXT_REFERENCE_S = 30e-3
SPAWN_REFERENCE_S = 45e-3

_VALUES = np.random.default_rng(0).standard_normal(3000)
_MATRIX = np.random.default_rng(1).standard_normal((4, 4))
_FIELD = np.random.default_rng(2).standard_normal((4, 250_000))      # 8 MB
_ROWS = np.random.default_rng(3).standard_normal((1500, 10))


def _compute() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        v = _MATRIX @ _VALUES[i:i + 4]
        acc += float(np.linalg.norm(v)) + math.sin(acc) * 1e-9
    ",".join(f"{x:.17g}" for x in _VALUES)
    return time.perf_counter() - t0


def _text() -> float:
    t0 = time.perf_counter()
    lines = [",".join(f"{x:.17g}" for x in row) for row in _ROWS]
    ("\n".join(lines) + "\n").encode("ascii")
    return time.perf_counter() - t0


def _arrays() -> float:
    t0 = time.perf_counter()
    a = np.sin(_FIELD) * np.cos(_FIELD[::-1])
    b = np.einsum("ij,jn->in", _MATRIX, a)
    np.sqrt(np.einsum("in,in->n", b, b))
    return time.perf_counter() - t0


def _spawn() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def compute_factor() -> float:
    """How much slower than the reference host in-process work runs now."""
    return min(_compute(), _compute()) / COMPUTE_REFERENCE_S


def text_factor() -> float:
    """How much slower than the reference host text formatting runs now."""
    return min(_text(), _text()) / TEXT_REFERENCE_S


def arrays_factor() -> float:
    """How much slower than the reference host large-array work runs now."""
    return min(_arrays(), _arrays()) / ARRAYS_REFERENCE_S


def spawn_factor() -> float:
    """How much slower than the reference host an interpreter starts now."""
    return min(_spawn(), _spawn()) / SPAWN_REFERENCE_S


def scaled(latency: float, before: float, after: float) -> float:
    """A latency at the reference host speed, from the host factors around it."""
    return latency / (0.5 * (before + after))
