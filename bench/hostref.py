"""Fixed reference work that measures how fast the host runs right now.

The benchmark's host is a share of a machine whose speed drifts by up to
about 1.8x over minutes, with every process on it slowing together (CPU
time follows wall time, so it is not time-sharing inside the VM). The
worker times the reference before every op of a timed run and again after
the last op of each pass; run.py scales each op's time by the nominal
reference time over the mean of the reference times just before and just
after it, which gives the op at the host speed where the reference takes
its nominal time.

The reference never touches ``colorgraph``, so no change to the program
moves it. ``compute_seconds`` mixes what the library ops spend their time
on: a memory-bound gather and compare over a color matrix (the counting
kernel's pattern), a sort of floats (the KS distances), a small matrix
product (the spectra and trace powers of ``limit``) and a pure-Python
loop. readme-cli's ops are child processes, whose start-up (exec, imports,
page faults) drifts more than computation does, so its reference adds
``startup_seconds``: a child interpreter that imports numpy.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(20261018)
_COLORS = _rng.integers(0, 2, size=(100, 200))
_U, _V = np.triu_indices(200, 1)
_FLOATS = _rng.random(60_000)
_MATRIX = _rng.random((256, 256))
_EXPECTED = int((_COLORS[:, _U] == _COLORS[:, _V]).sum())


def compute_seconds() -> float:
    """Wall seconds of one run of the reference computation."""
    t0 = time.perf_counter()
    mono = int((_COLORS[:, _U] == _COLORS[:, _V]).sum())
    ordered = np.sort(_FLOATS)
    product = _MATRIX @ _MATRIX
    acc = 0
    for i in range(15_000):
        acc += i & 7
    dt = time.perf_counter() - t0
    if mono != _EXPECTED or ordered[0] > ordered[-1] or product.shape != (256, 256) or acc != 52_500:
        raise RuntimeError("the host reference computation gave a wrong result")
    return dt


def startup_seconds() -> float:
    """Wall seconds of a child interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def reference_seconds(with_startup: bool) -> tuple[float, ...]:
    """The times of the reference's parts: the computation, then the child start-up if asked for."""
    return (compute_seconds(), startup_seconds()) if with_startup else (compute_seconds(),)
