"""Reference tasks that tell how fast the host runs at a given moment.

The shared host this benchmark was built on switches every few seconds
between a fast and a slow state up to 1.8x apart, and the share of time it
spends slow drifts over minutes, sometimes for a whole run. A time taken
alone then says as much about the host as about the program. So a run
also runs a fixed reference task, in the same process, between pieces of
its work, and divides each piece's time by the mean slowdown of the task
on either side of it. Each task resembles the work it adjusts, because
the slow state slows interpreter-bound and BLAS-bound work by different
amounts. The tasks use numpy and scipy only, never scangibbs, so a change
to the program cannot change them.

NOMINAL_S holds roughly each task's time on that host in its fast state (2
vCPUs of an Intel Xeon, OpenBLAS 0.3 on two threads). Adjusted times are
therefore close to seconds on that host at full speed.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.special import expit

NOMINAL_S = {"interp": 0.011, "blas": 0.035, "import": 0.7}
# Runs per timing. The interpreter task runs once, cold like the work it
# follows, which tracked that work best; the BLAS task follows calls of
# about ten seconds, and the median of several runs steadies it.
RUNS = {"interp": 1, "blas": 9}

# Set-up is paired with a fresh interpreter that imports what set-up
# spends most of its time importing.
IMPORT_PROCESS = [sys.executable, "-c",
                  "import numpy, scipy.sparse, scipy.special, scipy.stats; print('ready')"]

_rng = np.random.default_rng(0)
_N = 2000                        # sites, as in the coupling workload's model
_NBR = [_rng.integers(0, _N, size=5) for _ in range(_N)]
_W = [_rng.uniform(0.0, 0.2, size=5) for _ in range(_N)]
_SITES = _rng.integers(0, _N, size=3000).tolist()
_STATE = _rng.integers(0, 2, size=_N).astype(np.int8)
_BIAS = _rng.uniform(-1.0, 1.0, size=_N)
_SPARSE = sparse.csr_matrix(
    (np.concatenate(_W), (np.repeat(np.arange(_N), 5), np.concatenate(_NBR))), shape=(_N, _N))


def _interp() -> None:
    # A per-site update loop over random sites and sparse half-sweeps, like
    # the coupling layer: interpreter-bound calls into numpy and scipy.
    state = _STATE.copy()
    for x in _SITES:
        field = _BIAS[x] + float(_W[x] @ state[_NBR[x]])
        state[x] = 0.5 < float(expit(field))
    vec = state.astype(float)
    for _ in range(20):
        vec = expit(_SPARSE @ vec + _BIAS)


@functools.cache
def _dense(n: int) -> np.ndarray:
    # Built on first use, so that workloads without the task do not hold it.
    a = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, n))
    return a + a.T


def _blas() -> None:
    # A dense product and eigensolve on two BLAS threads with operands
    # larger than the caches, like the exact analyses at N = 2048.
    big = _dense(1024)
    big @ big
    np.linalg.eigvalsh(_dense(512))


TASKS = {"interp": _interp, "blas": _blas}


def slowdown(task: str) -> float:
    """Median time of RUNS[task] runs of the task over its nominal time."""
    times = []
    for _ in range(RUNS[task]):
        start = perf_counter()
        TASKS[task]()
        times.append(perf_counter() - start)
    return statistics.median(times) / NOMINAL_S[task]
