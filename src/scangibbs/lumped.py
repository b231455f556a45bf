"""Symmetry-reduced chains for the hardcore model on K_{n,n}.

The full state space (independent sets of the complete bipartite graph)
collapses under vertex permutations to 2n+1 states: an occupied count on
one side or the other, with the shared empty set stored as side L, count
0. This makes exact spectral and mixing computation feasible up to
n around 50.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .chain import (
    Kernel,
    StateSpace,
    UNIT_EPOCH,
    UNIT_VARIABLE,
    make_kernel,
)


class LumpingError(ValueError):
    pass


def lumped_index(n: int, side: str, k: int) -> int:
    """State order: (L,0)..(L,n) then (R,1)..(R,n)."""
    if not (0 <= k <= n):
        raise LumpingError(f"count {k} out of range for n={n}")
    if side == "L":
        return k
    if side == "R":
        if k == 0:
            return 0  # the empty set is stored on the L side
        return n + k
    raise LumpingError(f"unknown side {side!r}")


def lumped_state_space(n: int) -> StateSpace:
    """2n+1 lumped states with pi(side, k) = C(n,k) / (2*2^n - 1)."""
    if n < 1:
        raise LumpingError("n must be at least 1")
    states = [(0, k) for k in range(n + 1)] + [(1, k) for k in range(1, n + 1)]
    total = 2 * 2 ** n - 1
    pi = np.array(
        [float(Fraction(math.comb(n, k), total)) for (_, k) in states]
    )
    return StateSpace(
        configs=np.array(states, dtype=np.int64), pi=pi, domain_size=n + 1
    )


def lumped_ru_kernel(n: int, lazy: bool = True) -> Kernel:
    """Quotient of the random-update kernel under the side symmetry.

    Counts: picking one of the k occupied vertices on the active side
    frees it with probability 1/2; picking one of the n-k unoccupied
    ones occupies it with probability 1/2; picking an opposite-side
    vertex is a forced no-op unless the set is empty.
    """
    if n < 1:
        raise LumpingError("n must be at least 1")
    size = 2 * n + 1
    matrix = np.zeros((size, size))

    def fill(side):
        for k in range(1, n + 1):
            i = lumped_index(n, side, k)
            down = k / (4.0 * n)
            up = (n - k) / (4.0 * n)
            matrix[i, lumped_index(n, side, k - 1)] += down
            if k < n:
                matrix[i, lumped_index(n, side, k + 1)] += up
            matrix[i, i] += 1.0 - down - up

    fill("L")
    fill("R")
    empty = lumped_index(n, "L", 0)
    matrix[empty, lumped_index(n, "L", 1)] = 0.25
    matrix[empty, lumped_index(n, "R", 1)] = 0.25
    matrix[empty, empty] = 0.5
    if lazy:
        matrix = 0.5 * np.eye(size) + 0.5 * matrix
    label = f"P_RU_lumped:{n}" + ("_lazy" if lazy else "")
    return make_kernel(matrix, UNIT_VARIABLE, label)


def lumped_as_kernel(n: int) -> Kernel:
    """Quotient of the one-epoch alternating-scan kernel.

    Scanning the active side with the other side empty resamples every
    vertex freely, giving a Binomial(n, 1/2) occupied count; a non-empty
    opposite side forces every update to "unoccupied".
    """
    if n < 1:
        raise LumpingError("n must be at least 1")
    # The Boost ufunc that scipy.stats.binom.pmf calls: the same bits, which
    # the golden lumped values pin, without importing scipy.stats. Imported
    # here so that only this kernel loads scipy.special.
    from scipy.special._ufuncs import _binom_pmf

    size = 2 * n + 1
    b = _binom_pmf(np.arange(n + 1), n, 0.5)
    matrix = np.zeros((size, size))

    # From any L-side state (including empty): the L scan draws
    # K1 ~ Bin(n, 1/2); K1 = 0 frees the R scan to draw again.
    row_l = np.zeros(size)
    for k in range(1, n + 1):
        row_l[lumped_index(n, "L", k)] = b[k]
        row_l[lumped_index(n, "R", k)] = b[0] * b[k]
    row_l[lumped_index(n, "L", 0)] = b[0] * b[0]

    # From an R-side state: the L scan is forced empty, then the R scan
    # draws K2 ~ Bin(n, 1/2).
    row_r = np.zeros(size)
    row_r[lumped_index(n, "L", 0)] = b[0]
    for k in range(1, n + 1):
        row_r[lumped_index(n, "R", k)] = b[k]

    for k in range(n + 1):
        matrix[lumped_index(n, "L", k)] = row_l
    for k in range(1, n + 1):
        matrix[lumped_index(n, "R", k)] = row_r
    return make_kernel(matrix, UNIT_EPOCH, f"P_AS_lumped:{n}")
