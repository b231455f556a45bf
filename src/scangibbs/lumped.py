"""Symmetry-reduced chains for the hardcore model on K_{n,n}.

The full state space (independent sets of the complete bipartite graph)
collapses under vertex permutations to 2n+1 states: an occupied count on
one side or the other, with the shared empty set stored as side L, count
0. The states come in the order (L,0)..(L,n), then (R,1)..(R,n). This
makes exact spectral and mixing computation feasible up to n around 50.
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

# pi(L,0) = 1/(2^(n+1) - 1) is a normal float64 exactly when n <= 1021; at
# n = 1022 it is below 2^-1022 and subnormal.
N_MAX = 1021


class LumpingError(ValueError):
    pass


def _check_n(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise LumpingError(f"n must be between 1 and {N_MAX}, got {n}")


def lumped_state_space(n: int) -> StateSpace:
    """2n+1 lumped states with pi(side, k) = C(n,k) / (2*2^n - 1)."""
    _check_n(n)
    total = 2 * 2 ** n - 1
    by_count = np.array([float(Fraction(math.comb(n, k), total)) for k in range(n + 1)])
    counts = np.r_[0:n + 1, 1:n + 1]
    sides = np.repeat([0, 1], [n + 1, n])
    return StateSpace(
        configs=np.column_stack([sides, counts]).astype(np.int64),
        pi=by_count[counts],
        domain_size=n + 1,
    )


def lumped_ru_kernel(n: int, lazy: bool = True) -> Kernel:
    """Quotient of the random-update kernel under the side symmetry.

    Counts: picking one of the k occupied vertices on the active side
    frees it with probability 1/2; picking one of the n-k unoccupied
    ones occupies it with probability 1/2; picking an opposite-side
    vertex is a forced no-op unless the set is empty.
    """
    _check_n(n)
    size = 2 * n + 1
    k = np.arange(1, n + 1)
    down = k / (4.0 * n)
    up = (n - k) / (4.0 * n)
    matrix = np.zeros((size, size))
    # The birth-death arm of each side, rows (L,1..n) and (R,1..n); both
    # count-1 states fall to the empty state (L,0).
    for arm in (k, n + k):
        matrix[arm, np.where(k == 1, 0, arm - 1)] = down
        matrix[arm[:-1], arm[1:]] = up[:-1]
        matrix[arm, arm] = 1.0 - down - up
    matrix[0, [0, 1, n + 1]] = 0.5, 0.25, 0.25
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
    _check_n(n)
    # The Boost ufunc that scipy.stats.binom.pmf calls: the same bits, which
    # the golden lumped values pin, without importing scipy.stats. Imported
    # here so that only this kernel loads scipy.special.
    from scipy.special._ufuncs import _binom_pmf

    b = _binom_pmf(np.arange(n + 1), n, 0.5)
    # From any L-side state (including empty): the L scan draws
    # K1 ~ Bin(n, 1/2); K1 = 0 frees the R scan to draw again.
    row_l = np.r_[b[0] * b[0], b[1:], b[0] * b[1:]]
    # From an R-side state: the L scan is forced empty, then the R scan
    # draws K2 ~ Bin(n, 1/2).
    row_r = np.r_[b[0], np.zeros(n), b[1:]]
    matrix = np.repeat([row_l, row_r], [n + 1, n], axis=0)
    return make_kernel(matrix, UNIT_EPOCH, f"P_AS_lumped:{n}")
