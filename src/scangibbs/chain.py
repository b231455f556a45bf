"""State-space enumeration, dense kernel operations and the joint table.

Dense kernels are row-stochastic float64 matrices tagged with the time
unit one application of the matrix represents: a single variable update,
a full epoch, or a composite operator. The alternating scan is analysed
on the joint table of the two partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import _ENUMERATION_LIMIT, BipartiteModel, ModelError

UNIT_VARIABLE = "variable_update"
UNIT_EPOCH = "epoch"
UNIT_COMPOSITE = "composite"

DEFAULT_CAP = 4096

_ROW_SUM_TOL = 1e-12
_NEGATIVE_TOL = 1e-15
# Bounds both the stationarity defect and the detailed-balance violation.
_STATIONARITY_TOL = 1e-10


class ChainError(ValueError):
    pass


class StateSpaceCapError(ChainError):
    pass


class StationarityError(ChainError):
    pass


class NumericalError(ChainError):
    pass


@dataclass(frozen=True)
class StateSpace:
    """All positive-weight configurations, lexicographically ordered."""

    configs: np.ndarray  # (N, n) integer assignments
    pi: np.ndarray       # (N,) stationary probabilities
    domain_size: int

    @property
    def size(self) -> int:
        return self.configs.shape[0]

    @property
    def n_variables(self) -> int:
        return self.configs.shape[1]

    @cached_property
    def keys(self) -> np.ndarray:
        """Grid positions in (S,) * n; ascending, as configs are lexicographic."""
        return np.ravel_multi_index(self.configs.T, (self.domain_size,) * self.n_variables)

    @cached_property
    def position(self) -> np.ndarray:
        """Row of each grid cell, -1 off the support."""
        position = np.full(self.domain_size ** self.n_variables, -1, dtype=np.int64)
        position[self.keys] = np.arange(self.size)
        return position


@dataclass(frozen=True)
class Kernel:
    matrix: np.ndarray
    unit: str
    label: str

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _check_stochastic(low: float, sums: np.ndarray) -> None:
    """Raise if the least entry is below -_NEGATIVE_TOL or a row sum is off 1.

    Each comparison is written so that a NaN fails it.
    """
    if not low >= -_NEGATIVE_TOL:
        raise NumericalError(f"kernel entry {low} below the negative tolerance")
    drift = float(np.max(np.abs(sums - 1.0)))
    if not drift <= _ROW_SUM_TOL:
        raise NumericalError(f"row sums deviate from 1 by {drift}")


def _finalize(matrix: np.ndarray) -> np.ndarray:
    """Clamp tiny negatives and renormalize rows; large drift is an error."""
    low = matrix.min()
    matrix = np.maximum(matrix, 0.0)
    sums = matrix.sum(axis=1)
    _check_stochastic(low, sums)
    return matrix / sums[:, None]


def make_kernel(matrix: np.ndarray, unit: str, label: str) -> Kernel:
    return Kernel(_finalize(np.asarray(matrix, dtype=float)), unit, label)


def _check_grid(S: int, n: int) -> None:
    """Refuse a grid of S^n cells above the enumeration limit. S >= 2, so
    a long n is refused without forming S ** n, however large it is."""
    if n >= _ENUMERATION_LIMIT.bit_length() or S ** n > _ENUMERATION_LIMIT:
        raise StateSpaceCapError(
            f"full configuration grid of size {S}^{n} is too large to sweep; "
            "use the lumped module for large symmetric instances"
        )


def enumerate_state_space(model: BipartiteModel, cap: int = DEFAULT_CAP) -> StateSpace:
    """All configurations with positive weight, with normalized pi."""
    n, S = model.n, model.domain_size
    _check_grid(S, n)
    # The support is marked on the grid (S,) * n; a state's key is its
    # position there, so rows come in itertools.product order.
    valid = np.ones((S,) * n, dtype=bool)
    ends = list(zip(model.edge_u.tolist(), model.edge_v.tolist()))
    if model.hard_constraint == "hardcore":
        for u, v in ends:
            cell = [slice(None)] * n
            cell[u] = cell[v] = 1
            valid[tuple(cell)] = False
    # Hardcore clears only cells with both ends of an edge at 1: all-zeros stays.
    keys = np.flatnonzero(valid)
    count = keys.size
    if count > cap:
        raise StateSpaceCapError(f"state space exceeds cap: {count} > {cap}")
    # int8 keeps the largest spaces small; S > 128 needs a wider type, and
    # since n >= 2 the grid limit keeps S within int16. Taking the digits
    # one column at a time never holds n int64 columns at once.
    configs = np.empty((count, n), dtype=np.int8 if S <= 128 else np.int16)
    for j in range(n):
        configs[:, j] = (keys // S ** (n - 1 - j)) % S
    # A fixed order, edges then sites, keeps pi reproducible to the bit.
    # Finite tables can still sum to +-inf (or NaN), which is refused below
    # with a message in place of numpy's warnings.
    h = np.zeros(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (u, v) in enumerate(ends):
            h += model.tables[k, configs[:, u], configs[:, v]]
        for j in range(n):
            h += model.unaries[j][configs[:, j]]
    if not np.isfinite(h).all():
        raise ModelError("the model's Hamiltonian overflows float64")
    weights = np.exp(h - h.max())
    pi = weights / weights.sum()
    return StateSpace(configs=configs, pi=pi, domain_size=S)


@dataclass(frozen=True)
class JointTable:
    """pi as a table over the sub-configurations of the two partitions.

    Rows are all S^n1 partition-one sub-configurations x1 and columns
    all S^n2 partition-two ones x2, both in lexicographic order. Each
    occurs on the support: under hardcore, beside an empty other side.
    cond1[x2] is the law pi(. | x2) of x1 and cond2[x1] the law
    pi(. | x1) of x2 (A and B in the README): the two half-scans of the
    alternating scan.
    """

    joint: np.ndarray   # (|X1|, |X2|)
    p1: np.ndarray      # (|X1|,) marginal of x1
    p2: np.ndarray      # (|X2|,) marginal of x2
    cond1: np.ndarray   # (|X2|, |X1|)
    cond2: np.ndarray   # (|X1|, |X2|)


def joint_table(model: BipartiteModel, space: StateSpace) -> JointTable:
    """Tabulate pi over the (x1, x2) halves of the grid.

    A state's grid position is x1 * S^n2 + x2, so the table is pi placed
    on the grid and reshaped. Given x2 the partition-one variables are
    independent, so one partition's scan draws it exactly from its
    conditional law.
    """
    S = space.domain_size
    joint = np.zeros(S ** model.n)
    joint[space.keys] = space.pi
    joint = joint.reshape(S ** model.n1, S ** model.n2)
    p1 = joint.sum(axis=1)
    p2 = joint.sum(axis=0)
    # Where pi underflows, a whole row or column of J can be 0 and its
    # conditional law 0/0. The scan is then not ergodic, which every scan
    # analysis finds by a sweep over J > 0 (spectral.check_scan_ergodic) first.
    with np.errstate(divide="ignore", invalid="ignore"):
        return JointTable(joint, p1, p2, (joint / p2[None, :]).T, joint / p1[:, None])


def stationarity_defect(kernel: Kernel, space: StateSpace) -> float:
    return float(np.max(np.abs(space.pi @ kernel.matrix - space.pi)))


def _require_stationary(kernel: Kernel, space: StateSpace) -> None:
    defect = stationarity_defect(kernel, space)
    if defect > _STATIONARITY_TOL:
        raise StationarityError(
            f"pi is not stationary for {kernel.label}: defect {defect}"
        )


def adjoint(kernel: Kernel, space: StateSpace) -> Kernel:
    """Time reversal with respect to pi."""
    _require_stationary(kernel, space)
    pi = space.pi
    matrix = (kernel.matrix.T * pi[None, :]) / pi[:, None]
    return make_kernel(matrix, kernel.unit, f"adj({kernel.label})")


def reversibilization(kernel: Kernel, space: StateSpace) -> Kernel:
    """Multiplicative reversibilization P P*."""
    rev = adjoint(kernel, space)
    matrix = kernel.matrix @ rev.matrix
    return make_kernel(matrix, UNIT_COMPOSITE, f"R({kernel.label})")


def detailed_balance_violation(kernel: Kernel, space: StateSpace) -> float:
    flux = space.pi[:, None] * kernel.matrix
    return float(np.max(np.abs(flux - flux.T)))


def is_reversible(kernel: Kernel, space: StateSpace) -> bool:
    return detailed_balance_violation(kernel, space) <= _STATIONARITY_TOL


def _reached_from_zero(support: np.ndarray) -> np.ndarray:
    """States reachable from state 0 along the True entries of support."""
    reached = frontier = np.arange(len(support)) == 0
    while np.count_nonzero(frontier):
        frontier = support[frontier].any(axis=0) > reached
        reached = reached | frontier
    return reached


def is_ergodic(kernel: Kernel) -> bool:
    """Irreducibility via reachability from state 0 along the moves and
    back; aperiodicity via a self-loop. A positive diagonal entry suffices
    for aperiodicity of an irreducible chain, which covers every kernel
    built here; a chain without one is reported as not ergodic.
    """
    support = kernel.matrix > 0.0
    return bool(support.diagonal().any() and _reached_from_zero(support).all()
                and _reached_from_zero(support.T).all())
