"""Operator norms in L2(pi), spectral gaps, and relaxation times.

Every quantity is computed through the similarity transform
D^{1/2} M D^{-1/2} with D = diag(pi), under which reversible kernels and
multiplicative reversibilizations become exactly symmetric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    Kernel,
    NumericalError,
    StateSpace,
    is_ergodic,
    is_reversible,
    reversibilization,
)
from .model import BipartiteModel
from . import chain

_SYMMETRY_TOL = 1e-9
# Largest kernel whose sparse eigenproblem goes to the dense solver, which
# beats ARPACK up to 128 states and loses to it from 256 on most models (README).
_DENSE_EIGEN_MAX = 128


class SpectralError(ValueError):
    pass


class NonErgodicError(SpectralError):
    pass


@dataclass(frozen=True)
class SpectralReport:
    gap: float
    second_largest_modulus: float
    relaxation_time: float
    reversible: bool
    method: str


def _conjugate(matrix: np.ndarray, pi: np.ndarray) -> np.ndarray:
    sqrt_pi = np.sqrt(pi)
    return (sqrt_pi[:, None] * matrix) / sqrt_pi[None, :]


def deviation_norm(kernel: Kernel, space: StateSpace) -> float:
    """L2(pi) norm of P - S_pi for a pi-symmetric kernel.

    Equals the second largest eigenvalue modulus of an ergodic
    reversible P. Raises if the conjugated matrix is not symmetric.
    """
    m = _conjugate(kernel.matrix - space.pi[None, :], space.pi)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > _SYMMETRY_TOL:
        raise NumericalError(
            f"kernel not symmetric after conjugation: asymmetry {asym}"
        )
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(np.max(np.abs(eigs)))


def relaxation_time(kernel: Kernel, space: StateSpace) -> SpectralReport:
    """Relaxation time, through the reversibilization when needed.

    For a reversible kernel the report carries its own gap and the
    inverse-gap relaxation time. For a non-reversible kernel the gap
    field is the gap of R(P) = P P* and the relaxation time is
    1 / (1 - sqrt(1 - gap(R))).
    """
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    if is_reversible(kernel, space):
        slm = deviation_norm(kernel, space)
        gap = 1.0 - slm
        if gap <= 0.0:
            raise NonErgodicError(
                f"kernel {kernel.label} has zero spectral gap"
            )
        return SpectralReport(
            gap=gap,
            second_largest_modulus=slm,
            relaxation_time=1.0 / gap,
            reversible=True,
            method="reversible_inverse_gap",
        )
    rev = reversibilization(kernel, space)
    slm = deviation_norm(rev, space)
    gap_r = 1.0 - slm
    if gap_r <= 0.0:
        raise NonErgodicError(
            f"reversibilization of {kernel.label} has zero spectral gap"
        )
    t_rel = 1.0 / (1.0 - np.sqrt(max(slm, 0.0)))
    return SpectralReport(
        gap=gap_r,
        second_largest_modulus=slm,
        relaxation_time=float(t_rel),
        reversible=False,
        method="multiplicative_reversibilization",
    )


def check_scan_ergodic(table: chain.JointTable) -> None:
    """The scan is ergodic iff the bipartite support graph of J is connected.

    Sweeps from row 0 mark the columns a marked row reaches, then the rows
    a marked column reaches, until no row is added; all must be marked.
    """
    support = table.joint > 0.0
    rows, marked = np.arange(support.shape[0]) == 0, 0
    while np.count_nonzero(rows) > marked:
        marked = np.count_nonzero(rows)
        cols = support.any(axis=0, where=rows[:, None])
        rows = rows | support.any(axis=1, where=cols)
    if not (rows.all() and cols.all()):
        raise NonErgodicError("alternating scan is not ergodic")


def scan_correlation(table: chain.JointTable) -> float:
    """Maximal correlation rho of (x1, x2) under pi.

    One alternating-scan epoch is the product of the two conditional
    expectations E[. | x2] and E[. | x1], so ||P_AS - S_pi|| = rho and
    ||R(P_AS) - S_pi|| = rho^2, where rho is the second singular value of
    D1^{-1/2} J D2^{-1/2} (Liu, Wong & Kong 1994).
    """
    check_scan_ergodic(table)
    # Scaled one side at a time: sqrt(p1 p2) can underflow to 0 where
    # each marginal alone does not.
    normalized = table.joint / np.sqrt(table.p1)[:, None] / np.sqrt(table.p2)[None, :]
    # J is S^n1 x S^n2 with S >= 2 and n1, n2 >= 1: at least two singular values.
    rho = float(np.linalg.svd(normalized, compute_uv=False)[1])
    if rho >= 1.0:
        raise NonErgodicError("alternating scan has zero spectral gap")
    return rho


def scan_report(table: chain.JointTable) -> SpectralReport:
    """Spectral report of one alternating-scan epoch, from rho alone.

    The scan is not reversible, so the gap is that of R(P_AS), whose
    deviation norm is rho^2, and the relaxation time is
    1 / (1 - sqrt(rho^2)) = 1 / (1 - rho). P_AS = E[. | x2] E[. | x1] is
    reversible exactly when the two projections commute, which on a
    connected support means P_AS = S_pi, i.e. rho = 0. The SVD finds a
    zero rho to within max(|X1|, |X2|) machine epsilons (README).
    """
    rho = scan_correlation(table)
    rounding = max(table.joint.shape) * np.finfo(float).eps
    return SpectralReport(
        gap=1.0 - rho ** 2,
        second_largest_modulus=rho ** 2,
        relaxation_time=1.0 / (1.0 - rho),
        reversible=bool(rho <= rounding),
        method="maximal_correlation",
    )


def random_update_symmetric(model: BipartiteModel, space: StateSpace, lazy: bool = True):
    """S = D^{1/2} P_RU D^{-1/2} of the random-update kernel, a CSR array built from pi.

    Resampling variable x is the pi-orthogonal projection onto functions
    not depending on x (Liu, Wong & Kong 1995). With r = sqrt(pi) and
    Z_x(c) = sum_s pi(c^{x=s}), the pi-mass of the fiber of c along x,

        S(c, c^{x=s}) = r(c) r(c^{x=s}) / (n Z_x(c))    (c^{x=s} != c)
        S(c, c)       = (1/n) sum_x pi(c) / Z_x(c),

    at most n(S-1)+1 entries a row. An off-diagonal entry is formed as
    q(c) q(c') / n with q = r / sqrt(Z_x), which stays in the normal
    range where pi is subnormal and r(c) r(c') may not. Z_x is the same
    float at every cell of a fiber and the product commutes, so S is
    symmetric to the bit. The lazy form 0.5 I + 0.5 S is mixed on the data array, as every diagonal
    entry is stored. The row sums of P are (S r) / r and get the checks
    of make_kernel. A zero in pi raises NonErgodicError before any
    division; where pi > 0, S is irreducible and aperiodic (README,
    "Random-update spectrum"), so no graph search follows.
    """
    pi = space.pi
    if not pi.all():
        raise NonErgodicError("kernel is not ergodic: pi vanishes at a state")
    N, S, n = space.size, space.domain_size, model.n
    r = np.sqrt(pi)
    states = np.arange(N)
    rows, cols, values = [], [], []
    diagonal = np.zeros(N)
    for x in range(n):
        stride = S ** (n - 1 - x)
        base = space.keys - space.configs[:, x].astype(np.int64) * stride
        fiber = space.position[base[:, None] + stride * np.arange(S)]
        mass = np.where(fiber >= 0, pi[fiber], 0.0).sum(axis=1)
        diagonal += pi / mass
        root = r / np.sqrt(mass)
        c, s = np.nonzero((fiber >= 0) & (fiber != states[:, None]))
        rows.append(c)
        cols.append(fiber[c, s])
        values.append(root[c] * root[fiber[c, s]] / n)
    rows.append(states)
    cols.append(states)
    values.append(diagonal / n)
    # Imported here: only the paths that build a sparse matrix load
    # scipy.sparse, so `import scangibbs` loads no scipy.
    import scipy.sparse as sp

    symmetric = sp.csr_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    )
    symmetric.sum_duplicates()
    if lazy:
        symmetric.data *= 0.5
        symmetric.data[symmetric.indices == np.repeat(states, np.diff(symmetric.indptr))] += 0.5
    chain._check_stochastic(symmetric.data.min(), (symmetric @ r) / r)
    return symmetric


def sparse_deviation_norm(symmetric, space: StateSpace) -> float:
    """L2(pi) norm of P - S_pi for a sparse pi-reversible kernel P.

    It is the largest |eigenvalue| of symmetric = D^{1/2} P D^{-1/2}
    (random_update_symmetric) deflated by sqrt(pi) sqrt(pi)^T. Up to
    _DENSE_EIGEN_MAX states that goes to a dense eigensolver; above it
    ARPACK finds both ends of its spectrum from a fixed start vector, so
    results repeat exactly, and again on the spectrum shifted by 1 if
    that does not converge.
    """
    sqrt_pi = np.sqrt(space.pi)
    N = space.size
    if N <= _DENSE_EIGEN_MAX:
        eigs = np.linalg.eigvalsh(symmetric.toarray() - np.outer(sqrt_pi, sqrt_pi))
        return float(np.max(np.abs(eigs)))
    # Imported here: scipy.sparse.linalg loads scipy.linalg, which only ARPACK needs.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    def deflated(v):
        return symmetric @ v - sqrt_pi * (sqrt_pi @ v)

    v0 = np.random.default_rng(0).uniform(0.5, 1.5, N)
    # An end of the spectrum at a cluster of zeros, as in many non-lazy
    # kernels, never meets ARPACK's relative tolerance; shifted by 1 it does.
    for shift, matvec in ((0.0, deflated), (1.0, lambda v: deflated(v) + v)):
        operator = LinearOperator((N, N), matvec=matvec, dtype=float)
        try:
            eigs = eigsh(operator, k=2, which="BE", v0=v0, tol=0.0, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            failure = exc
            continue
        return float(np.max(np.abs(eigs - shift)))
    raise NumericalError(f"ARPACK did not converge: {failure}") from failure


def random_update_report(symmetric, space: StateSpace) -> SpectralReport:
    """Spectral report of the reversible random-update kernel, from its symmetric form."""
    slem = sparse_deviation_norm(symmetric, space)
    if slem >= 1.0:
        raise NonErgodicError("random-update kernel has zero spectral gap")
    return SpectralReport(
        gap=1.0 - slem,
        second_largest_modulus=slem,
        relaxation_time=1.0 / (1.0 - slem),
        reversible=True,
        method="reversible_inverse_gap",
    )


def verify_theorem1(
    model: BipartiteModel, cap: int = chain.DEFAULT_CAP, lazy: bool = True
) -> dict:
    """Compare scan and random-update relaxation times on one instance.

    Also reports the intermediate contraction bound
    ||R(P_AS) - S_pi|| <= ||P_RU - S_pi||^2: lhs = rho^2 from scan_report,
    rhs = SLEM^2 from random_update_report.
    """
    space = chain.enumerate_state_space(model, cap=cap)
    ru = random_update_report(random_update_symmetric(model, space, lazy), space)
    scan = scan_report(chain.joint_table(model, space))
    lhs = scan.second_largest_modulus
    rhs = ru.second_largest_modulus ** 2
    return {
        "t_rel_as": scan.relaxation_time,
        "t_rel_ru": ru.relaxation_time,
        "holds": bool(scan.relaxation_time <= ru.relaxation_time + 1e-9),
        "contraction_lhs": lhs,
        "contraction_rhs": rhs,
        "contraction_holds": bool(lhs <= rhs + 1e-10),
    }
