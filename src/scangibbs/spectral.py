"""Operator norms in L2(pi), spectral gaps, and relaxation times.

Every quantity is computed through the similarity transform
D^{1/2} M D^{-1/2} with D = diag(pi), under which reversible kernels and
multiplicative reversibilizations become exactly symmetric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .chain import (
    Kernel,
    NumericalError,
    StateSpace,
    is_ergodic,
    is_reversible,
    reversibilization,
    stationary_projector,
)
from .model import BipartiteModel
from . import chain

_SYMMETRY_TOL = 1e-9
_REVERSIBILITY_TOL = 1e-10
# Largest kernel whose sparse eigenproblem goes to the dense solver.
_DENSE_EIGEN_MAX = 64


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
    s_pi = stationary_projector(space)
    m = _conjugate(kernel.matrix - s_pi.matrix, space.pi)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > _SYMMETRY_TOL:
        raise NumericalError(
            f"kernel not symmetric after conjugation: asymmetry {asym}"
        )
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(np.max(np.abs(eigs)))


def general_operator_norm(operator, space: StateSpace) -> float:
    """L2(pi) operator norm (largest singular value); no symmetry needed."""
    matrix = operator.matrix if isinstance(operator, Kernel) else np.asarray(operator)
    m = _conjugate(matrix, space.pi)
    gram = m.T @ m
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return float(np.sqrt(max(eigs.max(), 0.0)))


def relaxation_time(kernel: Kernel, space: StateSpace) -> SpectralReport:
    """Relaxation time, through the reversibilization when needed.

    For a reversible kernel the report carries its own gap and the
    inverse-gap relaxation time. For a non-reversible kernel the gap
    field is the gap of R(P) = P P* and the relaxation time is
    1 / (1 - sqrt(1 - gap(R))).
    """
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    if is_reversible(kernel, space, tol=_REVERSIBILITY_TOL):
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


def scan_correlation(table: chain.JointTable) -> float:
    """Maximal correlation rho of (x1, x2) under pi.

    One alternating-scan epoch is the product of the two conditional
    expectations E[. | x2] and E[. | x1], so ||P_AS - S_pi|| = rho and
    ||R(P_AS) - S_pi|| = rho^2, where rho is the second singular value of
    D1^{-1/2} J D2^{-1/2} (Liu, Wong & Kong 1994). The scan is ergodic
    exactly when the bipartite support graph of J is connected.
    """
    support = sp.csr_array(table.joint > 0.0)
    graph = sp.bmat([[None, support], [support.T, None]])
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp != 1:
        raise NonErgodicError("alternating scan is not ergodic")
    normalized = table.joint / np.sqrt(np.outer(table.p1, table.p2))
    sigma = np.linalg.svd(normalized, compute_uv=False)
    rho = float(sigma[1]) if sigma.size > 1 else 0.0
    if rho >= 1.0:
        raise NonErgodicError("alternating scan has zero spectral gap")
    return rho


def sparse_deviation_norm(matrix: sp.csr_array, space: StateSpace) -> float:
    """L2(pi) norm of P - S_pi for a sparse pi-reversible kernel P.

    Checks detailed balance, the symmetry of D^{1/2} P D^{-1/2} and
    irreducibility first. Up to _DENSE_EIGEN_MAX states the deflated
    matrix goes to a dense eigensolver; above it ARPACK finds both ends
    of its spectrum from a fixed start vector, so results repeat exactly.
    """
    pi = space.pi
    flux = matrix.multiply(pi[:, None])
    violation = abs(flux - flux.T).max()
    if violation > _REVERSIBILITY_TOL:
        raise NumericalError(f"kernel violates detailed balance by {violation}")
    sqrt_pi = np.sqrt(pi)
    m = sp.csr_array(matrix.multiply(sqrt_pi[:, None]).multiply(1.0 / sqrt_pi[None, :]))
    asym = abs(m - m.T).max()
    if asym > _SYMMETRY_TOL:
        raise NumericalError(
            f"kernel not symmetric after conjugation: asymmetry {asym}"
        )
    n_comp, _ = connected_components(matrix, directed=True, connection="strong")
    if n_comp != 1 or not np.any(matrix.diagonal() > 0.0):
        raise NonErgodicError("kernel is not ergodic")
    m = 0.5 * (m + m.T)
    N = space.size
    if N <= _DENSE_EIGEN_MAX:
        eigs = np.linalg.eigvalsh(m.toarray() - np.outer(sqrt_pi, sqrt_pi))
        return float(np.max(np.abs(eigs)))
    deflated = LinearOperator(
        (N, N), matvec=lambda v: m @ v - sqrt_pi * (sqrt_pi @ v), dtype=float
    )
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, N)
    try:
        eigs = eigsh(deflated, k=2, which="BE", v0=v0, tol=0.0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalError(f"ARPACK did not converge: {exc}") from exc
    return float(np.max(np.abs(eigs)))


def random_update_slem(model: BipartiteModel, space: StateSpace, lazy: bool = True) -> float:
    """Second largest eigenvalue modulus of P_RU, from its sparse form."""
    slem = sparse_deviation_norm(chain.random_update_sparse(model, space, lazy), space)
    if slem >= 1.0:
        raise NonErgodicError("random-update kernel has zero spectral gap")
    return slem


def verify_theorem1(
    model: BipartiteModel, cap: int = chain.DEFAULT_CAP, lazy: bool = True
) -> dict:
    """Compare scan and random-update relaxation times on one instance.

    Also reports the intermediate contraction bound
    ||R(P_AS) - S_pi|| <= ||P_RU - S_pi||^2. The scan side comes from
    the maximal correlation rho (t_rel = 1 / (1 - rho), lhs = rho^2), the
    random-update side from the sparse kernel (t_rel = 1 / (1 - SLEM),
    rhs = SLEM^2); see scan_correlation and sparse_deviation_norm.
    """
    space = chain.enumerate_state_space(model, cap=cap)
    table = chain.joint_table(model, space)
    slem = random_update_slem(model, space, lazy)
    rho = scan_correlation(table)
    t_rel_as = 1.0 / (1.0 - rho)
    t_rel_ru = 1.0 / (1.0 - slem)
    return {
        "t_rel_as": t_rel_as,
        "t_rel_ru": t_rel_ru,
        "holds": bool(t_rel_as <= t_rel_ru + 1e-9),
        "contraction_lhs": rho ** 2,
        "contraction_rhs": slem ** 2,
        "contraction_holds": bool(rho ** 2 <= slem ** 2 + 1e-10),
    }
