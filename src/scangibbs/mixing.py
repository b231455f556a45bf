"""Exact total-variation mixing times and mixing-bound verification.

Worst-start TV distance to pi is non-increasing in t (TV contracts under
any stochastic map), which the doubling search exploits; the sequential
powering path follows the definition step by step and is the reference.
So is each start's own TV distance, which lets the verifier's search
drop the starts that have mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import chain
from .chain import Kernel, StateSpace, is_ergodic
from .model import BipartiteModel
from .spectral import (
    NonErgodicError,
    deviation_norm,
    random_update_slem,
    scan_correlation,
)

DEFAULT_THRESHOLD = 1.0 / (2.0 * math.e)
DEFAULT_T_MAX = 10 ** 6


class MixingError(ValueError):
    pass


@dataclass(frozen=True)
class MixingReport:
    mixing_time: int | None
    threshold: float
    tv_curve: tuple
    truncated: bool
    unit: str


def tv_distance(mu, nu) -> float:
    """Half the L1 distance between two distributions."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise MixingError(f"length mismatch: {mu.shape} vs {nu.shape}")
    for name, v in (("mu", mu), ("nu", nu)):
        if abs(v.sum() - 1.0) > 1e-9:
            raise MixingError(f"{name} is not normalized: sum {v.sum()}")
    return 0.5 * float(np.abs(mu - nu).sum())


def _abs_deviation(rows: np.ndarray, pi: np.ndarray, out=None) -> np.ndarray:
    """Row sums of |rows - pi|, twice each row's TV distance to pi.

    out receives |rows - pi|; it may be rows itself when rows is a fresh
    product, and with out=None a temporary is allocated.
    """
    out = np.subtract(rows, pi, out=out)
    return np.abs(out, out=out).sum(axis=1)


def _worst_tv(power: np.ndarray, pi: np.ndarray, out=None) -> float:
    return 0.5 * float(np.max(_abs_deviation(power, pi, out)))


def _renormalize(matrix: np.ndarray) -> np.ndarray:
    """Clamp negatives and renormalize rows, in place on a fresh product."""
    np.maximum(matrix, 0.0, out=matrix)
    matrix /= matrix.sum(axis=1)[:, None]
    return matrix


def exact_mixing_time(
    kernel: Kernel,
    space: StateSpace,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
    method: str = "iterate",
) -> MixingReport:
    """Least t with worst-start TV distance to pi at most the threshold.

    method="iterate" multiplies the kernel step by step; "doubling"
    brackets the mixing time with repeated squaring and then bisects,
    which is exact because worst-start TV is non-increasing in t.
    """
    if t_max < 1:
        raise MixingError("t_max must be at least 1")
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    if method == "iterate":
        return _mixing_time_iterate(kernel, space, threshold, t_max)
    if method == "doubling":
        return _mixing_time_doubling(kernel, space, threshold, t_max)
    raise MixingError(f"unknown method {method!r}")


def _mixing_time_iterate(kernel, space, threshold, t_max) -> MixingReport:
    pi = space.pi
    curve = [(0, 1.0 - float(pi.min()))]
    if curve[0][1] <= threshold:
        return MixingReport(0, threshold, tuple(curve), False, kernel.unit)
    power = kernel.matrix.copy()
    scratch = np.empty_like(power)
    for t in range(1, t_max + 1):
        worst = _worst_tv(power, pi, scratch)
        curve.append((t, worst))
        if worst <= threshold:
            return MixingReport(t, threshold, tuple(curve), False, kernel.unit)
        power = _renormalize(power @ kernel.matrix)
    return MixingReport(None, threshold, tuple(curve), True, kernel.unit)


def matrix_power(kernel: Kernel, t: int) -> np.ndarray:
    """Kernel power by binary exponentiation with row renormalization."""
    if t < 0:
        raise MixingError("negative power")
    result = np.eye(kernel.size)
    base = kernel.matrix.copy()
    while t:
        if t & 1:
            result = _renormalize(result @ base)
        t >>= 1
        if t:
            base = _renormalize(base @ base)
    return result


def _mixing_time_doubling(kernel, space, threshold, t_max) -> MixingReport:
    pi = space.pi
    scratch = np.empty_like(kernel.matrix)
    return _doubling_search(
        kernel.matrix, lambda power: _worst_tv(power, pi, scratch),
        {0: 1.0 - float(pi.min())}, threshold, t_max, kernel.unit,
    )


def _doubling_search(step, readout, curve, threshold, t_max, unit) -> MixingReport:
    """Least t whose worst-start TV is at most the threshold.

    curve holds the TV at t = 0..t0, all above the threshold except
    perhaps the last; beyond t0 the TV at t is readout(step^(t - t0)).
    Squared powers of step bracket the answer, then bisection finds it.
    """
    t0 = max(curve)

    def report(mixing_time, truncated):
        tv_curve = tuple(sorted(curve.items()))
        return MixingReport(mixing_time, threshold, tv_curve, truncated, unit)

    if curve[t0] <= threshold:
        return report(t0, False)
    if t0 >= t_max:
        return report(None, True)

    # Bracket with squared powers; squares[k] = step^(2^k).
    squares = [step.copy()]
    s = 1
    curve[t0 + 1] = readout(squares[0])
    while curve[t0 + s] > threshold:
        if t0 + s >= t_max:
            return report(None, True)
        squares.append(_renormalize(squares[-1] @ squares[-1]))
        s *= 2
        curve[t0 + s] = readout(squares[-1])
    if s == 1:
        return report(t0 + 1, False)

    def power_of(steps):
        result = None
        k = 0
        while steps:
            if steps & 1:
                block = squares[k]
                result = block if result is None else _renormalize(result @ block)
            steps >>= 1
            k += 1
        return result

    lo, hi = s // 2, s  # TV above threshold at t0 + lo, at or below at t0 + hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        curve[t0 + mid] = readout(power_of(mid))
        if curve[t0 + mid] <= threshold:
            hi = mid
        else:
            lo = mid
    if t0 + hi > t_max:
        return report(None, True)
    return report(t0 + hi, False)


def scan_mixing_time(
    table: chain.JointTable,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
) -> MixingReport:
    """Mixing time of the alternating scan, in epochs, on the x1 chain.

    One epoch draws x1 from pi(. | x2) and then x2 from pi(. | x1), so
    P_AS^t(x, .) depends on x only through x2, and for t >= 1 it is
    q(y1) pi(y2 | y1) with q = (A L^(t-1))[x2], where A[x2] = pi(. | x2),
    B[x1] = pi(. | x1) and L = B A is the |X1| x |X1| chain of x1. Since
    pi(y1, y2) = p1(y1) pi(y2 | y1),

        TV(P_AS^t(x, .), pi) = TV(q, p1),

    so the worst start at t >= 1 is the worst row of A L^(t-1) against
    p1; at t = 0 it is 1 - pi_min, as for any kernel. The search is the
    doubling search of exact_mixing_time with that readout.
    """
    if t_max < 1:
        raise MixingError("t_max must be at least 1")
    p1, a = table.p1, table.cond1
    curve = {0: 1.0 - float(table.joint[table.joint > 0.0].min())}
    if curve[0] > threshold:
        curve[1] = _worst_tv(a, p1)

    def readout(power):
        rows = a @ power
        return _worst_tv(rows, p1, rows)

    return _doubling_search(
        table.cond2 @ a, readout, curve, threshold, t_max, chain.UNIT_EPOCH,
    )


def active_start_mixing_time(
    kernel: Kernel,
    space: StateSpace,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
) -> int | None:
    """Worst-start mixing time, searched on the starts not yet mixed.

    It is the mixing time of exact_mixing_time(method="doubling"), or
    None where that report is truncated at t_max, up to rounding. Each
    start's distance d_x(t) = TV(P^t(x, .), pi) is non-increasing in t:
    d_x(t + 1) is half the L1 norm of (P^t(x, .) - pi) P, and P does
    not increase the L1 norm of a signed measure. So a start with
    d_x(t) <= threshold has mixed for good and can be dropped. Squaring
    forms the rows of starts still above the threshold first and the
    settled rows only if the bracket is still open; the bisection then
    lifts the remaining rows by the stored squares, largest first.
    """
    if t_max < 1:
        raise MixingError("t_max must be at least 1")
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    pi = space.pi
    if 1.0 - float(pi.min()) <= threshold:
        return 0
    scratch = np.empty_like(kernel.matrix)

    def above(rows):
        return 0.5 * _abs_deviation(rows, pi, scratch[: len(rows)]) > threshold

    active = np.flatnonzero(above(kernel.matrix))
    if not active.size:
        return 1
    # squares[k] = P^(2^k); active holds the starts above the threshold at s.
    squares = [kernel.matrix]
    s = 1
    while True:
        if s >= t_max:
            return None
        square = squares[-1]
        partial = active.size < len(square)
        block = _renormalize((square[active] if partial else square) @ square)
        still = above(block)
        s *= 2
        if not still.any():
            break
        if partial:
            settled = np.ones(len(square), dtype=bool)
            settled[active] = False
            full = np.empty_like(square)
            full[active] = block
            full[settled] = _renormalize(square[settled] @ square)
            block = full
        squares.append(block)
        active = active[still]

    # Each active start is above the threshold at s/2 and at or below it
    # at s; lift t = s/2 while some start stays above at t + 2^k.
    rows, t = squares[-1][active], s // 2
    for k in range(len(squares) - 2, -1, -1):
        lifted = _renormalize(rows @ squares[k])
        still = above(lifted)
        if still.any():
            rows, t = lifted[still], t + 2 ** k
    return t + 1 if t + 1 <= t_max else None


def rational_ru_kernel(
    model: BipartiteModel, space: StateSpace, lazy: bool = True
) -> list[list[Fraction]]:
    """Exact random-update kernel for models with all-zero soft factors.

    With a uniform stationary distribution every conditional probability
    is a ratio of support counts, so the kernel is rational.
    """
    for (u, v, table) in model.edges:
        if np.any(np.asarray(table) != 0.0):
            raise MixingError("rational kernel requires all-zero factor tables")
    if np.any(model.unaries != 0.0):
        raise MixingError("rational kernel requires all-zero unary tables")
    N, n = space.size, space.n_variables
    S = space.domain_size
    matrix = [[Fraction(0) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        config = space.configs[i].copy()
        for x in range(n):
            targets = []
            for s in range(S):
                flipped = config.copy()
                flipped[x] = s
                try:
                    targets.append(space.index_of(flipped))
                except chain.ChainError:
                    pass
            share = Fraction(1, n * len(targets))
            for j in targets:
                matrix[i][j] += share
    if lazy:
        for i in range(N):
            for j in range(N):
                matrix[i][j] = matrix[i][j] / 2
            matrix[i][i] += Fraction(1, 2)
    return matrix


def rational_mixing_time(
    matrix: list[list[Fraction]],
    pi: list[Fraction],
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = 10 ** 4,
) -> int:
    """Mixing time by exact rational powering; intended for tiny chains."""
    N = len(matrix)

    def worst_tv(power):
        worst = Fraction(0)
        for row in power:
            tv = sum(abs(p - q) for p, q in zip(row, pi)) / 2
            worst = max(worst, tv)
        return worst

    identity = [
        [Fraction(1) if i == j else Fraction(0) for j in range(N)] for i in range(N)
    ]
    if worst_tv(identity) <= threshold:
        return 0
    power = [row[:] for row in matrix]
    for t in range(1, t_max + 1):
        if worst_tv(power) <= threshold:
            return t
        power = [
            [
                sum(power[i][k] * matrix[k][j] for k in range(N))
                for j in range(N)
            ]
            for i in range(N)
        ]
    raise MixingError(f"rational powering did not mix within {t_max} steps")


def verify_mixing_bounds(
    model: BipartiteModel,
    cap: int = 1024,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
    lazy: bool = True,
) -> dict:
    """Check the relaxation/mixing sandwich and the scan mixing bounds.

    (a) T_rel(RU) - 1 <= T_mix(RU) <= T_rel(RU) log(2e / pi_min)
    (b) T_mix(AS) <= log(4e^2 / pi_min) T_rel(AS)
    (c) T_mix(AS) <= log(4e^2 / pi_min) (T_mix(RU) + 1)

    Only T_mix(RU) needs the dense kernel, searched on the starts not
    yet mixed (active_start_mixing_time); the scan side runs on the
    joint table (scan_correlation, scan_mixing_time) and T_rel(RU) on
    the sparse kernel (random_update_slem).
    """
    space = chain.enumerate_state_space(model, cap=cap)
    table = chain.joint_table(model, space)
    pi_min = float(space.pi.min())

    t_rel_ru = 1.0 / (1.0 - random_update_slem(model, space, lazy))
    t_rel_as = 1.0 / (1.0 - scan_correlation(table))
    p_ru = chain.random_update_kernel(model, space, lazy=lazy)
    t_mix_ru = active_start_mixing_time(p_ru, space, threshold, t_max)
    mix_as = scan_mixing_time(table, threshold, t_max)
    if t_mix_ru is None or mix_as.truncated:
        raise MixingError("mixing-time computation truncated; raise t_max")
    t_mix_as = mix_as.mixing_time

    log_2e = math.log(2.0 * math.e / pi_min)
    log_4e2 = math.log(4.0 * math.e ** 2 / pi_min)
    sandwich = (t_rel_ru - 1.0 <= t_mix_ru) and (t_mix_ru <= t_rel_ru * log_2e)
    scan_bound = t_mix_as <= log_4e2 * t_rel_as
    cross_bound = t_mix_as <= log_4e2 * (t_mix_ru + 1)
    return {
        "pi_min": pi_min,
        "t_rel_ru": t_rel_ru,
        "t_rel_as": t_rel_as,
        "t_mix_ru": t_mix_ru,
        "t_mix_as": t_mix_as,
        "sandwich_holds": bool(sandwich),
        "scan_bound_holds": bool(scan_bound),
        "cross_bound_holds": bool(cross_bound),
        "all_hold": bool(sandwich and scan_bound and cross_bound),
    }


def verify_fill_inequality(
    kernel: Kernel,
    space: StateSpace,
    t_samples=(1, 2, 4, 8, 16, 32),
    slack: float = 1e-10,
) -> dict:
    """Check TV(P^t(s,.), pi)^2 <= (1 - gap(R(P)))^t / pi(s) at sampled t."""
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    rev = chain.reversibilization(kernel, space)
    contraction = deviation_norm(rev, space)  # equals 1 - gap(R(P))
    pi = space.pi
    results = {}
    holds = True
    for t in t_samples:
        power = matrix_power(kernel, int(t))
        tv = 0.5 * np.abs(power - pi[None, :]).sum(axis=1)
        margin = contraction ** t / pi + slack - tv ** 2
        worst = float(margin.min())
        results[int(t)] = worst
        holds = holds and worst >= 0.0
    return {"holds": bool(holds), "worst_margin_by_t": results, "contraction": contraction}
