"""Exact total-variation mixing times and mixing-bound verification.

Worst-start TV distance to pi is non-increasing in t (TV contracts under
any stochastic map), which the doubling search exploits. So is each
start's own TV distance, which lets the verifier's search drop the
starts that have mixed. The step-by-step search that follows the
definition is a test oracle (iterate_mixing_time in tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import Kernel, StateSpace, is_ergodic
from .model import BipartiteModel
from .spectral import (
    NonErgodicError,
    check_scan_ergodic,
    random_update_report,
    random_update_symmetric,
    scan_correlation,
    scan_report,
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


def _abs_deviation(rows: np.ndarray, pi: np.ndarray, out=None) -> np.ndarray:
    """Row sums of |rows - pi|, twice each row's TV distance to pi.

    out receives |rows - pi|; it may be rows itself when rows is a fresh
    product, and with out=None a temporary is allocated.
    """
    out = np.subtract(rows, pi, out=out)
    return np.abs(out, out=out).sum(axis=1)


def _worst_tv(power: np.ndarray, pi: np.ndarray, out=None) -> float:
    return 0.5 * float(np.max(_abs_deviation(power, pi, out)))


def _check_search(threshold: float, t_max: int) -> None:
    """Reject a threshold outside (0, 1) or a t_max below 1."""
    if not 0.0 < threshold < 1.0:
        raise MixingError(f"threshold must lie in (0, 1), got {threshold}")
    if t_max < 1:
        raise MixingError("t_max must be at least 1")


def _check_nonnegative(*operands: np.ndarray) -> None:
    """Raise NumericalError unless every entry of every operand is >= 0.

    A product of entrywise nonnegative float64 matrices subtracts
    nothing, and rounding a nonnegative sum keeps it nonnegative, so
    checking the operands once stands in for clamping every product.
    NaN fails the comparison and raises too.
    """
    for operand in operands:
        if not np.all(operand >= 0.0):
            raise chain.NumericalError("operand has a negative or NaN entry")


def _renormalized_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with rows renormalized, in place on the product.

    a and b are entrywise nonnegative (_check_nonnegative), and so is a @ b.
    """
    matrix = a @ b
    matrix /= matrix.sum(axis=1)[:, None]
    return matrix


def exact_mixing_time(
    kernel: Kernel,
    space: StateSpace,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
    method: str = "doubling",
) -> MixingReport:
    """Least t with worst-start TV distance to pi at most the threshold.

    Squared powers of the kernel bracket the mixing time and bisection
    finds it (_doubling_search), which is exact because worst-start TV
    is non-increasing in t. "doubling" is the only method; any other
    raises MixingError.
    """
    _check_search(threshold, t_max)
    _check_nonnegative(kernel.matrix)
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    if method != "doubling":
        raise MixingError(f"unknown method {method!r}")
    scratch = np.empty_like(kernel.matrix)
    return _doubling_search(
        kernel.matrix, lambda power: _worst_tv(power, space.pi, scratch),
        {0: 1.0 - float(space.pi.min())}, threshold, t_max, kernel.unit,
        _renormalized_product,
    )


def _doubling_search(step, readout, curve, threshold, t_max, unit, product) -> MixingReport:
    """Least t whose worst-start TV is at most the threshold.

    curve holds the TV at t = 0..t0, all above the threshold except
    perhaps the last; beyond t0 the TV at t is readout(step^(t - t0)).
    Squared powers of step bracket the answer, then bisection finds it;
    product(a, b) forms each power, a square as product(a, a); neither it
    nor readout may write into its arguments, as step itself is squares[0].
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
    squares = [step]
    s = 1
    curve[t0 + 1] = readout(squares[0])
    while curve[t0 + s] > threshold:
        if t0 + s >= t_max:
            return report(None, True)
        squares.append(product(squares[-1], squares[-1]))
        s *= 2
        curve[t0 + s] = readout(squares[-1])
    if s == 1:
        return report(t0 + 1, False)
    squares.pop()  # every bisection point is below s, so step^s is not read

    def power_of(steps):
        result = None
        k = 0
        while steps:
            if steps & 1:
                block = squares[k]
                result = block if result is None else product(result, block)
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
    _check_search(threshold, t_max)
    check_scan_ergodic(table)
    p1, a = table.p1, table.cond1
    _check_nonnegative(a, table.cond2)
    curve = {0: 1.0 - float(table.joint[table.joint > 0.0].min())}
    if curve[0] > threshold:
        curve[1] = _worst_tv(a, p1)

    def readout(power):
        rows = a @ power
        return _worst_tv(rows, p1, rows)

    return _doubling_search(
        table.cond2 @ a, readout, curve, threshold, t_max, chain.UNIT_EPOCH,
        _renormalized_product,
    )


# A power of S is kept as a sparse matrix while at most this share of its
# entries is stored, and as a dense array above it. On 2 cores (scipy
# 1.17, OpenBLAS) a sparse multiply-add costs about 100 times a BLAS
# one, so squaring a power of density d sparsely (d^2 N^3 multiply-adds)
# beats syrk (N^3 / 2) below d = 0.07, and dense rows times the sparse
# power beat dense rows times the dense one below d = 0.04; S^2 of the
# 2048-state models is 3.3% dense, their S^4 27%.
_SPARSE_DENSITY = 0.05
# _symmetric_deviation reads and densifies rows in blocks of about this
# many entries: 32 rows of a 2048-state power, all rows up to 256 states.
# active_start_mixing_time reads a full power's active rows in such blocks.
_READOUT_ELEMENTS = 2 ** 16


def _symmetric_square(square):
    """S^(2s) from the symmetric S^s, exactly symmetric.

    A sparse power is squared as a sparse product. Its rows are sorted,
    so entry (x, y) and entry (y, x) add the same products in the same
    order and the product is symmetric to the bit. The product stays
    sparse, in canonical form (sorted indices), while it is at most
    _SPARSE_DENSITY full, and is stored dense otherwise. A dense power
    is squared as square @ square.T, which numpy sends to BLAS syrk:
    half the flops of a general product, and a symmetric result. Every
    power of the entrywise nonnegative S is nonnegative.
    """
    if isinstance(square, np.ndarray):
        return square @ square.T
    product = square @ square
    n = product.shape[0]
    if product.nnz > _SPARSE_DENSITY * n * n:
        return product.toarray()
    # The product is symmetric, so its transpose in CSR form, which the
    # conversion writes with sorted indices, is the product itself.
    return product.T.tocsr()


def _symmetric_deviation(rows, starts, r) -> np.ndarray:
    """Twice the TV distance to pi of each start, read from rows of S^t.

    rows[i] is row starts[i] of S^t = D^{1/2} P^t D^{-1/2}, dense or
    sparse, and r = sqrt(pi), so P^t(x, y) = S^t(x, y) r_y / r_x and

        2 d_x(t) = (1 / r_x) sum_y r_y |S^t(x, y) - r_x r_y|.

    The rows are read in blocks of _READOUT_ELEMENTS entries, a sparse
    block densified on its own, and einsum sums each row on its own, as a
    gemv does not.
    """
    step = max(1, _READOUT_ELEMENTS // len(r))
    deviation = np.empty(len(starts))
    buffer = np.empty((min(len(starts), step), len(r)))
    for lo in range(0, len(starts), step):
        # Slicing a sparse matrix copies it, so a single block is not sliced.
        block = rows if len(starts) <= step else rows[lo : lo + step]
        if not isinstance(block, np.ndarray):
            block = block.toarray()
        scale = r[starts[lo : lo + step]]
        out = np.multiply(scale[:, None], r, out=buffer[: len(scale)])
        np.subtract(block, out, out=out)
        np.abs(out, out=out)
        deviation[lo : lo + len(scale)] = np.einsum("ij,j->i", out, r) / scale
    return deviation


def random_update_mixing_time(
    symmetric,
    space: StateSpace,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
) -> MixingReport:
    """exact_mixing_time of a sparse pi-reversible kernel, on the powers of its
    symmetric form S, at the same t points. The TV at t is half the largest
    _symmetric_deviation of S^t; squares come from _symmetric_square, and no
    power is renormalized (README, "Random-update mixing").
    """
    _check_search(threshold, t_max)
    everyone, r = np.arange(space.size), np.sqrt(space.pi)

    def readout(power):
        return 0.5 * float(np.max(_symmetric_deviation(power, everyone, r)))

    return _doubling_search(
        symmetric, readout, {0: 1.0 - float(space.pi.min())}, threshold, t_max,
        chain.UNIT_VARIABLE, lambda a, b: _symmetric_square(a) if a is b else a @ b,
    )


def active_start_mixing_time(
    symmetric,
    space: StateSpace,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
) -> int | None:
    """Worst-start mixing time of a sparse pi-reversible kernel P, from
    its symmetric form S = D^{1/2} P D^{-1/2} (spectral.random_update_symmetric).

    It is the mixing time of exact_mixing_time, or None where that
    report is truncated at t_max, up to rounding. Each start's distance
    d_x(t) = TV(P^t(x, .), pi) is non-increasing in t: d_x(t + 1) is
    half the L1 norm of (P^t(x, .) - pi) P, and P does not increase the
    L1 norm of a signed measure. So a start with
    d_x(t) <= threshold has mixed for good and can be dropped, and the
    last distance read for a start, d_x(0) = 1 - pi(x) before any, bounds
    its distance at every later t: a start not read stays active.

    A full power's active rows are read a block at a time, nearest start
    first, and the reading stops after a block whose starts are all
    above the threshold, since the bracket is then open; it closes only
    once every active row is read and none is above. While fewer than
    half the starts are active, squaring forms their rows first and the
    full square only if the bracket is still open. The bisection reads
    the rows of S^(s/2) not read there, then lifts the rows of the
    starts above it by the squares, largest first. Once S^(2s) is formed
    only the lifting reads S^s, so a dense S^s whose half S^(s/2) is
    stored is dropped, and the lifting applies S^(s/2) twice in its
    place: at most every other dense power is held.

    The powers are those of S: S^(2s) = S^s (S^s)^T, so every full
    square is symmetric (_symmetric_square) and d_x(t) is read from row
    x of S^t (_symmetric_deviation). S is entrywise nonnegative, and a
    negative stored entry raises NumericalError.
    """
    _check_search(threshold, t_max)
    _check_nonnegative(symmetric.data)
    n = space.size
    # bound[x] is the last distance read for start x, d_x(0) at first.
    bound = 1.0 - space.pi
    active = np.flatnonzero(bound > threshold)
    if not active.size:
        return 0
    r = np.sqrt(space.pi)
    everyone = np.arange(n)
    rows_per_block = max(1, _READOUT_ELEMENTS // n)

    def above(rows, starts):
        bound[starts] = 0.5 * _symmetric_deviation(rows, starts, r)
        return bound[starts] > threshold

    def read(power, starts):
        """Read the rows of power for starts into bound, nearest start first,
        a block at a time, up to the first block whose starts are all above
        the threshold. Return the starts left unread, sorted. A power that
        fits in one block is read whole, in place."""
        if n <= rows_per_block:
            above(power, everyone)
            return starts[:0]
        order = starts[np.argsort(bound[starts], kind="stable")]
        for lo in range(0, order.size, rows_per_block):
            block = order[lo : lo + rows_per_block]
            if above(power[block], block).all():
                return np.sort(order[lo + rows_per_block :])
        return starts[:0]

    unread = read(symmetric, active)
    active = active[bound[active] > threshold]
    if not active.size:
        return 1
    # squares[k] = S^(2^k), or None where the lifting applies squares[k - 1]
    # twice; active holds every start above the threshold at s, and perhaps
    # some in unread, whose rows of S^s were not read.
    squares = [symmetric]
    s = 1
    while True:
        if s >= t_max:
            return None
        square = squares[-1]
        # Forming the active rows costs |A| N^2 multiply-adds and a full
        # square N^2 (N + 1) / 2. The sparse S is always squared whole.
        partial = 2 * active.size < n and s > 1
        if partial:
            block = square[active] @ square
            above(block, active)
            unread_next = active[:0]
        else:
            block = _symmetric_square(square)
            unread_next = read(block, active)
        still = bound[active] > threshold
        s *= 2
        if not still.any():
            break
        if partial:
            del block  # the active rows go before the full square is formed
            block = _symmetric_square(square)
        squares.append(block)
        if isinstance(squares[-2], np.ndarray) and squares[-3] is not None:
            squares[-2] = None
        active, unread = active[still], unread_next
    del block, square  # only rows of S^(s/2) are read from here on

    # Each active start is at or below the threshold at s; reading the rows
    # of S^(s/2) not read there leaves those above it at s/2. Lift t = s/2
    # while some start stays above at t + 2^k. Each power and each lifted
    # block is released once its level is done.
    if unread.size:
        settled = ~above(squares[-1][unread], unread)
        active = np.setdiff1d(active, unread[settled])
    rows, t = squares.pop()[active], s // 2
    while squares:
        k, power = len(squares) - 1, squares.pop()
        if power is None:
            lifted = rows @ squares[-1] @ squares[-1]
        else:
            lifted = rows @ power
        still = above(lifted, active)
        if still.any():
            rows, active, t = lifted[still], active[still], t + 2 ** k
        del lifted
    return t + 1 if t + 1 <= t_max else None


def verify_mixing_bounds(
    model: BipartiteModel,
    cap: int = chain.DEFAULT_CAP,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = DEFAULT_T_MAX,
    lazy: bool = True,
) -> dict:
    """Check the relaxation/mixing sandwich and the scan mixing bounds.

    (a) T_rel(RU) - 1 <= T_mix(RU) <= T_rel(RU) log(2e / pi_min)
    (b) T_mix(AS) <= log(4e^2 / pi_min) T_rel(AS)
    (c) T_mix(AS) <= log(4e^2 / pi_min) (T_mix(RU) + 1)

    The random-update side runs on the symmetric form S of its kernel,
    built once (random_update_symmetric): T_rel(RU) from its SLEM
    (random_update_report) and T_mix(RU) from its powers, searched on the
    starts not yet mixed (active_start_mixing_time).
    The scan side runs on the joint table (scan_report, scan_mixing_time).
    """
    space = chain.enumerate_state_space(model, cap=cap)
    table = chain.joint_table(model, space)
    pi_min = float(space.pi.min())

    s_ru = random_update_symmetric(model, space, lazy)
    t_rel_ru = random_update_report(s_ru, space).relaxation_time
    t_rel_as = scan_report(table).relaxation_time
    t_mix_ru = active_start_mixing_time(s_ru, space, threshold, t_max)
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


# The sample times must double: the fill checks square each power to reach the next.
_FILL_T_SAMPLES = (1, 2, 4, 8, 16, 32)
_FILL_SLACK = 1e-10


def _fill_report(contraction, weight, tvs) -> dict:
    """Margins c^t / pi(x) + slack - TV(P^t(x, .), pi)^2, worst per sampled t.

    weight holds pi(x) of each start x, and tvs yields the starts' TV
    distances at each t of _FILL_T_SAMPLES in turn. zip takes nothing
    from tvs past the last sample, so no power beyond it is formed.
    """
    results = {}
    for t, tv in zip(_FILL_T_SAMPLES, tvs):
        margin = contraction ** t / weight + _FILL_SLACK - tv ** 2
        results[t] = float(margin.min())
    holds = all(worst >= 0.0 for worst in results.values())
    return {"holds": holds, "worst_margin_by_t": results, "contraction": contraction}


def random_update_fill_inequality(symmetric, space: StateSpace) -> dict:
    """Check TV(P^t(x, .), pi)^2 <= (1 - gap(R(P)))^t / pi(x) at t = 1, 2, 4, ..., 32
    for a sparse pi-reversible P, on its symmetric form S: R(P) = P P* = P^2, so
    1 - gap(R(P)) = SLEM^2, and start x's TV is read from row x of S^t.
    """
    contraction = random_update_report(symmetric, space).second_largest_modulus ** 2
    everyone, r = np.arange(space.size), np.sqrt(space.pi)

    def tvs():
        power = symmetric
        while True:
            yield 0.5 * _symmetric_deviation(power, everyone, r)
            power = _symmetric_square(power)

    return _fill_report(contraction, space.pi, tvs())


def scan_fill_inequality(table: chain.JointTable) -> dict:
    """random_update_fill_inequality for the alternating scan, on the joint table.

    The contraction 1 - gap(R(P_AS)) is rho^2, and the start x = (x1, x2)
    has TV(P_AS^t(x, .), pi) = TV((A L^(t-1))[x2], p1) (scan_mixing_time),
    so the margins are taken over the support cells of J.
    """
    contraction = scan_correlation(table) ** 2
    a, p1 = table.cond1, table.p1
    _check_nonnegative(a, table.cond2)
    _, cols = np.nonzero(table.joint)

    def tvs():
        # rows = A L^(t-1) and power = L^t; A L^(2t-1) = A L^(t-1) L^t
        rows, power = a, table.cond2 @ a
        while True:
            yield 0.5 * _abs_deviation(rows, p1)[cols]
            rows = _renormalized_product(rows, power)
            power = _renormalized_product(power, power)

    return _fill_report(contraction, table.joint[table.joint > 0.0], tvs())
