import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special._ufuncs import _binom_pmf
from scipy.stats import binom

import scangibbs as sg
from scangibbs import chain, lumped, mixing, spectral
from scangibbs.lumped import (
    LumpingError,
    lumped_as_kernel,
    lumped_ru_kernel,
    lumped_state_space,
)

from oracles import (
    hardcore_lump_map,
    lumpability_check,
    quotient_kernel,
    random_update_kernel,
    scan_kernels,
)


def _lumped_digest(n_max):
    digest = hashlib.sha256()
    for n in range(1, n_max + 1):
        space = lumped_state_space(n)
        digest.update(space.pi.astype("<f8").tobytes())
        digest.update(space.configs.astype("<i8").tobytes())
        for kernel in (lumped_ru_kernel(n, lazy=True), lumped_ru_kernel(n, lazy=False),
                       lumped_as_kernel(n)):
            digest.update(kernel.matrix.astype("<f8").tobytes())
            digest.update(f"{kernel.label} {kernel.unit}\n".encode())
    return digest.hexdigest()


def test_lumped_bits_are_pinned():
    # The golden lumped values depend on these bits. The digest was taken by
    # running _lumped_digest(60) on commit 19c1ece, whose lumped_state_space
    # and kernels were still filled one entry at a time; the array formulas
    # must reproduce pi, the state order and every kernel entry exactly.
    assert _lumped_digest(60) == (
        "5bd033492366999c97d80a5e9aefb692d68662559290a06613390087d5f65645")


def test_lumped_size_limit_is_where_pi_stays_normal():
    # pi(L,0) = 1/(2^(n+1) - 1) is the least entry of pi; it is a normal
    # float64 up to n = 1021 and subnormal from n = 1022.
    assert lumped_state_space(1021).pi.min() >= sys.float_info.min
    assert float(Fraction(1, 2 ** 1023 - 1)) < sys.float_info.min
    for build in (lumped_state_space, lumped_ru_kernel, lumped_as_kernel):
        for n in (0, 1022):
            with pytest.raises(LumpingError, match="between 1 and 1021"):
                build(n)


def test_lumped_state_space_pi():
    space = lumped_state_space(3)
    assert space.size == 7
    total = 2 * 2 ** 3 - 1
    expected = [math.comb(3, k) / total for k in range(4)]
    expected += [math.comb(3, k) / total for k in range(1, 4)]
    assert space.pi == pytest.approx(expected)
    assert space.pi.sum() == pytest.approx(1.0, abs=1e-15)


def test_lumped_kernels_are_stochastic_and_stationary():
    for n in (1, 2, 5, 10):
        space = lumped_state_space(n)
        for kernel in (
            lumped_ru_kernel(n, lazy=True),
            lumped_ru_kernel(n, lazy=False),
            lumped_as_kernel(n),
        ):
            assert kernel.matrix.sum(axis=1) == pytest.approx(
                np.ones(kernel.size), abs=1e-12
            )
            assert chain.stationarity_defect(kernel, space) <= 1e-12


@pytest.mark.parametrize("n", [1, 6, 25, 48, 50])
def test_lumped_scan_table_is_scipy_binom_pmf(n):
    # The golden record pins the lumped scan results this table gives.
    # scipy's pmf differs from the exact C(n,k)/2^n by up to 7.8e-15
    # relative at n <= 10, so a switch to the exact table must fail here
    # (it moves relax_as at n = 25..29 and mix_as at n = 48). Each row is
    # divided by its sum, as make_kernel does; at n = 48 and 50 that sum
    # is not 1.
    b = binom.pmf(np.arange(n + 1), n, 0.5)
    size = 2 * n + 1
    row_l, row_r = np.zeros(size), np.zeros(size)
    row_l[0] = b[0] * b[0]
    row_l[1:n + 1] = b[1:]
    row_l[n + 1:] = b[0] * b[1:]
    row_r[0] = b[0]
    row_r[n + 1:] = b[1:]
    matrix = lumped_as_kernel(n).matrix
    assert np.all(matrix[:n + 1] == row_l / row_l.sum())
    assert np.all(matrix[n + 1:] == row_r / row_r.sum())


def test_boost_binom_pmf_is_scipy_binom_pmf():
    # lumped_as_kernel calls the ufunc behind binom.pmf directly; a scipy
    # release in which the two differ would move the golden lumped values.
    for n in range(1, 201):
        k = np.arange(n + 1)
        assert np.array_equal(_binom_pmf(k, n, 0.5), binom.pmf(k, n, 0.5)), n


def test_lumped_ru_reversible():
    space = lumped_state_space(4)
    for lazy in (True, False):
        kernel = lumped_ru_kernel(4, lazy=lazy)
        assert chain.detailed_balance_violation(kernel, space) <= 1e-12


def test_lump_map_counts_occupancy(hardcore_k22):
    space = sg.enumerate_state_space(hardcore_k22)
    lm = hardcore_lump_map(space, 2)
    assert sorted(lm.tolist()) == [0, 1, 1, 2, 3, 3, 4]


def test_lump_map_rejects_wrong_width(hardcore_k33):
    space = sg.enumerate_state_space(hardcore_k33)
    with pytest.raises(LumpingError):
        hardcore_lump_map(space, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotients_match_closed_forms(n):
    model = sg.build_hardcore_complete_bipartite(n)
    space = sg.enumerate_state_space(model)
    lm = hardcore_lump_map(space, n)

    p_ru = random_update_kernel(model, space, lazy=True)
    assert lumpability_check(p_ru, lm)
    q_ru = quotient_kernel(p_ru, lm, chain.UNIT_VARIABLE, "q_ru")
    assert np.max(np.abs(q_ru.matrix - lumped_ru_kernel(n, lazy=True).matrix)) <= 1e-12

    p_ru_nl = random_update_kernel(model, space, lazy=False)
    q_nl = quotient_kernel(p_ru_nl, lm, chain.UNIT_VARIABLE, "q_nl")
    assert np.max(np.abs(q_nl.matrix - lumped_ru_kernel(n, lazy=False).matrix)) <= 1e-12

    p_as = scan_kernels(model, space)["P_AS"]
    assert lumpability_check(p_as, lm)
    q_as = quotient_kernel(p_as, lm, chain.UNIT_EPOCH, "q_as")
    assert np.max(np.abs(q_as.matrix - lumped_as_kernel(n).matrix)) <= 1e-12


def test_lumpability_check_rejects_bad_map(hardcore_k22):
    space = sg.enumerate_state_space(hardcore_k22)
    p_ru = random_update_kernel(hardcore_k22, space)
    bad_map = np.zeros(space.size, dtype=np.int64)
    bad_map[0] = 1  # splits the empty set away from one occupied state
    bad_map[1] = 1
    assert not lumpability_check(p_ru, bad_map)
    with pytest.raises(LumpingError, match="not lumpable"):
        quotient_kernel(p_ru, bad_map, chain.UNIT_VARIABLE, "bad")


@pytest.mark.parametrize(
    "n,mix_ru,mix_as",
    [(2, 32, 3), (3, 81, 5), (4, 171, 9), (6, 666, 33), (8, 2497, 129)],
)
def test_lumped_mixing_frozen_values(n, mix_ru, mix_as):
    space = lumped_state_space(n)
    ru = mixing.exact_mixing_time(
        lumped_ru_kernel(n, lazy=True), space, method="doubling"
    )
    as_ = mixing.exact_mixing_time(lumped_as_kernel(n), space, method="doubling")
    assert ru.mixing_time == mix_ru
    assert as_.mixing_time == mix_as


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lumped_matches_full_chain(n):
    model = sg.build_hardcore_complete_bipartite(n)
    space = sg.enumerate_state_space(model)
    lspace = lumped_state_space(n)
    p_ru = random_update_kernel(model, space, lazy=True)
    full = mixing.exact_mixing_time(p_ru, space, method="doubling").mixing_time
    small = mixing.exact_mixing_time(
        lumped_ru_kernel(n, lazy=True), lspace, method="doubling"
    ).mixing_time
    assert full == small
    t_full = spectral.relaxation_time(p_ru, space).relaxation_time
    t_small = spectral.relaxation_time(lumped_ru_kernel(n, lazy=True), lspace)
    assert t_small.relaxation_time == pytest.approx(t_full, rel=1e-9)


def test_lumped_scan_relaxation_closed_form():
    # observed: T_rel of the lumped one-epoch scan equals 2^n exactly
    for n in (2, 3, 4, 6):
        space = lumped_state_space(n)
        report = spectral.relaxation_time(lumped_as_kernel(n), space)
        assert report.relaxation_time == pytest.approx(2.0 ** n, rel=1e-9)


def test_lumped_large_n_runs_fast():
    n = 30
    space = lumped_state_space(n)
    report = mixing.exact_mixing_time(
        lumped_as_kernel(n), space, method="doubling", t_max=10 ** 10
    )
    assert report.mixing_time == 2 ** (n - 1) + 1


@pytest.mark.parametrize("n", [2, 4, 8])
def test_lumped_scan_tv_closed_form(n):
    # The one-epoch scan kernel has two distinct rows (one per side), so
    # with b = 2^-n the worst-start TV after t epochs is (1-b)^(2t-1)/(2-b).
    space = lumped_state_space(n)
    kernel = lumped_as_kernel(n)
    b = 2.0 ** -n
    for t in (1, 2, 5, 2 ** (n - 1), 2 ** (n - 1) + 1):
        power = np.linalg.matrix_power(kernel.matrix, t)
        worst = 0.5 * np.max(np.abs(power - space.pi[None, :]).sum(axis=1))
        assert worst == pytest.approx((1 - b) ** (2 * t - 1) / (2 - b), rel=1e-12)


@pytest.mark.parametrize("n", [6, 10, 14])
def test_lumped_ru_mixing_time_certified_high_precision(n):
    """The float mixing time of the non-lazy lumped random-update chain is
    the first t at which the exact kernel's worst-start TV, computed with
    60 significant digits, falls to 1/(2e)."""
    mpmath = pytest.importorskip("mpmath")
    space = lumped_state_space(n)
    t = mixing.exact_mixing_time(
        lumped_ru_kernel(n, lazy=False), space, t_max=10 ** 10, method="doubling"
    ).mixing_time

    with mpmath.workdps(60):
        # States (L,0..n), then (R,1..n); the empty set is (L,0).
        def index(side, k):
            return k + n * (side == "R" and k > 0)

        # Exact entries: from count k on a side, free an occupied vertex
        # w.p. k/(4n), occupy a free one w.p. (n-k)/(4n); the empty set
        # moves to (L,1) or (R,1) w.p. 1/4 each.
        size = 2 * n + 1
        kernel = np.full((size, size), mpmath.mpf(0), dtype=object)
        for side in ("L", "R"):
            for k in range(1, n + 1):
                i = index(side, k)
                down = mpmath.mpf(k) / (4 * n)
                up = mpmath.mpf(n - k) / (4 * n)
                kernel[i, index(side, k - 1)] += down
                if k < n:
                    kernel[i, index(side, k + 1)] += up
                kernel[i, i] += 1 - down - up
        kernel[0, 0] = mpmath.mpf(1) / 2
        kernel[0, index("L", 1)] = mpmath.mpf(1) / 4
        kernel[0, index("R", 1)] = mpmath.mpf(1) / 4
        total = 2 * 2 ** n - 1
        counts = list(range(n + 1)) + list(range(1, n + 1))
        pi = np.array([mpmath.mpf(math.comb(n, k)) / total for k in counts], dtype=object)

        def worst_tv(power):
            return max(sum(abs(x) for x in row) / 2 for row in power - pi[None, :])

        before, square, steps = None, kernel, t - 1
        while steps:
            if steps & 1:
                before = square if before is None else before.dot(square)
            steps >>= 1
            if steps:
                square = square.dot(square)
        threshold = 1 / (2 * mpmath.e)
        assert worst_tv(before) > threshold
        assert worst_tv(before.dot(kernel)) <= threshold
