import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import scangibbs as sg
from scangibbs import chain, mixing, spectral
from scangibbs.mixing import MixingError, exact_mixing_time

from oracles import (
    iterate_mixing_time,
    random_update_kernel,
    rational_mixing_time,
    rational_ru_kernel,
    scan_kernels,
    tv_distance,
    verify_fill_inequality,
)


@pytest.fixture(scope="module")
def k22(hardcore_k22):
    space = sg.enumerate_state_space(hardcore_k22)
    return hardcore_k22, space


def test_tv_distance_basics():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


def test_tv_distance_validation():
    with pytest.raises(MixingError, match="mismatch"):
        tv_distance([1.0], [0.5, 0.5])
    with pytest.raises(MixingError, match="not normalized"):
        tv_distance([0.7, 0.7], [0.5, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.data())
def test_tv_distance_symmetric_and_bounded(raw, data):
    mu = np.array(raw) / np.sum(raw)
    raw2 = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=len(raw), max_size=len(raw))
    )
    nu = np.array(raw2) / np.sum(raw2)
    d = tv_distance(mu, nu)
    assert d == pytest.approx(tv_distance(nu, mu))
    assert 0.0 <= d <= 1.0


def test_mixing_methods_agree_k22(k22):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    it = iterate_mixing_time(p, space)
    db = exact_mixing_time(p, space, method="doubling")
    assert it.mixing_time == db.mixing_time == 32
    assert not it.truncated and not db.truncated
    assert it.unit == chain.UNIT_VARIABLE


def test_mixing_curve_monotone(k22):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    curve = iterate_mixing_time(p, space).tv_curve
    values = [tv for _, tv in curve]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert curve[0] == (0, pytest.approx(1 - 1 / 7))


def test_mixing_scan_k22(k22):
    model, space = k22
    p_as = scan_kernels(model, space)["P_AS"]
    report = exact_mixing_time(p_as, space)
    assert report.mixing_time == 3
    assert report.unit == chain.UNIT_EPOCH


def test_hardcore_knn_scan_mixing_closed_form():
    # README: after t >= 1 epochs the worst start is at TV rho^(2(t-1)) a/Z
    # from pi, which first reaches 1/(2e) at t = 2^(n-1) + 1.
    for n in range(1, 10):
        model = sg.build_hardcore_complete_bipartite(n)
        table = chain.joint_table(model, sg.enumerate_state_space(model))
        assert mixing.scan_mixing_time(table).mixing_time == 2 ** (n - 1) + 1, n


def test_mixing_zero_weight_scan(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    p_as = scan_kernels(zero_rbm_22, space)["P_AS"]
    assert exact_mixing_time(p_as, space).mixing_time == 1


def test_mixing_time_zero_when_pi_concentrated(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    p = random_update_kernel(zero_rbm_22, space)
    report = exact_mixing_time(p, space, threshold=0.95)
    assert report.mixing_time == 0


def test_mixing_truncation(k22):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    for search in (iterate_mixing_time, exact_mixing_time):
        report = search(p, space, t_max=3)
        assert report.truncated
        assert report.mixing_time is None


@pytest.mark.parametrize("method", ["iterate", "bogus"])
def test_doubling_is_the_only_method(k22, method):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    with pytest.raises(MixingError, match="unknown method"):
        exact_mixing_time(p, space, method=method)


def test_mixing_threshold_sensitivity(k22):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    loose = exact_mixing_time(p, space, threshold=0.25, method="doubling")
    tight = exact_mixing_time(p, space, threshold=0.01, method="doubling")
    assert loose.mixing_time <= tight.mixing_time
    strict = iterate_mixing_time(p, space, threshold=0.25)
    assert loose.mixing_time == strict.mixing_time


def test_rational_oracle_matches_float_kernel(k22):
    model, space = k22
    exact = rational_ru_kernel(model, space, lazy=True)
    approx = random_update_kernel(model, space, lazy=True).matrix
    for i in range(space.size):
        for j in range(space.size):
            assert float(exact[i][j]) == pytest.approx(approx[i, j], abs=1e-15)


def test_rational_oracle_mixing_time(k22):
    model, space = k22
    exact = rational_ru_kernel(model, space, lazy=True)
    pi = [Fraction(1, 7)] * 7
    assert rational_mixing_time(exact, pi) == 32


def test_rational_oracle_rejects_soft_models(asymmetric_rbm):
    space = sg.enumerate_state_space(asymmetric_rbm)
    with pytest.raises(MixingError, match="all-zero"):
        rational_ru_kernel(asymmetric_rbm, space)


def test_verify_mixing_bounds_hardcore(hardcore_k22, hardcore_k33):
    for model in (hardcore_k22, hardcore_k33):
        result = sg.verify_mixing_bounds(model)
        assert result["all_hold"], result


def test_verify_mixing_bounds_soft(asymmetric_rbm):
    result = sg.verify_mixing_bounds(asymmetric_rbm)
    assert result["all_hold"], result
    assert result["t_mix_as"] <= result["t_mix_ru"]


@pytest.mark.parametrize("lazy", [True, False])
def test_shifted_unaries_give_the_same_times(lazy):
    # Adding 200 to both values of every unary leaves pi unchanged, so only
    # the rounding of h moves. h takes its n unaries after the edges, and each
    # of those additions is off by at most u H (u = eps / 2, H >= |h| on every
    # state), so h - max h moves by at most n eps H, and pi, through exp and
    # the normalization, by a factor within exp(+-delta), delta = 2 n eps H.
    # In either sampler's chain pi(x) P(x, y) is a product or quotient of
    # three pi factors and the variance is linear in pi, so the gap, a
    # minimum of their ratio, and with it t_rel move by a factor within
    # exp(+-4 delta). The eigensolvers' own rounding is not in this bound;
    # on this model it is far below it.
    base = sg.random_bipartite_model(3, 3, 9, -2.0, 2.0, 3)
    shifted = dataclasses.replace(base, unaries=base.unaries + 200.0)
    H = 200.0 * base.n + float(np.abs(base.tables).sum())
    delta = 2 * base.n * np.finfo(float).eps * H
    results = [(verify(base, lazy=lazy), verify(shifted, lazy=lazy))
               for verify in (sg.verify_theorem1, sg.verify_mixing_bounds)]
    for a, b in results:
        for key in ("t_rel_ru", "t_rel_as"):
            assert abs(b[key] - a[key]) <= math.expm1(4 * delta) * a[key], key
    a, b = results[1]
    assert (b["t_mix_ru"], b["t_mix_as"]) == (a["t_mix_ru"], a["t_mix_as"])


def test_fill_inequality_scan_and_ru(k22):
    model, space = k22
    kernels = [
        random_update_kernel(model, space, lazy=True),
        scan_kernels(model, space)["P_AS"],
    ]
    for kernel in kernels:
        result = verify_fill_inequality(kernel, space)
        assert result["holds"], result
        assert all(m >= 0.0 for m in result["worst_margin_by_t"].values())
        assert 0.0 < result["contraction"] < 1.0


@pytest.mark.parametrize("threshold", [mixing.DEFAULT_THRESHOLD, 0.25, 0.01])
def test_scan_mixing_time_matches_dense_kernel(engine_models, threshold):
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        p_as = scan_kernels(model, space)["P_AS"]
        dense = exact_mixing_time(p_as, space, threshold=threshold, method="doubling")
        report = mixing.scan_mixing_time(chain.joint_table(model, space), threshold)
        assert report.mixing_time == dense.mixing_time, model.label
        assert report.unit == chain.UNIT_EPOCH
        # every TV value read off the x1 chain is the worst-start TV of P_AS^t
        for t, tv in report.tv_curve[1:]:
            power = np.linalg.matrix_power(p_as.matrix, t)
            assert tv == pytest.approx(mixing._worst_tv(power, space.pi), abs=1e-12)


def test_scan_mixing_time_truncation(hardcore_k22):
    table = chain.joint_table(hardcore_k22, sg.enumerate_state_space(hardcore_k22))
    for t_max in (1, 2):
        report = mixing.scan_mixing_time(table, t_max=t_max)
        assert report.truncated and report.mixing_time is None
    assert mixing.scan_mixing_time(table, t_max=3).mixing_time == 3
    for threshold, t_max in ((mixing.DEFAULT_THRESHOLD, 0), (math.nan, 3), (0.0, 3), (1.0, 3)):
        with pytest.raises(MixingError):
            mixing.scan_mixing_time(table, threshold, t_max)


@pytest.mark.parametrize("lazy", [True, False])
def test_verify_mixing_bounds_matches_dense_oracle(engine_models, lazy):
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        p_ru = random_update_kernel(model, space, lazy=lazy)
        p_as = scan_kernels(model, space)["P_AS"]
        result = sg.verify_mixing_bounds(model, lazy=lazy)
        assert result["t_rel_ru"] == pytest.approx(
            sg.relaxation_time(p_ru, space).relaxation_time, rel=1e-10)
        assert result["t_rel_as"] == pytest.approx(
            sg.relaxation_time(p_as, space).relaxation_time, rel=1e-10)
        assert result["t_mix_ru"] == exact_mixing_time(p_ru, space, method="doubling").mixing_time
        assert result["t_mix_as"] == exact_mixing_time(p_as, space, method="doubling").mixing_time


def _per_start_tv(kernel, space, t):
    power = np.linalg.matrix_power(kernel.matrix, t)
    return 0.5 * np.abs(power - space.pi).sum(axis=1)


@pytest.mark.parametrize("threshold", [0.05, mixing.DEFAULT_THRESHOLD, 0.4])
@pytest.mark.parametrize("lazy", [True, False])
def test_active_start_search_matches_doubling(engine_models, lazy, threshold):
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        p_ru = random_update_kernel(model, space, lazy=lazy)
        expected = exact_mixing_time(p_ru, space, threshold, method="doubling").mixing_time
        s_ru = spectral.random_update_symmetric(model, space, lazy)
        assert mixing.active_start_mixing_time(s_ru, space, threshold) == expected, model.label


@pytest.mark.parametrize("threshold", [0.05, mixing.DEFAULT_THRESHOLD, 0.4])
@pytest.mark.parametrize("lazy", [True, False])
def test_active_start_search_in_blocks_of_four_rows_matches_doubling(
        engine_models, monkeypatch, lazy, threshold):
    # Every engine model of more than 4 states spans several blocks, so a
    # square may be read in part, and the starts not read stay active.
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        monkeypatch.setattr(mixing, "_READOUT_ELEMENTS", 4 * space.size)
        p_ru = random_update_kernel(model, space, lazy=lazy)
        expected = exact_mixing_time(p_ru, space, threshold, method="doubling").mixing_time
        s_ru = spectral.random_update_symmetric(model, space, lazy)
        assert mixing.active_start_mixing_time(s_ru, space, threshold) == expected, model.label


@pytest.mark.parametrize("lazy", [True, False])
def test_random_update_mixing_time_matches_dense_doubling(engine_models, lazy):
    # the same search on S: the same mixing times, truncation and t points
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        p_ru = random_update_kernel(model, space, lazy=lazy)
        s_ru = spectral.random_update_symmetric(model, space, lazy)
        for threshold, t_max in ((mixing.DEFAULT_THRESHOLD, 10 ** 6), (0.01, 10 ** 6),
                                 (mixing.DEFAULT_THRESHOLD, 3)):
            dense = exact_mixing_time(p_ru, space, threshold, t_max, method="doubling")
            report = mixing.random_update_mixing_time(s_ru, space, threshold, t_max)
            where = (model.label, threshold, t_max)
            assert report.mixing_time == dense.mixing_time, where
            assert report.truncated == dense.truncated, where
            assert report.unit == dense.unit == chain.UNIT_VARIABLE
            assert [t for t, _ in report.tv_curve] == [t for t, _ in dense.tv_curve], where
            for (t, tv), (_, expected) in zip(report.tv_curve, dense.tv_curve):
                assert tv == pytest.approx(expected, abs=1e-12), (where, t)
        with pytest.raises(MixingError):
            mixing.random_update_mixing_time(s_ru, space, 1.0)


@pytest.mark.parametrize("lazy", [True, False])
def test_random_update_fill_matches_dense_oracle(engine_models, lazy):
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        dense = verify_fill_inequality(random_update_kernel(model, space, lazy=lazy), space)
        s_ru = spectral.random_update_symmetric(model, space, lazy)
        result = mixing.random_update_fill_inequality(s_ru, space)
        assert result["holds"] == dense["holds"], model.label
        assert result["contraction"] == pytest.approx(dense["contraction"], rel=1e-10, abs=1e-14)
        for t, margin in dense["worst_margin_by_t"].items():
            assert result["worst_margin_by_t"][t] == pytest.approx(
                margin, rel=1e-10, abs=1e-11), (model.label, t)


def test_dense_random_update_kernel_left_the_package():
    for module, name in ((chain, "random_update_kernel"), (mixing, "verify_fill_inequality")):
        assert not hasattr(module, name)
        assert name not in sg.__all__


def test_active_start_search_follows_the_start_that_mixes_last(asymmetric_rbm):
    # The bracket is (16, 32]: the worst start at t = 16 is not the one
    # still above the threshold at t = 22, so no single row can be tracked.
    space = sg.enumerate_state_space(asymmetric_rbm)
    p = random_update_kernel(asymmetric_rbm, space, lazy=True)
    s_ru = spectral.random_update_symmetric(asymmetric_rbm, space)
    t_mix = mixing.active_start_mixing_time(s_ru, space)
    assert t_mix == exact_mixing_time(p, space, method="doubling").mixing_time == 23
    last = _per_start_tv(p, space, t_mix - 1)
    assert np.argmax(_per_start_tv(p, space, 16)) != np.argmax(last)
    assert last.max() > mixing.DEFAULT_THRESHOLD >= _per_start_tv(p, space, t_mix).max()


def test_active_start_search_forms_only_the_rows_it_needs(asymmetric_rbm, monkeypatch):
    space = sg.enumerate_state_space(asymmetric_rbm)
    p = random_update_kernel(asymmetric_rbm, space, lazy=True)
    rows_read = []
    symmetric_deviation = mixing._symmetric_deviation

    def counting(rows, starts, r):
        rows_read.append(rows.shape[0])
        return symmetric_deviation(rows, starts, r)

    # Each row formed is read once, after the rows of S itself.
    monkeypatch.setattr(mixing, "_symmetric_deviation", counting)
    s_ru = spectral.random_update_symmetric(asymmetric_rbm, space)
    assert mixing.active_start_mixing_time(s_ru, space) == 23
    assert rows_read[0] == space.size
    rows_formed = rows_read[1:]

    def above(t):
        return int(np.sum(_per_start_tv(p, space, t) > mixing.DEFAULT_THRESHOLD))

    # S^2 (a sparse product) and S^4 .. S^32 in full, the last since 20 of
    # the 32 starts, at least half, are above at t = 16; S^32 closes the
    # bracket (16, 32]. Then lifting t = 16 by 8 (no start above at 24),
    # by 4 (to 20), by 2 (to 22) and by 1 (no start above at 23).
    assert above(8) == space.size
    assert 2 * above(16) >= space.size
    assert above(16) > above(20) > above(22) > 0 == above(23)
    assert sum(rows_formed) == 5 * space.size + 2 * above(16) + above(20) + above(22)


@pytest.mark.parametrize("threshold, t_mix", [(mixing.DEFAULT_THRESHOLD, 23), (0.05, 44)])
def test_active_start_search_reads_squares_a_block_at_a_time(
        asymmetric_rbm, monkeypatch, threshold, t_mix):
    space = sg.enumerate_state_space(asymmetric_rbm)
    p = random_update_kernel(asymmetric_rbm, space, lazy=True)
    reads = []
    symmetric_deviation = mixing._symmetric_deviation

    def counting(rows, starts, r):
        reads.append(len(starts))
        return symmetric_deviation(rows, starts, r)

    monkeypatch.setattr(mixing, "_symmetric_deviation", counting)
    monkeypatch.setattr(mixing, "_READOUT_ELEMENTS", 4 * space.size)
    s_ru = spectral.random_update_symmetric(asymmetric_rbm, space)
    assert mixing.active_start_mixing_time(s_ru, space, threshold) == t_mix

    def above(t):
        return int(np.sum(_per_start_tv(p, space, t) > threshold))

    # S .. S^16 each read one block, the 4 starts nearest the threshold,
    # all of them above it; at t <= 8 every start is.
    assert above(8) == space.size
    if threshold == mixing.DEFAULT_THRESHOLD:
        # S^32 is read in full and closes the bracket (16, 32]. The 28
        # starts skipped at S^16 are read there before lifting, which
        # starts from the 20 rows above at 16: to 24 (none above), 20, 22, 23.
        assert (above(16), above(20), above(22), above(23)) == (20, 6, 4, 0)
        assert reads == [4] * 5 + [4] * 8 + [28] + [20, 20, 6, 4]
    else:
        # The nearest block at S^32 holds a start at or below 0.05, so the
        # reading goes on through all 8 blocks. S^64, squared in full as 18
        # of 32 starts are active, reads their rows, none above; lifting
        # starts from them: to 48 (none above), 40, 44 (none above), 42, 43.
        assert (above(32), above(40), above(42)) == (18, 5, 3)
        assert reads == [4] * 5 + [4] * 8 + [4, 4, 4, 4, 2] + [18, 18, 5, 5, 3]


@pytest.mark.parametrize("lazy", [True, False])
def test_active_start_squares_are_byte_symmetric(engine_models, monkeypatch, lazy):
    squares = []
    symmetric_square = mixing._symmetric_square

    def recording(square):
        squares.append(symmetric_square(square))
        return squares[-1]

    monkeypatch.setattr(mixing, "_symmetric_square", recording)
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        s_ru = spectral.random_update_symmetric(model, space, lazy)
        mixing.active_start_mixing_time(s_ru, space, threshold=0.01)
    assert len(squares) > 2 * len(engine_models)
    for square in squares:
        _assert_byte_symmetric(square)


@pytest.mark.parametrize("lazy", [True, False])
def test_lifting_through_a_half_twice_matches_the_square(engine_models, lazy):
    # The search lifts through a dropped dense S^s as rows S^(s/2) S^(s/2).
    # Every operand is nonnegative, so each computed entry of either side
    # is within gamma_{2N}, about 2 N eps, of the exact entry, relatively.
    eps = np.finfo(float).eps
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        half = spectral.random_update_symmetric(model, space, lazy)
        rows = half[::2].toarray()
        for s in (2, 4, 8, 16):
            expected = rows @ mixing._symmetric_square(half)
            lifted = rows @ half @ half
            bound = 4 * space.size * eps * expected
            assert np.all(np.abs(lifted - expected) <= bound), (model.label, s)
            half = mixing._symmetric_square(half)


def _assert_byte_symmetric(square):
    """A dense square equals its transpose to the bit; a sparse one is in
    canonical form and its transpose has the same indices and data bytes."""
    if not sp.issparse(square):
        assert square.tobytes() == np.ascontiguousarray(square.T).tobytes()
        return
    assert square.has_canonical_format
    transpose = square.T.tocsr()
    transpose.sort_indices()
    assert np.array_equal(square.indptr, transpose.indptr)
    assert np.array_equal(square.indices, transpose.indices)
    assert square.data.tobytes() == transpose.data.tobytes()


@pytest.mark.parametrize("lazy", [True, False])
def test_symmetric_readout_matches_the_kernel_rows(engine_models, lazy):
    # 2 d_x(t) read from S^t = D^{1/2} P^t D^{-1/2} against |P^t - pi| row sums
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        p = random_update_kernel(model, space, lazy=lazy).matrix
        s = spectral.random_update_symmetric(model, space, lazy).toarray()
        starts, r = np.arange(space.size), np.sqrt(space.pi)
        for t in range(1, 9):
            expected = mixing._abs_deviation(np.linalg.matrix_power(p, t), space.pi)
            got = mixing._symmetric_deviation(np.linalg.matrix_power(s, t), starts, r)
            assert np.max(np.abs(got - expected)) <= 1e-13, (model.label, t)


def test_symmetric_readout_does_not_depend_on_the_rows_read_with_it(monkeypatch):
    # Each start's deviation is summed on its own: read from S^8 in blocks
    # of 1, 7, 32 (the default's 2^16 entries) or 128 rows, all at once, or
    # among every third start only, it is the same to the bit. A BLAS gemv
    # over each block gave 1661 of the 2048 rows a different last bit in
    # blocks of 1 than in blocks of 128.
    model = sg.random_bipartite_model(5, 6, 30, -1.0, 1.0, 1)
    space = sg.enumerate_state_space(model, cap=4096)
    power = spectral.random_update_symmetric(model, space)
    for _ in range(3):
        power = mixing._symmetric_square(power)
    starts, r = np.arange(space.size), np.sqrt(space.pi)
    every_third = starts[::3]
    whole, subsets = [], []
    for block_rows in (1, 7, 32, 128, space.size):
        monkeypatch.setattr(mixing, "_READOUT_ELEMENTS", block_rows * space.size)
        whole.append(mixing._symmetric_deviation(power, starts, r).tobytes())
        subsets.append(mixing._symmetric_deviation(power[every_third], every_third, r))
    assert len(set(whole)) == 1
    expected = np.frombuffer(whole[0])[every_third].tobytes()
    assert all(subset.tobytes() == expected for subset in subsets)


def test_active_start_search_at_t0_and_t1(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    p = random_update_kernel(zero_rbm_22, space, lazy=False)
    s_ru = spectral.random_update_symmetric(zero_rbm_22, space, lazy=False)
    # TV is 15/16 at t = 0; after one update P(x, .) meets pi = 1/16 only
    # on x and its 4 neighbours, so TV = 1 - 5/16
    assert _per_start_tv(p, space, 1).max() == pytest.approx(0.6875)
    for threshold, expected in ((0.95, 0), (0.7, 1), (0.6, 2)):
        assert mixing.active_start_mixing_time(s_ru, space, threshold) == expected
        assert exact_mixing_time(p, space, threshold, method="doubling").mixing_time == expected


def test_active_start_search_truncation(k22):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    s_ru = spectral.random_update_symmetric(model, space)
    for t_max in range(1, 40):
        report = exact_mixing_time(p, space, t_max=t_max, method="doubling")
        expected = None if report.truncated else report.mixing_time
        assert mixing.active_start_mixing_time(s_ru, space, t_max=t_max) == expected, t_max
    for threshold, t_max in ((mixing.DEFAULT_THRESHOLD, 0), (math.nan, 3), (0.0, 3), (1.0, 3)):
        with pytest.raises(MixingError):
            mixing.active_start_mixing_time(s_ru, space, threshold, t_max)
        with pytest.raises(MixingError):
            exact_mixing_time(p, space, threshold, t_max)


def test_active_start_search_squares_sparsely_while_sparse(monkeypatch):
    # 2048 states, as in the benchmark's exact_large: S has at most 12
    # entries a row, S^2 is 3.3% full and S^4 27%.
    model = sg.random_bipartite_model(5, 6, 30, -1.0, 1.0, 1)
    space = sg.enumerate_state_space(model, cap=4096)
    s_ru = spectral.random_update_symmetric(model, space)
    calls = []
    symmetric_square = mixing._symmetric_square

    def recording(square):
        calls.append((sp.issparse(square), symmetric_square(square)))
        return calls[-1][1]

    monkeypatch.setattr(mixing, "_symmetric_square", recording)
    assert mixing.active_start_mixing_time(s_ru, space) == 86
    # S^2 stays sparse, S^4 is a sparse product stored dense, and
    # S^8 .. S^64 are the 4 syrk squares (syrk from a dense S^2 would make 5).
    assert [given for given, _ in calls] == [True, True, False, False, False, False]
    assert [sp.issparse(square) for _, square in calls] == [True] + [False] * 5
    limit = mixing._SPARSE_DENSITY * space.size ** 2
    assert calls[0][1].nnz <= limit < np.count_nonzero(calls[1][1])
    for _, square in calls:
        _assert_byte_symmetric(square)
    # Closed at S^4 and S^8: the bisection lifts sparse rows of S^2 by S,
    # and dense rows of S^4 by the sparse S^2 and S.
    for threshold, expected in ((0.99, 3), (0.97, 5)):
        assert mixing.active_start_mixing_time(s_ru, space, threshold) == expected
    for bad in (-1e-300, math.nan):
        broken = s_ru.copy()
        broken.data[0] = bad
        with pytest.raises(chain.NumericalError):
            mixing.active_start_mixing_time(broken, space)


def test_active_start_search_rejects_non_ergodic():
    # pi of (x1, x2) = (0, 1) underflows to 0; the search takes S from
    # random_update_symmetric, which rejects a zero in pi
    model = sg.build_rbm(np.zeros((1, 1)), [400.0], [-400.0])
    space = sg.enumerate_state_space(model)
    with pytest.raises(sg.spectral.NonErgodicError):
        mixing.active_start_mixing_time(spectral.random_update_symmetric(model, space), space)


def test_verify_mixing_bounds_assembles_one_sparse_kernel(engine_models, monkeypatch):
    expected = [sg.verify_mixing_bounds(model, lazy=lazy)
                for model in engine_models for lazy in (True, False)]
    assembled = []
    random_update_symmetric = spectral.random_update_symmetric

    def counting(*args, **kwargs):
        assembled.append(args)
        return random_update_symmetric(*args, **kwargs)

    monkeypatch.setattr(mixing, "random_update_symmetric", counting)
    # the dense random-update kernel is a test oracle, not part of the package
    assert not hasattr(chain, "random_update_kernel")
    assert [sg.verify_mixing_bounds(model, lazy=lazy)
            for model in engine_models for lazy in (True, False)] == expected
    assert len(assembled) == len(expected)


def test_verify_mixing_bounds_does_not_call_exact_mixing_time(asymmetric_rbm, monkeypatch):
    expected = sg.verify_mixing_bounds(asymmetric_rbm)

    def boom(*args, **kwargs):
        raise AssertionError("exact_mixing_time called")

    monkeypatch.setattr(mixing, "exact_mixing_time", boom)
    assert sg.verify_mixing_bounds(asymmetric_rbm) == expected


def test_verify_mixing_bounds_truncation_is_an_error(hardcore_k22):
    with pytest.raises(MixingError, match="truncated"):
        sg.verify_mixing_bounds(hardcore_k22, t_max=31)
    assert sg.verify_mixing_bounds(hardcore_k22, t_max=32)["t_mix_ru"] == 32


def _renormalize_reference(matrix):
    matrix = np.maximum(matrix, 0.0)
    return matrix / matrix.sum(axis=1)[:, None]


def _worst_tv_reference(power, pi):
    return 0.5 * float(np.max(np.abs(power - pi[None, :]).sum(axis=1)))


def test_in_place_renormalize_and_readout_are_bit_identical():
    # The golden record pins lumped mixing times that sit within rounding
    # of the threshold, so the in-place arithmetic must not move a bit.
    for n in range(4, 51):
        space = sg.lumped_state_space(n)
        for kernel in (sg.lumped_ru_kernel(n, lazy=False), sg.lumped_as_kernel(n)):
            power = kernel.matrix
            for _ in range(12):
                expected = _renormalize_reference(power @ power)
                power = mixing._renormalized_product(power, power)
                assert power.tobytes() == expected.tobytes(), n
                tv = _worst_tv_reference(power, space.pi)
                assert mixing._worst_tv(power, space.pi) == tv
                assert mixing._worst_tv(power, space.pi, np.empty_like(power)) == tv
                assert power.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [10, 30, 50])
def test_unclamped_product_gives_the_tv_curves_of_a_clamping_one(monkeypatch, n):
    # Products of nonnegative matrices have no negative entry to clamp.
    space = sg.lumped_state_space(n)
    kernels = (sg.lumped_ru_kernel(n, lazy=False), sg.lumped_as_kernel(n))
    curves = [exact_mixing_time(k, space, t_max=10 ** 17, method="doubling").tv_curve
              for k in kernels]
    monkeypatch.setattr(mixing, "_renormalized_product",
                        lambda a, b: _renormalize_reference(a @ b))
    for kernel, curve in zip(kernels, curves):
        assert exact_mixing_time(
            kernel, space, t_max=10 ** 17, method="doubling").tv_curve == curve


@pytest.mark.parametrize("bad", [-1e-300, math.nan])
def test_negative_or_nan_operand_raises(k22, bad):
    model, space = k22
    matrix = random_update_kernel(model, space).matrix.copy()
    matrix[0, 1] = bad
    kernel = chain.Kernel(matrix, chain.UNIT_VARIABLE, "broken")
    for search in (iterate_mixing_time, exact_mixing_time):
        with pytest.raises(chain.NumericalError, match="negative or NaN"):
            search(kernel, space)
    table = chain.joint_table(model, space)
    for field in ("cond1", "cond2"):
        conditional = getattr(table, field).copy()
        conditional[0, 0] = bad
        broken = dataclasses.replace(table, **{field: conditional})
        for analysis in (mixing.scan_mixing_time, mixing.scan_fill_inequality):
            with pytest.raises(chain.NumericalError, match="negative or NaN"):
                analysis(broken)
