import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import scangibbs as sg
from scangibbs import chain, spectral
from scangibbs.chain import StateSpaceCapError
from scangibbs.lumped import lumped_as_kernel, lumped_ru_kernel
from scangibbs.spectral import NonErgodicError

import oracles
from oracles import (
    conditional_distribution,
    model_from_edges,
    random_update_kernel,
    random_update_sparse_sum,
    scan_kernels,
    single_site_kernel,
    stationary_projector,
)


def db_violation(kernel, space):
    return chain.detailed_balance_violation(kernel, space)


@pytest.fixture(scope="module")
def k22(hardcore_k22):
    space = sg.enumerate_state_space(hardcore_k22)
    return hardcore_k22, space


@pytest.fixture(scope="module")
def rbm(asymmetric_rbm):
    space = sg.enumerate_state_space(asymmetric_rbm)
    return asymmetric_rbm, space


def test_enumerate_zero_rbm_three_vars():
    model = sg.build_rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1))
    space = sg.enumerate_state_space(model)
    assert space.size == 8
    assert space.pi == pytest.approx([1 / 8] * 8)


def test_enumerate_hardcore_k33(hardcore_k33):
    space = sg.enumerate_state_space(hardcore_k33)
    assert space.size == 15
    assert space.pi.min() == pytest.approx(1 / 15)
    assert space.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumerate_cap_exceeded(hardcore_k33):
    with pytest.raises(StateSpaceCapError, match="15 > 10"):
        sg.enumerate_state_space(hardcore_k33, cap=10)


def test_enumerate_refuses_a_hamiltonian_that_overflows():
    # Finite tables whose sum is inf: h - max h would be NaN. The message
    # replaces numpy's overflow warning.
    model = sg.build_rbm([[1e308]], [1e308], [0.0])
    with warnings.catch_warnings(), pytest.raises(sg.ModelError, match="overflows float64"):
        warnings.simplefilter("error")
        sg.enumerate_state_space(model)


def test_enumerate_wide_domain():
    # 200 values per variable overflow an int8 configuration grid
    S = 200
    model = model_from_edges(1, 1, S, (), np.zeros((2, S)))
    with pytest.raises(StateSpaceCapError, match="40000 > 4096"):
        sg.enumerate_state_space(model)
    space = sg.enumerate_state_space(model, cap=40000)
    assert space.size == S * S
    assert space.pi == pytest.approx(np.full(S * S, 1 / S ** 2))
    for config in ([0, 0], [199, 0], [128, 199], [57, 130], [199, 199]):
        i = config[0] * S + config[1]
        assert space.configs[i].tolist() == config
        assert space.keys[i] == space.position[i] == i


@pytest.mark.parametrize(
    "S, n1, n2", [(2, 1, 1), (2, 3, 4), (3, 2, 2), (2, 5, 6), (200, 1, 1)]
)
def test_enumeration_grid_matches_itertools_product(S, n1, n2):
    model = model_from_edges(n1, n2, S, (), np.zeros((n1 + n2, S)))
    space = sg.enumerate_state_space(model, cap=S ** (n1 + n2))
    expected = np.array(list(itertools.product(range(S), repeat=n1 + n2)))
    assert space.configs.dtype == (np.int8 if S <= 128 else np.int16)
    assert np.array_equal(space.configs, expected)


def test_enumerate_hardcore_rows_are_product_order(hardcore_k33):
    space = sg.enumerate_state_space(hardcore_k33)
    expected = [
        c for c in itertools.product(range(2), repeat=6)
        if not (any(c[:3]) and any(c[3:]))
    ]
    assert space.configs.tolist() == [list(c) for c in expected]


def test_single_site_kernel_is_the_conditional_law(hardcore_k33):
    # Rows are found through a dict of the configurations, not the grid
    # index the kernel is built on, and the law comes from the factors.
    rng = np.random.default_rng(17)
    dbm = sg.build_dbm((2, 2, 2), [rng.uniform(-1, 1, (2, 2)) for _ in range(2)],
                       [rng.uniform(-1, 1, 2) for _ in range(3)])
    edges = tuple((i, 2 + j, rng.uniform(-1.0, 1.0, (3, 3)))
                  for i in range(2) for j in range(2))
    hardcore3 = model_from_edges(2, 2, 3, edges, rng.uniform(-1.0, 1.0, (4, 3)),
                                 hard_constraint="hardcore")
    for model in (hardcore_k33, dbm, hardcore3):
        space = sg.enumerate_state_space(model)
        configs = space.configs.tolist()
        row_of = {tuple(c): i for i, c in enumerate(configs)}
        for x in range(model.n):
            kernel = single_site_kernel(model, space, x).matrix
            for i, c in enumerate(configs):
                law = conditional_distribution(model, c, x)
                for s in range(model.domain_size):
                    j = row_of.get((*c[:x], s, *c[x + 1:]))
                    got = 0.0 if j is None else kernel[i, j]
                    assert abs(got - law[s]) <= 1e-12, (model.label, c, x, s)


def test_single_site_rows_sum_to_one(rbm):
    model, space = rbm
    for x in range(model.n):
        t = single_site_kernel(model, space, x)
        assert t.matrix.sum(axis=1) == pytest.approx(np.ones(space.size), abs=1e-12)


def test_single_site_uniform_conditional(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    t = single_site_kernel(zero_rbm_22, space, 0)
    nonzero = t.matrix[t.matrix > 0]
    assert nonzero == pytest.approx(np.full(nonzero.shape, 0.5))


def test_single_site_idempotent_self_adjoint_commuting(rbm):
    model, space = rbm
    ts = [single_site_kernel(model, space, x).matrix for x in range(model.n)]
    for t in ts:
        assert np.max(np.abs(t @ t - t)) <= 1e-12
        flux = space.pi[:, None] * t
        assert np.max(np.abs(flux - flux.T)) <= 1e-12
    for part in (range(model.n1), range(model.n1, model.n)):
        part = list(part)
        for i in part:
            for j in part:
                assert np.max(np.abs(ts[i] @ ts[j] - ts[j] @ ts[i])) <= 1e-12


def test_random_update_lazy_diagonal(rbm):
    model, space = rbm
    p = random_update_kernel(model, space, lazy=True)
    assert np.all(np.diag(p.matrix) >= 0.5)
    assert p.unit == chain.UNIT_VARIABLE


def test_random_update_detailed_balance(rbm):
    model, space = rbm
    for lazy in (True, False):
        p = random_update_kernel(model, space, lazy=lazy)
        assert db_violation(p, space) <= 1e-12


def test_non_lazy_is_affine_in_lazy(rbm):
    model, space = rbm
    lazy = random_update_kernel(model, space, lazy=True).matrix
    nonlazy = random_update_kernel(model, space, lazy=False).matrix
    assert np.max(np.abs(nonlazy - (2 * lazy - np.eye(space.size)))) <= 1e-12


def test_scan_zero_weight_is_projector(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    kernels = scan_kernels(zero_rbm_22, space)
    s_pi = stationary_projector(space)
    assert np.max(np.abs(kernels["P_AS"].matrix - s_pi.matrix)) <= 1e-12


def test_scan_gibbs_mixture_identity(rbm):
    model, space = rbm
    kernels = scan_kernels(model, space)
    p_ru = random_update_kernel(model, space, lazy=True)
    mix = (
        model.n1 * kernels["P_GS1"].matrix + model.n2 * kernels["P_GS2"].matrix
    ) / model.n
    assert np.max(np.abs(p_ru.matrix - mix)) <= 1e-12


def test_scan_absorbs_extra_update(rbm):
    model, space = rbm
    k = scan_kernels(model, space)
    a1, a2 = k["P_AS1"].matrix, k["P_AS2"].matrix
    g1, g2 = k["P_GS1"].matrix, k["P_GS2"].matrix
    assert np.max(np.abs(a1 @ g1 - a1)) <= 1e-12
    assert np.max(np.abs(g2 @ a2 - a2)) <= 1e-12


def test_scan_order_within_partition_irrelevant(rbm):
    model, space = rbm
    ts = [single_site_kernel(model, space, x).matrix for x in range(model.n)]
    forward = ts[0] @ ts[1] @ ts[2]
    backward = ts[2] @ ts[1] @ ts[0]
    assert np.max(np.abs(forward - backward)) <= 1e-12


def test_adjoint_of_reversible_is_identity_map(rbm):
    model, space = rbm
    p = random_update_kernel(model, space, lazy=True)
    assert np.max(np.abs(sg.adjoint(p, space).matrix - p.matrix)) <= 1e-12


def test_adjoint_involution(rbm):
    model, space = rbm
    p_as = scan_kernels(model, space)["P_AS"]
    twice = sg.adjoint(sg.adjoint(p_as, space), space)
    assert np.max(np.abs(twice.matrix - p_as.matrix)) <= 1e-12


def test_adjoint_factorization(rbm):
    model, space = rbm
    k = scan_kernels(model, space)
    adj = sg.adjoint(k["P_AS"], space)
    assert np.max(np.abs(adj.matrix - k["P_AS2"].matrix @ k["P_AS1"].matrix)) <= 1e-12


def test_adjoint_requires_stationarity(rbm):
    model, space = rbm
    bogus = chain.Kernel(np.eye(space.size - 1), chain.UNIT_COMPOSITE, "bogus")
    padded = np.eye(space.size)
    padded[0, 0], padded[0, 1] = 0.0, 1.0  # pi is no longer stationary
    bogus = chain.Kernel(padded, chain.UNIT_COMPOSITE, "bogus")
    with pytest.raises(chain.StationarityError):
        sg.adjoint(bogus, space)


def test_reversibilization_fixes_projector(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    s_pi = stationary_projector(space)
    r = sg.reversibilization(s_pi, space)
    assert np.max(np.abs(r.matrix - s_pi.matrix)) <= 1e-12


def test_reversibilization_of_reversible_is_square(rbm):
    model, space = rbm
    p = random_update_kernel(model, space, lazy=True)
    r = sg.reversibilization(p, space)
    assert np.max(np.abs(r.matrix - p.matrix @ p.matrix)) <= 1e-12


def test_reversibilization_is_reversible(k22):
    model, space = k22
    p_as = scan_kernels(model, space)["P_AS"]
    r = sg.reversibilization(p_as, space)
    assert db_violation(r, space) <= 1e-12


def test_ergodicity_hardcore(hardcore_k33):
    space = sg.enumerate_state_space(hardcore_k33)
    assert chain.is_ergodic(random_update_kernel(hardcore_k33, space))
    assert chain.is_ergodic(scan_kernels(hardcore_k33, space)["P_AS"])


def test_ergodicity_identity_kernel():
    # every state holds: self-loops everywhere, but reducible
    identity = chain.Kernel(np.eye(3), chain.UNIT_COMPOSITE, "I")
    assert not chain.is_ergodic(identity)


def test_ergodicity_periodic_two_cycle():
    # irreducible, but every return takes an even number of steps
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not chain.is_ergodic(chain.Kernel(flip, chain.UNIT_COMPOSITE, "flip"))


@pytest.mark.parametrize("n", range(1, 51))
def test_ergodicity_of_lumped_kernels_matches_csgraph(n):
    # The lumped random update moves one step along a path of 2n + 1
    # states, so reaching them all from state 0 takes about n sweeps.
    for kernel in (lumped_ru_kernel(n, lazy=True), lumped_ru_kernel(n, lazy=False),
                   lumped_as_kernel(n)):
        assert chain.is_ergodic(kernel) is oracles.is_ergodic(kernel) is True, kernel.label


@pytest.mark.parametrize("matrix,ergodic", [
    ([[1.0]], True),
    (np.eye(3), False),
    ([[0.0, 1.0], [1.0, 0.0]], False),
    (np.kron(np.eye(2), np.full((2, 2), 0.5)), False),
    # weakly but not strongly connected: state 1 reaches state 0, which
    # never leaves, so only the sweep from state 0 along the moves fails
    ([[1.0, 0.0], [0.5, 0.5]], False),
    # and the other way round, so only the sweep against the moves fails
    ([[0.5, 0.5], [0.0, 1.0]], False),
    ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]], True),
], ids=["single_state", "identity", "two_cycle", "block_diagonal", "one_way_into_0",
        "one_way_out_of_0", "three_cycle"])
def test_ergodicity_of_small_kernels_matches_csgraph(matrix, ergodic):
    kernel = chain.Kernel(np.asarray(matrix, dtype=float), chain.UNIT_COMPOSITE, "K")
    assert chain.is_ergodic(kernel) is oracles.is_ergodic(kernel) is ergodic


def test_stationarity_of_all_kernels(rbm):
    model, space = rbm
    kernels = [random_update_kernel(model, space, lazy=lazy) for lazy in (True, False)]
    kernels += list(scan_kernels(model, space).values())
    for kernel in kernels:
        assert chain.stationarity_defect(kernel, space) <= 1e-10


def test_scan_deviation_decompositions(rbm):
    model, space = rbm
    k = scan_kernels(model, space)
    p_ru = random_update_kernel(model, space, lazy=True)
    s = stationary_projector(space).matrix
    a1, a2, p_as = k["P_AS1"].matrix, k["P_AS2"].matrix, k["P_AS"].matrix
    p_as_star = sg.adjoint(k["P_AS"], space).matrix
    assert np.max(np.abs(a1 @ (p_ru.matrix - s) @ a2 - (p_as - s))) <= 1e-12
    assert np.max(
        np.abs((p_as - s) @ (p_as_star - s) - (p_as @ p_as_star - s))
    ) <= 1e-12


def test_alternating_scan_breaks_detailed_balance(rbm):
    # recorded on this instance; not a universal claim
    model, space = rbm
    p_as = scan_kernels(model, space)["P_AS"]
    assert db_violation(p_as, space) > 1e-6


@pytest.mark.parametrize("lazy", [True, False])
def test_random_update_sparse_is_the_sparse_sum_bit_for_bit(
        engine_models, exact_small_models, lazy):
    # S stores the entries of the sparse sum P, every diagonal included, and
    # the lazy mix on the data array is 0.5 I + 0.5 S in sparse operations.
    for model in (*engine_models, *exact_small_models):
        space = sg.enumerate_state_space(model)
        s = spectral.random_update_symmetric(model, space, lazy)
        p = random_update_sparse_sum(model, space, lazy)
        for field in ("indptr", "indices"):
            assert np.array_equal(getattr(s, field), getattr(p, field)), (model.label, field)
        if lazy:
            eager = spectral.random_update_symmetric(model, space, lazy=False)
            mixed = sp.csr_array(0.5 * sp.eye_array(space.size, format="csr") + 0.5 * eager)
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(s, field), getattr(mixed, field)), (
                    model.label, field)


def test_underflowed_site_fails_both_kernel_builders():
    # At (x1, x2) = (0, 1) both values of x1 have pi = exp(-1400) / Z and
    # exp(-800) / Z, which underflow to 0: the conditional law is 0/0.
    # The dense oracle meets the 0/0; the symmetric form stops at the
    # zero in pi before any division.
    model = sg.build_rbm([[-100.0]], [700.0], [-700.0])
    space = sg.enumerate_state_space(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lazy in (True, False):
            with pytest.raises(chain.NumericalError, match="pi vanishes"):
                random_update_kernel(model, space, lazy)
            with pytest.raises(NonErgodicError, match="pi vanishes"):
                spectral.random_update_symmetric(model, space, lazy)


@pytest.mark.parametrize("low, sums", [
    (np.nan, np.ones(2)),
    (0.0, np.array([1.0, np.nan])),
])
def test_stochastic_check_rejects_nan(low, sums):
    with pytest.raises(chain.NumericalError):
        chain._check_stochastic(low, sums)


@pytest.mark.parametrize("low, sums, match", [
    (-1e-13, np.ones(2), "negative tolerance"),
    (0.0, np.array([1.0, 1.0 + 1e-9]), "row sums deviate"),
])
def test_stochastic_check_rejects_a_negative_entry_or_a_drifted_row(low, sums, match):
    with pytest.raises(chain.NumericalError, match=match):
        chain._check_stochastic(low, sums)
