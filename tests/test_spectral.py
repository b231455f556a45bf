import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

import scangibbs as sg
from scangibbs import chain, cli, mixing, spectral
from scangibbs.spectral import NonErgodicError

import oracles
from oracles import (
    general_operator_norm,
    random_update_kernel,
    scan_kernels,
    stationary_projector,
)


@pytest.fixture(scope="module")
def k22(hardcore_k22):
    space = sg.enumerate_state_space(hardcore_k22)
    return hardcore_k22, space


def test_deviation_norm_projector_is_zero(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    s_pi = stationary_projector(space)
    assert sg.deviation_norm(s_pi, space) <= 1e-12


def test_deviation_norm_identity_is_one(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    identity = chain.Kernel(np.eye(space.size), chain.UNIT_COMPOSITE, "I")
    assert sg.deviation_norm(identity, space) == pytest.approx(1.0)


def test_deviation_norm_rejects_non_symmetric(asymmetric_rbm):
    space = sg.enumerate_state_space(asymmetric_rbm)
    p_as = scan_kernels(asymmetric_rbm, space)["P_AS"]
    with pytest.raises(chain.NumericalError, match="asymmetry"):
        sg.deviation_norm(p_as, space)


def test_general_norm_matches_deviation_norm_when_symmetric(k22):
    model, space = k22
    p = random_update_kernel(model, space, lazy=True)
    s = stationary_projector(space).matrix
    assert general_operator_norm(p.matrix - s, space) == pytest.approx(
        sg.deviation_norm(p, space), abs=1e-12
    )


def test_scan_deviation_norm_is_the_maximal_correlation(engine_models):
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        p_as = scan_kernels(model, space)["P_AS"]
        norm = general_operator_norm(p_as.matrix - stationary_projector(space).matrix, space)
        rho = spectral.scan_correlation(chain.joint_table(model, space))
        assert norm == pytest.approx(rho, rel=1e-12, abs=1e-14), model.label


def test_general_norm_stochastic_kernel_is_one(asymmetric_rbm):
    space = sg.enumerate_state_space(asymmetric_rbm)
    k = scan_kernels(asymmetric_rbm, space)
    for name in ("P_AS1", "P_AS2", "P_AS"):
        assert general_operator_norm(k[name], space) == pytest.approx(
            1.0, abs=1e-10
        )


def test_relaxation_zero_weight_lazy_closed_form():
    # lazy single-site resampling of n independent fair coins has gap 1/(2n)
    model = sg.build_rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    space = sg.enumerate_state_space(model)
    report = sg.relaxation_time(random_update_kernel(model, space), space)
    assert report.reversible
    assert report.gap == pytest.approx(1 / 8, abs=1e-12)
    assert report.relaxation_time == pytest.approx(8.0, abs=1e-9)


def test_relaxation_zero_weight_scan_is_instant(zero_rbm_22):
    space = sg.enumerate_state_space(zero_rbm_22)
    p_as = scan_kernels(zero_rbm_22, space)["P_AS"]
    report = sg.relaxation_time(p_as, space)
    assert report.relaxation_time == pytest.approx(1.0, abs=1e-9)


def test_scan_report_nearly_independent_is_not_reversible(zero_rbm_22):
    # Weights of 1e-9 make rho about 5e-10: P_AS meets detailed balance to
    # the dense check's 1e-10, yet it is not S_pi, so it is not reversible
    # and t_rel = 1 / (1 - rho), not the 1 / (1 - SLEM(P_AS)) of the dense
    # reversible formula.
    zero_space = sg.enumerate_state_space(zero_rbm_22)
    zero = spectral.scan_report(chain.joint_table(zero_rbm_22, zero_space))
    assert zero.reversible and zero.relaxation_time == pytest.approx(1.0, abs=1e-15)
    model = sg.build_rbm(np.full((2, 2), 1e-9), np.array([0.3, -0.2]), np.array([0.1, 0.5]))
    space = sg.enumerate_state_space(model)
    table = chain.joint_table(model, space)
    rho = spectral.scan_correlation(table)
    assert rho == pytest.approx(4.881625538e-10, rel=1e-6)
    p_as = scan_kernels(model, space)["P_AS"]
    assert chain.is_reversible(p_as, space)
    report = spectral.scan_report(table)
    assert not report.reversible
    assert report.relaxation_time == 1.0 / (1.0 - rho)
    assert report.second_largest_modulus == rho ** 2
    rev_norm = sg.deviation_norm(chain.reversibilization(p_as, space), space)
    assert rev_norm == pytest.approx(report.second_largest_modulus, abs=1e-15)


def test_relaxation_hardcore_k22_frozen_values(k22):
    model, space = k22
    lazy = sg.relaxation_time(random_update_kernel(model, space, lazy=True), space)
    nonlazy = sg.relaxation_time(
        random_update_kernel(model, space, lazy=False), space
    )
    # closed forms checked against an independent eigendecomposition:
    # T_rel = 8(2 + sqrt(2)) lazy and half that non-lazy
    assert lazy.relaxation_time == pytest.approx(8 * (2 + math.sqrt(2)), abs=1e-9)
    assert nonlazy.relaxation_time == pytest.approx(4 * (2 + math.sqrt(2)), abs=1e-9)
    assert lazy.method == "reversible_inverse_gap"


def test_relaxation_hardcore_k22_scan(k22):
    model, space = k22
    report = sg.relaxation_time(scan_kernels(model, space)["P_AS"], space)
    assert not report.reversible
    assert report.method == "multiplicative_reversibilization"
    assert report.second_largest_modulus == pytest.approx(9 / 16, abs=1e-9)
    assert report.relaxation_time == pytest.approx(4.0, abs=1e-9)


def test_hardcore_knn_scan_closed_form():
    # README, "How the analyses use the bipartite structure": J has cells
    # 1 and a = 2^n - 1 on the empty rows and columns and 0 elsewhere, so
    # rho = a / 2^n and t_rel(AS) = 2^n. rho is good to 2^n eps (the SVD
    # bound) and 1 - rho = 2^-n, so t_rel is good to a relative 4^n eps.
    for n in range(1, 12):
        model = sg.build_hardcore_complete_bipartite(n)
        table = chain.joint_table(model, sg.enumerate_state_space(model))
        occupied = np.arange(2 ** n) > 0
        assert table.joint.shape == (2 ** n, 2 ** n)
        assert np.array_equal(table.joint == 0.0, np.outer(occupied, occupied)), n
        t_rel = spectral.scan_report(table).relaxation_time
        assert abs(t_rel - 2 ** n) <= 4 ** n * np.finfo(float).eps * 2 ** n, n


def test_relaxation_time_consistency_formula(asymmetric_rbm):
    space = sg.enumerate_state_space(asymmetric_rbm)
    p_as = scan_kernels(asymmetric_rbm, space)["P_AS"]
    report = sg.relaxation_time(p_as, space)
    slm = report.second_largest_modulus
    assert report.relaxation_time == pytest.approx(1.0 / (1.0 - math.sqrt(slm)))


def test_relaxation_rejects_identity():
    space = sg.enumerate_state_space(
        sg.build_rbm(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
    )
    identity = chain.Kernel(np.eye(space.size), chain.UNIT_COMPOSITE, "I")
    with pytest.raises(NonErgodicError):
        sg.relaxation_time(identity, space)


def test_verify_theorem1_single_instances(hardcore_k22, hardcore_k33, asymmetric_rbm):
    for model in (hardcore_k22, hardcore_k33, asymmetric_rbm):
        result = sg.verify_theorem1(model)
        assert result["holds"], result
        assert result["contraction_holds"], result
        assert result["t_rel_as"] <= result["t_rel_ru"] + 1e-9


def test_verify_theorem1_random_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = int(rng.integers(0, n1 * n2 + 1))
        model = sg.random_bipartite_model(
            n1, n2, m, -2.0, 2.0, seed=int(rng.integers(0, 2 ** 31))
        )
        result = sg.verify_theorem1(model)
        assert result["holds"], (n1, n2, m, result)
        assert result["contraction_holds"], (n1, n2, m, result)


def test_verify_theorem1_nonlazy_contraction_can_use_nonlazy_norm(hardcore_k22):
    result = sg.verify_theorem1(hardcore_k22, lazy=False)
    assert result["holds"]


def _dense_theorem1(model, lazy):
    space = sg.enumerate_state_space(model)
    p_ru = random_update_kernel(model, space, lazy=lazy)
    p_as = scan_kernels(model, space)["P_AS"]
    return {
        "t_rel_as": sg.relaxation_time(p_as, space).relaxation_time,
        "t_rel_ru": sg.relaxation_time(p_ru, space).relaxation_time,
        "contraction_lhs": sg.deviation_norm(sg.reversibilization(p_as, space), space),
        "contraction_rhs": sg.deviation_norm(p_ru, space) ** 2,
    }


@pytest.mark.parametrize("lazy", [True, False])
def test_verify_theorem1_matches_dense_oracle(engine_models, lazy):
    for model in engine_models:
        result = sg.verify_theorem1(model, lazy=lazy)
        for key, value in _dense_theorem1(model, lazy).items():
            assert result[key] == pytest.approx(value, rel=1e-10, abs=1e-14), (
                model.label, key)


@pytest.mark.parametrize("lazy", [True, False])
def test_sparse_slem_matches_dense_both_solvers(engine_models, lazy):
    sizes = set()
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        sizes.add(space.size)
        dense = sg.deviation_norm(random_update_kernel(model, space, lazy=lazy), space)
        s_ru = spectral.random_update_symmetric(model, space, lazy)
        sparse = spectral.sparse_deviation_norm(s_ru, space)
        assert sparse == pytest.approx(dense, rel=1e-12), model.label
    # both the dense solver and ARPACK were exercised
    assert min(sizes) <= spectral._DENSE_EIGEN_MAX < max(sizes)


def test_scan_correlation_rejects_disconnected_support():
    # x1 == x2 is forced: the scan never leaves its start
    table = np.eye(2) / 2
    joint = chain.JointTable(table, table.sum(1), table.sum(0), np.eye(2), np.eye(2))
    for analysis in (spectral.scan_correlation, spectral.scan_report,
                     mixing.scan_mixing_time, mixing.scan_fill_inequality):
        with pytest.raises(NonErgodicError):
            analysis(joint)


def _scan_is_ergodic(joint):
    table = chain.JointTable(joint, joint.sum(axis=1), joint.sum(axis=0), None, None)
    try:
        spectral.check_scan_ergodic(table)
    except NonErgodicError:
        return False
    return True


def _model_joint(model):
    return chain.joint_table(model, sg.enumerate_state_space(model)).joint


@pytest.mark.parametrize("joint,ergodic", [
    (np.ones((1, 1)), True),
    (np.kron(np.eye(2), np.full((2, 2), 1.0 / 8.0)), False),
    # row 0 reaches every column, but no column reaches row 1
    (np.array([[0.5, 0.5], [0.0, 0.0]]), False),
    (np.array([[0.5, 0.0], [0.5, 0.0]]), False),
    # a staircase: each sweep adds one row
    (np.array([[0.2, 0.2, 0.0], [0.0, 0.2, 0.2], [0.0, 0.0, 0.2]]), True),
    # pi of (0, 1) underflows to 0; J stays connected
    (_model_joint(sg.build_rbm(np.zeros((1, 1)), [400.0], [-400.0])), True),
    (_model_joint(sg.build_rbm(np.zeros((2, 1)), [400.0, 0.0], [-400.0])), True),
    # pi of (0, 1) and (1, 0) underflow to 0: J is diagonal
    (_model_joint(sg.build_rbm(np.array([[2100.0]]), [-700.0], [-700.0])), False),
    *[(_model_joint(sg.build_hardcore_complete_bipartite(n)), True) for n in range(1, 7)],
], ids=["one_by_one", "block_diagonal", "zero_row", "zero_column", "staircase",
        "underflow_1x1", "underflow_2x1", "underflow_diagonal",
        *[f"hardcore_k{n}{n}" for n in range(1, 7)]])
def test_scan_ergodicity_matches_csgraph(joint, ergodic):
    assert _scan_is_ergodic(joint) is oracles.scan_is_ergodic(joint) is ergodic


def test_scan_ergodicity_matches_csgraph_on_engine_models(engine_models):
    for model in engine_models:
        joint = _model_joint(model)
        assert _scan_is_ergodic(joint) is oracles.scan_is_ergodic(joint) is True, model.label


@pytest.mark.parametrize("lazy", [True, False])
def test_random_update_symmetric_form_is_ergodic(engine_models, lazy):
    # pi > 0 makes S irreducible and aperiodic (README, "Random-update
    # spectrum"), so random_update_symmetric runs no graph search
    for model in engine_models:
        space = sg.enumerate_state_space(model)
        symmetric = spectral.random_update_symmetric(model, space, lazy)
        assert oracles.is_ergodic(symmetric), model.label


def test_verify_theorem1_repeats_bit_for_bit():
    model = sg.random_bipartite_model(4, 4, 12, -2.0, 2.0, seed=5)
    assert sg.enumerate_state_space(model).size > spectral._DENSE_EIGEN_MAX
    assert sg.verify_theorem1(model) == sg.verify_theorem1(model)


def test_verifiers_use_no_dense_scan_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense scan path called")

    for module, name in ((chain, "reversibilization"), (spectral, "reversibilization"),
                         (spectral, "deviation_norm"), (spectral, "relaxation_time")):
        monkeypatch.setattr(module, name, forbidden)
    # mixing no longer binds the dense deviation norm at all
    assert not hasattr(mixing, "deviation_norm")
    model = sg.random_bipartite_model(5, 5, 20, -1.0, 1.0, seed=3)
    assert sg.verify_mixing_bounds(model)["all_hold"]
    n_states = sg.enumerate_state_space(model).size
    tracemalloc.start()
    try:
        assert sg.verify_theorem1(model)["holds"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a single dense N x N float64 array would take 8 N^2 bytes
    assert peak < 8 * n_states ** 2 // 2


# 200 states is above the dense switch, so ARPACK solves that case.
@pytest.mark.parametrize("size", [20, 100, 200])
def test_sparse_slem_sees_the_negative_end(size):
    # a walk on K_{m,m} that holds with probability 0.02: eigenvalues 1, 0.02, -0.96
    half = size // 2
    walk = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((half, half), 1.0 / half))
    matrix = sp.csr_array(0.02 * np.eye(size) + 0.98 * walk)
    space = chain.StateSpace(np.arange(size)[:, None], np.full(size, 1.0 / size), size)
    dense = sg.deviation_norm(chain.Kernel(matrix.toarray(), chain.UNIT_COMPOSITE, "P"), space)
    assert dense == pytest.approx(0.96)
    symmetric = oracles.symmetric_form(matrix, space.pi)
    assert spectral.sparse_deviation_norm(symmetric, space) == pytest.approx(dense, rel=1e-12)


def test_sparse_slem_converges_on_a_zero_cluster():
    # The non-lazy kernel of this 256-state model has several eigenvalues
    # at exactly 0 after deflation, where ARPACK's relative tolerance
    # cannot be met unless the spectrum is shifted.
    model = sg.random_bipartite_model(2, 6, 1, -2.0, 2.0, seed=6)
    space = sg.enumerate_state_space(model)
    assert space.size > spectral._DENSE_EIGEN_MAX
    dense = sg.deviation_norm(random_update_kernel(model, space, lazy=False), space)
    s_ru = spectral.random_update_symmetric(model, space, lazy=False)
    r = np.sqrt(space.pi)
    unshifted = LinearOperator(s_ru.shape, matvec=lambda v: s_ru @ v - r * (r @ v), dtype=float)
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, space.size)
    with pytest.raises(ArpackNoConvergence):
        eigsh(unshifted, k=2, which="BE", v0=v0, tol=0.0, return_eigenvectors=False)
    sparse = spectral.sparse_deviation_norm(s_ru, space)
    assert sparse == pytest.approx(dense, rel=1e-12)
    assert sg.verify_theorem1(model, lazy=False)["holds"]


def _gamma(k):
    """Relative error bound of k roundings, k u / (1 - k u) with u = 2^-53."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _assert_byte_symmetric(s, label):
    transpose = s.T.tocsr()
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(s, field), getattr(transpose, field)), (label, field)


@pytest.mark.parametrize("lazy", [True, False])
def test_symmetric_form_is_the_sparse_reference_bit_for_bit(
        engine_models, exact_small_models, lazy):
    # The pattern and the symmetry hold to the bit; the values round apart,
    # 8 roundings here and 9 in the oracle (README, "Random-update spectrum").
    bound = (_gamma(8) + _gamma(9)) / (1 - _gamma(9))
    for model in (*engine_models, *exact_small_models):
        space = sg.enumerate_state_space(model)
        s = spectral.random_update_symmetric(model, space, lazy)
        expected = oracles.symmetric_form(
            oracles.random_update_sparse_sum(model, space, lazy), space.pi)
        for field in ("indptr", "indices"):
            assert np.array_equal(getattr(s, field), getattr(expected, field)), (
                model.label, field)
        assert np.all(np.abs(s.data - expected.data) <= bound * expected.data), model.label
        _assert_byte_symmetric(s, model.label)


@pytest.mark.parametrize("b2, w", [(-30.0, -700.0), (-30.0, -699.0), (-44.5, -699.0)])
def test_random_update_symmetric_is_exact_where_pi_is_subnormal(b2, w):
    # pi at (x1, x2) = (0, 1) and (1, 1) is subnormal, down to 1 and 3 ulps at
    # b2 = -44.5. S(c, t) = sqrt(pi(c) pi(t)) / (n Z) is normal, and so is each
    # factor r(c) / sqrt(Z) it is formed from; r(c) r(t) and pi(t) / Z are not.
    model = sg.build_rbm([[w]], [700.0], [b2])
    space = sg.enumerate_state_space(model)
    assert np.any(space.pi < np.finfo(float).tiny)
    s = spectral.random_update_symmetric(model, space, lazy=False)
    _assert_byte_symmetric(s, model.label)
    pi = [mpmath.mpf(float(p)) for p in space.pi]
    coo = s.tocoo()
    for c, t, value in zip(coo.row, coo.col, coo.data):
        if c == t:
            continue
        # c and t differ in one variable x; Z is the mass of their fiber along x
        x = int(np.flatnonzero(space.configs[c] != space.configs[t])[0])
        fiber = np.flatnonzero(np.all(np.delete(space.configs, x, axis=1)
                                      == np.delete(space.configs[c], x), axis=1))
        exact = mpmath.sqrt(pi[c] * pi[t]) / (model.n * mpmath.fsum(pi[k] for k in fiber))
        # 8 roundings, and 1 in the float sum of the two-cell fiber
        assert abs(value - exact) <= _gamma(9) * exact, (c, t)


@pytest.mark.parametrize("lazy", [True, False])
def test_zero_pi_is_non_ergodic_before_any_division(lazy):
    # pi of (x1, x2) = (0, 1) is exp(-800) / Z, which underflows to 0
    model = sg.build_rbm(np.zeros((1, 1)), [400.0], [-400.0])
    assert not sg.enumerate_state_space(model).pi.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonErgodicError, match="pi vanishes"):
            spectral.random_update_symmetric(model, sg.enumerate_state_space(model), lazy)
        for verify in (sg.verify_theorem1, sg.verify_mixing_bounds):
            with pytest.raises(NonErgodicError, match="pi vanishes"):
                verify(model, lazy=lazy)


def test_each_verifier_forms_one_symmetric_form(asymmetric_rbm, monkeypatch, tmp_path):
    calls = []
    random_update_symmetric = spectral.random_update_symmetric

    def counting(*args):
        calls.append(args)
        return random_update_symmetric(*args)

    monkeypatch.setattr(spectral, "random_update_symmetric", counting)
    monkeypatch.setattr(mixing, "random_update_symmetric", counting)
    sg.verify_theorem1(asymmetric_rbm)
    assert len(calls) == 1
    sg.verify_mixing_bounds(asymmetric_rbm)
    assert len(calls) == 2
    argv = ["spectral", "--model", "hardcore_knn", "--n", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 3
