import importlib
import itertools
import math
import pkgutil
import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

import scangibbs as sg
from scangibbs import coupling
from scangibbs.coupling import (
    SAMPLER_ALTERNATING_SCAN,
    SAMPLER_RANDOM_UPDATE,
    MonotonicityError,
    grand_coupling_time,
    monotonicity_precondition,
)
from scangibbs.model import ModelError

from oracles import alternating_scan_coupling, model_from_edges, random_update_coupling


@pytest.fixture(scope="module")
def ferro():
    return sg.random_bipartite_model(30, 30, 120, 0.0, 0.3, seed=7)


def test_precondition_accepts_ferromagnet(ferro):
    monotonicity_precondition(ferro)


def test_precondition_rejects_hard_constraint(hardcore_k22):
    with pytest.raises(MonotonicityError, match="hard constraint"):
        monotonicity_precondition(hardcore_k22)


def test_precondition_rejects_negative_weight():
    model = sg.build_rbm(np.array([[-0.5]]), np.zeros(1), np.zeros(1))
    with pytest.raises(MonotonicityError, match="negative-weight"):
        monotonicity_precondition(model)


def test_precondition_rejects_non_rbm_factor():
    table = np.array([[0.3, 0.0], [0.0, 0.3]])
    model = model_from_edges(1, 1, 2, ((0, 1, table),), np.zeros((2, 2)))
    with pytest.raises(MonotonicityError, match="RBM-style"):
        monotonicity_precondition(model)


def test_precondition_rejects_non_boolean():
    model = model_from_edges(1, 1, 3, (), np.zeros((2, 3)))
    with pytest.raises(MonotonicityError, match="Boolean"):
        monotonicity_precondition(model)


def test_coupling_is_deterministic_in_seed(ferro):
    a = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 11, 10, 200000)
    b = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 11, 10, 200000)
    assert a.samples == b.samples
    c = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 12, 10, 200000)
    assert a.samples != c.samples


def test_coupling_replicates_are_prefix_stable(ferro):
    # replicate streams are keyed independently, so growing the replicate
    # count extends the sample multiset rather than reshuffling it
    few = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 5, 5, 200000)
    many = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 5, 10, 200000)
    assert set(few.samples) <= set(many.samples)


def test_coupling_summary_statistics(ferro):
    report = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 11, 20, 200000)
    assert report.truncated_count == 0
    assert report.replicates == 20
    samples = np.array(report.samples)
    assert report.mean == pytest.approx(samples.mean())
    assert report.median == pytest.approx(np.median(samples))
    assert report.q90 == pytest.approx(np.quantile(samples, 0.9))
    assert list(report.samples) == sorted(report.samples)


def test_alternating_scan_times_are_epoch_multiples(ferro):
    report = grand_coupling_time(ferro, SAMPLER_ALTERNATING_SCAN, 11, 20, 200000)
    assert report.truncated_count == 0
    assert all(t % ferro.n == 0 for t in report.samples)


def test_scan_coalesces_faster_on_this_instance(ferro):
    ru = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 11, 20, 200000)
    as_ = grand_coupling_time(ferro, SAMPLER_ALTERNATING_SCAN, 11, 20, 200000)
    assert as_.mean < ru.mean


def test_truncation_counted(ferro):
    report = grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 11, 5, 10)
    assert report.truncated_count == 5
    assert report.samples == ()
    assert np.isnan(report.mean)


@pytest.mark.parametrize("sampler", [SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN])
@pytest.mark.parametrize("lazy", [False, True])
def test_reversed_edges_couple_as_their_oriented_twin(sampler, lazy):
    # Edges (2, 0) and (3, 1) run from partition two to partition one;
    # the scan's cross matrix has only two rows, so it reads them oriented.
    def table(w):
        return np.array([[0.0, 0.0], [0.0, w]])

    unaries = np.array([[0.0, 0.1], [0.0, -0.2], [0.0, 0.3], [0.0, 0.0]])
    given = model_from_edges(2, 2, 2, ((2, 0, table(0.8)), (3, 1, table(0.5)),
                                       (0, 3, table(0.2))), unaries)
    twin = model_from_edges(2, 2, 2, ((0, 2, table(0.8)), (1, 3, table(0.5)),
                                      (0, 3, table(0.2))), unaries)
    a = grand_coupling_time(given, sampler, 5, 12, 10000, lazy=lazy)
    b = grand_coupling_time(twin, sampler, 5, 12, 10000, lazy=lazy)
    assert a.truncated_count == 0
    assert (a.samples, a.streams) == (b.samples, b.streams)


def test_unknown_sampler_and_bad_replicates(ferro):
    with pytest.raises(ModelError, match="unknown sampler"):
        grand_coupling_time(ferro, "systematic", 1, 1, 10)
    with pytest.raises(ModelError, match="replicate"):
        grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 1, 0, 10)


def test_lazy_random_update_supported(ferro):
    report = grand_coupling_time(
        ferro, SAMPLER_RANDOM_UPDATE, 11, 5, 400000, lazy=True
    )
    assert report.truncated_count == 0
    assert report.mean > 0


def test_coupled_state_matches_exact_distribution():
    # one-step distribution of the top chain at stationarity should obey
    # the exact kernel; smoke-check on a 2x1 model by long-run frequency
    model = sg.build_rbm(np.array([[0.4], [0.4]]), np.zeros(2), np.zeros(1))
    space = sg.enumerate_state_space(model)
    report = grand_coupling_time(model, SAMPLER_RANDOM_UPDATE, 0, 200, 10 ** 5)
    assert report.truncated_count == 0
    # empirical mean coalescence should be of the order of n log n, not huge
    assert report.mean < 200


@pytest.fixture(scope="module")
def random_order_ferro():
    # Stronger couplings than `ferro`, so scan coalescence times vary.
    return sg.random_bipartite_model(50, 40, 400, 0.0, 0.5, seed=3)


# Samples recorded before the random-update step became a scalar update
# (on `ferro`) and before models became arrays (on `random_order_ferro`,
# both samplers, lazy and not); every seeded sample must stay identical.
# Both models list their edges in shuffled order, not by CSR column.
@pytest.mark.parametrize(
    "model, sampler, lazy, max_updates, expected",
    [
        pytest.param("ferro", SAMPLER_RANDOM_UPDATE, False, 200000,
                     (216, 266, 281, 284, 336, 345, 356, 583),
                     id="random_update-False-200000-expected0"),
        pytest.param("ferro", SAMPLER_RANDOM_UPDATE, True, 400000,
                     (407, 435, 440, 451, 571, 627, 646, 671),
                     id="random_update-True-400000-expected1"),
        pytest.param("ferro", SAMPLER_ALTERNATING_SCAN, False, 200000,
                     (120, 120, 120, 120, 120, 120, 120, 180),
                     id="alternating_scan-False-200000-expected2"),
        pytest.param("random_order_ferro", SAMPLER_RANDOM_UPDATE, False, 400000,
                     (392, 428, 454, 469, 518, 583, 612, 776),
                     id="random_order-random_update-False"),
        pytest.param("random_order_ferro", SAMPLER_RANDOM_UPDATE, True, 400000,
                     (845, 1010, 1057, 1244, 1309, 1339, 2036, 2179),
                     id="random_order-random_update-True"),
        pytest.param("random_order_ferro", SAMPLER_ALTERNATING_SCAN, False, 400000,
                     (180, 180, 270, 270, 270, 270, 270, 270),
                     id="random_order-alternating_scan-False"),
        pytest.param("random_order_ferro", SAMPLER_ALTERNATING_SCAN, True, 400000,
                     (630, 720, 810, 810, 810, 900, 900, 990),
                     id="random_order-alternating_scan-True"),
    ],
)
def test_pinned_samples(request, model, sampler, lazy, max_updates, expected):
    model = request.getfixturevalue(model)
    report = grand_coupling_time(model, sampler, 11, 8, max_updates, lazy=lazy)
    assert report.samples == expected


def _anti_monotone(monkeypatch) -> set:
    """Make the conditional 1/(1 + exp(field)) in both its forms, numpy's
    `_conditional` and libm's `_logistic`, so that the bounds and the
    draws both see it. Returns the set of (form, calling function) pairs
    seen."""
    called = set()
    forms = {name: getattr(coupling, name) for name in ("_conditional", "_logistic")}

    def mutated(name):
        def conditional(z):
            called.add((name, sys._getframe(1).f_code.co_name))
            return forms[name](-z)
        return conditional

    for name in forms:
        monkeypatch.setattr(coupling, name, mutated(name))
    return called


@pytest.mark.parametrize("sampler", [SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN])
def test_sandwich_violation_detected(ferro, monkeypatch, sampler):
    # An anti-monotone conditional, 1/(1 + exp(field)), lets the bottom
    # chain overtake the top one at sites where the two fields differ,
    # the only sites where the bottom conditional is evaluated. Both
    # samplers take their bounds from `_conditional`; the random update
    # draws from `_logistic`, the scan from `_conditional` through
    # `_below`. The mutation must reach both.
    called = _anti_monotone(monkeypatch)
    with pytest.raises(coupling.CouplingInvariantError, match="sandwich violated"):
        grand_coupling_time(ferro, sampler, 11, 1, 200000)
    draws = (("_logistic", "_site_update") if sampler == SAMPLER_RANDOM_UPDATE
             else ("_conditional", "_below"))
    assert {("_conditional", "_bounds"), draws} <= called


def test_post_coalescence_check_detects_separation(ferro, monkeypatch):
    real_update = coupling._site_update

    def split_after_coalescence(bias, nbrs, top, bottom, x, u):
        if top == bottom:
            top[x], bottom[x] = 1, 0
            return 1
        return real_update(bias, nbrs, top, bottom, x, u)

    monkeypatch.setattr(coupling, "_site_update", split_after_coalescence)
    with pytest.raises(coupling.CouplingInvariantError, match="coalesced chains separated"):
        grand_coupling_time(ferro, SAMPLER_RANDOM_UPDATE, 11, 1, 200000)


def test_scan_post_coalescence_check_detects_separation(ferro, monkeypatch):
    # With one replicate, only the check epoch sends every site of a half
    # through `_scan_update`; there the split sets a site to 1 in the top
    # chain and to 0 in the bottom one.
    real_update = coupling._scan_update

    def split_in_check_epoch(b, weights, top, bottom, u, where):
        new_top, new_bot = real_update(b, weights, top, bottom, u, where)
        if where.size == u.size:
            new_top[0], new_bot[0] = True, False
        return new_top, new_bot

    monkeypatch.setattr(coupling, "_scan_update", split_in_check_epoch)
    with pytest.raises(coupling.CouplingInvariantError, match="coalesced chains separated"):
        grand_coupling_time(ferro, SAMPLER_ALTERNATING_SCAN, 11, 1, 200000)


@pytest.fixture(scope="module")
def six_vars():
    return sg.random_bipartite_model(3, 3, 6, 0.0, 0.3, seed=1)


def test_negative_max_updates_rejected(six_vars):
    for sampler in (SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN):
        with pytest.raises(ModelError, match="max_updates must be non-negative"):
            grand_coupling_time(six_vars, sampler, 1, 2, -5)


def test_zero_max_updates(six_vars):
    for sampler in (SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN):
        report = grand_coupling_time(six_vars, sampler, 1, 2, 0)
        assert report.truncated_count == 2


@pytest.mark.parametrize("sampler", [SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN])
def test_no_sample_exceeds_the_cap(six_vars, sampler):
    for cap in range(13):
        report = grand_coupling_time(six_vars, sampler, 1, 8, cap)
        assert all(t <= cap for t in report.samples), cap
    # The chains start apart at all 6 sites. A site update settles at most
    # one of them and a scan epoch takes 6 updates, so 5 updates never do.
    assert grand_coupling_time(six_vars, sampler, 1, 8, 5).truncated_count == 8


def test_samples_carry_their_streams(six_vars):
    # Stream 4 alone needs a second scan epoch; ties keep stream order.
    capped = grand_coupling_time(six_vars, SAMPLER_ALTERNATING_SCAN, 1, 8, 7)
    assert capped.streams == (0, 1, 2, 3, 5, 6, 7)
    assert capped.samples == (6,) * 7
    full = grand_coupling_time(six_vars, SAMPLER_ALTERNATING_SCAN, 1, 8, 1000)
    assert full.streams == (0, 1, 2, 3, 5, 6, 7, 4)
    assert full.samples == (6,) * 7 + (12,)


@pytest.mark.parametrize("sampler", [SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN])
def test_replicates_beyond_a_list_index_rejected(six_vars, sampler):
    # sys.maxsize is the most entries a Python list can index; one more made
    # the scan's list of times raise OverflowError and the random update loop.
    with pytest.raises(ModelError, match=f"replicates must be at most {sys.maxsize}"):
        grand_coupling_time(six_vars, sampler, 1, sys.maxsize + 1, 1000)


@pytest.mark.parametrize("sampler", [SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN])
def test_seed_must_fit_a_philox_key(six_vars, sampler):
    for seed in (-1, 2 ** 64):
        with pytest.raises(ModelError, match=r"seed must be in \[0, 2\^64\)"):
            grand_coupling_time(six_vars, sampler, seed, 2, 1000)
    report = grand_coupling_time(six_vars, sampler, 2 ** 64 - 1, 2, 10 ** 6)
    assert report.truncated_count == 0


@pytest.fixture(scope="module")
def mixed_unaries():
    # Unaries of both signs and site 10 on no edge; weights include 0.
    rng = np.random.default_rng(5)
    table = lambda w: np.array([[0.0, 0.0], [0.0, w]])
    edges = [(a, b, table(w)) for a, b, w in
             zip(rng.integers(0, 6, 14), rng.integers(6, 10, 14), rng.uniform(0.0, 0.8, 14))]
    edges.append((0, 6, table(0.0)))
    unaries = np.column_stack([np.zeros(11), rng.uniform(-1.5, 1.5, 11)])
    return model_from_edges(6, 5, 2, edges, unaries)


@pytest.fixture(scope="module")
def two_block_ferro():
    # Lazy coalescence takes more than one block of draws.
    return sg.random_bipartite_model(150, 150, 600, 0.0, 0.4, seed=2)


# The caps of 450, 40 and 5000 truncate some replicates but not all (the
# last only when lazy, in the second block of draws).
@pytest.mark.parametrize("model, max_updates", [
    ("ferro", 200000), ("ferro", 450), ("random_order_ferro", 400000),
    ("mixed_unaries", 100000), ("mixed_unaries", 40), ("two_block_ferro", 100000),
    ("two_block_ferro", 5000),
])
@pytest.mark.parametrize("lazy", [False, True])
def test_random_update_matches_full_update_reference(request, model, max_updates, lazy):
    # The reference sends every update through `_site_update`; updates the
    # bounds decide must leave every sample and its stream unchanged,
    # including under caps that truncate some replicates.
    model = request.getfixturevalue(model)
    report = grand_coupling_time(model, SAMPLER_RANDOM_UPDATE, 11, 12, max_updates, lazy=lazy)
    assert (report.samples, report.streams) == random_update_coupling(
        model, 11, 12, max_updates, lazy)


@pytest.fixture(scope="module")
def star():
    # One site of degree 12 whose weights span 17 orders of magnitude, so
    # the sums of its subsets round differently from their exact values.
    weights = np.array([1.0, 1e-17, 0.3, 2e-9, 0.7, 1e-16, 0.1, 3e-17, 1.3, 1e-12, 0.05, 2e-16])
    return sg.build_rbm(weights[:, None], np.linspace(-2.0, 2.0, 12), np.array([-3.5]))


def test_logistic_is_zero_where_exp_overflows():
    # exp(-z) overflows below z = -709.78; the conditional is then 0, as
    # expit gives it, and elsewhere it is the plain 1/(1 + exp(-z)).
    for z in (-800.0, -709.8, -1e308, -math.inf):
        assert coupling._logistic(z) == expit(z) == 0.0
    for z in (-709.78, -700.0, -30.0, -1.5, 0.0, 0.7, 40.0, 800.0, math.inf):
        assert coupling._logistic(z) == 1.0 / (1.0 + math.exp(-z))
    # The reference scan of tests/oracles.py draws with scipy's expit, the
    # scan with `_logistic`; the two must agree to the bit.
    z = _arguments()
    assert [coupling._logistic(t) for t in z.tolist()] == expit(z).tolist()


def _arguments() -> np.ndarray:
    """z from -800 to 800, on a grid and at random, with the 40 floats on
    either side of the point below which exp(-z) overflows."""
    edge = [-709.782712893384]
    below = above = edge[0]
    for _ in range(40):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        edge += [below, above]
    return np.concatenate((np.linspace(-800.0, 800.0, 16001), edge,
                           [-709.78, -708.4, -745.2, 36.8, 37.5],
                           np.random.default_rng(4).uniform(-800.0, 800.0, 20000)))


def _below_exactly(u, z) -> np.ndarray:
    return np.array([v < coupling._logistic(t) for v, t in zip(u.tolist(), z.tolist())])


def _below(u, z) -> np.ndarray:
    with np.errstate(over="ignore"):
        return coupling._below(u, z)


def test_below_matches_logistic_at_and_next_to_the_conditional():
    # u at _logistic(z) and at its two float neighbours, and u = 0, for z
    # across both overflow and underflow of exp(-z): the draws numpy's
    # conditional decides and those it leaves to `_logistic` alike must be
    # u < _logistic(z).
    z = _arguments()
    g = np.array([coupling._logistic(t) for t in z.tolist()])
    cases = {"at": g, "below": np.nextafter(g, -np.inf), "above": np.nextafter(g, np.inf),
             "zero": np.zeros_like(g)}
    for name, u in cases.items():
        assert np.array_equal(_below(u, z), _below_exactly(u, z)), name
    assert not _below(g, z).any()
    assert _below(cases["below"], z).all()
    # At u = 0 the draw is 1 exactly where the conditional is positive.
    assert np.array_equal(_below(cases["zero"], z), g > 0.0)
    assert 0.0 in g and 1.0 in g


def test_below_decides_most_draws_from_numpy():
    z = _arguments()
    # Uniforms drawn as the samplers draw them almost never fall within
    # the width of numpy's conditional, so `_logistic` is not called.
    u = np.random.default_rng(5).random(z.size)
    expected = _below_exactly(u, z)
    calls = []
    real = coupling._logistic
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coupling, "_logistic", lambda t: calls.append(t) or real(t))
        assert np.array_equal(_below(u, z), expected)
    assert calls == []


_TINIEST = 1.0 / (1.0 + np.finfo(float).max)   # the least positive conditional


@pytest.mark.parametrize("perturb", [
    pytest.param(lambda g: g * (1.0 - 4 * 2.0 ** -52), id="minus_4_ulps"),
    pytest.param(lambda g: g * (1.0 - 2.0 ** -52), id="minus_1_ulp"),
    pytest.param(lambda g: g * (1.0 + 2.0 ** -52), id="plus_1_ulp"),
    pytest.param(lambda g: g * (1.0 + 4 * 2.0 ** -52), id="plus_4_ulps"),
    # an exp that overflows a little before or after libm's
    pytest.param(lambda g: np.where(g < 2.0 ** -1022, 0.0, g), id="overflows_early"),
    pytest.param(lambda g: np.where(g == 0.0, _TINIEST, g), id="overflows_late"),
])
def test_draws_survive_a_perturbed_numpy_conditional(ferro, mixed_unaries, monkeypatch,
                                                      perturb):
    # numpy's exp differs from libm's on some arguments; a conditional a
    # few ulps off, or 0 where libm's is subnormal and back, all inside
    # `_BOUND_MARGIN`, must leave every draw, bound decision and sample as
    # it was.
    z = _arguments()
    g = np.array([coupling._logistic(t) for t in z.tolist()])
    us = [np.random.default_rng(6).random(z.size), g, np.nextafter(g, -np.inf),
          np.nextafter(g, np.inf), np.zeros_like(g)]
    expected = [_below_exactly(u, z) for u in us]
    runs = [(model, sampler, lazy) for model in (ferro, mixed_unaries) for lazy in (False, True)
            for sampler in (SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN)]
    reports = [grand_coupling_time(model, sampler, 3, 6, 200000, lazy=lazy)
               for model, sampler, lazy in runs]
    real = coupling._conditional
    monkeypatch.setattr(coupling, "_conditional", lambda t: perturb(real(t)))
    assert [_below(u, z).tolist() for u in us] == [e.tolist() for e in expected]
    assert [grand_coupling_time(model, sampler, 3, 6, 200000, lazy=lazy)
            for model, sampler, lazy in runs] == reports


@pytest.mark.parametrize("model", ["six_vars", "mixed_unaries", "star", "ferro"])
def test_bounds_contain_every_reachable_conditional(request, model):
    # Every subset of a site's neighbors can be the set at 1; its field is
    # summed in edge order, as `_site_update` sums it.
    model = request.getfixturevalue(model)
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).tolist()
    nbrs, fmax = coupling._neighbors(model)
    lo, hi = coupling._bounds(np.array(bias), fmax)
    for x, site_nbrs in enumerate(nbrs):
        assert len(site_nbrs) <= 12
        for ones in itertools.product((False, True), repeat=len(site_nbrs)):
            field = 0.0
            for (_, w), one in zip(site_nbrs, ones):
                if one:
                    field += w
            p = 1.0 / (1.0 + math.exp(-(bias[x] + field)))
            assert lo[x] <= p <= hi[x], (x, ones)


def test_bounds_decide_most_updates(monkeypatch):
    """Criterion 9's model: only updates whose uniform falls between the
    site's bounds reach `_site_update` before the chains meet.

    Sites and uniforms are drawn uniformly and independently of the
    chains, so an update is undecided with probability mean(hi - lo),
    measured as 0.120 on this model. Ten replicates make about 180,000
    coalescence updates, so the undecided share has a binomial standard
    deviation below 0.001; a bound of 0.15 sits 30 of them above 0.120,
    and with the bounds disabled every update would count.
    """
    model = sg.random_bipartite_model(1000, 1000, 5000, 0.0, 0.2, seed=424242)
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).astype(float)
    lo, hi = coupling._bounds(bias, coupling._neighbors(model)[1])
    assert float(np.mean(hi - lo)) == pytest.approx(0.120, abs=0.001)
    calls = 0
    real_update = coupling._site_update

    def counted(*args):
        nonlocal calls
        calls += 1
        return real_update(*args)

    monkeypatch.setattr(coupling, "_site_update", counted)
    report = grand_coupling_time(model, SAMPLER_RANDOM_UPDATE, 1, 10, 10 ** 7)
    assert report.truncated_count == 0
    updates = sum(report.samples)
    # The permanence epoch of each replicate sends all n updates through.
    coalescence_calls = calls - report.replicates * model.n
    assert 0 < coalescence_calls < 0.15 * updates


# A cap of 0 or 5 truncates every replicate whose starts differ; 120, 850,
# 30, 7 and 20 truncate some replicates of a block but not others (850 and
# 20 only when lazy, 120, 30 and 7 only when not). Under 120, ten of the
# twelve ferro replicates meet exactly at the cap.
@pytest.mark.parametrize("model, max_updates", [
    ("ferro", 200000), ("ferro", 120), ("random_order_ferro", 400000),
    ("random_order_ferro", 850), ("mixed_unaries", 100000), ("mixed_unaries", 30),
    ("six_vars", 0), ("six_vars", 5), ("six_vars", 7), ("six_vars", 20),
])
@pytest.mark.parametrize("lazy", [False, True])
def test_scan_matches_one_replicate_reference(request, model, max_updates, lazy):
    # The reference runs each replicate alone and forms both fields and
    # conditionals at every site; blocks of replicates and the draws the
    # bounds decide must leave every sample and its stream unchanged.
    model = request.getfixturevalue(model)
    report = grand_coupling_time(model, SAMPLER_ALTERNATING_SCAN, 11, 12, max_updates,
                                 lazy=lazy)
    assert (report.samples, report.streams) == alternating_scan_coupling(
        model, 11, 12, max_updates, lazy)


# On random_order_ferro (90 sites), 10 replicates run in blocks of 1 (a
# budget below n), of 3 with a last block of 1, and of 4 with a last of 2.
@pytest.mark.parametrize("elements", [1, 270, 360])
@pytest.mark.parametrize("lazy", [False, True])
def test_scan_blocks_match_reference(random_order_ferro, monkeypatch, elements, lazy):
    monkeypatch.setattr(coupling, "_SCAN_BLOCK_ELEMENTS", elements)
    widths = []
    real_epoch = coupling._scan_epoch

    def recorded(halves, draws, *args):
        widths.append(draws.shape[1])
        return real_epoch(halves, draws, *args)

    monkeypatch.setattr(coupling, "_scan_epoch", recorded)
    for max_updates in (400000, 850):
        report = grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11, 10,
                                     max_updates, lazy=lazy)
        assert (report.samples, report.streams) == alternating_scan_coupling(
            random_order_ferro, 11, 10, max_updates, lazy)
    assert max(widths) == max(1, elements // random_order_ferro.n)


@pytest.mark.parametrize("model", ["six_vars", "mixed_unaries", "star", "ferro"])
def test_scan_bounds_contain_every_reachable_conditional(request, model):
    # Every subset of a site's row can be the set at 1 in the other half;
    # its field is summed in the row's CSR order, as the sparse product
    # sums it, and the scan draws as `_logistic` does.
    model = request.getfixturevalue(model)
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).astype(float)
    for _, _, weights, b, lo, hi in coupling._scan_halves(model, bias):
        for i in range(b.size):
            row = weights.data[weights.indptr[i]:weights.indptr[i + 1]].tolist()
            assert len(row) <= 12
            for ones in itertools.product((False, True), repeat=len(row)):
                field = 0.0
                for w, one in zip(row, ones):
                    if one:
                        field += w
                p = coupling._logistic(b[i] + field)
                assert lo[i] <= p <= hi[i], (i, ones)


def test_scan_bounds_decide_most_draws(monkeypatch):
    """Criterion 9's model: before the chains meet, only draws whose
    uniform falls between the site's bounds reach `_scan_update`.

    Uniforms are drawn independently of the chains, so each draw is
    undecided with probability hi - lo of its site, and an epoch of one
    replicate sends n * mean(hi - lo) draws through on average, with
    mean(hi - lo) measured as 0.120 on this model. 50 replicates make
    about 300,000 coalescence updates, so the undecided share has a
    binomial standard deviation below 0.001; a bound of 0.15 sits 30 of
    them above 0.120, and with the bounds disabled every draw would count.
    """
    model = sg.random_bipartite_model(1000, 1000, 5000, 0.0, 0.2, seed=424242)
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).astype(float)
    halves = coupling._scan_halves(model, bias)
    spread = np.concatenate([hi - lo for *_, lo, hi in halves])
    assert float(np.mean(spread)) == pytest.approx(0.120, abs=0.001)
    # Helper threads run blocks too; list.append is atomic, where a
    # nonlocal += could lose an update between two threads.
    sizes = []
    real_update = coupling._scan_update

    def counted(b, weights, top, bottom, u, where):
        sizes.append(where.size)
        return real_update(b, weights, top, bottom, u, where)

    monkeypatch.setattr(coupling, "_scan_update", counted)
    report = grand_coupling_time(model, SAMPLER_ALTERNATING_SCAN, 1, 50, 10 ** 7)
    assert report.truncated_count == 0
    updates = sum(report.samples)
    # The check epoch of each replicate sends all n sites through.
    coalescence_draws = sum(sizes) - report.replicates * model.n
    assert 0 < coalescence_draws < 0.15 * updates


def _caller_waits_for_a_helper(monkeypatch) -> list:
    """Make the calling thread's first scan block wait until a helper
    thread has run a block and ended, so a helper surely runs one and
    its error, if any, is the first. Returns the helpers' errors."""
    helpers, raised = [], []
    started = threading.Event()
    real_block = coupling._scan_block

    def block(*args):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(timeout=30), "no helper thread ran a block"
            helpers[0].join(timeout=30)
            assert not helpers[0].is_alive(), "the helper thread did not end"
            return real_block(*args)
        helpers.append(threading.current_thread())
        started.set()
        try:
            return real_block(*args)
        except coupling.CouplingInvariantError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(coupling, "_scan_block", block)
    return raised


# With 270 elements, random_order_ferro's 10 replicates run in 4 blocks
# (3, 3, 3 and 1). A cap of 850 truncates some replicates when lazy, one
# of 200 some when not (and all when lazy).
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("lazy", [False, True])
def test_scan_matches_reference_on_any_worker_count(random_order_ferro, monkeypatch,
                                                    workers, lazy):
    monkeypatch.setattr(coupling, "_SCAN_BLOCK_ELEMENTS", 270)
    monkeypatch.setattr(coupling, "_usable_cores", lambda: workers)
    before = threading.active_count()
    for max_updates in (400000, 850, 200):
        report = grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11, 10,
                                     max_updates, lazy=lazy)
        assert (report.samples, report.streams) == alternating_scan_coupling(
            random_order_ferro, 11, 10, max_updates, lazy)
    assert threading.active_count() == before


def test_usable_cores_without_sched_getaffinity(random_order_ferro, monkeypatch):
    # macOS and Windows lack os.sched_getaffinity; the scan then counts the
    # machine's cores, or one where even that is unknown, and its samples
    # are the same.
    monkeypatch.setattr(coupling, "_SCAN_BLOCK_ELEMENTS", 270)
    monkeypatch.delattr(coupling.os, "sched_getaffinity", raising=False)
    for cores in (3, None):
        monkeypatch.setattr(coupling.os, "cpu_count", lambda: cores)
        assert coupling._usable_cores() == (cores or 1)
        report = grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11, 10,
                                     400000)
        assert (report.samples, report.streams) == alternating_scan_coupling(
            random_order_ferro, 11, 10, 400000, False)


def test_scan_of_one_block_starts_no_thread(random_order_ferro, monkeypatch):
    # Ten replicates of 90 sites make one block of 2^16 entries; starting
    # a thread would call None.
    monkeypatch.setattr(coupling, "_usable_cores", lambda: 8)
    monkeypatch.setattr(threading, "Thread", None)
    report = grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11, 10, 400000)
    assert (report.samples, report.streams) == alternating_scan_coupling(
        random_order_ferro, 11, 10, 400000, False)


def test_scan_blocks_survive_frequent_thread_switches(random_order_ferro, monkeypatch):
    # Blocks of one replicate on eight workers, more than the cores, with
    # the interpreter switching threads every microsecond: a block handed
    # out twice or not at all, or a lost entry of `times`, changes the
    # samples or streams.
    monkeypatch.setattr(coupling, "_SCAN_BLOCK_ELEMENTS", random_order_ferro.n)
    monkeypatch.setattr(coupling, "_usable_cores", lambda: 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11, 10,
                                     400000, lazy=True)
    finally:
        sys.setswitchinterval(interval)
    assert (report.samples, report.streams) == alternating_scan_coupling(
        random_order_ferro, 11, 10, 400000, True)
    assert threading.active_count() == before


def test_scan_error_in_a_helper_thread_reaches_the_caller(random_order_ferro, monkeypatch):
    # The anti-monotone conditional breaks the sandwich in every block
    # (see test_sandwich_violation_detected); the helper's block raises
    # first, and its error, not the caller's own, is the one re-raised.
    monkeypatch.setattr(coupling, "_SCAN_BLOCK_ELEMENTS", 270)
    monkeypatch.setattr(coupling, "_usable_cores", lambda: 2)
    _anti_monotone(monkeypatch)
    raised = _caller_waits_for_a_helper(monkeypatch)
    before = threading.active_count()
    with pytest.raises(coupling.CouplingInvariantError, match="sandwich violated") as caught:
        grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11, 10, 400000)
    assert len(raised) == 1 and caught.value is raised[0]
    assert threading.active_count() == before


def test_scan_helpers_call_no_public_function(random_order_ferro, monkeypatch):
    # A tracer that wraps the public functions keeps one span stack, so
    # helper threads may call private functions only.
    modules = [importlib.import_module(f"scangibbs.{info.name}")
               for info in pkgutil.iter_modules(sg.__path__)]
    off_main = []

    def wrapped(fn):
        def call(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(fn.__qualname__)
            return fn(*args, **kwargs)
        return call

    public = {id(obj): wrapped(obj) for module in modules for name, obj in vars(module).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == module.__name__
              and not isinstance(obj, type)}
    for holder in (sg, *modules):
        for name, obj in list(vars(holder).items()):
            if id(obj) in public:
                monkeypatch.setattr(holder, name, public[id(obj)])
    monkeypatch.setattr(coupling, "_SCAN_BLOCK_ELEMENTS", 270)
    monkeypatch.setattr(coupling, "_usable_cores", lambda: 3)
    _caller_waits_for_a_helper(monkeypatch)
    report = coupling.grand_coupling_time(random_order_ferro, SAMPLER_ALTERNATING_SCAN, 11,
                                          10, 400000, lazy=True)
    assert report.truncated_count == 0
    assert off_main == []
