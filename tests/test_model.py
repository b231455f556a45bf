import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scangibbs as sg
from scangibbs import model as model_module
from scangibbs.model import BipartiteModel, BipartiteStructureError, ModelError

from oracles import conditional_distribution, hamiltonian, model_from_edges, unnormalized_weight


def assert_oriented(model):
    assert np.all(model.edge_u < model.n1) and np.all(model.n1 <= model.edge_v)


def ising_edge(weight):
    return np.array([[weight, 0.0], [0.0, weight]])


def test_hamiltonian_zero_factors(zero_rbm_22):
    for config in ([0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0]):
        assert hamiltonian(zero_rbm_22, config) == 0.0


def test_hamiltonian_single_rbm_factor():
    model = sg.build_rbm(np.array([[1.5]]), np.zeros(1), np.zeros(1))
    assert hamiltonian(model, [1, 1]) == pytest.approx(1.5)
    assert hamiltonian(model, [1, 0]) == 0.0


def test_hamiltonian_ising_factor():
    model = model_from_edges(1, 1, 2, ((0, 1, ising_edge(2.0)),), np.zeros((2, 2)))
    assert hamiltonian(model, [0, 0]) == pytest.approx(2.0)
    assert hamiltonian(model, [1, 1]) == pytest.approx(2.0)
    assert hamiltonian(model, [0, 1]) == 0.0


def test_hamiltonian_edge_order_invariant():
    rng = np.random.default_rng(5)
    weights = rng.uniform(-1, 1, (3, 3))
    model = sg.build_rbm(weights, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    shuffled = BipartiteModel(
        model.n1, model.n2, 2, model.edge_u[::-1], model.edge_v[::-1], model.tables[::-1],
        model.unaries,
    )
    for _ in range(10):
        config = rng.integers(0, 2, 6)
        assert hamiltonian(model, config) == pytest.approx(
            hamiltonian(shuffled, config)
        )


def test_unnormalized_weight_hardcore(hardcore_k22):
    assert unnormalized_weight(hardcore_k22, [1, 0, 1, 0]) == 0.0
    assert unnormalized_weight(hardcore_k22, [0, 0, 0, 0]) == 1.0
    assert unnormalized_weight(hardcore_k22, [1, 1, 0, 0]) == 1.0


def test_unnormalized_weight_zero_rbm(zero_rbm_22):
    assert unnormalized_weight(zero_rbm_22, [1, 0, 0, 1]) == 1.0


def test_unnormalized_weight_range_guard():
    # The oracle exponentiates h unshifted. exp(709) and exp(-708) are normal
    # floats, though |h| > 700; exp(710) overflows and exp(-709) is subnormal.
    for h in (709.0, -708.0):
        model = sg.build_rbm(np.array([[h]]), np.zeros(1), np.zeros(1))
        assert unnormalized_weight(model, [1, 1]) == np.exp(h)
    for h in (710.0, -709.0, 800.0, -800.0):
        model = sg.build_rbm(np.array([[h]]), np.zeros(1), np.zeros(1))
        with pytest.raises(ModelError, match="not a normal float64"):
            unnormalized_weight(model, [1, 1])


def test_conditional_uniform_for_zero_weights(zero_rbm_22):
    for x in range(4):
        dist = conditional_distribution(zero_rbm_22, [0, 1, 1, 0], x)
        assert dist == pytest.approx([0.5, 0.5])


def test_conditional_hardcore_forced(hardcore_k22):
    # right vertex occupied forces the left ones unoccupied
    dist = conditional_distribution(hardcore_k22, [0, 0, 1, 0], 0)
    assert dist == pytest.approx([1.0, 0.0])


def test_conditional_single_edge_logistic():
    w = 0.8
    model = sg.build_rbm(np.array([[w]]), np.zeros(1), np.zeros(1))
    dist = conditional_distribution(model, [0, 1], 0)
    assert dist == pytest.approx([1 / (1 + math.exp(w)), math.exp(w) / (1 + math.exp(w))])


def test_conditional_all_weights_zero_error(hardcore_k22):
    # the configuration already violates the constraint away from the
    # updated variable
    with pytest.raises(ModelError, match="all conditional weights zero"):
        conditional_distribution(hardcore_k22, [1, 0, 1, 0], 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.data())
def test_conditional_depends_only_on_opposite_partition(seed, data):
    model = sg.random_bipartite_model(3, 3, 6, -1.5, 1.5, seed=seed)
    rng = np.random.default_rng(seed)
    x = data.draw(st.integers(0, model.n - 1))
    config_a = rng.integers(0, 2, model.n)
    config_b = config_a.copy()
    if x < model.n1:
        config_b[:model.n1] = rng.integers(0, 2, model.n1)
    else:
        config_b[model.n1:] = rng.integers(0, 2, model.n2)
    assert conditional_distribution(model, config_a, x) == pytest.approx(
        conditional_distribution(model, config_b, x)
    )


def test_build_rbm_uniform_pi():
    model = sg.build_rbm(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
    space = sg.enumerate_state_space(model)
    assert space.size == 4
    assert space.pi == pytest.approx([0.25] * 4)


def test_build_rbm_hand_sum():
    bias1, bias2 = np.array([0.1, 0.2]), np.array([-0.3, 0.4])
    model = sg.build_rbm(np.ones((2, 2)), bias1, bias2)
    assert hamiltonian(model, [1, 1, 1, 1]) == pytest.approx(
        4.0 + bias1.sum() + bias2.sum()
    )
    assert_oriented(model)


def test_build_rbm_dimension_mismatch():
    with pytest.raises(ModelError):
        sg.build_rbm(np.ones((2, 2)), np.zeros(3), np.zeros(2))


def test_build_dbm_two_layers_matches_rbm():
    rng = np.random.default_rng(0)
    w = rng.uniform(-1, 1, (2, 3))
    b1, b2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3)
    rbm = sg.build_rbm(w, b1, b2)
    dbm = sg.build_dbm([2, 3], [w], [b1, b2])
    assert dbm.n1 == rbm.n1 and dbm.n2 == rbm.n2
    for _ in range(10):
        config = rng.integers(0, 2, 5)
        assert hamiltonian(dbm, config) == pytest.approx(hamiltonian(rbm, config))


def test_build_dbm_four_layers():
    sizes = [3, 3, 3, 3]
    weights = [np.ones((3, 3)) for _ in range(3)]
    biases = [np.zeros(3) for _ in range(4)]
    dbm = sg.build_dbm(sizes, weights, biases)
    assert dbm.n1 == 6 and dbm.n2 == 6
    assert len(dbm.edges) == 27
    assert_oriented(dbm)


def test_builders_match_per_edge_loops():
    # The per-edge constructions that the array builders replaced.
    rng = np.random.default_rng(2)
    sizes = [2, 3, 2, 2]
    weights = [rng.uniform(-1, 1, (a, b)) for a, b in zip(sizes, sizes[1:])]
    dbm = sg.build_dbm(sizes, weights, [np.zeros(s) for s in sizes])
    offset = {0: 0, 2: 2, 1: 4, 3: 7}  # odd layers first, then even ones
    expected = []
    for k, w in enumerate(weights):
        for i in range(sizes[k]):
            for j in range(sizes[k + 1]):
                a, b = offset[k] + i, offset[k + 1] + j
                expected.append((a, b, w[i, j]) if k % 2 == 0 else (b, a, w[i, j]))
    assert [(u, v, t[1, 1]) for u, v, t in dbm.edges] == expected

    model = sg.random_bipartite_model(4, 5, 7, -1.0, 1.0, seed=99)
    draws = np.random.Generator(np.random.Philox(key=np.uint64(99)))
    pairs = draws.permutation(20)[:7]
    w = draws.uniform(-1.0, 1.0, size=7)
    expected = [(int(p) // 5, 4 + int(p) % 5, w[k]) for k, p in enumerate(pairs)]
    assert [(u, v, t[1, 1]) for u, v, t in model.edges] == expected

    for built in (dbm, model, sg.build_rbm(weights[1], np.zeros(3), np.zeros(2))):
        assert not built.tables.reshape(-1, 4)[:, :3].any()


def test_build_hardcore_counts():
    assert sg.enumerate_state_space(sg.build_hardcore_complete_bipartite(2)).size == 7
    space = sg.enumerate_state_space(sg.build_hardcore_complete_bipartite(3))
    assert space.size == 15  # 2 * 2^3 - 1
    assert space.pi == pytest.approx([1 / 15] * 15)


def test_build_hardcore_refuses_n_beyond_the_enumeration_limit():
    # K_{n,n} has a 2^(2n)-cell grid: n = 11 fills the enumeration limit
    # 2^22 and n = 12 exceeds it, so the builder refuses n = 12 onwards
    # before it allocates its n^2 edges. numpy refuses the arrays of
    # n = 2^40 at once, so that case raises ModelError only if the check
    # comes first.
    assert sg.enumerate_state_space(sg.build_hardcore_complete_bipartite(11)).size == 4095
    for n in (12, 2 ** 40):
        with pytest.raises(ModelError, match="at most 11"):
            sg.build_hardcore_complete_bipartite(n)


def test_random_model_zero_edges():
    model = sg.random_bipartite_model(3, 3, 0, 0.0, 1.0, seed=1)
    assert model.edges == ()


def test_random_model_deterministic():
    a = sg.random_bipartite_model(4, 5, 7, -1.0, 1.0, seed=99)
    b = sg.random_bipartite_model(4, 5, 7, -1.0, 1.0, seed=99)
    assert [(u, v) for u, v, _ in a.edges] == [(u, v) for u, v, _ in b.edges]
    for (_, _, ta), (_, _, tb) in zip(a.edges, b.edges):
        assert np.array_equal(ta, tb)


def test_random_model_seed_range():
    for seed in (-1, 2 ** 64):
        with pytest.raises(sg.ModelError, match=r"seed must be in \[0, 2\^64\)"):
            sg.random_bipartite_model(2, 2, 3, -1.0, 1.0, seed=seed)
    for seed in (0, 2 ** 64 - 1):
        assert len(sg.random_bipartite_model(2, 2, 3, -1.0, 1.0, seed=seed).edges) == 3


def test_random_model_large_distinct():
    model = sg.random_bipartite_model(100, 100, 500, 0.1, 0.7, seed=1)
    pairs = {(u, v) for u, v, _ in model.edges}
    assert len(pairs) == 500
    for (u, v, table) in model.edges:
        assert 0 <= u < 100 and 100 <= v < 200
        assert 0.1 <= table[1, 1] <= 0.7


def test_random_model_too_many_edges():
    with pytest.raises(ModelError):
        sg.random_bipartite_model(2, 2, 5, 0.0, 1.0, seed=0)
    with pytest.raises(ModelError, match="m must be non-negative"):
        sg.random_bipartite_model(2, 2, -1, 0.0, 1.0, seed=0)


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (3, 5), (31, 33), (100, 100), (1000, 1000)])
def test_random_model_edges_are_a_permutation_prefix(n1, n2):
    # The edges are the first m pairs of rng.permutation(n1 * n2), and the
    # weights come from the stream after it, so every model keeps its bytes.
    for seed in (0, 1, 7, 2 ** 63):
        m = max(1, n1 * n2 // 3)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        pairs = rng.permutation(n1 * n2)[:m]
        weights = rng.uniform(-1.0, 1.0, size=m)
        model = sg.random_bipartite_model(n1, n2, m, -1.0, 1.0, seed)
        assert model.edge_u.dtype == model.edge_v.dtype == pairs.dtype == np.int64
        assert np.array_equal(model.edge_u, pairs // n2)
        assert np.array_equal(model.edge_v, n1 + pairs % n2)
        assert model.tables[:, 1, 1].tobytes() == weights.tobytes()


def test_random_model_refuses_more_than_2_32_pairs(monkeypatch):
    # Refused from n1 and n2 alone, before the 8 * n1 * n2-byte permutation
    for n1, n2 in ((2 ** 20, 2 ** 20), (2 ** 16 + 1, 2 ** 16)):
        with pytest.raises(ModelError, match=r"more than 2\^32 pairs.*8 \* n1 \* n2-byte"):
            sg.random_bipartite_model(n1, n2, 5, 0.0, 1.0, seed=1)
    # The limit itself is allowed: 12 pairs under a limit of 12, not 15.
    monkeypatch.setattr(model_module, "_PAIR_LIMIT", 12)
    assert len(sg.random_bipartite_model(3, 4, 5, 0.0, 1.0, seed=1).edges) == 5
    with pytest.raises(ModelError, match="more than"):
        sg.random_bipartite_model(3, 5, 5, 0.0, 1.0, seed=1)


def test_model_rejects_intra_partition_edge():
    edges = ((0, 1, np.zeros((2, 2))),)  # both endpoints in partition one
    with pytest.raises(BipartiteStructureError, match=r"\(0, 1\)"):
        model_from_edges(2, 1, 2, edges, np.zeros((3, 2)))


def test_model_lists_every_intra_partition_edge():
    edges = ((0, 2, np.zeros((2, 2))), (3, 2, np.zeros((2, 2))), (0, 1, np.zeros((2, 2))))
    with pytest.raises(BipartiteStructureError, match=r"\[\(3, 2\), \(0, 1\)\]"):
        model_from_edges(2, 2, 2, edges, np.zeros((4, 2)))


def test_reversed_edge_is_stored_oriented():
    # Edge (2, 0) runs from partition two to partition one: the model
    # stores it as (0, 2) with its table transposed, and keeps its place.
    table = np.array([[0.1, 0.2], [0.3, 0.4]])
    unaries = np.arange(8.0).reshape(4, 2)
    given = model_from_edges(2, 2, 2, ((1, 3, table), (2, 0, table)), unaries)
    twin = model_from_edges(2, 2, 2, ((1, 3, table), (0, 2, table.T)), unaries)
    for name in ("edge_u", "edge_v", "tables", "unaries"):
        assert np.array_equal(getattr(given, name), getattr(twin, name))
    assert_oriented(given)
    for config in itertools.product([0, 1], repeat=4):
        assert hamiltonian(given, config) == hamiltonian(twin, config)


def test_reversed_edge_leaves_the_given_table_alone():
    tables = np.array([[[0.1, 0.2], [0.3, 0.4]]])
    model = BipartiteModel(1, 1, 2, [1], [0], tables, np.zeros((2, 2)))
    assert model.tables[0].tolist() == [[0.1, 0.3], [0.2, 0.4]]
    assert tables[0].tolist() == [[0.1, 0.2], [0.3, 0.4]]


def one_edge_model(**fields):
    """A 1x1 Boolean model with edge (0, 1), with the given fields replaced."""
    args = {"n1": 1, "n2": 1, "domain_size": 2, "edge_u": [0], "edge_v": [1],
            "tables": np.zeros((1, 2, 2)), "unaries": np.zeros((2, 2))}
    return BipartiteModel(**{**args, **fields})


@pytest.mark.parametrize("fields, message", [
    ({"edge_v": [2]}, r"edge \(0, 2\) out of range"),
    ({"edge_u": [-1]}, r"edge \(-1, 1\) out of range"),
    ({"edge_u": [0, 0], "edge_v": [1, 7], "tables": np.zeros((2, 2, 2))},
     r"edge \(0, 7\) out of range"),
    ({"tables": np.array([[[0.0, np.inf], [0.0, 0.0]]])}, r"edge \(0, 1\) has a non-finite"),
    ({"tables": np.array([[[0.0, 0.0], [np.nan, 0.0]]])}, r"edge \(0, 1\) has a non-finite"),
    ({"tables": np.zeros((1, 3, 3))}, r"factor tables have shape \(1, 3, 3\)"),
    ({"tables": np.zeros((2, 2, 2))}, r"expected \(1, 2, 2\)"),
    ({"tables": [[["w", 0.0], [0.0, 0.0]]]}, "must be numeric"),
    ({"edge_v": [1, 1]}, "differ in length"),
    ({"edge_u": [0.0]}, "must be integers"),
    ({"edge_u": [[0]]}, "1-D"),
])
def test_model_rejects_malformed_edges(fields, message):
    with pytest.raises(ModelError, match=message):
        one_edge_model(**fields)


def test_edges_view_follows_the_arrays():
    model = sg.random_bipartite_model(4, 5, 7, -1.0, 1.0, seed=3)
    assert len(model.edges) == 7
    for k, (u, v, table) in enumerate(model.edges):
        assert (u, v) == (model.edge_u[k], model.edge_v[k])
        assert type(u) is int and type(v) is int
        assert np.array_equal(table, model.tables[k])
    assert model.edge_u.dtype == model.edge_v.dtype == np.int64
    assert model.tables.dtype == float and model.tables.shape == (7, 2, 2)


def test_models_compare_and_hash_by_identity():
    a = sg.random_bipartite_model(2, 3, 4, -1.0, 1.0, seed=5)
    b = sg.random_bipartite_model(2, 3, 4, -1.0, 1.0, seed=5)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert hash(a) == hash(a)


def test_model_from_json_kinds():
    rbm = sg.model_from_json(json.dumps(
        {"kind": "rbm", "weights": [[0.5]], "bias1": [0.0], "bias2": [0.1]}
    ))
    assert rbm.n == 2
    hc = sg.model_from_json(json.dumps({"kind": "hardcore_knn", "n": 2}))
    assert hc.hard_constraint == "hardcore"
    rnd = sg.model_from_json(json.dumps(
        {"kind": "random_rbm", "n1": 2, "n2": 2, "m": 3,
         "weight_low": 0.0, "weight_high": 1.0, "seed": 5}
    ))
    assert len(rnd.edges) == 3


def test_model_from_json_mrf_partition_remap():
    obj = {
        "kind": "mrf",
        "partition": [1, 0, 1],
        "unary": [[0.0, 0.2], [0.0, -0.1], [0.0, 0.3]],
        "edges": [
            {"u": 1, "v": 0, "table": [0.0, 0.0, 0.0, 0.5]},
            {"u": 1, "v": 2, "table": [0.0, 0.0, 0.0, -0.4]},
        ],
    }
    model = sg.model_from_json(json.dumps(obj))
    assert model.n1 == 1 and model.n2 == 2
    assert_oriented(model)
    # original variable 1 is the lone partition-zero variable, now index 0
    assert hamiltonian(model, [1, 1, 1]) == pytest.approx(0.5 - 0.4 + 0.4)


MRF = {"kind": "mrf", "partition": [0, 1], "unary": [[0.0, 0.1], [0.0, -0.2]],
       "edges": [{"u": 0, "v": 1, "table": [0.0, 0.0, 0.0, 0.5]}]}


def test_model_from_json_mrf_table_layouts():
    # a table may be flat or S rows of S, and the two may be mixed
    obj = {**MRF, "edges": [{"u": 0, "v": 1, "table": [[0.0, 0.0], [0.0, 0.5]]},
                            {"u": 1, "v": 0, "table": [0.0, 0.0, 0.0, 0.2]}]}
    model = sg.model_from_dict(obj)
    assert model.tables[:, 1, 1].tolist() == [0.5, 0.2]
    assert model.edge_u.tolist() == [0, 0] and model.edge_v.tolist() == [1, 1]


@pytest.mark.parametrize("fields, message", [
    ({"unary": [0.0, 0.1]}, r"one row per variable, shape \(2, S\); got shape \(2,\)"),
    ({"unary": [[0.0, "x"], [0.0, 0.0]]}, "unary must be a regular table of numbers"),
    ({"partition": 3}, "partition must be a list of 0/1 labels"),
    ({"partition": [0, 2]}, "partition must be a list of 0/1 labels"),
    ({"edges": 5}, "edges must be a list of objects"),
    ({"edges": [3]}, "edges must be a list of objects"),
    ({"edges": [{"u": 0, "v": 5, "table": [0, 0, 0, 1]}]},
     r"edge 0 endpoint 5 is not a variable index in \[0, 2\)"),
    ({"edges": [{"u": 0, "v": 1.0, "table": [0, 0, 0, 1]}]}, "endpoint 1.0 is not"),
    ({"edges": [{"u": 0, "v": 1, "table": [0, 0, 1]}]}, r"S\*S = 4 numbers"),
    ({"edges": [{"u": 0, "v": 1, "table": [[0, 0, 0], [1, 0, 0]]}]}, r"S\*S = 4 numbers"),
    ({"edges": [{"u": 0, "v": 1}]}, "missing field 'table'"),
    ({"partition": [0, 0]}, "both partitions must be non-empty"),
])
def test_model_from_json_mrf_malformed(fields, message):
    with pytest.raises(ModelError, match=message):
        sg.model_from_dict({**MRF, **fields})


def test_model_from_json_mrf_intra_partition_edge():
    obj = {**MRF, "partition": [0, 1, 1], "unary": [[0.0, 0.0]] * 3,
           "edges": [{"u": 1, "v": 2, "table": [0, 0, 0, 1]}]}
    with pytest.raises(BipartiteStructureError):
        sg.model_from_dict(obj)


def test_model_from_json_malformed():
    with pytest.raises(ModelError, match="byte offset"):
        sg.model_from_json("{not json")
