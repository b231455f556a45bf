import numpy as np
import pytest

import scangibbs as sg

from oracles import model_from_edges


@pytest.fixture(scope="session")
def zero_rbm_22():
    return sg.build_rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))


@pytest.fixture(scope="session")
def hardcore_k22():
    return sg.build_hardcore_complete_bipartite(2)


@pytest.fixture(scope="session")
def hardcore_k33():
    return sg.build_hardcore_complete_bipartite(3)


@pytest.fixture(scope="session")
def asymmetric_rbm():
    # Asymmetric weights so the alternating scan visibly breaks
    # detailed balance.
    weights = np.array([[1.2, -0.7], [0.4, 0.9], [-1.1, 0.3]])
    return sg.build_rbm(weights, np.array([0.2, -0.4, 0.1]), np.array([-0.3, 0.5]))


@pytest.fixture(scope="session")
def engine_models(zero_rbm_22, asymmetric_rbm):
    """Models for checking the two-block engine against the dense kernels.

    They span both sides of the dense/ARPACK eigensolver switch, the
    independent case (rho = 0), the symmetric hardcore K_{n,n} and one
    domain of size 3.
    """
    rng = np.random.default_rng(11)
    models = [zero_rbm_22, asymmetric_rbm]
    models += [sg.build_hardcore_complete_bipartite(n) for n in (2, 3, 5, 6)]
    for n1, n2 in ((1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 3), (2, 5)):
        m = int(rng.integers(0, n1 * n2 + 1))
        models.append(sg.random_bipartite_model(
            n1, n2, m, -2.0, 2.0, seed=int(rng.integers(0, 2 ** 31))))
    edges = tuple((i, 2 + j, rng.uniform(-1.0, 1.0, (3, 3)))
                  for i in range(2) for j in range(2))
    models.append(model_from_edges(2, 2, 3, edges, rng.uniform(-1.0, 1.0, (4, 3)),
                                   label="potts3"))
    # 256 states: above the largest spectrum solved densely (128 states).
    models.append(sg.random_bipartite_model(
        4, 4, int(rng.integers(0, 17)), -2.0, 2.0, seed=int(rng.integers(0, 2 ** 31))))
    return models


@pytest.fixture(scope="session")
def exact_small_models():
    """One seeded random model per shape n1 + n2 <= 7, weights in [-2, 2], and
    hardcore K_{n,n} for n = 1..6: the shapes of the exact_small benchmark."""
    rng = np.random.default_rng(23)
    models = [sg.build_hardcore_complete_bipartite(n) for n in range(1, 7)]
    for total in range(2, 8):
        for n1 in range(1, total):
            n2 = total - n1
            m = int(rng.integers(0, n1 * n2 + 1))
            models.append(sg.random_bipartite_model(
                n1, n2, m, -2.0, 2.0, seed=int(rng.integers(0, 2 ** 62))))
    return models


def space_of(model, cap=4096):
    return sg.enumerate_state_space(model, cap=cap)
