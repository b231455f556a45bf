"""Full-space oracles that only the tests use.

The library runs the alternating scan on the joint table of the two
partitions and the random-update spectrum on the symmetric form built
from pi. Its results are checked against these: the per-configuration
Hamiltonian and conditionals, the dense single-site, random-update and
scan kernels, the single-site kernels from a fiber lookup of their own,
summed one after another, the lazy kernel and the symmetric form
D^{1/2} P D^{-1/2} in scipy.sparse operations, the L2(pi)
operator norm, the fill check on a dense kernel, the mixing time by
step-by-step powering, the exact rational random-update kernel, the
hardcore lumping maps, the TV distance of two distributions, the
random-update grand coupling with every update through the full site
update, the alternating-scan grand coupling run one replicate at a time
with every site through the full half-scan step, and ergodicity as a
strong-connectivity test in scipy.sparse.csgraph, for a kernel and for
the scan on a joint table.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.special import expit

from scangibbs import chain, coupling, mixing
from scangibbs.chain import (
    _STATIONARITY_TOL,
    UNIT_COMPOSITE,
    UNIT_EPOCH,
    UNIT_VARIABLE,
    Kernel,
    NumericalError,
    StateSpace,
    make_kernel,
)
from scangibbs.coupling import _RNG_BLOCK, CouplingInvariantError, _site_update
from scangibbs.lumped import LumpingError
from scangibbs.mixing import DEFAULT_THRESHOLD, MixingError
from scangibbs.model import BipartiteModel, ModelError, philox_key
from scangibbs.spectral import (
    _SYMMETRY_TOL,
    NonErgodicError,
    _conjugate,
    deviation_norm,
)

UNIT_HALF_EPOCH = "half_epoch"

# exp(h) is a finite normal float64 for h in this range: above it
# exp overflows, below it the weight is subnormal or 0.
_EXP_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def model_from_edges(n1, n2, domain_size, edges, unaries, **kwargs) -> BipartiteModel:
    """A model given as (u, v, table) triples, the inverse of `model.edges`."""
    S = domain_size
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    tables = np.array([e[2] for e in edges], dtype=float).reshape(len(edges), S, S)
    return BipartiteModel(n1, n2, S, u, v, tables, unaries, **kwargs)


def _check_config(model: BipartiteModel, config) -> np.ndarray:
    config = np.asarray(config)
    if config.shape != (model.n,):
        raise ModelError(f"configuration length {config.shape} != ({model.n},)")
    if config.min() < 0 or config.max() >= model.domain_size:
        raise ModelError("configuration entry outside the variable domain")
    return config


def hamiltonian(model: BipartiteModel, config) -> float:
    """Sum of pairwise and unary factor values; ignores hard constraints."""
    config = _check_config(model, config)
    h = 0.0
    for (u, v, table) in model.edges:
        h += float(table[config[u], config[v]])
    h += float(model.unaries[np.arange(model.n), config].sum())
    return h


def violates_constraints(model: BipartiteModel, config) -> bool:
    if model.hard_constraint != "hardcore":
        return False
    config = np.asarray(config)
    return any(config[u] == 1 and config[v] == 1 for (u, v, _) in model.edges)


def unnormalized_weight(model: BipartiteModel, config) -> float:
    """exp(H) on the constrained support, 0 off it."""
    if violates_constraints(model, config):
        return 0.0
    h = hamiltonian(model, config)
    low, high = _EXP_RANGE
    if not low <= h <= high:
        raise ModelError(f"exp of the hamiltonian {h} is not a normal float64")
    return float(np.exp(h))


def conditional_distribution(model: BipartiteModel, config, variable: int) -> np.ndarray:
    """Distribution of one variable given all others.

    For a bipartite model the result depends only on the opposite
    partition's sub-configuration.
    """
    config = _check_config(model, config)
    if not (0 <= variable < model.n):
        raise ModelError(f"variable {variable} out of range")
    S = model.domain_size
    if model.hard_constraint is not None:
        weights = np.empty(S)
        flipped = config.copy()
        for s in range(S):
            flipped[variable] = s
            weights[s] = unnormalized_weight(model, flipped)
        total = weights.sum()
        if total <= 0.0:
            raise ModelError("all conditional weights zero")
        return weights / total
    # Soft model: only incident factors differ across values, so the
    # ratio reduces to a softmax of local scores.
    scores = model.unaries[variable].astype(float).copy()
    for (u, v, table) in model.edges:
        table = np.asarray(table, dtype=float)
        if u == variable:
            scores += table[:, config[v]]
        elif v == variable:
            scores += table[config[u], :]
    scores -= scores.max()
    weights = np.exp(scores)
    return weights / weights.sum()


def single_site_sparse(space: StateSpace, x: int) -> sp.csr_array:
    """Sparse transition matrix of resampling the single variable x.

    Column s of targets holds the row of each state with x set to s, or
    -1 off the support, and probs its conditional probability. A state
    where pi underflows at every value of x raises NumericalError.
    """
    S = space.domain_size
    stride = S ** (space.n_variables - 1 - x)
    base = space.keys - space.configs[:, x].astype(np.int64) * stride
    targets = space.position[base[:, None] + stride * np.arange(S)]
    weights = np.where(targets >= 0, space.pi[targets], 0.0)
    totals = weights.sum(axis=1)
    if not totals.all():
        raise NumericalError(
            f"pi vanishes at every value of variable {x} at some state, "
            "so its conditional law there is 0/0"
        )
    probs = weights / totals[:, None]
    rows, s = np.nonzero(targets >= 0)
    mat = sp.csr_array(
        (probs[rows, s], (rows, targets[rows, s])), shape=(space.size, space.size)
    )
    mat.sum_duplicates()
    return mat


def single_site_kernel(model: BipartiteModel, space: StateSpace, x: int) -> Kernel:
    """Transition matrix of resampling the single variable x."""
    if not (0 <= x < model.n):
        raise chain.ChainError(f"variable {x} out of range")
    dense = single_site_sparse(space, x).toarray()
    return make_kernel(dense, UNIT_VARIABLE, f"T[{x}]")


def sequential_site_sum(model: BipartiteModel, space: StateSpace) -> sp.csr_array:
    """Sum of the sparse single-site kernels, added one after another."""
    acc = sp.csr_array((space.size, space.size))
    for x in range(model.n):
        acc = acc + single_site_sparse(space, x)
    return acc


def random_update_kernel(
    model: BipartiteModel, space: StateSpace, lazy: bool = True
) -> Kernel:
    """Dense uniform-site Gibbs kernel; the lazy form holds with probability 1/2.

    Built from the single-site kernels added one after another, so it
    shares no code with spectral.random_update_symmetric.
    """
    matrix = sequential_site_sum(model, space).toarray() / model.n
    label = "P_RU"
    if lazy:
        matrix = 0.5 * np.eye(space.size) + 0.5 * matrix
        label = "P_RU_lazy"
    return make_kernel(matrix, UNIT_VARIABLE, label)


def _right_multiply(dense: np.ndarray, sparse_t: sp.csr_array) -> np.ndarray:
    # dense @ sparse via the transposed product to stay on the fast CSR path
    return (sparse_t.T @ dense.T).T


def scan_kernels(model: BipartiteModel, space: StateSpace) -> dict[str, Kernel]:
    """Alternating-scan kernels and half-scan factors.

    Returns P_AS (one epoch: all of partition one in ascending index
    order, then all of partition two), the scan factors P_AS1/P_AS2, and
    the per-partition lazy random-update kernels P_GS1/P_GS2.
    """
    n1, n = model.n1, model.n
    N = space.size
    sparse_ts = [single_site_sparse(space, x) for x in range(n)]

    def scan_product(indices):
        prod = sparse_ts[indices[0]].toarray()
        for x in indices[1:]:
            prod = _right_multiply(prod, sparse_ts[x])
        return prod

    p_as1 = scan_product(range(n1))
    p_as2 = scan_product(range(n1, n))
    p_as = p_as1 @ p_as2

    def half_gibbs(indices):
        acc = sp.csr_array((N, N))
        for x in indices:
            acc = acc + sparse_ts[x]
        return 0.5 * np.eye(N) + acc.toarray() / (2 * len(indices))

    return {
        "P_AS": make_kernel(p_as, UNIT_EPOCH, "P_AS"),
        "P_AS1": make_kernel(p_as1, UNIT_HALF_EPOCH, "P_AS1"),
        "P_AS2": make_kernel(p_as2, UNIT_HALF_EPOCH, "P_AS2"),
        "P_GS1": make_kernel(half_gibbs(range(n1)), UNIT_HALF_EPOCH, "P_GS1"),
        "P_GS2": make_kernel(half_gibbs(range(n1, n)), UNIT_HALF_EPOCH, "P_GS2"),
    }


def stationary_projector(space: StateSpace) -> Kernel:
    """Rank-one kernel whose every row is pi."""
    return Kernel(np.tile(space.pi, (space.size, 1)), UNIT_COMPOSITE, "S_pi")


def is_ergodic(kernel: Kernel | sp.csr_array) -> bool:
    """Irreducibility via strong connectivity; aperiodicity via a self-loop.

    Takes a Kernel or a sparse matrix whose positive entries are the
    moves of the chain. A positive diagonal entry suffices for
    aperiodicity of an irreducible chain, which covers every kernel
    built here; a chain without one is reported as not ergodic.
    """
    matrix = kernel.matrix if isinstance(kernel, Kernel) else kernel
    support = sp.csr_array(matrix > 0.0)
    n_comp, _ = connected_components(support, directed=True, connection="strong")
    return bool(n_comp == 1 and support.diagonal().any())


def scan_is_ergodic(joint: np.ndarray) -> bool:
    """Whether the bipartite graph with an edge x1 - x2 wherever J > 0 is
    connected, by is_ergodic on its adjacency with a self-loop at every node.
    """
    support = sp.csr_array(joint > 0.0)
    n1, n2 = joint.shape
    return is_ergodic(sp.block_array([[sp.eye_array(n1), support],
                                      [support.T, sp.eye_array(n2)]], format="csr"))


def symmetric_form(matrix: sp.csr_array, pi: np.ndarray) -> sp.csr_array:
    """D^{1/2} P D^{-1/2} of a sparse reversible P in scipy.sparse operations,
    the reference for spectral.random_update_symmetric.

    Checks detailed balance, the symmetry of the conjugate and
    ergodicity, then averages the conjugate with its transpose.
    """
    flux = matrix.multiply(pi[:, None])
    violation = abs(flux - flux.T).max()
    if violation > _STATIONARITY_TOL:
        raise NumericalError(f"kernel violates detailed balance by {violation}")
    sqrt_pi = np.sqrt(pi)
    m = sp.csr_array(matrix.multiply(sqrt_pi[:, None]).multiply(1.0 / sqrt_pi[None, :]))
    asym = abs(m - m.T).max()
    if asym > _SYMMETRY_TOL:
        raise NumericalError(f"kernel not symmetric after conjugation: asymmetry {asym}")
    if not is_ergodic(matrix):
        raise NonErgodicError("kernel is not ergodic")
    return 0.5 * (m + m.T)


def random_update_sparse_sum(model: BipartiteModel, space: StateSpace, lazy: bool = True):
    """The sparse random-update kernel, lazy as the sparse sum 0.5 I + 0.5 P."""
    matrix = sequential_site_sum(model, space) / model.n
    if lazy:
        matrix = 0.5 * sp.eye(space.size, format="csr") + 0.5 * matrix
    return sp.csr_array(matrix)


def verify_fill_inequality(kernel: Kernel, space: StateSpace) -> dict:
    """The fill check on a dense kernel, from R(P) = P P* and dense powers of P.

    Checks TV(P^t(s,.), pi)^2 <= (1 - gap(R(P)))^t / pi(s) at
    t = 1, 2, 4, ..., 32 with the margins of mixing._fill_report.
    """
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    rev = chain.reversibilization(kernel, space)
    contraction = deviation_norm(rev, space)  # equals 1 - gap(R(P))
    pi = space.pi

    def tvs():
        power = kernel.matrix  # P^t, squared to P^(2t)
        while True:
            yield 0.5 * mixing._abs_deviation(power, pi)
            power = mixing._renormalized_product(power, power)

    return mixing._fill_report(contraction, pi, tvs())


def general_operator_norm(operator, space: StateSpace) -> float:
    """L2(pi) operator norm (largest singular value); no symmetry needed."""
    matrix = operator.matrix if isinstance(operator, Kernel) else np.asarray(operator)
    m = _conjugate(matrix, space.pi)
    gram = m.T @ m
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return float(np.sqrt(max(eigs.max(), 0.0)))


def iterate_mixing_time(
    kernel: Kernel,
    space: StateSpace,
    threshold: float = DEFAULT_THRESHOLD,
    t_max: int = mixing.DEFAULT_T_MAX,
) -> mixing.MixingReport:
    """Mixing time by the definition: the kernel powered one step at a
    time, the reference for the doubling search of mixing.exact_mixing_time.

    It makes that function's checks (ergodicity here by strong
    connectivity) and forms its products the same way, and its TV curve
    holds every t from 0 to the mixing time.
    """
    mixing._check_search(threshold, t_max)
    mixing._check_nonnegative(kernel.matrix)
    if not is_ergodic(kernel):
        raise NonErgodicError(f"kernel {kernel.label} is not ergodic")
    pi = space.pi
    curve = [(0, 1.0 - float(pi.min()))]
    if curve[0][1] <= threshold:
        return mixing.MixingReport(0, threshold, tuple(curve), False, kernel.unit)
    power = kernel.matrix.copy()
    scratch = np.empty_like(power)
    for t in range(1, t_max + 1):
        worst = mixing._worst_tv(power, pi, scratch)
        curve.append((t, worst))
        if worst <= threshold:
            return mixing.MixingReport(t, threshold, tuple(curve), False, kernel.unit)
        power = mixing._renormalized_product(power, kernel.matrix)
    return mixing.MixingReport(None, threshold, tuple(curve), True, kernel.unit)


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
    configs = space.configs.tolist()
    row_of = {tuple(config): i for i, config in enumerate(configs)}
    matrix = [[Fraction(0) for _ in range(N)] for _ in range(N)]
    for i, config in enumerate(configs):
        for x in range(n):
            targets = []
            for s in range(S):
                flipped = (*config[:x], s, *config[x + 1:])
                if flipped in row_of:
                    targets.append(row_of[flipped])
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


def hardcore_lump_map(space: StateSpace, n: int) -> np.ndarray:
    """Map full hardcore K_{n,n} configurations to lumped indices."""
    configs = space.configs
    if configs.shape[1] != 2 * n:
        raise LumpingError(f"state space is not over 2n={2 * n} variables")
    k_l = configs[:, :n].sum(axis=1)
    k_r = configs[:, n:].sum(axis=1)
    if np.any((k_l > 0) & (k_r > 0)):
        raise LumpingError("state space contains configurations occupying both sides")
    return np.where(k_r > 0, n + k_r, k_l).astype(np.int64)


def lumpability_check(
    full_kernel: Kernel, lump_map, tol: float = 1e-12
) -> bool:
    """True iff block row sums depend only on the source block."""
    lump_map = np.asarray(lump_map)
    if lump_map.shape[0] != full_kernel.size:
        raise LumpingError("lump map does not cover the full state space")
    n_blocks = int(lump_map.max()) + 1
    indicator = np.zeros((full_kernel.size, n_blocks))
    indicator[np.arange(full_kernel.size), lump_map] = 1.0
    block_sums = full_kernel.matrix @ indicator
    for block in range(n_blocks):
        rows = block_sums[lump_map == block]
        if rows.shape[0] == 0:
            raise LumpingError(f"lump map has an empty block {block}")
        if np.max(np.abs(rows - rows[0])) > tol:
            return False
    return True


def quotient_kernel(full_kernel: Kernel, lump_map, unit: str, label: str) -> Kernel:
    """Exact quotient of a lumpable kernel (one row per block)."""
    if not lumpability_check(full_kernel, lump_map):
        raise LumpingError("kernel is not lumpable under the given map")
    lump_map = np.asarray(lump_map)
    n_blocks = int(lump_map.max()) + 1
    indicator = np.zeros((full_kernel.size, n_blocks))
    indicator[np.arange(full_kernel.size), lump_map] = 1.0
    block_sums = full_kernel.matrix @ indicator
    reps = [int(np.nonzero(lump_map == b)[0][0]) for b in range(n_blocks)]
    return make_kernel(block_sums[reps], unit, label)


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


def _draws(rng, n: int, size: int, lazy: bool):
    """(site, uniform, hold) for `size` updates, drawn in stream order."""
    sites = rng.integers(0, n, size=size).tolist()
    uniforms = rng.random(size).tolist()
    holds = (rng.random(size) < 0.5).tolist() if lazy else [False] * size
    return zip(sites, uniforms, holds)


def _run_random_update(bias, nbrs, rng, max_updates, lazy):
    n = len(bias)
    top = [1] * n
    bottom = [0] * n
    disagreements = n
    updates = 0
    while disagreements and updates < max_updates:
        block = min(_RNG_BLOCK, max_updates - updates)
        for x, u, hold in _draws(rng, n, block, lazy):
            updates += 1
            if hold:
                continue
            disagreements += _site_update(bias, nbrs, top, bottom, x, u)
            if not disagreements:
                break
    if disagreements:
        return None
    # Coalesced chains must stay identical; spot-check one epoch length.
    for x, u, hold in _draws(rng, n, n, lazy):
        if not hold and _site_update(bias, nbrs, top, bottom, x, u):
            raise CouplingInvariantError("coalesced chains separated")
    return updates


def random_update_coupling(model: BipartiteModel, seed: int, replicates: int,
                           max_updates: int, lazy: bool) -> tuple:
    """(samples, streams) of `grand_coupling_time` for the random update,
    with every update, decided by the site's bounds or not, summing both
    chains' fields in `coupling._site_update`."""
    key = philox_key(seed)
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).astype(float).tolist()
    nbrs, _ = coupling._neighbors(model)
    times = [
        _run_random_update(bias, nbrs,
                           np.random.Generator(np.random.Philox(key=[key, np.uint64(rep)])),
                           max_updates, lazy)
        for rep in range(replicates)
    ]
    done = sorted((time, rep) for rep, time in enumerate(times) if time is not None)
    return tuple(time for time, _ in done), tuple(rep for _, rep in done)


def _run_alternating_scan(bias, halves, rng, max_updates, lazy):
    # A half's sites are mutually independent given the other half, so
    # each half scan vectorizes; the per-site shared uniforms are drawn
    # in scan order.
    n = len(bias)
    top, bottom = np.ones(n), np.zeros(n)

    def epoch():
        for own, other, weights in halves:
            b = bias[own]
            u = rng.random(b.shape[0])
            if lazy:
                hold = rng.random(b.shape[0]) < 0.5
            field_top = b + weights @ top[other]
            field_bot = b + weights @ bottom[other]
            new_top = (u < expit(field_top)).astype(float)
            # Equal fields give equal draws; the bottom chain needs its own
            # conditional only where its field differs from the top chain's.
            new_bot = new_top.copy()
            differ = np.flatnonzero(field_top != field_bot)
            new_bot[differ] = u[differ] < expit(field_bot[differ])
            if np.any(new_bot > new_top):
                raise CouplingInvariantError("sandwich violated during a scan")
            if lazy:
                new_top[hold], new_bot[hold] = top[own][hold], bottom[own][hold]
            top[own], bottom[own] = new_top, new_bot

    updates = 0
    while not np.array_equal(top, bottom):
        if updates + n > max_updates:
            return None
        epoch()
        updates += n
    # Coalesced chains must stay identical; check one more epoch.
    epoch()
    if not np.array_equal(top, bottom):
        raise CouplingInvariantError("coalesced chains separated")
    return updates


def alternating_scan_coupling(model: BipartiteModel, seed: int, replicates: int,
                              max_updates: int, lazy: bool) -> tuple:
    """(samples, streams) of `grand_coupling_time` for the alternating scan,
    run one replicate at a time, each half scan forming both chains'
    fields and conditionals at every site."""
    key = philox_key(seed)
    n1, n = model.n1, model.n
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).astype(float)
    cross = sp.csr_array(
        (model.tables[:, 1, 1], (model.edge_u, model.edge_v - n1)),
        shape=(n1, model.n2),
    )
    first, second = slice(0, n1), slice(n1, n)
    halves = ((first, second, cross), (second, first, cross.T.tocsr()))
    times = [
        _run_alternating_scan(bias, halves,
                              np.random.Generator(np.random.Philox(key=[key, np.uint64(rep)])),
                              max_updates, lazy)
        for rep in range(replicates)
    ]
    done = sorted((time, rep) for rep, time in enumerate(times) if time is not None)
    return tuple(time for time, _ in done), tuple(rep for _, rep in done)
