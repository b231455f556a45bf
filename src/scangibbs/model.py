"""Bipartite pairwise models: the data model, its checks and constructors.

Variables are indexed 0..n-1 with the first partition occupying indices
0..n1-1 and the second partition n1..n-1. All built-in constructors produce
Boolean models, but the data model supports any finite domain size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# |H| beyond this overflows exp() in 64-bit floats; exact-kernel code
# needs finite weights, so we refuse rather than emit inf.
HAMILTONIAN_RANGE = 700.0


class ModelError(ValueError):
    """Invalid model construction or invalid query against a model."""


class HamiltonianRangeError(ModelError):
    """Hamiltonian magnitude too large for exp() in 64-bit floats."""


class BipartiteStructureError(ModelError):
    """An edge connects two variables of the same partition."""


@dataclass(frozen=True)
class BipartiteModel:
    """Pairwise model over two variable partitions.

    edges holds (u, v, table) triples with u in the first partition,
    v in the second, and table a (S, S) array indexed by (value of u,
    value of v). unaries is an (n, S) array. The only built-in hard
    constraint is "hardcore": no edge may have both endpoints at value 1.
    """

    n1: int
    n2: int
    domain_size: int
    edges: tuple
    unaries: np.ndarray
    hard_constraint: str | None = None
    label: str = "model"

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ModelError("both partitions must be non-empty")
        if self.domain_size < 2:
            raise ModelError("domain size must be at least 2")
        if self.unaries.shape != (self.n, self.domain_size):
            raise ModelError(
                f"unary table shape {self.unaries.shape} does not match "
                f"({self.n}, {self.domain_size})"
            )
        if not np.all(np.isfinite(self.unaries)):
            raise ModelError("unary tables must be finite")
        for (u, v, table) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ModelError(f"edge ({u}, {v}) out of range")
            if np.asarray(table).shape != (self.domain_size, self.domain_size):
                raise ModelError(f"edge ({u}, {v}) has a malformed factor table")
            if not np.all(np.isfinite(table)):
                raise ModelError(f"edge ({u}, {v}) has a non-finite factor table")
        if self.hard_constraint not in (None, "hardcore"):
            raise ModelError(f"unknown hard constraint {self.hard_constraint!r}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def partition_of(self, x: int) -> int:
        return 0 if x < self.n1 else 1


def validate_bipartite(model: BipartiteModel) -> None:
    """Raise BipartiteStructureError listing edges within one partition."""
    bad = [
        (u, v)
        for (u, v, _) in model.edges
        if model.partition_of(u) == model.partition_of(v)
    ]
    if bad:
        raise BipartiteStructureError(
            f"edges within a single partition: {bad}"
        )


def build_rbm(weights, bias1, bias2, label: str = "rbm") -> BipartiteModel:
    """Boolean model with one [0,0,0,W] factor per cross-partition pair."""
    weights = np.asarray(weights, dtype=float)
    bias1 = np.asarray(bias1, dtype=float)
    bias2 = np.asarray(bias2, dtype=float)
    if weights.ndim != 2:
        raise ModelError("weight matrix must be 2-dimensional")
    n1, n2 = weights.shape
    if bias1.shape != (n1,) or bias2.shape != (n2,):
        raise ModelError(
            f"bias shapes {bias1.shape}, {bias2.shape} do not match weights {weights.shape}"
        )
    edges = []
    for i in range(n1):
        for j in range(n2):
            table = np.array([[0.0, 0.0], [0.0, weights[i, j]]])
            edges.append((i, n1 + j, table))
    unaries = np.zeros((n1 + n2, 2))
    unaries[:n1, 1] = bias1
    unaries[n1:, 1] = bias2
    return BipartiteModel(n1, n2, 2, tuple(edges), unaries, label=label)


def build_dbm(layer_sizes, interlayer_weights, biases, label: str = "dbm") -> BipartiteModel:
    """Layered Boolean model; odd layers (1st, 3rd, ...) form partition one."""
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ModelError("a layered model needs at least two layers")
    if len(interlayer_weights) != len(sizes) - 1:
        raise ModelError("need exactly one weight matrix per consecutive layer pair")
    if len(biases) != len(sizes):
        raise ModelError("need exactly one bias vector per layer")
    weight_mats = [np.asarray(w, dtype=float) for w in interlayer_weights]
    bias_vecs = [np.asarray(b, dtype=float) for b in biases]
    for k, w in enumerate(weight_mats):
        if w.shape != (sizes[k], sizes[k + 1]):
            raise ModelError(
                f"weight matrix {k} has shape {w.shape}, expected ({sizes[k]}, {sizes[k + 1]})"
            )
    for k, b in enumerate(bias_vecs):
        if b.shape != (sizes[k],):
            raise ModelError(f"bias vector {k} has shape {b.shape}, expected ({sizes[k]},)")

    # Global index layout: all odd-layer variables first, then even layers.
    odd_layers = [k for k in range(len(sizes)) if k % 2 == 0]  # 1st, 3rd, ... layers
    even_layers = [k for k in range(len(sizes)) if k % 2 == 1]
    n1 = sum(sizes[k] for k in odd_layers)
    n2 = sum(sizes[k] for k in even_layers)
    offset = {}
    pos = 0
    for k in odd_layers:
        offset[k] = pos
        pos += sizes[k]
    for k in even_layers:
        offset[k] = pos
        pos += sizes[k]

    edges = []
    for k, w in enumerate(weight_mats):
        lo, hi = (k, k + 1) if k % 2 == 0 else (k + 1, k)
        # lo is the odd (partition-one) layer of the pair
        for i in range(sizes[k]):
            for j in range(sizes[k + 1]):
                table = np.array([[0.0, 0.0], [0.0, w[i, j]]])
                if k % 2 == 0:
                    edges.append((offset[k] + i, offset[k + 1] + j, table))
                else:
                    table = table.T
                    edges.append((offset[k + 1] + j, offset[k] + i, table))
    unaries = np.zeros((n1 + n2, 2))
    for k, b in enumerate(bias_vecs):
        unaries[offset[k]:offset[k] + sizes[k], 1] = b
    return BipartiteModel(n1, n2, 2, tuple(edges), unaries, label=label)


def build_hardcore_complete_bipartite(n: int) -> BipartiteModel:
    """Uniform independent sets of the complete bipartite graph K_{n,n}."""
    if n < 1:
        raise ModelError("n must be at least 1")
    zero = np.zeros((2, 2))
    edges = tuple((i, n + j, zero) for i in range(n) for j in range(n))
    unaries = np.zeros((2 * n, 2))
    return BipartiteModel(
        n, n, 2, edges, unaries,
        hard_constraint="hardcore", label=f"hardcore_knn:{n}",
    )


def philox_key(seed: int) -> np.uint64:
    """The Philox key word of a user seed, which must fit in 64 bits."""
    if not 0 <= seed < 2 ** 64:
        raise ModelError(f"seed must be in [0, 2^64), got {seed}")
    return np.uint64(seed)


def random_bipartite_model(
    n1: int, n2: int, m: int, weight_low: float, weight_high: float, seed: int,
    label: str | None = None,
) -> BipartiteModel:
    """RBM-style model with m distinct random cross edges.

    Edge selection shuffles the n1*n2 pair indices with a counter-based
    generator keyed by the seed, so results are reproducible across
    platforms.
    """
    if m < 0:
        raise ModelError(f"m must be non-negative, got {m}")
    if m > n1 * n2:
        raise ModelError(f"m={m} exceeds the {n1 * n2} available pairs")
    if not np.isfinite(weight_high - weight_low):
        raise ModelError(
            f"weight range [{weight_low}, {weight_high}] must have a finite width"
        )
    rng = np.random.Generator(np.random.Philox(key=philox_key(seed)))
    pairs = rng.permutation(n1 * n2)[:m]
    weights = rng.uniform(weight_low, weight_high, size=m)
    edges = []
    for pair, w in zip(pairs, weights):
        i, j = divmod(int(pair), n2)
        table = np.array([[0.0, 0.0], [0.0, w]])
        edges.append((i, n1 + j, table))
    unaries = np.zeros((n1 + n2, 2))
    if label is None:
        label = f"random_rbm:{n1}x{n2}:m{m}:seed{seed}"
    return BipartiteModel(n1, n2, 2, tuple(edges), unaries, label=label)


def model_from_json(source: str) -> BipartiteModel:
    """Build a model from its JSON description (text, not a file path)."""
    try:
        obj = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"malformed model JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    return model_from_dict(obj)


def model_from_dict(obj: dict) -> BipartiteModel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ModelError("model JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "rbm":
            return build_rbm(obj["weights"], obj["bias1"], obj["bias2"])
        if kind == "dbm":
            return build_dbm(obj["layer_sizes"], obj["weights"], obj["biases"])
        if kind == "hardcore_knn":
            return build_hardcore_complete_bipartite(int(obj["n"]))
        if kind == "random_rbm":
            return random_bipartite_model(
                int(obj["n1"]), int(obj["n2"]), int(obj["m"]),
                float(obj["weight_low"]), float(obj["weight_high"]),
                int(obj["seed"]),
            )
        if kind == "mrf":
            return _mrf_from_dict(obj)
    except KeyError as exc:
        raise ModelError(f"model JSON for kind {kind!r} is missing field {exc}") from exc
    raise ModelError(f"unknown model kind {kind!r}")


def _mrf_from_dict(obj: dict) -> BipartiteModel:
    partition = list(obj["partition"])
    unary = np.asarray(obj["unary"], dtype=float)
    n = len(partition)
    if unary.shape[0] != n:
        raise ModelError("unary table count does not match the partition array")
    S = unary.shape[1]
    # Remap variables so the first partition occupies indices 0..n1-1.
    order = [i for i, p in enumerate(partition) if p == 0]
    order += [i for i, p in enumerate(partition) if p == 1]
    n1 = sum(1 for p in partition if p == 0)
    new_index = {old: new for new, old in enumerate(order)}
    edges = []
    for e in obj["edges"]:
        u, v = new_index[int(e["u"])], new_index[int(e["v"])]
        table = np.asarray(e["table"], dtype=float).reshape(S, S)
        if u >= n1 and v < n1:
            u, v, table = v, u, table.T
        edges.append((u, v, table))
    model = BipartiteModel(
        n1, n - n1, S, tuple(edges), unary[order], label="mrf"
    )
    validate_bipartite(model)
    return model
