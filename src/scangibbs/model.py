"""Bipartite pairwise models: the data model, its checks and constructors.

Variables are indexed 0..n-1 with the first partition occupying indices
0..n1-1 and the second partition n1..n-1. All built-in constructors produce
Boolean models, but the data model supports any finite domain size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

# Hard limit on the full configuration grid we are willing to sweep while
# enumerating the support; larger instances belong to the lumped module.
_ENUMERATION_LIMIT = 1 << 22
# K_{n,n} has a 2^(2n)-cell grid, so no exact analysis takes a larger n,
# and coupling refuses the hard constraint: n <= 11.
_HARDCORE_N_MAX = (_ENUMERATION_LIMIT.bit_length() - 1) // 2
# random_bipartite_model permutes every pair index of its n1 x n2 grid, an
# int64 buffer of 8 n1 n2 bytes; it refuses a grid above 2^32 pairs (32 GiB)
# before allocating one.
_PAIR_LIMIT = 1 << 32


class ModelError(ValueError):
    """Invalid model construction or invalid query against a model."""


class BipartiteStructureError(ModelError):
    """An edge connects two variables of the same partition."""


@dataclass(frozen=True, eq=False)
class BipartiteModel:
    """Pairwise model over two variable partitions.

    Edge k joins edge_u[k], in the first partition, to edge_v[k], in the
    second; tables[k] is its (S, S) factor indexed by (value of u, value
    of v). An edge given from the second partition to the first is stored
    the other way round, with its table transposed, so edge_u < n1 <=
    edge_v holds for every model; one within a partition is refused. The
    three arrays, of shapes (m,), (m,) and (m, S, S), are the only stored
    form of the edges; `edges` derives (u, v, table) triples from them in
    edge order, for readers outside the package. unaries is an (n, S)
    array. The only built-in hard constraint is "hardcore": no
    edge may have both endpoints at value 1. Models compare and hash by
    identity: field-wise equality of the arrays has no truth value.
    """

    n1: int
    n2: int
    domain_size: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    tables: np.ndarray
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
        u, v = _endpoints(self.edge_u), _endpoints(self.edge_v)
        if u.shape != v.shape:
            raise ModelError(f"edge endpoint arrays differ in length: {u.size} != {v.size}")
        try:
            tables = np.asarray(self.tables, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelError("factor tables must be numeric") from exc
        S = self.domain_size
        if tables.shape != (u.size, S, S):
            raise ModelError(
                f"factor tables have shape {tables.shape}, expected ({u.size}, {S}, {S})"
            )
        outside = (u < 0) | (u >= self.n) | (v < 0) | (v >= self.n)
        if outside.any():
            k = int(np.argmax(outside))
            raise ModelError(f"edge ({u[k]}, {v[k]}) out of range")
        finite = np.isfinite(tables).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise ModelError(f"edge ({u[k]}, {v[k]}) has a non-finite factor table")
        same = (u < self.n1) == (v < self.n1)
        if same.any():
            bad = list(zip(u[same].tolist(), v[same].tolist()))
            raise BipartiteStructureError(f"edges within a single partition: {bad}")
        # Orient every edge from partition one to partition two.
        swap = u >= self.n1
        if swap.any():
            u, v = np.where(swap, v, u), np.where(swap, u, v)
            tables = tables.copy()
            tables[swap] = tables[swap].transpose(0, 2, 1)
        object.__setattr__(self, "edge_u", u)
        object.__setattr__(self, "edge_v", v)
        object.__setattr__(self, "tables", tables)
        if self.hard_constraint not in (None, "hardcore"):
            raise ModelError(f"unknown hard constraint {self.hard_constraint!r}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def edges(self) -> tuple:
        """(u, v, table) triples in edge order, derived from the arrays."""
        return tuple(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.tables))


def _endpoints(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ModelError(f"edge endpoints must form a 1-D array, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise ModelError(f"edge endpoints must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def _rbm_tables(weights: np.ndarray) -> np.ndarray:
    """[[0, 0], [0, w]] factor tables, one per weight, in the given order."""
    tables = np.zeros((weights.size, 2, 2))
    tables[:, 1, 1] = weights.ravel()
    return tables


def _all_pairs(n1: int, n2: int):
    """Row-major (i, j) index arrays of every pair in an n1 x n2 block."""
    return np.repeat(np.arange(n1), n2), np.tile(np.arange(n2), n1)


def build_rbm(weights, bias1, bias2) -> BipartiteModel:
    """Boolean model with one [0,0,0,W] factor per cross-partition pair:
    the two-layer build_dbm."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ModelError("weight matrix must be 2-dimensional")
    return replace(build_dbm(weights.shape, [weights], [bias1, bias2]), label="rbm")


def build_dbm(layer_sizes, interlayer_weights, biases) -> BipartiteModel:
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

    # Edges run layer pair by layer pair, row-major in each weight matrix;
    # the model stores each from its endpoint in an odd layer.
    us, vs = [], []
    for k in range(len(weight_mats)):
        i, j = _all_pairs(sizes[k], sizes[k + 1])
        us.append(offset[k] + i)
        vs.append(offset[k + 1] + j)
    edge_u, edge_v = np.concatenate(us), np.concatenate(vs)
    tables = _rbm_tables(np.concatenate([w.ravel() for w in weight_mats]))
    unaries = np.zeros((n1 + n2, 2))
    for k, b in enumerate(bias_vecs):
        unaries[offset[k]:offset[k] + sizes[k], 1] = b
    return BipartiteModel(n1, n2, 2, edge_u, edge_v, tables, unaries, label="dbm")


def build_hardcore_complete_bipartite(n: int) -> BipartiteModel:
    """Uniform independent sets of the complete bipartite graph K_{n,n}."""
    if n < 1:
        raise ModelError("n must be at least 1")
    if n > _HARDCORE_N_MAX:
        raise ModelError(
            f"n={n} gives a 2^{2 * n}-cell configuration grid, above the limit "
            f"2^{2 * _HARDCORE_N_MAX} of the exact analyses; n must be at most "
            f"{_HARDCORE_N_MAX} (the lumped command covers larger n)"
        )
    i, j = _all_pairs(n, n)
    unaries = np.zeros((2 * n, 2))
    return BipartiteModel(
        n, n, 2, i, n + j, np.zeros((n * n, 2, 2)), unaries,
        hard_constraint="hardcore", label=f"hardcore_knn:{n}",
    )


def philox_key(seed: int) -> np.uint64:
    """The Philox key word of a user seed, which must fit in 64 bits."""
    if not 0 <= seed < 2 ** 64:
        raise ModelError(f"seed must be in [0, 2^64), got {seed}")
    return np.uint64(seed)


def random_bipartite_model(
    n1: int, n2: int, m: int, weight_low: float, weight_high: float, seed: int
) -> BipartiteModel:
    """RBM-style model with m distinct random cross edges.

    Edge selection shuffles the n1*n2 pair indices with a counter-based
    generator keyed by the seed, so results are reproducible across
    platforms.
    """
    if m < 0:
        raise ModelError(f"m must be non-negative, got {m}")
    if n1 * n2 > _PAIR_LIMIT:
        raise ModelError(
            f"the {n1} x {n2} grid has more than 2^32 pairs: edge selection "
            f"permutes every pair index, an 8 * n1 * n2-byte buffer, and takes "
            f"at most 2^32 of them (32 GiB)"
        )
    if m > n1 * n2:
        raise ModelError(f"m={m} exceeds the {n1 * n2} available pairs")
    if not np.isfinite(weight_high - weight_low):
        raise ModelError(
            f"weight range [{weight_low}, {weight_high}] must have a finite width"
        )
    rng = np.random.Generator(np.random.Philox(key=philox_key(seed)))
    pairs = rng.permutation(n1 * n2)[:m]
    weights = rng.uniform(weight_low, weight_high, size=m)
    i, j = np.divmod(pairs, n2)
    unaries = np.zeros((n1 + n2, 2))
    label = f"random_rbm:{n1}x{n2}:m{m}:seed{seed}"
    return BipartiteModel(n1, n2, 2, i, n1 + j, _rbm_tables(weights), unaries, label=label)


def model_from_json(source: str) -> BipartiteModel:
    """Build a model from its JSON description (text, not a file path)."""
    try:
        obj = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"malformed model JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    return model_from_dict(obj)


def _integer(obj: dict, key: str) -> int:
    """The JSON integer obj[key]; a float, bool or anything else is a ModelError."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"model JSON field {key!r} must be an integer, got {value!r}")
    return value


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
            return build_hardcore_complete_bipartite(_integer(obj, "n"))
        if kind == "random_rbm":
            return random_bipartite_model(
                _integer(obj, "n1"), _integer(obj, "n2"), _integer(obj, "m"),
                float(obj["weight_low"]), float(obj["weight_high"]),
                _integer(obj, "seed"),
            )
        if kind == "mrf":
            return _mrf_from_dict(obj)
    except KeyError as exc:
        raise ModelError(f"model JSON for kind {kind!r} is missing field {exc}") from exc
    except TypeError as exc:
        raise ModelError(f"model JSON for kind {kind!r} has a malformed field: {exc}") from exc
    raise ModelError(f"unknown model kind {kind!r}")


def _mrf_from_dict(obj: dict) -> BipartiteModel:
    partition, edges = obj["partition"], obj["edges"]
    if not isinstance(partition, list) or any(p not in (0, 1) for p in partition):
        raise ModelError("partition must be a list of 0/1 labels, one per variable")
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise ModelError("edges must be a list of objects with fields u, v and table")
    n = len(partition)
    try:
        unary = np.asarray(obj["unary"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError("unary must be a regular table of numbers") from exc
    if unary.ndim != 2 or unary.shape[0] != n:
        raise ModelError(
            f"unary must be a table with one row per variable, shape ({n}, S); "
            f"got shape {unary.shape}"
        )
    S = unary.shape[1]
    ends = [(e["u"], e["v"]) for e in edges]
    for k, end in enumerate(ends):
        for x in end:
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                raise ModelError(f"edge {k} endpoint {x!r} is not a variable index in [0, {n})")
    try:
        tables = np.array([_flat_table(e["table"], S) for e in edges], dtype=float)
        tables = tables.reshape(len(edges), S, S)
    except (TypeError, ValueError) as exc:
        raise ModelError(
            f"every edge table must be S*S = {S * S} numbers, flat or as {S} rows of {S}"
        ) from exc
    # Remap variables so the first partition occupies indices 0..n1-1.
    side = np.array(partition, dtype=np.int64)
    order = np.argsort(side, kind="stable")
    n1 = n - int(side.sum())
    new_index = np.empty(n, dtype=np.int64)
    new_index[order] = np.arange(n)
    pairs = new_index[np.array(ends, dtype=np.int64).reshape(-1, 2)]
    return BipartiteModel(
        n1, n - n1, S, pairs[:, 0], pairs[:, 1], tables, unary[order], label="mrf"
    )


def _flat_table(table, S: int):
    """A table given as S rows of S entries, flattened; anything else as is."""
    if (isinstance(table, list) and len(table) == S
            and all(isinstance(row, list) and len(row) == S for row in table)):
        return [x for row in table for x in row]
    return table
