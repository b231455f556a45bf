"""Grand-coupling coalescence times for large monotone models.

Two chains start from the all-ones and all-zeros configurations and
evolve under shared randomness: each site update draws one uniform and
sets the site to 1 in each chain iff the uniform falls below that
chain's conditional probability of 1. For ferromagnetic Boolean models
the top chain dominates the bottom one at every step, so their meeting
time dominates the coupling time of every start pair.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from math import exp

import numpy as np

from .model import BipartiteModel, ModelError, philox_key

SAMPLER_RANDOM_UPDATE = "random_update"
SAMPLER_ALTERNATING_SCAN = "alternating_scan"

_RNG_BLOCK = 4096

# Chain entries per block of scan replicates: B = 2^16 // n replicates
# (README, "How the grand coupling updates", *Blocks*).
_SCAN_BLOCK_ELEMENTS = 2 ** 16

# Width around a conditional computed with numpy's exp that contains the
# one `_logistic` computes at the same argument: the two differ by less
# than 2^-48; the README ("How the grand coupling updates") derives 2^-40.
_BOUND_MARGIN = 2.0 ** -40


class MonotonicityError(ModelError):
    pass


class CouplingInvariantError(RuntimeError):
    """The sandwich or coalescence-permanence invariant failed."""


@dataclass(frozen=True)
class CouplingReport:
    sampler: str
    samples: tuple       # coalescence times, ascending; ties in stream order
    streams: tuple       # the replicate stream of each sample
    replicates: int
    truncated_count: int
    mean: float
    median: float
    q90: float


def monotonicity_precondition(model: BipartiteModel) -> None:
    """Require a Boolean, unconstrained, ferromagnetic RBM-style model."""
    if model.domain_size != 2:
        raise MonotonicityError("monotone coupling requires Boolean variables")
    if model.hard_constraint is not None:
        raise MonotonicityError(
            f"hard constraint {model.hard_constraint!r} is not attractive"
        )
    tables = model.tables
    u, v = model.edge_u, model.edge_v
    not_rbm = np.any(tables.reshape(-1, 4)[:, :3] != 0.0, axis=1)
    if not_rbm.any():
        k = int(np.argmax(not_rbm))
        raise MonotonicityError(
            f"edge ({u[k]}, {v[k]}) is not an RBM-style [0,0,0,W] factor"
        )
    negative = tables[:, 1, 1] < 0.0
    if negative.any():
        bad = list(zip(u[negative].tolist(), v[negative].tolist(),
                       tables[negative, 1, 1].tolist()))
        raise MonotonicityError(f"negative-weight edges break monotonicity: {bad}")


def _neighbors(model: BipartiteModel) -> tuple:
    """Per-site (neighbor, weight) tuples in edge order, so a site's field
    sums its weights in the same order on every call, and each site's
    total weight fmax, summed in that same order."""
    neighbors = [[] for _ in range(model.n)]
    fmax = [0.0] * model.n
    u, v, w = model.edge_u, model.edge_v, model.tables[:, 1, 1]
    for a, b, weight in zip(u.tolist(), v.tolist(), w.tolist()):
        neighbors[a].append((b, weight))
        neighbors[b].append((a, weight))
        fmax[a] += weight
        fmax[b] += weight
    return tuple(tuple(lst) for lst in neighbors), fmax


def _logistic(z: float) -> float:
    """1/(1 + exp(-z)) with libm's exp, and 0 where exp(-z) overflows:
    the conditional both samplers draw with, exactly."""
    try:
        return 1.0 / (1.0 + exp(-z))
    except OverflowError:
        return 0.0


def _conditional(z: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-z)) elementwise with numpy's exp, 0 where it overflows,
    as a new array.

    It lies within `_BOUND_MARGIN` of `_logistic(z)` at every z, but is
    not always equal to it. The caller sets numpy's errstate to ignore
    the overflow.
    """
    g = np.exp(-z)
    g += 1.0
    return np.divide(1.0, g, out=g)


def _bounds(bias: np.ndarray, fmax) -> tuple:
    """Arrays lo, hi with lo[x] <= P(x = 1 | field) <= hi[x] for every field
    the samplers can sum at site x.

    Weights are nonnegative, so such a field lies in [0, fmax[x]], and the
    conditional, monotone in the field, lies between its values at the two
    ends, up to rounding and the difference of `_conditional` from
    `_logistic`, which `_BOUND_MARGIN` covers.
    """
    with np.errstate(over="ignore"):
        at_zero, at_fmax = _conditional(bias), _conditional(bias + fmax)
    return (np.minimum(at_zero, at_fmax) - _BOUND_MARGIN,
            np.maximum(at_zero, at_fmax) + _BOUND_MARGIN)


def _below(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """u < _logistic(z) elementwise: u < g for g = `_conditional(z)`
    wherever |u - g| exceeds `_BOUND_MARGIN`, and from `_logistic` at
    the rest.

    |u - g| is formed in g's own buffer, so that a call holds one float
    array; the caller sets numpy's errstate to ignore overflow.
    """
    g = _conditional(z)
    below = u < g
    np.subtract(u, g, out=g)
    unsure = np.flatnonzero(np.abs(g, out=g) <= _BOUND_MARGIN)
    below[unsure] = [v < _logistic(t) for v, t in zip(u[unsure].tolist(), z[unsure].tolist())]
    return below


def _scan_halves(model: BipartiteModel, bias: np.ndarray) -> tuple:
    """The two half scans, each as (its own slice of a chain, the other
    half's slice, its weights, its biases, lo, hi).

    The weights are `cross` and its CSR transpose, whose rows list their
    entries by ascending first-partition index. lo and hi are `_bounds`,
    with fmax summed in the order its field sums in.
    """
    # Imported here: only the scan builds a sparse matrix, so a
    # random-update coupling loads no scipy.
    import scipy.sparse as sp

    n1, n = model.n1, model.n
    cross = sp.csr_array(
        (model.tables[:, 1, 1], (model.edge_u, model.edge_v - n1)),
        shape=(n1, model.n2),
    )
    halves = []
    for own, other, weights in ((slice(0, n1), slice(n1, n), cross),
                                (slice(n1, n), slice(0, n1), cross.T.tocsr())):
        b = bias[own]
        halves.append((own, other, weights, b, *_bounds(b, weights @ np.ones(weights.shape[1]))))
    return tuple(halves)


def _stream(key, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[key, np.uint64(rep)]))


def grand_coupling_time(
    model: BipartiteModel,
    sampler: str,
    seed: int,
    replicates: int,
    max_updates: int,
    lazy: bool = False,
) -> CouplingReport:
    """Coalescence-time distribution over independent replicates, each
    from the all-ones top chain and the all-zeros bottom chain.

    Times are reported in variable updates and never exceed max_updates;
    the alternating scan checks coalescence only at epoch boundaries, so
    its times are multiples of the variable count, and it runs an epoch
    only while the epoch's n updates fit under the cap. Each replicate
    owns a counter-based stream keyed by (seed, replicate).
    """
    monotonicity_precondition(model)
    if sampler not in (SAMPLER_RANDOM_UPDATE, SAMPLER_ALTERNATING_SCAN):
        raise ModelError(f"unknown sampler {sampler!r}")
    if replicates < 1:
        raise ModelError("need at least one replicate")
    if replicates > sys.maxsize:  # the most entries a Python list can index
        raise ModelError(f"replicates must be at most {sys.maxsize}, got {replicates}")
    if max_updates < 0:
        raise ModelError(f"max_updates must be non-negative, got {max_updates}")
    key = philox_key(seed)
    bias = (model.unaries[:, 1] - model.unaries[:, 0]).astype(float)
    if sampler == SAMPLER_RANDOM_UPDATE:
        nbrs, fmax = _neighbors(model)
        view = (bias.tolist(), nbrs, *_bounds(bias, fmax))
        times = [_run_random_update(*view, _stream(key, rep), max_updates, lazy)
                 for rep in range(replicates)]
    else:
        times = _run_alternating_scan(_scan_halves(model, bias), key, model.n, replicates,
                                      max_updates, lazy)
    done = sorted((time, rep) for rep, time in enumerate(times) if time is not None)
    samples = tuple(time for time, _ in done)
    truncated = replicates - len(samples)
    arr = np.array(samples, dtype=float)
    if arr.size:
        mean = float(arr.mean())
        median = float(np.median(arr))
        q90 = float(np.quantile(arr, 0.9))
    else:
        mean = median = q90 = float("nan")
    return CouplingReport(
        sampler=sampler,
        samples=samples,
        streams=tuple(rep for _, rep in done),
        replicates=replicates,
        truncated_count=truncated,
        mean=mean,
        median=median,
        q90=q90,
    )


def _site_update(bias, nbrs, top, bottom, x, u) -> int:
    """Resample site x of both chains from the shared uniform u.

    `top` and `bottom` are lists of 0/1 ints, updated in place. Returns
    the change in the number of sites where the two chains disagree.
    """
    field_top = field_bot = 0.0
    for j, w in nbrs[x]:
        if top[j]:
            field_top += w
        if bottom[j]:
            field_bot += w
    b = bias[x]
    new_top = 1 if u < _logistic(b + field_top) else 0
    if field_bot == field_top:
        new_bot = new_top
    else:
        new_bot = 1 if u < _logistic(b + field_bot) else 0
        if new_bot > new_top:
            raise CouplingInvariantError("sandwich violated at a site update")
    delta = (new_top != new_bot) - (top[x] != bottom[x])
    top[x] = new_top
    bottom[x] = new_bot
    return delta


def _draws(rng, n: int, size: int, lazy: bool):
    """Sites, uniforms and holds (all False unless lazy) for `size`
    updates, as arrays drawn in stream order."""
    sites = rng.integers(0, n, size=size)
    uniforms = rng.random(size)
    holds = rng.random(size) < 0.5 if lazy else np.zeros(size, dtype=bool)
    return sites, uniforms, holds


def _run_random_update(bias, nbrs, lo, hi, rng, max_updates, lazy):
    n = len(bias)
    top = [1] * n
    bottom = [0] * n
    disagreements = n
    updates = 0
    while disagreements and updates < max_updates:
        block = min(_RNG_BLOCK, max_updates - updates)
        sites, uniforms, holds = _draws(rng, n, block, lazy)
        moves = np.flatnonzero(~holds)
        sites, uniforms = sites[moves], uniforms[moves]
        # 1 or 0 where the site's bounds decide the draw for both chains,
        # -1 where the uniform falls between them.
        codes = np.where(uniforms < lo[sites], 1, np.where(uniforms >= hi[sites], 0, -1))
        # A decided update at a site where the chains agree changes no
        # disagreement, so it only writes its code.
        for move, x, u, code in zip(moves.tolist(), sites.tolist(), uniforms.tolist(),
                                    codes.tolist()):
            if code < 0:
                disagreements += _site_update(bias, nbrs, top, bottom, x, u)
            elif top[x] == bottom[x]:
                top[x] = bottom[x] = code
                continue
            else:
                top[x] = bottom[x] = code
                disagreements -= 1
            if not disagreements:
                updates += move + 1
                break
        else:
            updates += block
    if disagreements:
        return None
    # Coalesced chains must stay identical; spot-check one epoch length
    # with the full update, whatever the bounds say.
    for x, u, hold in zip(*(a.tolist() for a in _draws(rng, n, n, lazy))):
        if not hold and _site_update(bias, nbrs, top, bottom, x, u):
            raise CouplingInvariantError("coalesced chains separated")
    return updates


def _scan_update(b, weights, top, bottom, u, where) -> tuple:
    """Draws of both chains at the flat positions `where` of one half's
    (n_own, B) block, from both chains' fields and `_below`.

    `top` and `bottom` are the other half's (n_other, B) int8 slices,
    converted to float64 for the sparse products, and u the half's
    uniforms.
    """
    b = b.take(where // top.shape[1])
    field_top = b + (weights @ top.astype(float)).take(where)
    field_bot = b + (weights @ bottom.astype(float)).take(where)
    u = u.take(where)
    # Equal fields give equal draws; the bottom chain needs its own
    # conditional only where its field differs from the top chain's. Both
    # chains' draws come from one call.
    differ = np.flatnonzero(field_top != field_bot)
    drawn = _below(np.concatenate((u, u[differ])),
                   np.concatenate((field_top, field_bot[differ])))
    new_top = drawn[:u.size]
    new_bot = new_top.copy()
    new_bot[differ] = drawn[u.size:]
    if np.any(new_bot > new_top):
        raise CouplingInvariantError("sandwich violated during a scan")
    return new_top, new_bot


def _scan_epoch(halves, draws, lazy, top, bottom, checking) -> None:
    """One epoch of a block of replicates, in place on the (n, B) chains.

    Column c of `draws` is replicate c's epoch draw in stream order: a
    half's uniforms, then its holds when lazy, first half first. A
    uniform below the site's lo sets it to 1 in both chains, one at or
    above its hi to 0; `_scan_update` draws the rest and every moving
    site of the replicates `checking` marks.
    """
    start = 0
    for own, other, weights, b, lo, hi in halves:
        u = draws[start:start + b.size]
        start += b.size
        ones = u < lo[:, None]
        undecided = (u < hi[:, None]) ^ ones
        if checking.any():
            undecided |= checking
        moves = True
        if lazy:
            moves = draws[start:start + b.size] >= 0.5
            start += b.size
            undecided &= moves
        where = np.flatnonzero(undecided)
        new = _scan_update(b, weights, top[other], bottom[other], u, where)
        for chain, drawn in zip((top[own], bottom[own]), new):
            np.copyto(chain, ones, where=moves)
            chain.put(where, drawn)


def _usable_cores() -> int:
    """The number of cores this process may run on, or where the platform
    cannot tell (macOS and Windows lack `sched_getaffinity`), the number
    of cores of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_alternating_scan(halves, key, n, replicates, max_updates, lazy) -> list:
    """Coalescence time of each replicate, or None where truncated.

    Replicates run in blocks of B (`_scan_block`). The calling thread and
    one helper thread per further usable core, up to one thread per
    block, take blocks in turn from a shared counter. A block reads only
    its own streams and writes only its own entries of `times`, so no
    result depends on which thread runs it or when. After the first
    error no block is handed out; the caller waits for the helpers and
    re-raises it. Helpers call only private functions, so a tracer that
    wraps the public ones sees every span on the calling thread.
    """
    width = max(1, _SCAN_BLOCK_ELEMENTS // n)
    firsts = range(0, replicates, width)
    pending = iter(firsts)
    times = [None] * replicates
    errors = []
    lock = threading.Lock()

    def work():
        draws = np.empty((width, 2 * n if lazy else n))
        while True:
            with lock:
                first = None if errors else next(pending, None)
            if first is None:
                return
            reps = np.arange(first, min(first + width, replicates))
            try:
                _scan_block(halves, key, reps, n, max_updates, lazy, draws, times)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors.append(exc)

    helpers = [threading.Thread(target=work)
               for _ in range(min(_usable_cores(), len(firsts)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return times


def _scan_block(halves, key, reps, n, max_updates, lazy, draws, times) -> None:
    """Run the replicates `reps` as one block and write their entries of
    `times`.

    Each chain is an (n, B) int8 array, so a half scan makes one sparse
    product per chain for the whole block. `draws` is a (B, n) buffer,
    (B, 2n) when lazy. A replicate whose chains are equal at an epoch
    boundary runs one more epoch with every moving site through
    `_scan_update` and must stay equal; one still apart leaves when its
    next epoch would pass the cap.
    """
    rngs = [_stream(key, rep) for rep in reps]
    top = np.ones((n, reps.size), dtype=np.int8)
    bottom = np.zeros((n, reps.size), dtype=np.int8)
    checking = np.zeros(reps.size, dtype=bool)
    updates = 0
    with np.errstate(over="ignore"):  # for `_below`, once per block
        while True:
            met = (top == bottom).all(axis=0)
            if not met[checking].all():
                raise CouplingInvariantError("coalesced chains separated")
            for rep in reps[met & ~checking].tolist():
                times[rep] = updates
            stay = ~checking & (met | (updates + n <= max_updates))
            checking = met[stay]
            if not stay.all():
                reps, top, bottom = reps[stay], top[:, stay], bottom[:, stay]
                rngs = [rng for rng, kept in zip(rngs, stay) if kept]
                if not reps.size:
                    return
            for rng, row in zip(rngs, draws):
                rng.random(out=row)
            _scan_epoch(halves, draws[:reps.size].T.copy(), lazy, top, bottom, checking)
            updates += n
