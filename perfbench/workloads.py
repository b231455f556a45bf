"""Inputs, operations and result checks of the scangibbs benchmark workloads.

Every model seed is derived from the workload seed; shapes and sizes are
fixed, so the amount of work barely depends on the seed. An instance is
one analysis a user would ask for and is made of one or more operations;
an operation fails when it raises or when its result fails a check.
"""

from __future__ import annotations

import csv
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from scangibbs import cli, lumped, mixing, model, spectral

WORKLOADS = ("exact_small", "exact_large", "coupling_large")

# The reference task of hostspeed.py whose work each workload resembles.
HOST_TASK = {"exact_small": "interp", "exact_large": "blas", "coupling_large": "interp"}

# Seed whose results are compared with the golden record.
DEFAULT_SEED = 1

VERIFY_CAP = 4096
SMALL_MAX_VARIABLES = 7          # n1 + n2 <= 7, so N <= 128
SMALL_DRAWS_PER_SHAPE = 6
SMALL_WEIGHT = 2.0
HARDCORE_NS = range(1, 7)
LUMPED_NS = range(4, 51)
LUMPED_T_MAX = 10 ** 17          # doubling search never truncates up to n = 50
LARGE_WEIGHT = 1.0
DBM_LAYERS = (3, 3, 3, 2)        # n1 = 6, n2 = 5: 2048 states
# A second or less per call, so each call is timed between two close runs
# of the host's reference task, and a run holds 15 to 30 rounds.
COUPLING_REPLICATES = (("random_update", 5), ("alternating_scan", 300))
COUPLING_MODEL = (
    "--model", "random_rbm", "--n1", "1000", "--n2", "1000", "--m", "5000",
    "--weight-low", "0.0", "--weight-high", "0.2", "--no-lazy",
)

RELATIVE_TOL = 1e-9

OPS = {
    "verify": ("theorem1", "mixing_bounds"),
    "lumped": ("relax_ru", "mix_ru", "relax_as", "mix_as"),
    "coupling": ("run",),
}


@dataclass(frozen=True)
class Instance:
    id: str
    kind: str        # "verify", "lumped" or "coupling"
    arg: object      # a BipartiteModel, a lumped n, or CLI arguments


def derive_rng(seed: int, workload: str) -> np.random.Generator:
    salt = zlib.crc32(workload.encode())
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(salt)]))


def build_inputs(workload: str, seed: int) -> list[Instance]:
    rng = derive_rng(seed, workload)
    if workload == "exact_small":
        return _exact_small(rng)
    if workload == "exact_large":
        return _exact_large(rng)
    if workload == "coupling_large":
        model_seed = int(rng.integers(0, 2 ** 31))
        return [Instance(f"coupling:{sampler}", "coupling",
                         ("coupling", *COUPLING_MODEL, "--seed", str(model_seed),
                          "--samplers", sampler, "--replicates", str(replicates)))
                for sampler, replicates in COUPLING_REPLICATES]
    raise ValueError(f"unknown workload {workload!r}")


def _exact_small(rng) -> list[Instance]:
    out = []
    for total in range(2, SMALL_MAX_VARIABLES + 1):
        for n1 in range(1, total):
            n2 = total - n1
            for k in range(SMALL_DRAWS_PER_SHAPE):
                m = int(rng.integers(0, n1 * n2 + 1))
                mdl = model.random_bipartite_model(
                    n1, n2, m, -SMALL_WEIGHT, SMALL_WEIGHT, int(rng.integers(0, 2 ** 62)))
                out.append(Instance(f"rbm:{n1}x{n2}#{k}", "verify", mdl))
    for n in HARDCORE_NS:
        out.append(Instance(f"hardcore:{n}", "verify",
                            model.build_hardcore_complete_bipartite(n)))
    for n in LUMPED_NS:
        out.append(Instance(f"lumped:{n}", "lumped", n))
    return out


def _exact_large(rng) -> list[Instance]:
    def uniform(*shape):
        return rng.uniform(-LARGE_WEIGHT, LARGE_WEIGHT, size=shape)

    rbm = model.random_bipartite_model(
        5, 6, 30, -LARGE_WEIGHT, LARGE_WEIGHT, int(rng.integers(0, 2 ** 62)))
    sizes = DBM_LAYERS
    dbm = model.build_dbm(
        sizes,
        [uniform(a, b) for a, b in zip(sizes, sizes[1:])],
        [uniform(s) for s in sizes],
    )
    return [Instance("rbm:5x6", "verify", rbm), Instance("dbm:3-3-3-2", "verify", dbm)]


def work_items(inst: Instance, result: dict) -> int:
    """Work items an instance completed: itself, or its coalescence updates."""
    if inst.kind != "coupling":
        return 1
    return sum(result["run"].get("samples", ()))


# -- running ---------------------------------------------------------------

def _error(exc: BaseException) -> dict:
    return {"error": type(exc).__name__}


def run_instance(inst: Instance, workdir: str) -> tuple[dict, int]:
    """Results of every operation of one instance, and CLI bytes written.

    An operation that raises a scangibbs or numerical error is recorded
    as {"error": <exception name>} and does not stop the others.
    """
    if inst.kind == "verify":
        out = {}
        try:
            out["theorem1"] = spectral.verify_theorem1(inst.arg, cap=VERIFY_CAP)
        except (ValueError, ArithmeticError) as exc:
            out["theorem1"] = _error(exc)
        try:
            out["mixing_bounds"] = mixing.verify_mixing_bounds(inst.arg, cap=VERIFY_CAP)
        except (ValueError, ArithmeticError) as exc:
            out["mixing_bounds"] = _error(exc)
        return out, 0
    if inst.kind == "lumped":
        return _run_lumped(inst.arg), 0
    return _run_coupling(inst.arg, workdir)


def _run_lumped(n: int) -> dict:
    out = {}
    space = lumped.lumped_state_space(n)
    for tag, build in (("ru", lambda: lumped.lumped_ru_kernel(n, lazy=False)),
                       ("as", lambda: lumped.lumped_as_kernel(n))):
        try:
            kernel = build()
        except (ValueError, ArithmeticError) as exc:
            out[f"relax_{tag}"] = out[f"mix_{tag}"] = _error(exc)
            continue
        try:
            out[f"relax_{tag}"] = spectral.relaxation_time(kernel, space).relaxation_time
        except (ValueError, ArithmeticError) as exc:
            out[f"relax_{tag}"] = _error(exc)
        try:
            report = mixing.exact_mixing_time(
                kernel, space, t_max=LUMPED_T_MAX, method="doubling")
            out[f"mix_{tag}"] = report.mixing_time
        except (ValueError, ArithmeticError) as exc:
            out[f"mix_{tag}"] = _error(exc)
    return out


def _run_coupling(argv, workdir: str) -> tuple[dict, int]:
    for name in os.listdir(workdir):
        os.unlink(os.path.join(workdir, name))
    code = cli.main([*argv, "--out", workdir])
    if code != 0:
        return {"run": {"error": f"exit {code}"}}, 0
    with open(os.path.join(workdir, "coupling.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(workdir, "coupling_summary.csv"), newline="") as fh:
        summary = {row["metric"]: row["value"] for row in csv.DictReader(fh)}
    written = sum(os.path.getsize(os.path.join(workdir, name)) for name in os.listdir(workdir))
    return {"run": {
        "sampler": argv[argv.index("--samplers") + 1],
        "replicates": int(summary["replicates"]),
        "truncated_count": int(summary["truncated_count"]),
        "samples": [int(row["coalescence_updates"]) for row in rows],
        "model_n": int(argv[argv.index("--n1") + 1]) + int(argv[argv.index("--n2") + 1]),
    }}, written


# -- checks ----------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RELATIVE_TOL * max(abs(a), abs(b))


def _invariant_ok(op: str, value) -> bool:
    if op == "theorem1":
        return value["holds"] and value["contraction_holds"]
    if op == "mixing_bounds":
        return value["all_hold"]
    if op.startswith("relax_"):
        return math.isfinite(value) and value >= 1.0
    if op.startswith("mix_"):
        return value is not None
    return (value["truncated_count"] == 0
            and len(value["samples"]) == value["replicates"])


def _matches_golden(op: str, value, expected) -> bool:
    if op == "theorem1":
        return (_close(value["t_rel_as"], expected["t_rel_as"])
                and _close(value["t_rel_ru"], expected["t_rel_ru"])
                and value["holds"] == expected["holds"]
                and value["contraction_holds"] == expected["contraction_holds"])
    if op == "mixing_bounds":
        return (value["t_mix_ru"] == expected["t_mix_ru"]
                and value["t_mix_as"] == expected["t_mix_as"]
                and _close(value["t_rel_ru"], expected["t_rel_ru"])
                and _close(value["t_rel_as"], expected["t_rel_as"])
                and value["all_hold"] == expected["all_hold"])
    if op.startswith("relax_"):
        return _close(value, expected)
    if op.startswith("mix_"):
        return value == expected
    return value["samples"] == expected["samples"]


def check_instance(inst: Instance, result: dict, golden: dict | None) -> dict:
    """Status of each operation: "ok", "raised" or "wrong".

    With a golden record (the default seed) every result is also compared
    with it: mixing times and coupling samples exactly, relaxation times
    to 1e-9 relative. An operation the golden record saw fail has no
    golden value and is checked against the invariants alone.
    """
    expected_ops = golden.get(inst.id, {}) if golden is not None else {}
    status = {}
    for op in OPS[inst.kind]:
        value = result.get(op)
        if isinstance(value, dict) and "error" in value:
            status[op] = "raised"
            continue
        expected = expected_ops.get(op)
        ok = _invariant_ok(op, value)
        if ok and golden is not None and not (isinstance(expected, dict) and "error" in expected):
            ok = expected is not None and _matches_golden(op, value, expected)
        status[op] = "ok" if ok else "wrong"
    return status
