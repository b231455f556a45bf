"""Self-checks of the benchmark's result checker and tracer.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these checks out of the package's own test run; they
take about half a minute because two of them run a workload end to end.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

GOLDEN = json.loads((HERE / "golden_seed1.json").read_text())


def _instance(workload, inst_id):
    kind = {"rbm": "verify", "hardcore": "verify", "dbm": "verify",
            "lumped": "lumped", "coupling": "coupling"}[inst_id.split(":")[0]]
    return wl.Instance(inst_id, kind, None), GOLDEN[workload]


def _scale(value, factor):
    return value * factor


PERTURBATIONS = [
    ("exact_small", "hardcore:3", "mixing_bounds", "t_mix_ru", lambda v: v + 1),
    ("exact_small", "hardcore:3", "mixing_bounds", "t_mix_as", lambda v: v - 1),
    ("exact_small", "rbm:3x4#2", "theorem1", "t_rel_as", lambda v: _scale(v, 1 + 1e-6)),
    ("exact_small", "rbm:3x4#2", "mixing_bounds", "t_rel_ru", lambda v: _scale(v, 1 + 1e-6)),
    ("exact_small", "rbm:2x2#0", "theorem1", "holds", lambda v: not v),
    ("exact_large", "dbm:3-3-3-2", "theorem1", "t_rel_ru", lambda v: _scale(v, 1 - 1e-6)),
    ("exact_small", "lumped:12", "relax_ru", None, lambda v: _scale(v, 1 + 1e-6)),
    ("exact_small", "lumped:12", "mix_as", None, lambda v: v + 1),
    ("exact_small", "lumped:40", "mix_ru", None, lambda v: None),
]


@pytest.mark.parametrize("workload,inst_id,op,key,perturb", PERTURBATIONS)
def test_perturbed_result_is_a_failed_operation(workload, inst_id, op, key, perturb):
    inst, golden = _instance(workload, inst_id)
    result = copy.deepcopy(golden[inst_id])
    assert wl.check_instance(inst, result, golden)[op] == "ok"
    if key is None:
        result[op] = perturb(result[op])
    else:
        result[op][key] = perturb(result[op][key])
    assert wl.check_instance(inst, result, golden)[op] == "wrong"


def test_perturbed_coupling_sample_is_a_failed_operation():
    inst, golden = _instance("coupling_large", "coupling:random_update")
    result = copy.deepcopy(golden[inst.id])
    result["run"]["samples"][3] += 1
    assert wl.check_instance(inst, result, golden)["run"] == "wrong"
    # Invariants hold on every seed, golden record or not.
    result["run"]["truncated_count"] = 1
    assert wl.check_instance(inst, result, None)["run"] == "wrong"


def test_relaxation_time_within_tolerance_passes():
    inst, golden = _instance("exact_small", "lumped:12")
    result = copy.deepcopy(golden[inst.id])
    result["relax_as"] *= 1 + 1e-12
    assert wl.check_instance(inst, result, golden)["relax_as"] == "ok"


def test_known_failure_stays_failed_and_a_fixed_one_is_checked_by_invariants():
    inst, golden = _instance("exact_small", "lumped:30")
    result = copy.deepcopy(golden[inst.id])
    assert golden[inst.id]["relax_as"] == {"error": "NumericalError"}
    assert wl.check_instance(inst, result, golden)["relax_as"] == "raised"
    result["relax_as"] = 2.0
    assert wl.check_instance(inst, result, golden)["relax_as"] == "ok"


def test_wrong_results_count_as_failed_in_a_phase():
    class Perturbed:
        WORKLOADS = wl.WORKLOADS
        HOST_TASK = wl.HOST_TASK

        @staticmethod
        def build_inputs(workload, seed):
            return [wl.Instance("lumped:12", "lumped", 12)]

        @staticmethod
        def run_instance(inst, workdir):
            result = copy.deepcopy(GOLDEN["exact_small"][inst.id])
            result["mix_ru"] += 1
            return result, 0

        check_instance = staticmethod(wl.check_instance)
        work_items = staticmethod(wl.work_items)

    phase = run.run_phase(Perturbed, "exact_small", 1, 0.0, GOLDEN["exact_small"], None)
    assert (phase.attempted, phase.failed, phase.statuses["wrong"]) == (4, 1, 1)


def test_times_are_divided_by_the_host_slowdown(monkeypatch):
    class OneInstance:
        HOST_TASK = {"exact_small": "interp"}

        @staticmethod
        def build_inputs(workload, seed):
            return [wl.Instance("lumped:12", "lumped", 12)]

        @staticmethod
        def run_instance(inst, workdir):
            clock[0] += 1.0          # every call takes one second
            return {}, 0

        check_instance = staticmethod(lambda inst, result, golden: {})
        work_items = staticmethod(lambda inst, result: 1)

    clock = [0.0]
    slowdowns = iter([9.0, 1.0, 3.0, 1.0, 1.0])   # the first run is discarded
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(hostspeed, "slowdown", lambda task: next(slowdowns))
    phase = run.run_phase(OneInstance, "exact_small", 1, 0.0, None, None, rounds=3)
    # Each call is divided by the mean slowdown of the task runs around it.
    assert phase.inst_s["lumped:12"] == [0.5, 0.5, 1.0]
    assert phase.adjusted_round_s == 0.5
    phase.attempted = 1
    metrics = run.end_to_end(phase, [1.0, 3.0, 2.0])
    assert metrics["items_per_s"] == 2.0
    assert metrics["setup_s"] == 2.0


def test_mixing_products_from_tv_curve():
    # Doubling to t = 8, then bisection at 6 (two squares) and 7 (three).
    curve = [(0, 1.0), (1, 0.9), (2, 0.8), (4, 0.6), (8, 0.2), (6, 0.3), (7, 0.25)]
    assert tracer.mixing_products(curve, "doubling") == 3 + 1 + 2
    assert tracer.mixing_products([(0, 1.0), (1, 0.5), (2, 0.3)], "iterate") == 1


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact_small", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    digest = next(ln.split()[1] for ln in lines if ln.strip().startswith("result_digest"))
    return digest, json.loads(lines[-1])


def test_traced_and_untraced_runs_print_the_same_digest():
    plain_digest, plain = _run(0)
    traced_digest, traced = _run(1)
    assert plain_digest == traced_digest
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == 21 and traced["failed"] == 42
