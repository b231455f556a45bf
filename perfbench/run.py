#!/usr/bin/env python3
"""Run one workload of the scangibbs benchmark and print its metrics.

    python3 perfbench/run.py --workload exact_small --seed 1 --seconds 25 --trace 0

Run from the root of a scangibbs checkout; the package is imported from
./src. The workload repeats whole rounds of its fixed instance list for
about --seconds (always at least one round, and none that would likely
end past the time given), checks every result, and prints one line per
metric followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json. With --trace 1 the same rounds run
once untraced and once with every public scangibbs function wrapped in a
span, and the metrics are the per-layer ones. A fuller record (machine,
failed operations, counts) and the spans are written under perfbench/out/.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# BLAS reads these when numpy is first imported: no more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden_seed1.json"
SETUP_REPEATS = 5
# Work done between two timings of the host's reference task.
CALIBRATE_EVERY_S = 0.2
EXIT_CANNOT_CHECK = 2
# Printed for a reader and kept in the record file, not sent in the JSON line.
INFO_UNITS = {"wall_s": "s (median round)", "ops_failed_frac": "ratio",
              "adjusted_round_s": "s", "host_slowdown": "ratio (median)",
              "setup_s_unadjusted": "s (median)",
              "instance_samples": "count",
              "mean_coalescence_updates": "count", "scan_to_ru_mean_ratio": "ratio",
              "instances_per_s": "1/s", "instance_s_p50": "s", "instance_s_p90": "s",
              "ru_updates_per_s": "1/s", "scan_updates_per_s": "1/s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(EXIT_CANNOT_CHECK)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


@dataclass
class Phase:
    """What one pass of build-then-rounds did."""

    build_s: float = 0.0
    round_s: list = field(default_factory=list)    # reference tasks excluded
    instances: int = 0
    items: int = 0
    inst_s: dict = field(default_factory=dict)     # instance id -> adjusted s, one per round
    inst_items: dict = field(default_factory=dict) # instance id -> work items in one call
    slowdowns: list = field(default_factory=list)  # of the workload's reference task
    attempted: int = 0
    statuses: dict = field(default_factory=dict)   # "ok" / "raised" / "wrong" -> count
    bad_ops: list = field(default_factory=list)    # (instance, op, status), first round
    digest: str = ""
    first_results: dict = field(default_factory=dict)
    first_bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return self.build_s + sum(self.round_s)

    @property
    def adjusted_round_s(self) -> float:
        """A round's time, each instance at its median adjusted time."""
        return sum(statistics.median(times) for times in self.inst_s.values())

    @property
    def failed(self) -> int:
        return self.statuses.get("raised", 0) + self.statuses.get("wrong", 0)


def digest(results: dict) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_phase(wl, workload, seed, seconds, golden, workdir, rounds=None, tracer=None) -> Phase:
    """Build the inputs, then run whole rounds for `seconds` (or `rounds` rounds)."""
    import hostspeed  # not imported by --setup-only, so set-up time excludes it
    phase = Phase()
    start = perf_counter()
    instances = wl.build_inputs(workload, seed)
    phase.build_s = perf_counter() - start
    task = wl.HOST_TASK[workload]

    def host_slowdown() -> float:
        return hostspeed.slowdown(task) if task else 1.0

    host_slowdown()  # the first timing pays one-time costs
    before = host_slowdown()
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.round = len(phase.round_s) + 1
        results = {}
        round_s = 0.0
        # Instances run since the reference task last ran, with their seconds.
        pending, pending_s = [], 0.0
        for inst in instances:
            if tracer is not None:
                tracer.op = inst.id
            t0 = perf_counter()
            results[inst.id], written = wl.run_instance(inst, workdir)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            phase.instances += 1
            items = wl.work_items(inst, results[inst.id])
            phase.items += items
            phase.inst_items[inst.id] = items
            if not phase.round_s:
                phase.first_bytes_written += written
            round_s += elapsed
            pending.append((inst.id, elapsed))
            pending_s += elapsed
            if pending_s >= CALIBRATE_EVERY_S or inst is instances[-1]:
                # Adjust by the mean slowdown of the task runs on either side.
                after = host_slowdown()
                phase.slowdowns.append(after)
                for inst_id, t in pending:
                    phase.inst_s.setdefault(inst_id, []).append(2.0 * t / (before + after))
                pending, pending_s, before = [], 0.0, after
        phase.round_s.append(round_s)
        for inst in instances:
            for op, status in wl.check_instance(inst, results[inst.id], golden).items():
                phase.attempted += 1
                phase.statuses[status] = phase.statuses.get(status, 0) + 1
                if status != "ok" and len(phase.round_s) == 1:
                    phase.bad_ops.append((inst.id, op, status))
        if len(phase.round_s) == 1:
            phase.first_results = results
            phase.digest = digest(results)
        # Stop before a round that would likely overrun the time given.
        if rounds:
            done = len(phase.round_s) >= rounds
        else:
            done = perf_counter() + statistics.median(phase.round_s) > deadline
        if done:
            return phase


def _time_process(argv: list) -> float:
    """Seconds from start until the process prints "ready"."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        fail(f"process {argv[1:]} failed")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """Seconds from interpreter start to built inputs, in fresh processes.

    Each set-up process runs between two runs of the reference import
    process; its time is returned as measured and divided by their mean
    slowdown.
    """
    import hostspeed

    setup = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"]

    def import_slowdown():
        return _time_process(hostspeed.IMPORT_PROCESS) / hostspeed.NOMINAL_S["import"]

    times, adjusted = [], []
    before = import_slowdown()
    for _ in range(SETUP_REPEATS):
        times.append(_time_process(setup))
        after = import_slowdown()
        adjusted.append(2.0 * times[-1] / (before + after))
        before = after
    return times, adjusted


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setup_adjusted: list) -> dict:
    """Metrics a user sees; a work item is an instance or a coalescence update.

    Times are adjusted for the host's speed by the reference tasks run
    beside them (hostspeed.py), then the median is taken over set-up
    processes or rounds.
    """
    return {
        "setup_s": statistics.median(setup_adjusted),
        "items_per_s": phase.items / len(phase.round_s) / phase.adjusted_round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - phase.failed / phase.attempted,
    }


def _coupling_runs(phase: Phase) -> list:
    """Completed coupling calls of the first round, as read from their CSVs."""
    return [ops["run"] for ops in phase.first_results.values()
            if isinstance(ops.get("run"), dict) and ops["run"].get("samples")]


def coupling_counts(phase: Phase) -> dict:
    """Counts from the coupling.csv files of the first round."""
    runs = _coupling_runs(phase)
    updates = {s: sum(sum(r["samples"]) for r in runs if r["sampler"] == s)
               for s in ("random_update", "alternating_scan")}
    check = sum(r["replicates"] * r["model_n"] for r in runs)
    total = sum(updates.values()) + check
    return {
        "coupling.ru.updates": updates["random_update"],
        "coupling.scan.updates": updates["alternating_scan"],
        "coupling.check_update_frac": check / total if total else 0.0,
        "coupling.truncated": sum(r["truncated_count"] for r in runs),
    }


def coupling_info(phase: Phase) -> dict:
    """Per-sampler update rates over the median adjusted call time, and the
    scan/random-update ratio of mean coalescence.

    The ratio is information only: it sits near 0.3 and moves with the seed.
    """
    means = {r["sampler"]: statistics.mean(r["samples"]) for r in _coupling_runs(phase)}
    info = {}
    for sampler, name in (("random_update", "ru_updates_per_s"),
                          ("alternating_scan", "scan_updates_per_s")):
        inst_id = f"coupling:{sampler}"
        if phase.inst_items.get(inst_id):
            info[name] = phase.inst_items[inst_id] / statistics.median(phase.inst_s[inst_id])
    if len(means) == 2:
        info["scan_to_ru_mean_ratio"] = means["alternating_scan"] / means["random_update"]
    return info


def per_layer(untraced: Phase, traced: Phase, tracer) -> dict:
    """Per-layer metrics: self times over the traced phase, counts over one pass."""
    metrics = tracer.layer_metrics()
    for key in ("model.edges", "chain.states", "chain.dense_kernel_bytes", "spectral.eigensolves",
                "spectral.eig_n3", "mixing.tv_evaluations", "mixing.matrix_products",
                "mixing.flops"):
        metrics[key] = tracer.counts.get(key, 0)
    for sampler, tag in (("random_update", "ru"), ("alternating_scan", "scan")):
        metrics[f"coupling.{tag}.self_s"] = tracer.layer_self_time("coupling", f"coupling:{sampler}")
    metrics.update(coupling_counts(traced))
    metrics["cli.bytes_written"] = traced.first_bytes_written
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["outside.self_s"] = traced.wall_s - layer_self
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.rounds"] = len(traced.round_s)
    return metrics


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    try:
        import threadpoolctl
        blas["threadpools"] = threadpoolctl.threadpool_info()
    except ImportError:
        blas["threadpools"] = "threadpoolctl not installed; threads set by the variables below"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {v: os.environ.get(v) for v in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "scangibbs" / "__init__.py").is_file():
        fail(f"no scangibbs sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    if args.setup_only:
        wl.build_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    golden = None
    if args.seed == wl.DEFAULT_SEED:
        try:
            golden = json.loads(GOLDEN.read_text())[args.workload]
        except (OSError, ValueError, KeyError) as exc:
            fail(f"cannot read the golden record {GOLDEN.name}: {exc!r}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"work-{args.workload}-")
    setup_times = setup_adjusted = []
    try:
        if args.trace:
            phases = [run_phase(wl, args.workload, args.seed, args.seconds, golden, workdir)]
            tracer = Tracer()
            with tracer:
                phases.append(run_phase(wl, args.workload, args.seed, args.seconds, golden,
                                        workdir, rounds=len(phases[0].round_s), tracer=tracer))
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(phases[0], phases[1], tracer)
            wanted = spec["per_layer"]
        else:
            setup_times, setup_adjusted = measure_setup(args.workload, args.seed)
            phases = [run_phase(wl, args.workload, args.seed, args.seconds, golden, workdir)]
            metrics = end_to_end(phases[0], setup_adjusted)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.statuses.get("wrong", 0) for p in phases)
    digests = {p.digest for p in phases}
    correct = wrong == 0 and len(digests) == 1
    main_phase = phases[-1]
    info = {
        "rounds": len(main_phase.round_s),
        "instances": main_phase.instances,
        "wall_s": statistics.median(main_phase.round_s),
        "adjusted_round_s": main_phase.adjusted_round_s,
        "host_slowdown": statistics.median(main_phase.slowdowns),
        "setup_s_unadjusted": statistics.median(setup_times) if setup_times else None,
        "ops_failed_frac": failed / attempted,
        "result_digest": main_phase.digest,
        "golden_compared": golden is not None,
    }
    if args.workload == "coupling_large":
        info.update(coupling_info(main_phase))
    else:
        instance_s = [t for times in main_phase.inst_s.values() for t in times]
        info.update({
            "instances_per_s": metrics.get("items_per_s"),
            "instance_s_p50": percentile(instance_s, 50),
            "instance_s_p90": percentile(instance_s, 90),
            "instance_samples": len(instance_s),
        })

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{info['rounds']} rounds, {info['instances']} instance samples, "
          f"{attempted} operations, {failed} failed")
    for m in wanted:
        print(f"  {m['name']:<42} {metrics[m['name']]:>16.6g} {m['unit']}")
    for key, value in info.items():
        if value is not None:
            print(f"  {key:<42} {value} {INFO_UNITS.get(key, '')}".rstrip())
    if main_phase.bad_ops:
        print("  failed operations (first round): "
              + ", ".join(f"{i} {op} ({status})" for i, op, status in main_phase.bad_ops))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "info": info, "failed_operations": main_phase.bad_ops,
        "machine": machine_record(),
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
