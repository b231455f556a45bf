"""Experiment runner: binds models to analyses and emits plot-ready CSVs.

Every run writes a JSON manifest echoing the resolved configuration so
the outputs can be reproduced exactly. Summary rows share one schema
(experiment, model_id, sampler, unit, metric, value); wide results such
as TV curves and coalescence samples go to per-analysis files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import chain, coupling, lumped, mixing, model as model_mod, spectral

ENV_OUT_DIR = "SCANGIBBS_OUT_DIR"

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_NUMERICAL_ERROR = 2

# ModelError, StateSpaceCapError, MixingError and LumpingError are ValueErrors.
_USER_ERRORS = (
    ValueError,
    OSError,  # a model file or --out path that cannot be used as one
    MemoryError,  # an allocation refused outright, as for an oversized flag
)
_NUMERICAL_ERRORS = (
    chain.NumericalError,
    chain.StationarityError,
    spectral.NonErgodicError,
    coupling.CouplingInvariantError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


class _OutputSet:
    """Atomic CSV/JSON writer that can roll back on failure."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = []

    def write_text(self, name, text):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.written.append(path)

    def write_csv(self, name, header, rows):
        lines = [",".join(header), *(",".join(map(_format_cell, row)) for row in rows)]
        self.write_text(name, "\n".join(lines) + "\n")

    def rollback(self):
        for path in self.written:
            if os.path.exists(path):
                os.unlink(path)
        self.written.clear()


def _format_cell(cell):
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


_SUMMARY = ("experiment", "model_id", "sampler", "unit", "metric", "value")
_CURVE = ("model_id", "sampler", "unit", "t", "worst_tv")


def _summary(experiment, model_id, sampler, unit, values, metrics):
    """One summary row per metric, valued from the mapping values; a mixing
    time the search did not reach reads "truncated"."""
    return [(experiment, model_id, sampler, unit, metric, "truncated"
             if metric == "mixing_time" and values[metric] is None else values[metric])
            for metric in metrics]


def _curve(model_id, sampler, unit, report):
    """One curve row per point of a mixing search's TV curve."""
    return [(model_id, sampler, unit, t, tv) for t, tv in report.tv_curve]


def _resolve_model(args) -> model_mod.BipartiteModel:
    if args.model_file:
        with open(args.model_file) as fh:
            return model_mod.model_from_json(fh.read())
    kind = args.model
    if kind is None:
        raise model_mod.ModelError("no model given: use --model or --model-file")
    if kind == "hardcore_knn":
        return model_mod.build_hardcore_complete_bipartite(args.n)
    if kind == "random_rbm":
        if args.seed is None:
            raise model_mod.ModelError("random_rbm requires --seed")
        m = args.m if args.m is not None else args.n1 * args.n2
        return model_mod.random_bipartite_model(
            args.n1, args.n2, m, args.weight_low, args.weight_high, args.seed
        )
    if kind == "zero_rbm":
        # Zero weights and biases: zero factors change no number, so no
        # edges are stored and every unary is 0.
        no_edges = np.zeros(0, dtype=np.int64)
        return model_mod.BipartiteModel(
            args.n1, args.n2, 2, no_edges, no_edges, np.zeros((0, 2, 2)),
            np.zeros((args.n1 + args.n2, 2)), label="rbm",
        )
    raise model_mod.ModelError(f"unknown inline model kind {kind!r}")


def _exact_model(args) -> model_mod.BipartiteModel:
    """The model of an exact analysis; an inline rbm's grid is checked before it is built."""
    if args.model in ("random_rbm", "zero_rbm") and not args.model_file:
        chain._check_grid(2, args.n1 + args.n2)
    return _resolve_model(args)


_SAMPLERS = ("random_update", "alternating_scan")


def _names(text, known, what):
    """The names a comma-separated list selects, at least one, in the order of known."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown {what} {unknown}: choose from {', '.join(known)}")
    if not names:
        raise ValueError(f"no {what} selected")
    return [name for name in known if name in names]


def _per_sampler(mdl, args, ru, scan):
    """(sampler, unit, ru(S, space) or scan(joint table)) per selected sampler;
    S is the symmetric form of the random-update kernel."""
    space = chain.enumerate_state_space(mdl, cap=args.cap)
    for sampler in _names(args.samplers, _SAMPLERS, "samplers"):
        if sampler == "random_update":
            s_ru = spectral.random_update_symmetric(mdl, space, args.lazy)
            yield sampler, chain.UNIT_VARIABLE, ru(s_ru, space)
        else:
            yield sampler, chain.UNIT_EPOCH, scan(chain.joint_table(mdl, space))


def _spectral(args):
    mdl = _exact_model(args)
    rows = []
    for sampler, unit, report in _per_sampler(
        mdl, args, spectral.random_update_report, spectral.scan_report
    ):
        rows += _summary("spectral", mdl.label, sampler, unit, vars(report),
                         ("gap", "relaxation_time", "second_largest_modulus", "reversible"))
    return {"spectral.csv": (_SUMMARY, rows)}


def _mixing(args):
    mdl = _exact_model(args)
    summary, curve = [], []
    for sampler, unit, report in _per_sampler(
        mdl, args,
        lambda symmetric, space: mixing.random_update_mixing_time(
            symmetric, space, args.threshold, args.t_max),
        lambda table: mixing.scan_mixing_time(table, args.threshold, args.t_max),
    ):
        summary += _summary("mixing", mdl.label, sampler, unit, vars(report),
                            ("mixing_time", "truncated"))
        curve += _curve(mdl.label, sampler, unit, report)
    return {"mixing.csv": (_SUMMARY, summary), "mixing_curve.csv": (_CURVE, curve)}


def _lumped(args):
    if args.n_min > args.n_max:
        raise lumped.LumpingError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    lumped._check_n(args.n_max)
    summary, curve = [], []
    for n in range(args.n_min, args.n_max + 1):
        space = lumped.lumped_state_space(n)
        model_id = f"hardcore_knn_lumped:{n}"
        for sampler in _names(args.samplers, _SAMPLERS, "samplers"):
            if sampler == "random_update":
                kernel = lumped.lumped_ru_kernel(n, lazy=args.lazy)
            else:
                kernel = lumped.lumped_as_kernel(n)
            report = spectral.relaxation_time(kernel, space)
            mix = mixing.exact_mixing_time(
                kernel, space, threshold=args.threshold, t_max=args.t_max
            )
            summary += _summary("lumped", model_id, sampler, kernel.unit,
                                {**vars(report), "mixing_time": mix.mixing_time},
                                ("gap", "relaxation_time", "mixing_time"))
            curve += _curve(model_id, sampler, kernel.unit, mix)
    return {"lumped.csv": (_SUMMARY, summary), "lumped_curve.csv": (_CURVE, curve)}


def _coupling(args):
    mdl = _resolve_model(args)
    if args.seed is None:
        raise model_mod.ModelError("coupling requires --seed")
    summary, wide = [], []
    for sampler in _names(args.samplers, _SAMPLERS, "samplers"):
        report = coupling.grand_coupling_time(
            mdl, sampler, seed=args.seed, replicates=args.replicates,
            max_updates=args.max_updates, lazy=args.lazy,
        )
        summary += _summary("coupling", mdl.label, sampler, "variable_update", vars(report),
                            ("mean", "median", "q90", "truncated_count", "replicates"))
        wide += [(mdl.label, sampler, rep, time)
                 for rep, time in zip(report.streams, report.samples)]
    return {
        "coupling_summary.csv": (_SUMMARY, summary),
        "coupling.csv": (("model_id", "sampler", "replicate", "coalescence_updates"), wide),
    }


def _theorem1_rows(args):
    if args.seed is None:
        raise model_mod.ModelError("the theorem1 suite requires --seed")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rows = []
    rng = np.random.Generator(np.random.Philox(key=model_mod.philox_key(args.seed)))
    for trial in range(args.trials):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        m = int(rng.integers(0, n1 * n2 + 1))
        mdl = model_mod.random_bipartite_model(
            n1, n2, m, args.weight_low, args.weight_high,
            int(rng.integers(0, 2 ** 62)),
        )
        res = spectral.verify_theorem1(mdl, cap=args.cap, lazy=args.lazy)
        holds = {"holds": res["holds"] and res["contraction_holds"]}
        rows += _summary("verify_theorem1", mdl.label, "both", "mixed", holds, holds)
    return rows


def _mixing_bounds_rows(args):
    mdl = _exact_model(args)
    res = mixing.verify_mixing_bounds(
        mdl, cap=args.cap, threshold=args.threshold, t_max=args.t_max,
        lazy=args.lazy,
    )
    return _summary("verify_mixing_bounds", mdl.label, "both", "mixed", res, res)


def _fill_rows(args):
    mdl = _exact_model(args)
    rows = []
    for sampler, unit, res in _per_sampler(
        mdl, args, mixing.random_update_fill_inequality, mixing.scan_fill_inequality
    ):
        rows += _summary("verify_fill", mdl.label, sampler, unit, res, ("holds",))
    return rows


def _verify(args):
    return {f"verify_{args.suite}.csv": (_SUMMARY, _SUITES[args.suite][0](args))}


_MODEL_FLAGS = ("model", "model_file", "n", "n1", "n2", "m", "weight_low", "weight_high",
                "seed")

# verify suite: (its rows from args, the flags it reads)
_SUITES = {
    "theorem1": (_theorem1_rows,
                 ("seed", "trials", "weight_low", "weight_high", "cap", "lazy")),
    "mixing_bounds": (_mixing_bounds_rows,
                      (*_MODEL_FLAGS, "cap", "threshold", "t_max", "lazy")),
    "fill": (_fill_rows, (*_MODEL_FLAGS, "cap", "samplers", "lazy")),
}

# analysis: (its {file name: (header, rows)} from args, the flags it may read)
_ANALYSES = {
    "spectral": (_spectral, (*_MODEL_FLAGS, "cap", "samplers", "lazy")),
    "mixing": (_mixing, (*_MODEL_FLAGS, "cap", "samplers", "lazy", "threshold", "t_max")),
    "lumped": (_lumped, ("n_min", "n_max", "samplers", "lazy", "threshold", "t_max")),
    "coupling": (_coupling,
                 (*_MODEL_FLAGS, "samplers", "replicates", "max_updates", "lazy")),
    "verify": (_verify, ("suite", *(f for _, flags in _SUITES.values() for f in flags))),
}

# The analyses `run --analyses` may select.
_RUN = ("spectral", "mixing", "lumped", "coupling")

# Every flag once, by destination, in --help order; `--dest-name` is its option.
_FLAGS = {
    "model": {"help": "inline model kind: hardcore_knn, random_rbm, zero_rbm"},
    "model_file": {"help": "path to a JSON model description"},
    "n": {"type": int, "default": 3},
    "n1": {"type": int, "default": 3},
    "n2": {"type": int, "default": 3},
    "m": {"type": int, "default": None},
    "weight_low": {"type": float, "default": -2.0},
    "weight_high": {"type": float, "default": 2.0},
    "seed": {"type": int, "default": None},
    "cap": {"type": int, "default": chain.DEFAULT_CAP},
    "threshold": {"type": float, "default": mixing.DEFAULT_THRESHOLD},
    "t_max": {"type": int, "default": mixing.DEFAULT_T_MAX},
    "max_updates": {"type": int, "default": 10 ** 7},
    "replicates": {"type": int, "default": 50},
    "samplers": {
        "default": ",".join(_SAMPLERS),
        "help": f"comma-separated subset of {', '.join(_SAMPLERS)}",
    },
    "lazy": {"action": argparse.BooleanOptionalAction, "default": True},
    "n_min": {"type": int, "default": 2},
    "n_max": {"type": int, "default": 8},
    "trials": {"type": int, "default": 20},
    "out": {
        "default": None,
        "help": f"output directory (default: ${ENV_OUT_DIR} or the working directory)",
    },
    "suite": {"choices": tuple(_SUITES), "default": "theorem1"},
    "analyses": {
        "default": "spectral,mixing",
        "help": f"comma-separated subset of {', '.join(_RUN)}",
    },
}


def _settings(args):
    """args cut to the flags its selected analyses read, listed in `analyses`. Flags
    are unset unless given (build_parser): a given flag none of them reads is refused,
    and a read flag not given takes its default; --samplers lists its names in order."""
    given = vars(args)
    if args.command == "verify":
        suite = given.get("suite", _FLAGS["suite"]["default"])
        analyses, subject, read = ["verify"], f"the {suite} suite", ("suite", *_SUITES[suite][1])
    elif args.command == "run":
        analyses = _names(given.get("analyses", _FLAGS["analyses"]["default"]), _RUN, "analyses")
        subject = "run --analyses " + ",".join(analyses)
        read = tuple(f for analysis in analyses for f in _ANALYSES[analysis][1])
    else:
        analyses, subject, read = [args.command], args.command, _ANALYSES[args.command][1]
    unread = sorted(set(given) - {"command", "out", "analyses", *read})
    if unread:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in unread)
        raise ValueError(f"{subject} does not read {flags}")
    settings = {dest: given.get(dest, _FLAGS[dest].get("default")) for dest in read}
    if "samplers" in settings:
        settings["samplers"] = ",".join(_names(settings["samplers"], _SAMPLERS, "samplers"))
    return argparse.Namespace(**settings, command=args.command, out=args.out, analyses=analyses)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scangibbs",
        description="Scan-order spectral and mixing experiments for bipartite Gibbs samplers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: flags for name, (_, flags) in _ANALYSES.items()}
    commands["run"] = ("analyses", *(f for a in _RUN for f in commands[a]))
    for name, flags in commands.items():
        command = sub.add_parser(name)
        for dest, kwargs in _FLAGS.items():
            if dest in flags:  # unset unless given, so _settings can tell which were
                kwargs = {**kwargs, "default": argparse.SUPPRESS}
            elif dest != "out":  # main reads --out
                continue
            command.add_argument("--" + dest.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a bad command line
        return EXIT_USER_ERROR if exc.code else EXIT_OK
    outputs = _OutputSet(args.out or os.environ.get(ENV_OUT_DIR) or os.getcwd())
    try:
        args = _settings(args)
        for analysis in args.analyses:
            for name, (header, rows) in _ANALYSES[analysis][0](args).items():
                outputs.write_csv(name, header, rows)
        manifest = json.dumps(vars(args), indent=2, sort_keys=True) + "\n"
        outputs.write_text("run_manifest.json", manifest)
    except _NUMERICAL_ERRORS as exc:
        outputs.rollback()
        print(f"scangibbs: numerical failure in {args.analyses}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except _USER_ERRORS as exc:
        outputs.rollback()
        # Python's own MemoryError (a list too long) carries no message.
        print(f"scangibbs: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USER_ERROR
    except BaseException:
        outputs.rollback()
        raise
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
