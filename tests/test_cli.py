import argparse
import ast
import builtins
import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scangibbs as sg
from scangibbs import chain, cli, mixing, spectral

from oracles import rational_ru_kernel, random_update_kernel, scan_kernels, verify_fill_inequality


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_spectral_subcommand(tmp_path):
    code = run_cli(
        ["spectral", "--model", "hardcore_knn", "--n", "2", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "spectral.csv")
    assert {r["sampler"] for r in rows} == {"random_update", "alternating_scan"}
    by_key = {(r["sampler"], r["metric"]): r["value"] for r in rows}
    assert float(by_key[("random_update", "relaxation_time")]) == pytest.approx(
        27.313708498984962
    )
    assert float(by_key[("alternating_scan", "relaxation_time")]) == pytest.approx(4.0)
    assert by_key[("random_update", "reversible")] == "true"
    assert by_key[("alternating_scan", "reversible")] == "false"
    assert (tmp_path / "run_manifest.json").exists()


def test_mixing_subcommand_with_curve(tmp_path):
    code = run_cli(
        ["mixing", "--model", "hardcore_knn", "--n", "2", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "mixing.csv")
    values = {(r["sampler"], r["metric"]): r["value"] for r in rows}
    assert values[("random_update", "mixing_time")] == "32"
    assert values[("alternating_scan", "mixing_time")] == "3"
    assert values[("random_update", "truncated")] == "false"
    curve = read_csv(tmp_path / "mixing_curve.csv")
    assert all(0.0 <= float(r["worst_tv"]) <= 1.0 for r in curve)


def test_lumped_subcommand(tmp_path):
    code = run_cli(
        ["lumped", "--n-min", "2", "--n-max", "4", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "lumped.csv")
    mixing_times = {
        (r["model_id"], r["sampler"]): r["value"]
        for r in rows
        if r["metric"] == "mixing_time"
    }
    assert mixing_times[("hardcore_knn_lumped:4", "random_update")] == "171"
    assert mixing_times[("hardcore_knn_lumped:4", "alternating_scan")] == "9"


def test_lumped_refuses_n_max_above_the_limit_before_the_sweep(tmp_path, monkeypatch, capsys):
    # From n = 1022, pi(L,0) = 1/(2^(n+1) - 1) is subnormal; the sweep is
    # refused before its first lumped state space is built.
    built = []
    monkeypatch.setattr(cli.lumped, "lumped_state_space", built.append)
    out = tmp_path / "out"
    argv = ["lumped", "--n-min", "2", "--n-max", "1022", "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "1021" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []
    assert built == []


def test_coupling_subcommand(tmp_path):
    code = run_cli(
        [
            "coupling", "--model", "random_rbm", "--n1", "10", "--n2", "10",
            "--m", "30", "--weight-low", "0.0", "--weight-high", "0.3",
            "--seed", "7", "--replicates", "5", "--max-updates", "100000",
            "--no-lazy", "--out", str(tmp_path),
        ]
    )
    assert code == cli.EXIT_OK
    summary = read_csv(tmp_path / "coupling_summary.csv")
    wide = read_csv(tmp_path / "coupling.csv")
    reps = {r["sampler"] for r in wide}
    assert reps == {"random_update", "alternating_scan"}
    counts = {r["metric"]: r["value"] for r in summary if r["sampler"] == "random_update"}
    assert counts["replicates"] == "5"
    assert counts["truncated_count"] == "0"


def test_coupling_rows_name_their_streams(tmp_path):
    # Under a cap of 7 updates only stream 4 is truncated: its scan needs
    # two epochs of 6 updates.
    code = run_cli(
        ["coupling", "--model", "random_rbm", "--n1", "3", "--n2", "3", "--m", "6",
         "--weight-low", "0", "--weight-high", "0.3", "--seed", "1",
         "--samplers", "alternating_scan", "--replicates", "8", "--max-updates", "7",
         "--no-lazy", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "coupling.csv")
    assert list(rows[0]) == ["model_id", "sampler", "replicate", "coalescence_updates"]
    assert [r["replicate"] for r in rows] == ["0", "1", "2", "3", "5", "6", "7"]
    assert {r["coalescence_updates"] for r in rows} == {"6"}


def test_negative_max_updates_is_user_error(tmp_path, capsys):
    code = run_cli(
        ["run", "--analyses", "spectral,coupling", "--model", "random_rbm",
         "--n1", "2", "--n2", "2", "--m", "3", "--weight-low", "0.0",
         "--weight-high", "0.3", "--seed", "7",
         "--max-updates", "-5", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_USER_ERROR
    assert "max_updates must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("argv", [
    ["coupling", "--model", "random_rbm", "--n1", "2", "--n2", "2", "--replicates", "2"],
    ["verify", "--suite", "theorem1", "--trials", "2"],
    ["mixing", "--model", "random_rbm", "--n1", "2", "--n2", "2"],
    # spectral.csv is written before grand_coupling_time sees the seed
    ["run", "--analyses", "spectral,coupling", "--model", "zero_rbm", "--n1", "2",
     "--n2", "1"],
])
def test_out_of_range_seed_is_user_error(tmp_path, capsys, argv, seed):
    code = run_cli([*argv, "--seed", seed, "--out", str(tmp_path)])
    assert code == cli.EXIT_USER_ERROR
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_theorem1_suite(tmp_path):
    code = run_cli(
        ["verify", "--suite", "theorem1", "--seed", "3", "--trials", "10",
         "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "verify_theorem1.csv")
    assert len(rows) == 10
    assert all(r["value"] == "true" for r in rows)


def test_verify_mixing_bounds_suite(tmp_path):
    code = run_cli(
        ["verify", "--suite", "mixing_bounds", "--model", "hardcore_knn",
         "--n", "3", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "verify_mixing_bounds.csv")
    values = {r["metric"]: r["value"] for r in rows}
    assert values["all_hold"] == "true"


def test_verify_fill_suite(tmp_path):
    code = run_cli(
        ["verify", "--suite", "fill", "--model", "hardcore_knn", "--n", "2",
         "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows = read_csv(tmp_path / "verify_fill.csv")
    assert all(r["value"] == "true" for r in rows)


def test_run_multiple_analyses(tmp_path):
    code = run_cli(
        ["run", "--analyses", "spectral,mixing", "--model", "zero_rbm",
         "--n1", "2", "--n2", "2", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    for name in ("spectral.csv", "mixing.csv", "mixing_curve.csv", "run_manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["analyses"] == ["spectral", "mixing"]
    assert manifest["command"] == "run"


def test_model_file_input(tmp_path):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({"kind": "hardcore_knn", "n": 2}))
    code = run_cli(
        ["spectral", "--model-file", str(model_file), "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK


def test_malformed_model_file_is_user_error(tmp_path, capsys):
    model_file = tmp_path / "bad.json"
    model_file.write_text("{not json")
    code = run_cli(
        ["spectral", "--model-file", str(model_file), "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_USER_ERROR
    assert "byte offset" in capsys.readouterr().err
    assert not (tmp_path / "spectral.csv").exists()


def test_missing_model_is_user_error(tmp_path, capsys):
    code = run_cli(["spectral", "--out", str(tmp_path)])
    assert code == cli.EXIT_USER_ERROR
    assert "no model given" in capsys.readouterr().err


def test_cap_violation_is_user_error(tmp_path, capsys):
    code = run_cli(
        ["spectral", "--model", "hardcore_knn", "--n", "3", "--cap", "4",
         "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_USER_ERROR
    assert "state space exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize("lazy", ["--lazy", "--no-lazy"])
def test_zero_rbm_matches_a_zero_weight_model_file(tmp_path, lazy):
    # zero_rbm stores no edges; zero factors would change no number.
    model_file = tmp_path / "zero.json"
    model_file.write_text(json.dumps(
        {"kind": "rbm", "weights": [[0.0] * 3] * 2, "bias1": [0.0] * 2, "bias2": [0.0] * 3}
    ))
    for argv in (["spectral"], ["mixing"], ["coupling", "--seed", "3", "--replicates", "6"]):
        inline, from_file = tmp_path / f"{argv[0]}_inline", tmp_path / f"{argv[0]}_file"
        assert run_cli([*argv, "--model", "zero_rbm", "--n1", "2", "--n2", "3", lazy,
                        "--out", str(inline)]) == cli.EXIT_OK
        assert run_cli([*argv, "--model-file", str(model_file), lazy,
                        "--out", str(from_file)]) == cli.EXIT_OK
        names = sorted(path.name for path in inline.glob("*.csv"))
        assert names and names == sorted(path.name for path in from_file.glob("*.csv"))
        for name in names:
            assert (inline / name).read_bytes() == (from_file / name).read_bytes()


def _no_edge_mrf(path, n):
    path.write_text(json.dumps({"kind": "mrf", "partition": [0, 1] * (n // 2),
                                "unary": [[0.0, 0.0]] * n, "edges": []}))
    return ["--model-file", str(path)]


@pytest.mark.parametrize("model, grid", [
    (["--model", "zero_rbm", "--n1", "1048576", "--n2", "1048576"], "2^2097152"),
    ("mrf", "2^15000"),
])
def test_oversized_grid_is_user_error_naming_the_grid(tmp_path, capsys, model, grid):
    # Neither grid size fits in a decimal string Python will print, and
    # the zero_rbm run holds only its (n, 2) unary table.
    if model == "mrf":
        model = _no_edge_mrf(tmp_path / "wide.json", 15000)
    out = tmp_path / "out"
    code = run_cli(["spectral", *model, "--out", str(out)])
    assert code == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert f"full configuration grid of size {grid} is too large to sweep" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_oversized_pair_grid_is_refused_before_allocating(tmp_path, capsys):
    # 2^40 pairs would need an 8 TiB permutation of the pair indices
    out = tmp_path / "out"
    argv = ["coupling", "--model", "random_rbm", "--n1", "1048576", "--n2", "1048576",
            "--m", "5", "--weight-low", "0", "--weight-high", "0.1", "--seed", "1"]
    assert run_cli([*argv, "--out", str(out)]) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "the 1048576 x 1048576 grid has more than 2^32 pairs" in err
    assert "8 * n1 * n2-byte" in err
    assert "Unable to allocate" not in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


# The ids are the ones these cases had when the 2^40-pair random_rbm, now
# refused before allocating, was the first of three.
@pytest.mark.parametrize("argv, message", [
    # [None] * replicates, 2^40 list slots; Python's MemoryError has no message
    pytest.param(["coupling", "--model", "random_rbm", "--n1", "3", "--n2", "3", "--m", "6",
                  "--weight-low", "0", "--weight-high", "0.3", "--seed", "1",
                  "--samplers", "alternating_scan", "--replicates", "1099511627776"],
                 "error: MemoryError", id="argv1-error: MemoryError"),
    # the (n1 + n2) x 2 unary table of a zero_rbm, 16 TiB of float64; coupling has
    # no grid, which the exact analyses check first
    pytest.param(["coupling", "--model", "zero_rbm", "--n1", "1099511627776", "--n2", "1"],
                 "Unable to allocate 16.0 TiB", id="argv2-Unable to allocate 16.0 TiB"),
])
def test_refused_allocation_is_user_error(tmp_path, capsys, argv, message):
    # Each size is one the allocator refuses at once, before touching memory.
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["spectral", "--model-file", "{dir}"],
    ["spectral", "--model", "hardcore_knn", "--n", "2", "--out", "{file}"],
    ["spectral", "--model", "hardcore_knn", "--n", "2", "--out", "{file}/sub"],
], ids=["IsADirectoryError", "FileExistsError", "NotADirectoryError"])
def test_unusable_path_is_user_error(tmp_path, capsys, argv):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    argv = [arg.format(dir=tmp_path / "dir", file=tmp_path / "file") for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(argv) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "scangibbs: error:" in err and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dir", "file"]
    assert not any((tmp_path / "dir").iterdir())
    assert (tmp_path / "file").read_text() == "kept"


def test_replicates_beyond_a_list_index_is_user_error(tmp_path, capsys):
    # 2^63 = sys.maxsize + 1 made the scan's list of times raise OverflowError.
    out = tmp_path / "out"
    argv = ["coupling", *_SIX, "--samplers", "alternating_scan",
            "--replicates", str(2 ** 63), "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "replicates must be at most" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_unknown_sampler_is_user_error(tmp_path, capsys):
    code = run_cli(
        ["mixing", "--model", "hardcore_knn", "--n", "2",
         "--samplers", "systematic", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_USER_ERROR
    assert "unknown samplers" in capsys.readouterr().err


def test_failed_run_rolls_back_outputs(tmp_path):
    # coupling without --seed fails after spectral already wrote its file
    code = run_cli(
        ["run", "--analyses", "spectral,coupling", "--model", "zero_rbm",
         "--n1", "2", "--n2", "1", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_USER_ERROR
    assert not (tmp_path / "spectral.csv").exists()
    assert not (tmp_path / "run_manifest.json").exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    code = run_cli(["spectral", "--model", "hardcore_knn", "--n", "2"])
    assert code == cli.EXIT_OK
    assert (tmp_path / "spectral.csv").exists()


def test_deterministic_bytes(tmp_path):
    args = ["mixing", "--model", "hardcore_knn", "--n", "2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out_a)]) == cli.EXIT_OK
    assert run_cli(args + ["--out", str(out_b)]) == cli.EXIT_OK
    for name in ("mixing.csv", "mixing_curve.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "scangibbs.cli", "spectral", "--model",
         "hardcore_knn", "--n", "2", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "spectral.csv").exists()


_SIX = ["--model", "random_rbm", "--n1", "3", "--n2", "3", "--m", "6",
        "--weight-low", "0", "--weight-high", "0.3", "--seed", "1"]


_SPARSE = {"scipy", "scipy.sparse"}
_ARPACK = {*_SPARSE, "scipy.sparse.linalg", "scipy.linalg"}


@pytest.mark.parametrize(
    "argv,footprint",
    [
        (None, set()),
        (["coupling", *_SIX, "--samplers", "alternating_scan", "--replicates", "2",
          "--no-lazy"], _SPARSE),
        (["coupling", *_SIX, "--samplers", "random_update", "--replicates", "2",
          "--no-lazy"], set()),
        (["spectral", "--model", "hardcore_knn", "--n", "2"], _SPARSE),
        (["spectral", "--model", "random_rbm", "--n1", "5", "--n2", "5", "--m", "20",
          "--seed", "1", "--samplers", "random_update"], _ARPACK),
        (["mixing", "--model", "hardcore_knn", "--n", "3", "--samplers", "alternating_scan"],
         set()),
        (["lumped", "--n-min", "2", "--n-max", "3"], {"scipy", "scipy.special"}),
        (["lumped", "--n-min", "2", "--n-max", "3", "--samplers", "random_update"], set()),
    ],
    ids=["import", "coupling", "coupling_random_update", "spectral", "spectral_arpack",
         "mixing_scan", "lumped", "lumped_random_update"],
)
def test_fresh_process_loads_scipy_modules_only_where_they_run(tmp_path, argv, footprint):
    # A run's scipy footprint is the set of public scipy packages it loads;
    # any scipy module loads the package `scipy`, so an empty footprint means
    # no scipy module at all. Importing scipy.sparse costs about as much as
    # `import scangibbs` without it, so only the code that builds a sparse
    # matrix imports it: the random-update symmetric form and the scan
    # coupling's weights. lumped_as_kernel reads its binomial row from
    # scipy.special, so only a lumped run with the scan sampler loads that.
    # ARPACK, which brings in scipy.linalg, is imported only above 128
    # states. No module imports scipy.stats or csgraph. This process may
    # have loaded these modules already, so each case runs in a fresh
    # interpreter.
    script = "import sys\nimport scangibbs\n"
    if argv is not None:
        script += (f"from scangibbs import cli\n"
                   f"assert cli.main({argv + ['--out', str(tmp_path)]!r}) == 0\n")
    script += ("print(*sorted(name for name, module in sys.modules.items()\n"
               "             if name.split('.')[0] == 'scipy' and '._' not in name\n"
               "             and hasattr(module, '__path__')))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) == footprint


def _module_bindings(body) -> set:
    """Names the statements of a module body bind, inside if and try blocks too."""
    names = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            names |= _module_bindings(
                [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)])
    return names


def _annotation_roots(tree):
    """(line, name) of every name at the root of an annotation in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            annotations = [arg.annotation for arg in args if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for name in ast.walk(annotation):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


@pytest.mark.parametrize("path", sorted(Path(cli.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_annotation_names_a_module_level_binding(path):
    # A name that an annotation uses must be bound at module level, where a
    # type checker or a reader looks for it. scipy.sparse is imported only
    # where a sparse matrix is built, so no annotation names it.
    tree = ast.parse(path.read_text())
    bound = _module_bindings(tree.body) | set(dir(builtins))
    assert [(line, name) for line, name in _annotation_roots(tree) if name not in bound] == []


@pytest.mark.parametrize("path", sorted(Path(cli.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_annotation_resolves_at_run_time(path):
    # typing.get_type_hints evaluates each annotation in its module's
    # namespace, as a reader of the running package would.
    module = importlib.import_module(f"scangibbs.{path.stem}".removesuffix(".__init__"))
    defined = [obj for obj in vars(module).values()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    unresolved = []
    for obj in defined:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append((obj.__qualname__, str(exc)))
    assert unresolved == []


def _fail_mixing_stage(monkeypatch, tmp_path, exc):
    # raise only after the spectral stage has written its CSV
    def boom(*args, **kwargs):
        assert (tmp_path / "spectral.csv").exists()
        raise exc

    monkeypatch.setattr(cli.mixing, "random_update_mixing_time", boom)
    return ["run", "--analyses", "spectral,mixing", "--model", "hardcore_knn",
            "--n", "2", "--out", str(tmp_path)]


def test_linalg_error_is_numerical_failure(tmp_path, monkeypatch, capsys):
    argv = _fail_mixing_stage(
        monkeypatch, tmp_path, np.linalg.LinAlgError("Eigenvalues did not converge")
    )
    assert run_cli(argv) == cli.EXIT_NUMERICAL_ERROR
    assert "numerical failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_memory_error_rolls_back_and_is_user_error(tmp_path, monkeypatch, capsys):
    argv = _fail_mixing_stage(monkeypatch, tmp_path, MemoryError("injected"))
    assert run_cli(argv) == cli.EXIT_USER_ERROR
    assert "scangibbs: error: injected" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc_type", [OverflowError, RuntimeError, KeyboardInterrupt])
def test_unmapped_exception_rolls_back_and_reraises(tmp_path, monkeypatch, exc_type):
    argv = _fail_mixing_stage(monkeypatch, tmp_path, exc_type("injected"))
    with pytest.raises(exc_type, match="injected"):
        run_cli(argv)
    assert list(tmp_path.iterdir()) == []


def test_wide_domain_model_is_user_error(tmp_path, capsys):
    # S = 200 values per variable do not fit the int8 configuration grid
    model_file = tmp_path / "wide.json"
    model_file.write_text(json.dumps({
        "kind": "mrf", "partition": [0, 1], "unary": [[0.0] * 200] * 2, "edges": [],
    }))
    out = tmp_path / "out"
    code = run_cli(["spectral", "--model-file", str(model_file), "--out", str(out)])
    assert code == cli.EXIT_USER_ERROR
    assert "40000 > 4096" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


# A well-formed two-variable mrf model file.
_MRF = {"kind": "mrf", "partition": [0, 1], "unary": [[0.0, 0.1], [0.0, -0.2]],
        "edges": [{"u": 0, "v": 1, "table": [0.0, 0.0, 0.0, 0.5]}]}


@pytest.mark.parametrize("argv", [
    ["spectral", "--model", "hardcore_knn", "--n", "abc"],
    ["spectral", "--model", "hardcore_knn", "--bogus"],
    # spectral runs first, whatever the order given, and refuses the weight range
    ["run", "--analyses", "lumped,spectral", "--model", "random_rbm", "--seed", "1",
     "--weight-low", "nan"],
    ["run", "--analyses", "spectral,mixing", "--model", "zero_rbm", "--threshold", "nan"],
    ["run", "--analyses", "spectral,lumped", "--model", "zero_rbm", "--n-min", "5",
     "--n-max", "2"],
    ["verify", "--suite", "theorem1", "--seed", "1", "--trials", "-3"],
    ["run", "--analyses", "spectral,verify", "--model", "zero_rbm"],
    # malformed mrf model files; a dict stands for a file holding it
    ["spectral", "--model-file", {**_MRF, "unary": [0.0, 0.1]}],
    ["spectral", "--model-file", {**_MRF, "partition": 3}],
    ["spectral", "--model-file", {**_MRF, "edges": 5}],
    ["spectral", "--model-file", {**_MRF, "edges": [{"u": 0, "v": 5, "table": [0, 0, 0, 1]}]}],
    ["spectral", "--model-file", {**_MRF, "edges": [{"u": 0, "v": 1, "table": [0, 0, 1]}]}],
    ["spectral", "--model-file", {**_MRF, "partition": [0, 2]}],
    # malformed files of the other kinds
    ["spectral", "--model-file", {"kind": "dbm", "layer_sizes": 3, "weights": [[[1.0]]],
                                  "biases": [[0.0], [0.0]]}],
    ["spectral", "--model-file", {"kind": "dbm", "layer_sizes": [1, 1], "weights": 5,
                                  "biases": [[0.0], [0.0]]}],
    ["spectral", "--model-file", {"kind": "random_rbm", "n1": 2, "n2": 2, "m": 1,
                                  "weight_low": 0.0, "weight_high": 1.0, "seed": None}],
    ["spectral", "--model-file", {"kind": "hardcore_knn", "n": [1]}],
    # K_{n,n} beyond the enumeration limit, refused before its n^2 edges exist
    ["spectral", "--model", "hardcore_knn", "--n", "12"],
    ["spectral", "--model", "hardcore_knn", "--n", str(2 ** 40)],
    ["mixing", "--model-file", {"kind": "hardcore_knn", "n": 2 ** 40}],
    # flags the subcommand does not read
    ["lumped", "--seed", "3"],
    ["coupling", "--model", "hardcore_knn", "--seed", "1", "--cap", "8"],
    ["spectral", "--model", "hardcore_knn", "--threshold", "0.1"],
    ["run", "--model", "hardcore_knn", "--trials", "2"],
    # flags the verify suite does not read
    ["verify", "--suite", "fill", "--model", "hardcore_knn", "--n", "2", "--threshold", "0.01",
     "--trials", "5"],
    ["verify", "--suite", "theorem1", "--seed", "1", "--trials", "2", "--model", "zero_rbm"],
    ["verify", "--suite", "mixing_bounds", "--model", "zero_rbm", "--samplers", "random_update"],
    # model file fields that must be JSON integers
    ["spectral", "--model-file", {"kind": "hardcore_knn", "n": 2.7}],
    ["spectral", "--model-file", {"kind": "hardcore_knn", "n": 2.0}],
    ["spectral", "--model-file", {"kind": "hardcore_knn", "n": True}],
    ["spectral", "--model-file", {"kind": "hardcore_knn", "n": "2"}],
    ["spectral", "--model-file", {"kind": "random_rbm", "n1": 2, "n2": 2, "m": 1.5,
                                  "weight_low": 0.0, "weight_high": 1.0, "seed": 1}],
    ["spectral", "--model-file", {"kind": "random_rbm", "n1": 2, "n2": 2, "m": 1,
                                  "weight_low": 0.0, "weight_high": 1.0, "seed": 1.0}],
    # finite tables whose Hamiltonian overflows float64
    ["spectral", "--model-file", {"kind": "rbm", "weights": [[1e308]], "bias1": [1e308],
                                  "bias2": [0]}],
])
def test_bad_input_is_user_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if isinstance(argv[-1], dict):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(model_file)]
    assert run_cli([*argv, "--out", str(out)]) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_verify_fills_in_only_the_flags_its_suite_reads(tmp_path):
    argv = ["verify", "--suite", "theorem1", "--seed", "1", "--trials", "1", "--no-lazy",
            "--out", str(tmp_path)]
    assert run_cli(argv) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert {key: manifest.pop(key) for key in ("analyses", "command", "out", "suite")} == {
        "analyses": ["verify"], "command": "verify", "out": str(tmp_path), "suite": "theorem1"}
    assert manifest == {"seed": 1, "trials": 1, "lazy": False, "weight_low": -2.0,
                        "weight_high": 2.0, "cap": 4096}


def test_negative_edge_count_is_user_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["spectral", "--model", "random_rbm", "--seed", "1", "--m", "-1",
            "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "m must be non-negative" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_kernel_check_failure_is_numerical(tmp_path, monkeypatch, capsys):
    enumerate_state_space = chain.enumerate_state_space

    def poisoned(*args, **kwargs):
        space = enumerate_state_space(*args, **kwargs)
        pi = space.pi.copy()
        pi[-1] = np.nan
        return chain.StateSpace(space.configs, pi, space.domain_size)

    checked = []
    check_stochastic = chain._check_stochastic

    def recording(low, sums):
        checked.append(low)
        check_stochastic(low, sums)

    monkeypatch.setattr(chain, "enumerate_state_space", poisoned)
    monkeypatch.setattr(chain, "_check_stochastic", recording)
    argv = ["verify", "--suite", "mixing_bounds", "--model", "hardcore_knn", "--n", "3",
            "--out", str(tmp_path)]
    assert run_cli(argv) == cli.EXIT_NUMERICAL_ERROR
    # a NaN in pi is a NaN in S, which the kernel checks reject
    assert len(checked) == 1 and math.isnan(checked[0])
    assert "below the negative tolerance" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _dyadic_mrf(shift):
    # Every parameter is dyadic, so each h is exact and a shift of every
    # unary value by the same constant moves h by an exact 4 * shift.
    unary = [[0.0, 0.5], [0.25, -0.75], [-0.5, 0.125], [1.0, 0.375]]
    tables = [[[0.5, -0.25], [0.0, 1.0]], [[-0.5, 0.25], [0.75, 0.0]],
              [[0.125, 0.0], [-1.0, 0.5]], [[0.0, 0.625], [0.25, -0.125]]]
    ends = [(0, 2), (0, 3), (1, 2), (1, 3)]
    return {"kind": "mrf", "partition": [0, 0, 1, 1],
            "unary": [[x + shift for x in row] for row in unary],
            "edges": [{"u": u, "v": v, "table": t} for (u, v), t in zip(ends, tables)]}


@pytest.mark.parametrize("command", [["spectral"], ["mixing"],
                                     ["verify", "--suite", "mixing_bounds"],
                                     ["verify", "--suite", "fill"]], ids=" ".join)
def test_shifted_unaries_give_the_same_csvs(tmp_path, command):
    # max |h| of the shifted model is above 1000; pi = exp(h - max h) is
    # the unshifted model's to the bit.
    outputs = []
    for shift in (0.0, 256.0):
        model_file = tmp_path / f"mrf{shift}.json"
        model_file.write_text(json.dumps(_dyadic_mrf(shift)))
        out = tmp_path / f"out{shift}"
        assert run_cli([*command, "--model-file", str(model_file), "--out", str(out)]) == (
            cli.EXIT_OK)
        outputs.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
    assert outputs[0] and outputs[1] == outputs[0]


def test_vanishing_pi_is_numerical(tmp_path, capsys):
    # Biases 699 on layer one give h from 0 to 1398, and exp(-1398) is 0.
    model_file = tmp_path / "rbm.json"
    model_file.write_text(json.dumps(
        {"kind": "rbm", "weights": [[0.0, 0.0], [0.0, 0.0]], "bias1": [699.0, 699.0],
         "bias2": [0.0, 0.0]}))
    out = tmp_path / "out"
    assert run_cli(["spectral", "--model-file", str(model_file), "--out", str(out)]) == (
        cli.EXIT_NUMERICAL_ERROR)
    assert "pi vanishes at a state" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("command", [["spectral"], ["mixing"], ["verify", "--suite", "fill"]])
def test_underflowed_conditional_is_numerical(tmp_path, capsys, command):
    model_file = tmp_path / "rbm.json"
    model_file.write_text(json.dumps(
        {"kind": "rbm", "weights": [[-100.0]], "bias1": [700.0], "bias2": [-700.0]}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*command, "--model-file", str(model_file), "--out", str(out)]) == (
            cli.EXIT_NUMERICAL_ERROR)
    assert "pi vanishes" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_scan_spectrum_survives_an_underflowed_product_of_marginals(tmp_path, capsys):
    # p1 and p2 each reach 1.9e-174, whose product underflows to 0; the
    # weight is 0, so x1 and x2 are independent and rho = 0
    model_file = tmp_path / "rbm.json"
    model_file.write_text(json.dumps(
        {"kind": "rbm", "weights": [[0.0]], "bias1": [400.0], "bias2": [-400.0]}))
    argv = ["spectral", "--samplers", "alternating_scan", "--model-file", str(model_file),
            "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    t_rel = float(_rows_by(tmp_path / "out" / "spectral.csv")[
        "alternating_scan", "relaxation_time"])
    assert t_rel == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sampler", ["random_update", "alternating_scan"])
def test_coupling_survives_a_bias_whose_exp_overflows(tmp_path, capsys, sampler):
    # exp(800) overflows; the conditional of the first site is then 0, as
    # expit gives it, so its chains meet at once
    model_file = tmp_path / "rbm.json"
    model_file.write_text(json.dumps(
        {"kind": "rbm", "weights": [[0.0]], "bias1": [-800.0], "bias2": [0.0]}))
    argv = ["coupling", "--samplers", sampler, "--model-file", str(model_file),
            "--seed", "1", "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    rows = read_csv(tmp_path / "out" / "coupling_summary.csv")
    assert {r["metric"]: r["value"] for r in rows}["truncated_count"] == "0"


def test_scan_with_an_empty_column_is_not_ergodic_without_a_warning(tmp_path, capsys):
    # every x1 has pi = 0 beside x2 = 1, so J has a zero column
    model_file = tmp_path / "rbm.json"
    model_file.write_text(json.dumps(
        {"kind": "rbm", "weights": [[-100.0]], "bias1": [700.0], "bias2": [-700.0]}))
    out = tmp_path / "out"
    argv = ["spectral", "--samplers", "alternating_scan", "--model-file", str(model_file),
            "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == cli.EXIT_NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert "not ergodic" in err and "Warning" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_help_exits_zero(capsys):
    assert run_cli(["mixing", "--help"]) == cli.EXIT_OK
    assert "--threshold" in capsys.readouterr().out
    assert run_cli(["spectral", "--help"]) == cli.EXIT_OK
    assert "--threshold" not in capsys.readouterr().out


# Default and help text of every flag; each subcommand takes a subset.
_FLAG_DEFAULTS = {
    "model": (None, "inline model kind: hardcore_knn, random_rbm, zero_rbm"),
    "model_file": (None, "path to a JSON model description"),
    "n": (3, None),
    "n1": (3, None),
    "n2": (3, None),
    "m": (None, None),
    "weight_low": (-2.0, None),
    "weight_high": (2.0, None),
    "seed": (None, None),
    "cap": (4096, None),
    "threshold": (1.0 / (2.0 * np.e), None),
    "t_max": (10 ** 6, None),
    "max_updates": (10 ** 7, None),
    "replicates": (50, None),
    "samplers": ("random_update,alternating_scan",
                 "comma-separated subset of random_update, alternating_scan"),
    "lazy": (True, None),
    "n_min": (2, None),
    "n_max": (8, None),
    "trials": (20, None),
    "out": (None, "output directory (default: $SCANGIBBS_OUT_DIR or the working directory)"),
    "suite": ("theorem1", None),
    "analyses": ("spectral,mixing",
                 "comma-separated subset of spectral, mixing, lumped, coupling"),
}


def test_each_subcommand_takes_only_its_flags():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    counts = {}
    for name, parser in subparsers.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        counts[name] = len(actions)
        for action in actions:
            assert action.option_strings[0] == "--" + action.dest.replace("_", "-")
            default, help_text = _FLAG_DEFAULTS[action.dest]
            if action.dest != "out":
                # unset unless given; main fills in the defaults of the flags a run reads
                default = argparse.SUPPRESS
            assert (action.default, action.help) == (default, help_text), (
                name, action.dest)
    assert counts == {"spectral": 13, "mixing": 15, "lumped": 7, "coupling": 14,
                      "verify": 17, "run": 20}


_MODEL_FLAGS = {"model", "model_file", "n", "n1", "n2", "m", "weight_low", "weight_high",
                "seed"}
# The flags each analysis, and each verify suite, reads (README, "Command line").
_READS = {
    "spectral": {*_MODEL_FLAGS, "cap", "samplers", "lazy"},
    "mixing": {*_MODEL_FLAGS, "cap", "samplers", "lazy", "threshold", "t_max"},
    "lumped": {"n_min", "n_max", "samplers", "lazy", "threshold", "t_max"},
    "coupling": {*_MODEL_FLAGS, "samplers", "replicates", "max_updates", "lazy"},
    "theorem1": {"suite", "seed", "trials", "weight_low", "weight_high", "cap", "lazy"},
    "mixing_bounds": {"suite", *_MODEL_FLAGS, "cap", "threshold", "t_max", "lazy"},
    "fill": {"suite", *_MODEL_FLAGS, "cap", "samplers", "lazy"},
}
_RUNNABLE = ("spectral", "mixing", "lumped", "coupling")


def _selection(text, known):
    """The names a comma-separated list selects, in the order of known."""
    names = {name.strip() for name in text.split(",")}
    return [name for name in known if name in names]


def _flags_read(manifest):
    """The flags a run's manifest records, and the flags its analyses read."""
    flags = {key for key in manifest if key not in ("command", "out", "analyses")}
    if manifest["command"] == "verify":
        return flags, _READS[manifest["suite"]]
    return flags, set().union(*(_READS[a] for a in manifest["analyses"]))


@pytest.mark.parametrize("argv", [
    ["spectral", "--model", "hardcore_knn"],
    ["mixing", "--model", "hardcore_knn", "--n", "2"],
    ["lumped"],
    ["coupling", "--model", "zero_rbm", "--seed", "1"],
    ["verify", "--seed", "1", "--trials", "1"],
    ["verify", "--suite", "mixing_bounds", "--model", "hardcore_knn", "--n", "2"],
    ["verify", "--suite", "fill", "--model", "hardcore_knn", "--n", "2"],
    ["run", "--model", "hardcore_knn", "--n", "2"],
    ["run", "--analyses", "lumped,coupling", "--model", "zero_rbm", "--seed", "1", "--n-max", "3"],
], ids=lambda argv: " ".join(argv[:3]))
def test_manifest_holds_each_flag_read_given_or_defaulted(tmp_path, argv):
    assert run_cli([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    flags, read = _flags_read(manifest)
    assert flags == read
    given = {flag[2:].replace("-", "_"): value for flag, value in zip(argv[1::2], argv[2::2])}
    for dest in flags:
        if dest in given:
            assert str(manifest[dest]) == given[dest], dest
        else:
            assert manifest[dest] == _FLAG_DEFAULTS[dest][0], dest
    assert manifest["analyses"] == (
        _selection(given.get("analyses", "spectral,mixing"), _RUNNABLE)
        if argv[0] == "run" else [argv[0]])


def _outputs(out):
    """Every file a run wrote, by name; the manifest without its --out."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = json.loads(files.pop("run_manifest.json"))
    del manifest["out"]
    return files, manifest


@pytest.mark.parametrize("selection, reference", [
    ("alternating_scan,random_update", None),
    ("random_update,alternating_scan,random_update", None),
    ("alternating_scan,alternating_scan", "alternating_scan"),
])
@pytest.mark.parametrize("command", [
    ["lumped", "--n-min", "2", "--n-max", "3"],
    ["coupling", *_SIX, "--replicates", "3", "--no-lazy"],
    ["spectral", "--model", "hardcore_knn", "--n", "2"],
    ["mixing", "--model", "hardcore_knn", "--n", "2"],
    ["verify", "--suite", "fill", "--model", "hardcore_knn", "--n", "2"],
], ids=lambda argv: " ".join(argv[:3]))
def test_samplers_select_a_subset_in_a_fixed_order(tmp_path, command, selection, reference):
    # None stands for the default selection, both samplers
    outputs = []
    for name, samplers in (("given", ["--samplers", selection]),
                           ("reference", ["--samplers", reference] if reference else [])):
        assert run_cli([*command, *samplers, "--out", str(tmp_path / name)]) == cli.EXIT_OK
        outputs.append(_outputs(tmp_path / name))
    assert outputs[0] == outputs[1]


def test_coupling_runs_a_repeated_sampler_once(tmp_path):
    argv = ["coupling", *_SIX, "--samplers", "alternating_scan,alternating_scan",
            "--replicates", "2", "--no-lazy", "--out", str(tmp_path)]
    assert run_cli(argv) == cli.EXIT_OK
    rows = read_csv(tmp_path / "coupling.csv")
    assert [(r["sampler"], r["replicate"]) for r in rows] == [
        ("alternating_scan", "0"), ("alternating_scan", "1")]


def test_run_analyses_select_a_subset_in_a_fixed_order(tmp_path):
    argv = ["run", "--model", "zero_rbm", "--n1", "2", "--n2", "2"]
    outputs = []
    for name, analyses in (("given", "mixing,spectral,spectral"), ("reference", "spectral,mixing")):
        assert run_cli([*argv, "--analyses", analyses, "--out", str(tmp_path / name)]) == (
            cli.EXIT_OK)
        outputs.append(_outputs(tmp_path / name))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["analyses"] == ["spectral", "mixing"]


@pytest.mark.parametrize("argv, unread", [
    (["run", "--analyses", "spectral", "--model", "hardcore_knn", "--n", "2",
      "--replicates", "5"], "--replicates"),
    (["run", "--analyses", "lumped", "--n-min", "2", "--n-max", "3", "--model", "hardcore_knn"],
     "--model"),
])
def test_run_refuses_a_flag_its_analyses_do_not_read(tmp_path, capsys, argv, unread):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert f"does not read {unread}" in err and "Traceback" not in err
    assert not out.exists()


_HUGE_RBM = ["--model", "random_rbm", "--n1", "65536", "--n2", "65536", "--m", "1", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    # 2^32 pairs, within the pair limit: the permutation alone would take 32 GiB
    ["spectral", *_HUGE_RBM],
    ["verify", "--suite", "mixing_bounds", *_HUGE_RBM],
    # spectral runs before coupling, whatever the order given
    ["run", "--analyses", "coupling,spectral", *_HUGE_RBM],
    ["mixing", "--model", "zero_rbm", "--n1", "1099511627776", "--n2", "1"],
    ["verify", "--suite", "fill", "--model", "zero_rbm", "--n1", "20", "--n2", "3"],
], ids=lambda argv: " ".join(argv[:3]))
def test_exact_analyses_check_the_grid_before_building_a_model(tmp_path, monkeypatch, capsys,
                                                               argv):
    def build(*args, **kwargs):
        raise AssertionError("a model was built before its grid was checked")

    monkeypatch.setattr(cli.model_mod, "random_bipartite_model", build)
    monkeypatch.setattr(cli.model_mod, "BipartiteModel", build)
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == cli.EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "is too large to sweep" in err and "Traceback" not in err
    assert not out.exists()


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("scangibbs ")]


def test_readme_examples_parse():
    examples = _readme_examples()
    assert len(examples) >= 8
    parser = cli.build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


def _model_file(path, model):
    if model.hard_constraint == "hardcore":
        obj = {"kind": "hardcore_knn", "n": model.n1}
    else:
        obj = {
            "kind": "mrf", "partition": [0] * model.n1 + [1] * model.n2,
            "unary": model.unaries.tolist(),
            "edges": [{"u": u, "v": v, "table": np.asarray(t).tolist()}
                      for u, v, t in model.edges],
        }
    path.write_text(json.dumps(obj))
    return str(path)


def _rows_by(path):
    return {(r["sampler"], r["metric"]): r["value"] for r in read_csv(path)}


@pytest.mark.parametrize("lazy", [True, False])
def test_cli_matches_dense_oracle(engine_models, tmp_path, lazy):
    flag = "--lazy" if lazy else "--no-lazy"
    for i, model in enumerate(engine_models):
        out = tmp_path / str(i)
        argv = ["--model-file", _model_file(tmp_path / f"{i}.json", model), flag,
                "--out", str(out)]
        assert run_cli(["run", "--analyses", "spectral,mixing", *argv]) == cli.EXIT_OK
        assert run_cli(["verify", "--suite", "fill", *argv]) == cli.EXIT_OK
        space = sg.enumerate_state_space(model)
        kernels = {"random_update": random_update_kernel(model, space, lazy=lazy),
                   "alternating_scan": scan_kernels(model, space)["P_AS"]}
        spectral_rows = _rows_by(out / "spectral.csv")
        mixing_rows = _rows_by(out / "mixing.csv")
        fill_rows = _rows_by(out / "verify_fill.csv")
        curve = read_csv(out / "mixing_curve.csv")
        for sampler, kernel in kernels.items():
            where = (model.label, sampler)
            report = sg.relaxation_time(kernel, space)
            for metric in ("gap", "relaxation_time", "second_largest_modulus"):
                assert float(spectral_rows[sampler, metric]) == pytest.approx(
                    getattr(report, metric), rel=1e-10, abs=1e-14), (where, metric)
            assert spectral_rows[sampler, "reversible"] == cli._format_cell(report.reversible)
            mix = sg.exact_mixing_time(kernel, space, method="doubling")
            assert mixing_rows[sampler, "mixing_time"] == str(mix.mixing_time), where
            assert mixing_rows[sampler, "truncated"] == cli._format_cell(mix.truncated)
            for row in (r for r in curve if r["sampler"] == sampler):
                t = int(row["t"])
                dense = mixing._worst_tv(np.linalg.matrix_power(kernel.matrix, t), space.pi)
                assert float(row["worst_tv"]) == pytest.approx(dense, abs=1e-12), (where, t)
            fill = verify_fill_inequality(kernel, space)
            assert fill_rows[sampler, "holds"] == cli._format_cell(fill["holds"]), where


def test_cli_random_update_curve_matches_the_rational_oracle(tmp_path):
    """Each random-update point of mixing_curve.csv on lazy hardcore K_{2,2}
    is the exact TV of P^t, from rational arithmetic, to rounding.

    The bound, to first order in eps: each stored entry of S is within
    8 eps (relative) of the exact D^{1/2} P D^{-1/2}, from the roundings
    of the conditional laws, sqrt(pi), the conjugation and the average.
    S is nonnegative, so a product of t such factors is within 8 t eps
    entrywise of the exact S^t. The search forms S^t with
    k = (bit length of t - 1) squares and (popcount of t - 1) further
    products, each entry a sum of N = 7 nonnegative terms that adds at
    most N eps. The readout (1 / 2 r_x) sum_y r_y |S^t(x, y) - r_x r_y|
    weighs the entries' relative errors with total weight
    (1 / r_x) sum_y r_y S^t(x, y) = 1, and rounds its own sum of N terms
    to (N + 3) eps of a total of at most 2. So the TV is within
    (8 t + k N + 2 (N + 3)) eps / 2 of the exact one.
    """
    argv = ["mixing", "--model", "hardcore_knn", "--n", "2", "--samplers", "random_update"]
    assert run_cli([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert _rows_by(tmp_path / "mixing.csv")["random_update", "mixing_time"] == "32"
    model = sg.build_hardcore_complete_bipartite(2)
    space = sg.enumerate_state_space(model)
    exact, n = rational_ru_kernel(model, space, lazy=True), space.size
    pi = Fraction(1, n)
    tv, power = {0: 1 - pi}, exact
    for t in range(1, 33):
        tv[t] = max(sum(abs(p - pi) for p in row) for row in power) / 2
        power = [[sum(row[k] * exact[k][j] for k in range(n)) for j in range(n)]
                 for row in power]
    curve = [(int(row["t"]), float(row["worst_tv"]))
             for row in read_csv(tmp_path / "mixing_curve.csv")]
    assert [t for t, _ in curve] == [0, 1, 2, 4, 8, 16, 24, 28, 30, 31, 32]
    eps = np.finfo(float).eps
    for t, value in curve:
        products = max(t.bit_length() - 1, 0) + max(bin(t).count("1") - 1, 0)
        bound = (8 * t + products * n + 2 * (n + 3)) * eps / 2
        assert abs(Fraction(value) - tv[t]) <= bound, t


@pytest.mark.parametrize("argv", [["spectral"], ["mixing"], ["verify", "--suite", "fill"]])
def test_cli_random_update_runs_on_the_symmetric_form(tmp_path, monkeypatch, argv):
    formed = []
    random_update_symmetric = spectral.random_update_symmetric

    def counting(*args):
        formed.append(args)
        return random_update_symmetric(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense random-update path called")

    monkeypatch.setattr(spectral, "random_update_symmetric", counting)
    for module, name in ((chain, "make_kernel"), (chain, "reversibilization"),
                         (spectral, "deviation_norm"), (spectral, "relaxation_time"),
                         (mixing, "exact_mixing_time")):
        monkeypatch.setattr(module, name, forbidden)
    argv = [*argv, "--samplers", "random_update", "--model", "hardcore_knn", "--n", "2"]
    assert run_cli([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(formed) == 1


_RBM_1024 = ["--model", "random_rbm", "--n1", "5", "--n2", "5", "--m", "20",
             "--weight-low", "-1", "--weight-high", "1", "--seed", "3"]


def _traced_peak(argv):
    """Peak traced bytes of one CLI run, which must exit 0."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == cli.EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["mixing", "--samplers", "alternating_scan"],
    ["verify", "--suite", "fill", "--samplers", "alternating_scan"],
])
def test_cli_scan_allocates_no_dense_kernel(tmp_path, argv):
    n_states = 2 ** 10
    peak = _traced_peak([*argv, *_RBM_1024, "--out", str(tmp_path)])
    # a single dense N x N float64 array would take 8 N^2 bytes
    assert peak < 8 * n_states ** 2 // 2


def test_cli_random_update_fill_holds_two_powers(tmp_path):
    n_states = 2 ** 10
    argv = ["verify", "--suite", "fill", "--samplers", "random_update"]
    peak = _traced_peak([*argv, *_RBM_1024, "--out", str(tmp_path)])
    # the current power S^t and its square, 8 N^2 bytes each once dense,
    # plus O(N) vectors and the readout's 128 x N buffer
    assert peak < 3 * 8 * n_states ** 2
    assert _rows_by(tmp_path / "verify_fill.csv")["random_update", "holds"] == "true"


def test_cli_mixing_bounds_holds_every_other_dense_power(tmp_path):
    """The active-start search brackets t_mix(RU) = 57 between S^32 and
    S^64. S is sparse, and on these 1024 states S^2 and every later power
    is a dense N x N array of 8 N^2 bytes. Once a square is formed, a
    dense power whose half is stored is dropped, and the lifting applies
    the half twice in its place: S^2 goes when S^4 is formed, S^8 when
    S^16 is. At the last full square the search holds S^4, S^16 and S^32.
    1022 of the 1024 starts are active at s = 32, not fewer than half, so
    S^64 is formed in full, 4 x 8 N^2 in all; the lifting holds at most
    four. The rest, O(N) vectors and the readout's 64-row blocks and
    buffer, stays below half of 8 N^2. Forming the 1022 active rows of
    S^64 first, from a copy of those rows of S^32, needed 5 x 8 N^2, and
    holding every square, S^2 to S^32, through the lifting with its rows,
    their lift and the S^64 rows needs 8 x 8 N^2.
    """
    n_states = 2 ** 10
    argv = ["verify", "--suite", "mixing_bounds"]
    peak = _traced_peak([*argv, *_RBM_1024, "--out", str(tmp_path)])
    assert peak < 4.5 * 8 * n_states ** 2
    assert _rows_by(tmp_path / "verify_mixing_bounds.csv")["both", "t_mix_ru"] == "57"


def test_cli_random_update_mixing_holds_the_squares_below_the_bracket(tmp_path):
    """The doubling search brackets the mixing time 57 between S^32 and
    S^64, then bisects with products of S, S^2, ..., S^32 only. S is
    sparse, so at most the five squares S^2, ..., S^32 are dense N x N
    arrays of 8 N^2 bytes; building a bisection power adds its partial
    product and the product being formed, 7 x 8 N^2 in all. The rest,
    O(N) vectors and the readout's 128 x N buffer, which is never held
    beside both products, stays below half of 8 N^2. Holding S^64
    through the bisection as well would need 8 x 8 N^2.
    """
    n_states = 2 ** 10
    argv = ["mixing", "--samplers", "random_update"]
    peak = _traced_peak([*argv, *_RBM_1024, "--out", str(tmp_path)])
    assert peak < 7.5 * 8 * n_states ** 2
    assert _rows_by(tmp_path / "mixing.csv")["random_update", "mixing_time"] == "57"


# -- a seeded fuzz of the command-line contract ------------------------------

_HUGE = str(2 ** 63)
_NOT_INTS = ["nan", "inf", "-inf", "1e308", "5e-324", "1.5", "abc"]
_NOT_FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", _HUGE, "abc"]
# Each flag's values: (ones a run takes, ones at or past the edge of what
# it takes). Counts stay small (n, n1, n2 <= 3, replicates <= 3, trials <= 2,
# --n-max <= 8, --max-updates <= 2000) or are refused before anything is
# allocated: a huge --replicates on the random update, say, loops for ever.
_FUZZ_VALUES = {
    "model": (["hardcore_knn", "random_rbm", "zero_rbm"], ["ising"]),
    "model_file": (["{rbm}", "{mrf}", "{dbm}", "{knn}", "{random_rbm}"],
                   ["{float_n}", "{inf_h}", "{malformed}", "{dir}", "{missing}"]),
    "n": (["1", "2", "3"], ["0", "-1", _HUGE, *_NOT_INTS]),
    "n1": (["1", "2", "3"], ["0", "-1", _HUGE, *_NOT_INTS]),
    "n2": (["1", "2", "3"], ["0", "-1", _HUGE, *_NOT_INTS]),
    "m": (["0", "2"], ["-1", "10", _HUGE, *_NOT_INTS]),
    "weight_low": (["0", "-1", "0.2"], _NOT_FLOATS),
    "weight_high": (["0.3", "1"], _NOT_FLOATS),
    "seed": (["1", "7"], [_HUGE, "-1", str(2 ** 64), *_NOT_INTS]),
    "cap": (["4096", "64"], ["0", "8", _HUGE, *_NOT_INTS]),
    "threshold": (["0.25", "0.05"], ["0", "1", *_NOT_FLOATS]),
    "t_max": (["50", "1000"], ["0", "1", "-1", _HUGE, *_NOT_INTS]),
    "max_updates": (["7", "2000"], ["0", "-5", *_NOT_INTS]),
    "replicates": (["1", "3"], ["0", "-1", _HUGE, *_NOT_INTS]),
    "n_min": (["1", "2"], ["0", "-1", _HUGE, *_NOT_INTS]),
    "n_max": (["3", "8"], ["0", _HUGE, *_NOT_INTS]),
    "trials": (["1", "2"], ["0", "-3", *_NOT_INTS]),
    "suite": (["theorem1", "mixing_bounds", "fill"], ["both"]),
}
_FUZZ_FILES = {
    "rbm": {"kind": "rbm", "weights": [[0.5, 0.25]], "bias1": [0.1], "bias2": [-0.2, 0.0]},
    "mrf": _MRF,
    "dbm": {"kind": "dbm", "layer_sizes": [1, 1, 1], "weights": [[[0.5]], [[-0.5]]],
            "biases": [[0.0], [0.1], [0.0]]},
    "knn": {"kind": "hardcore_knn", "n": 2},
    "random_rbm": {"kind": "random_rbm", "n1": 2, "n2": 2, "m": 3, "weight_low": 0.0,
                   "weight_high": 0.3, "seed": 1},
    "float_n": {"kind": "hardcore_knn", "n": 2.5},
    "inf_h": {"kind": "rbm", "weights": [[1e308]], "bias1": [1e308], "bias2": [0]},
}
# --analyses and --suite decide what a request reads, so they are drawn first.
_EVERY_FLAG = sorted(set().union(*_READS.values()) - {"suite"})


def _one_in(n):
    return st.integers(1, n).map(lambda k: k == 1)


def _fuzz_value(draw, dest):
    """Mostly a value a run takes; one in eight times one at or past the edge."""
    edge = draw(_one_in(8))
    if dest in ("samplers", "analyses"):
        known = cli._SAMPLERS if dest == "samplers" else _RUNNABLE
        # names that repeat and come in any order; past the edge, none,
        # a misspelt one or an empty one
        names = [*known, known[0][:-1], ""] if edge else known
        return ",".join(draw(st.lists(st.sampled_from(names), min_size=not edge, max_size=4)))
    return draw(st.sampled_from(_FUZZ_VALUES[dest][edge]))


@st.composite
def _fuzz_requests(draw):
    command = draw(st.sampled_from(["spectral", "mixing", "lumped", "coupling", "verify", "run"]))
    given = {}
    if command == "run":
        given["analyses"] = _fuzz_value(draw, "analyses")
        selected = _selection(given["analyses"], _RUNNABLE)
    elif command == "verify":
        if draw(st.booleans()):
            given["suite"] = _fuzz_value(draw, "suite")
        selected = [given.get("suite", "theorem1")]
    else:
        selected = [command]
    read = sorted(set().union(*(_READS.get(name, ()) for name in selected)) - {"suite"})
    dests = draw(st.lists(st.sampled_from(read or _EVERY_FLAG), unique=True, max_size=5))
    if draw(_one_in(4)):  # a flag the selection may not read
        dests.append(draw(st.sampled_from(_EVERY_FLAG)))
    # Most runs name a model and a seed; the counts that loop are always given.
    for dest, forced in (("model", not draw(_one_in(8))), ("seed", not draw(_one_in(8))),
                         ("replicates", True), ("max_updates", True), ("trials", True)):
        if forced and dest in read and dest not in dests and not (
                dest == "model" and "model_file" in dests):
            dests.append(dest)
    for dest in dests:
        if dest != "lazy":
            given[dest] = _fuzz_value(draw, dest)
    argv = [command]
    for dest, value in given.items():
        argv += ["--" + dest.replace("_", "-"), value]
    if "lazy" in dests:
        argv.append(draw(st.sampled_from(["--lazy", "--no-lazy"])))
    return argv


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argv=_fuzz_requests())
def test_fuzz_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dir": tmp, "missing": os.path.join(tmp, "missing.json")}
        for name, obj in _FUZZ_FILES.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            Path(paths[name]).write_text(json.dumps(obj))
        paths["malformed"] = os.path.join(tmp, "malformed.json")
        Path(paths["malformed"]).write_text("{not json")
        out = os.path.join(tmp, "out")
        argv = [arg.format(**paths) for arg in argv] + ["--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_USER_ERROR, cli.EXIT_NUMERICAL_ERROR)
        assert "Traceback" not in err.getvalue()
        if code != cli.EXIT_OK:
            assert not os.path.exists(out) or os.listdir(out) == []
            return
        manifest = json.loads(Path(out, "run_manifest.json").read_text())
        flags, read = _flags_read(manifest)
        assert flags == read
