"""End-to-end acceptance checks with pinned tolerances.

Each test prints one pass/fail line (written straight to the terminal,
bypassing capture) and then asserts, so a plain pytest run doubles as an
acceptance report. Criterion 7 is split into sub-criteria because its
parts exercise independent claims.
"""

import math
import sys
import time

import numpy as np
import pytest

import scangibbs as sg
from scangibbs import chain, cli, coupling, lumped, mixing, spectral

from oracles import (
    hardcore_lump_map,
    lumpability_check,
    quotient_kernel,
    rational_mixing_time,
    rational_ru_kernel,
    random_update_kernel,
    scan_kernels,
    single_site_kernel,
    stationary_projector,
    verify_fill_inequality,
)


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, shown even on passing runs."""

    def _report(cid, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            sys.stdout.write(f"[criterion {cid}] {status} {detail}\n")
            sys.stdout.flush()
        assert ok, f"criterion {cid}: {detail}"

    return _report


def _suite_models():
    """200 seeded random RBMs, hardcore K_{n,n} for n <= 6, one deep net."""
    models = []
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        m = int(rng.integers(0, n1 * n2 + 1))
        models.append(
            sg.random_bipartite_model(
                n1, n2, m, -2.0, 2.0, seed=int(rng.integers(0, 2 ** 62))
            )
        )
    for n in range(1, 7):
        models.append(sg.build_hardcore_complete_bipartite(n))
    layer_rng = np.random.default_rng(7)
    sizes = [3, 3, 3, 3]
    weights = [layer_rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(3)]
    biases = [layer_rng.uniform(-1.0, 1.0, 3) for _ in range(4)]
    models.append(sg.build_dbm(sizes, weights, biases))
    return models


@pytest.fixture(scope="module")
def theorem_suite():
    """Shared per-instance spectral results for criteria 1, 2, and 4."""
    results = []
    start = time.monotonic()
    for mdl in _suite_models():
        space = sg.enumerate_state_space(mdl, cap=4096)
        p_ru = random_update_kernel(mdl, space, lazy=True)
        p_as = scan_kernels(mdl, space)["P_AS"]
        # Each dense value is computed once: relaxation_time already holds
        # ||P_RU - S_pi|| and, for a non-reversible P_AS, ||R(P_AS) - S_pi||.
        ru = sg.relaxation_time(p_ru, space)
        assert ru.reversible, mdl.label
        ru_norm = ru.second_largest_modulus
        rev_ru_norm = sg.deviation_norm(chain.reversibilization(p_ru, space), space)
        as_ = sg.relaxation_time(p_as, space)
        if as_.reversible:
            rev_as_norm = sg.deviation_norm(chain.reversibilization(p_as, space), space)
        else:
            rev_as_norm = as_.second_largest_modulus
        results.append(
            {
                "label": mdl.label,
                "t_rel_ru": ru.relaxation_time,
                "t_rel_as": as_.relaxation_time,
                "contraction_lhs": rev_as_norm,
                "contraction_rhs": ru_norm ** 2,
                # inverse-gap form vs the reversibilization form, both on
                # the reversible random-update kernel
                "t_rel_eq3": 1.0 / (1.0 - ru_norm),
                "t_rel_eq5": 1.0 / (1.0 - math.sqrt(rev_ru_norm)),
            }
        )
    return results, time.monotonic() - start


def test_criterion_01_scan_relaxation_never_slower(theorem_suite, report):
    results, elapsed = theorem_suite
    bad = [r for r in results if r["t_rel_as"] > r["t_rel_ru"] + 1e-9]
    ok = not bad and elapsed < 120.0
    report(
        1, ok,
        f"{len(results)} instances, {len(bad)} violations, suite built in "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_02_contraction_bound(theorem_suite, report):
    results, _ = theorem_suite
    bad = [
        r for r in results
        if r["contraction_lhs"] > r["contraction_rhs"] + 1e-10
    ]
    worst = max(r["contraction_lhs"] - r["contraction_rhs"] for r in results)
    report(
        2, not bad,
        f"{len(results)} instances, {len(bad)} violations, worst margin {worst:.2e}",
    )


def test_criterion_03_operator_identities(report):
    rng = np.random.default_rng(99)
    models = [
        sg.build_hardcore_complete_bipartite(3),
        sg.build_rbm(
            np.array([[1.2, -0.7], [0.4, 0.9], [-1.1, 0.3]]),
            np.array([0.2, -0.4, 0.1]),
            np.array([-0.3, 0.5]),
        ),
    ]
    for _ in range(3):
        models.append(
            sg.random_bipartite_model(
                3, 3, int(rng.integers(0, 10)), -2.0, 2.0,
                seed=int(rng.integers(0, 2 ** 31)),
            )
        )
    worst = 0.0
    for mdl in models:
        space = sg.enumerate_state_space(mdl, cap=256)
        ts = [single_site_kernel(mdl, space, x).matrix for x in range(mdl.n)]
        k = scan_kernels(mdl, space)
        p_ru = random_update_kernel(mdl, space, lazy=True)
        s = stationary_projector(space).matrix
        a1, a2, p_as = k["P_AS1"].matrix, k["P_AS2"].matrix, k["P_AS"].matrix
        g1, g2 = k["P_GS1"].matrix, k["P_GS2"].matrix
        p_as_star = sg.adjoint(k["P_AS"], space).matrix

        def dev(m):
            return float(np.max(np.abs(m)))

        # single-site projections: idempotent, self-adjoint, commuting
        # within a partition
        for t in ts:
            worst = max(worst, dev(t @ t - t))
            flux = space.pi[:, None] * t
            worst = max(worst, dev(flux - flux.T))
        for part in (range(mdl.n1), range(mdl.n1, mdl.n)):
            part = list(part)
            for i in part:
                for j in part:
                    worst = max(worst, dev(ts[i] @ ts[j] - ts[j] @ ts[i]))
        # one extra sweep of an already-scanned partition is absorbed
        worst = max(worst, dev(a1 @ g1 - a1))
        worst = max(worst, dev(g2 @ a2 - a2))
        # random update as a mixture of the two half-scan resamplers
        mix = (mdl.n1 * g1 + mdl.n2 * g2) / mdl.n
        worst = max(worst, dev(p_ru.matrix - mix))
        # adjoint of the scan factorizes in reverse order
        worst = max(worst, dev(p_as_star - a2 @ a1))
        # the two decompositions behind the contraction bound
        worst = max(worst, dev(a1 @ (p_ru.matrix - s) @ a2 - (p_as - s)))
        worst = max(
            worst, dev((p_as - s) @ (p_as_star - s) - (p_as @ p_as_star - s))
        )
    report(3, worst <= 1e-12, f"max entrywise deviation {worst:.2e} over {len(models)} instances")


def test_criterion_04_relaxation_formulas_agree(theorem_suite, report):
    results, _ = theorem_suite
    worst = max(
        abs(r["t_rel_eq3"] - r["t_rel_eq5"]) / r["t_rel_eq3"] for r in results
    )
    report(
        4, worst <= 1e-8,
        f"worst relative gap between the two relaxation formulas {worst:.2e}",
    )


def test_criterion_05_mixing_bounds_and_rational_oracle(report):
    models = [sg.build_hardcore_complete_bipartite(n) for n in range(1, 5)]
    models.append(sg.build_rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2)))
    rng = np.random.default_rng(31)
    for _ in range(5):
        models.append(
            sg.random_bipartite_model(
                3, 3, int(rng.integers(0, 10)), -2.0, 2.0,
                seed=int(rng.integers(0, 2 ** 31)),
            )
        )
    layer_rng = np.random.default_rng(12)
    models.append(
        sg.build_dbm(
            [2, 2, 2, 2],
            [layer_rng.uniform(-1.0, 1.0, (2, 2)) for _ in range(3)],
            [layer_rng.uniform(-1.0, 1.0, 2) for _ in range(4)],
        )
    )
    failures = []
    for mdl in models:
        res = sg.verify_mixing_bounds(mdl, cap=1024)
        if not res["all_hold"]:
            failures.append((mdl.label, res))

    # Both production searches against the rational oracle on lazy K_{2,2}.
    k22 = sg.build_hardcore_complete_bipartite(2)
    space = sg.enumerate_state_space(k22)
    doubling_mix = sg.exact_mixing_time(
        random_update_kernel(k22, space, lazy=True), space
    ).mixing_time
    active_mix = mixing.active_start_mixing_time(
        spectral.random_update_symmetric(k22, space, lazy=True), space
    )
    exact_kernel = rational_ru_kernel(k22, space, lazy=True)
    from fractions import Fraction

    exact_mix = rational_mixing_time(
        exact_kernel, [Fraction(1, 7)] * 7
    )
    oracle_ok = doubling_mix == active_mix == exact_mix == 32
    report(
        5, not failures and oracle_ok,
        f"{len(models)} instances, {len(failures)} bound violations; "
        f"rational oracle {exact_mix} vs doubling {doubling_mix}, active-start {active_mix}",
    )


def test_criterion_06_tv_decay_inequality(report):
    rng = np.random.default_rng(606)
    worst = 0.0
    agree = True
    for _ in range(20):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        m = int(rng.integers(0, n1 * n2 + 1))
        mdl = sg.random_bipartite_model(
            n1, n2, m, -2.0, 2.0, seed=int(rng.integers(0, 2 ** 31))
        )
        space = sg.enumerate_state_space(mdl)
        kernels = [
            random_update_kernel(mdl, space, lazy=True),
            scan_kernels(mdl, space)["P_AS"],
        ]
        for kernel in kernels:
            res = verify_fill_inequality(kernel, space)
            worst = min(
                worst, min(res["worst_margin_by_t"].values())
            )
            if not res["holds"]:
                report(6, False, f"violated on {mdl.label} / {kernel.label}")
        # res is the dense P_AS check; the two-block scan check must match it
        scan = mixing.scan_fill_inequality(chain.joint_table(mdl, space))
        agree = agree and scan["holds"] == res["holds"] and all(
            scan["worst_margin_by_t"][t] == pytest.approx(margin, rel=1e-12, abs=1e-14)
            for t, margin in res["worst_margin_by_t"].items()
        )
    report(
        6, worst >= -1e-10 and agree,
        f"20 instances, worst margin {worst:.2e}; "
        f"scan_fill_inequality matches the dense P_AS margins: {agree}",
    )


@pytest.fixture(scope="module")
def lumped_scaling():
    ru, as_ = {}, {}
    start = time.monotonic()
    for n in range(4, 23):
        space = lumped.lumped_state_space(n)
        ru[n] = mixing.exact_mixing_time(
            lumped.lumped_ru_kernel(n, lazy=False), space,
            t_max=10 ** 10, method="doubling",
        ).mixing_time
        as_[n] = mixing.exact_mixing_time(
            lumped.lumped_as_kernel(n), space, t_max=10 ** 10, method="doubling"
        ).mixing_time
    return ru, as_, time.monotonic() - start


def test_criterion_07a_scaling_bands(lumped_scaling, report):
    ru, as_, elapsed = lumped_scaling
    ru_norm = [ru[n] / 2.0 ** n for n in ru]
    as_norm = [as_[n] / 2.0 ** n for n in as_]
    band_ru = max(ru_norm) / min(ru_norm)
    band_as = max(as_norm) / min(as_norm)
    ok = band_ru <= 4.0 and band_as <= 4.0 and elapsed < 60.0
    report(
        "7a", ok,
        f"n=4..22 normalized mixing-time bands: random-update x{band_ru:.2f}, "
        f"scan x{band_as:.2f} (limit x4), computed in {elapsed:.1f}s",
    )


def test_criterion_07b_lumpability_exact(report):
    for n in (2, 3, 4):
        mdl = sg.build_hardcore_complete_bipartite(n)
        space = sg.enumerate_state_space(mdl)
        lm = hardcore_lump_map(space, n)
        p_ru = random_update_kernel(mdl, space, lazy=False)
        p_as = scan_kernels(mdl, space)["P_AS"]
        if not (lumpability_check(p_ru, lm) and lumpability_check(p_as, lm)):
            report("7b", False, f"lumpability fails at n={n}")
        q_ru = quotient_kernel(p_ru, lm, chain.UNIT_VARIABLE, "q")
        q_as = quotient_kernel(p_as, lm, chain.UNIT_EPOCH, "q")
        dev_ru = np.max(np.abs(q_ru.matrix - lumped.lumped_ru_kernel(n, lazy=False).matrix))
        dev_as = np.max(np.abs(q_as.matrix - lumped.lumped_as_kernel(n).matrix))
        if max(dev_ru, dev_as) > 1e-12:
            report("7b", False, f"quotient mismatch at n={n}: {max(dev_ru, dev_as):.2e}")
    report("7b", True, "quotients match the closed-form lumped kernels at n=2,3,4")


def test_criterion_07c_epoch_update_ratio(lumped_scaling, report):
    # Closed forms (derived in the README, "Tests"), with b = 2^-n:
    # - scan: worst-start TV after t epochs is (1-b)^(2t-1) / (2-b), so
    #   t_mix(AS) = 2^(n-1) + 1 epochs exactly;
    # - random update: the slow mode is the Ehrenfest chain killed at the
    #   empty set, t_mix(RU) ~ 2n * sum_k C(n,k)/k = 4 * 2^n (1 + 1/n + O(n^-2))
    #   updates.
    # So r(n) = t_mix(AS) / t_mix(RU) rises to its limit 1/8 from below.
    # The lower edge allows one more 1/n than the leading correction.
    ru, as_, _ = lumped_scaling
    ratios = {n: as_[n] / ru[n] for n in ru}
    lower = {n: (1.0 / 8.0) / (1.0 + 2.0 / n) for n in ru}
    scan_exact = all(as_[n] == 2 ** (n - 1) + 1 for n in as_)
    ok = scan_exact and all(lower[n] <= r < 1.0 / 8.0 for n, r in ratios.items())
    tight = min(ratios, key=lambda n: ratios[n] / lower[n])
    report(
        "7c", ok,
        f"t_mix(AS) == 2^(n-1)+1 at every n: {scan_exact}; "
        f"scan-epochs / update-steps mixing ratio over n=4..22 in "
        f"[{min(ratios.values()):.4f}, {max(ratios.values()):.4f}], "
        f"required (1/8)/(1+2/n) <= r < 1/8 with lower edge "
        f"{lower[4]:.4f} (n=4) .. {lower[22]:.4f} (n=22); "
        f"closest to it at n={tight}: r={ratios[tight]:.4f}, edge {lower[tight]:.4f}",
    )


def test_criterion_08_zero_weight_closed_forms(report):
    worst_gap = 0.0
    worst_proj = 0.0
    worst_trel = 0.0
    for n in range(2, 9):
        n1 = n // 2
        n2 = n - n1
        mdl = sg.build_rbm(np.zeros((n1, n2)), np.zeros(n1), np.zeros(n2))
        space = sg.enumerate_state_space(mdl)
        ru = sg.relaxation_time(random_update_kernel(mdl, space, lazy=True), space)
        worst_gap = max(worst_gap, abs(ru.gap - 1.0 / (2.0 * n)))
        p_as = scan_kernels(mdl, space)["P_AS"]
        s = stationary_projector(space).matrix
        worst_proj = max(worst_proj, float(np.max(np.abs(p_as.matrix - s))))
        worst_trel = max(
            worst_trel, abs(sg.relaxation_time(p_as, space).relaxation_time - 1.0)
        )
    ok = worst_gap <= 1e-12 and worst_proj <= 1e-12 and worst_trel <= 1e-9
    report(
        8, ok,
        f"gap dev {worst_gap:.2e}, projector dev {worst_proj:.2e}, "
        f"scan relaxation dev {worst_trel:.2e}",
    )


def test_criterion_09_large_coupling_speedup(report):
    start = time.monotonic()
    mdl = sg.random_bipartite_model(1000, 1000, 5000, 0.0, 0.2, seed=424242)
    ru = coupling.grand_coupling_time(
        mdl, coupling.SAMPLER_RANDOM_UPDATE, seed=1, replicates=50,
        max_updates=10 ** 7,
    )
    as_ = coupling.grand_coupling_time(
        mdl, coupling.SAMPLER_ALTERNATING_SCAN, seed=1, replicates=50,
        max_updates=10 ** 7,
    )
    elapsed = time.monotonic() - start
    ratio = as_.mean / ru.mean
    # The seeded random-update samples are pinned: their mean is exact.
    ok = (
        ru.truncated_count == 0
        and as_.truncated_count == 0
        and ru.mean == 18043.48
        and 0.3 <= ratio <= 0.9
        and elapsed < 300.0
    )
    report(
        9, ok,
        f"mean coalescence scan {as_.mean:.0f} vs random-update {ru.mean:.0f} "
        f"updates, ratio {ratio:.3f} (required [0.3, 0.9]), {elapsed:.1f}s, "
        f"sandwich invariant held on all 100 replicates",
    )


def test_criterion_10_deterministic_outputs(tmp_path, report):
    jobs = [
        ["coupling", "--model", "random_rbm", "--n1", "20", "--n2", "20",
         "--m", "60", "--weight-low", "0.0", "--weight-high", "0.3",
         "--seed", "5", "--replicates", "10", "--max-updates", "200000",
         "--no-lazy"],
        ["verify", "--suite", "theorem1", "--seed", "17", "--trials", "10"],
        ["mixing", "--model", "random_rbm", "--n1", "3", "--n2", "3",
         "--seed", "8"],
    ]
    mismatches = []
    for i, argv in enumerate(jobs):
        dir_a, dir_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli.main(argv + ["--out", str(dir_a)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(dir_b)]) == cli.EXIT_OK
        for path in sorted(dir_a.glob("*.csv")):
            if path.read_bytes() != (dir_b / path.name).read_bytes():
                mismatches.append(f"{argv[0]}/{path.name}")
    report(
        10, not mismatches,
        f"{len(jobs)} seeded runs repeated, byte-identical CSVs"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
