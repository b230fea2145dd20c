"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
per-criterion lines).
"""

import json
import math
import time

import numpy as np

import opbohr as ob
from opbohr.cli import RunConfig, run_suite, scan_radius, write_suite_report
from opbohr.serialize import dumps

INV_SQRT2 = 1.0 / math.sqrt(2.0)
T1I_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
MU_FIXED = (0.0, 1.0, math.pi / 3.0, math.pi / 7.0)
NORMALIZED_FLOOR = -1e-9


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _mus(seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    return MU_FIXED + (float(rng.uniform(0.0, 2.0 * math.pi)),)


def test_criterion_01_mobius_sharpness():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 4):
        f = ob.mobius_series(INV_SQRT2, d, 64)
        out = ob.operator_majorant(f.coeffs, INV_SQRT2, 0)
        worst = max(worst, ob.operator_norm(out - math.sqrt(2.0) * np.eye(d)))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-6 and elapsed < 1.0,
            f"Mobius(1/sqrt2) majorant equals sqrt(2) I within {worst:.2e} "
            f"(tol 1e-6) in {elapsed:.3f}s (< 1s) for d in {{1,2,4}}")


def test_criterion_02_koebe_constant():
    coeffs = ob.koebe_series(1, 256).coeffs
    value = ob.norm_majorant(coeffs, ob.KOEBE_RADIUS, 1)
    scan = scan_radius("koebe")
    err_value = abs(value - 0.25)
    err_radius = abs(scan.estimated_radius - ob.KOEBE_RADIUS)
    _report(2, err_value <= 1e-10 and err_radius <= 1e-6,
            f"Koebe majorant = 0.25 within {err_value:.2e} (tol 1e-10); "
            f"scan radius within {err_radius:.2e} of 3-2sqrt(2) (tol 1e-6)")


def test_criterion_03_theorem1_suites():
    start = time.perf_counter()
    worst = math.inf
    count = 0
    for d in (1, 2, 3, 4):
        for trial in range(500):
            seed = ob.derive_seed(3001, d, trial)
            spec = ob.FamilySpec(family_id="schur_harmonic", dim=d, aux_dim=4,
                                 order=64, seed=seed)
            inst = ob.sample(spec)
            for mu in _mus(seed):
                reps = ob.check_theorem_grid("t1i", inst, T1I_GRID, mu=mu)
                reps += ob.check_theorem_grid("t1ii", inst, (0.2,), mu=mu)
                worst = min(worst, min(r.normalized_margin for r in reps))
                count += len(reps)
            (rep,) = ob.check_theorem_grid("t1iii", inst, [1.0 / 3.0])
            worst = min(worst, rep.normalized_margin)
            count += 1
    elapsed = time.perf_counter() - start
    _report(3, worst >= NORMALIZED_FLOOR and elapsed < 120.0,
            f"{count} rotated-coefficient checks over 2000 harmonic samples, "
            f"min normalized margin {worst:.3e} (floor -1e-9), {elapsed:.1f}s (< 120s)")


def test_criterion_04_normal_branches():
    worst = math.inf
    count = 0
    for trial in range(500):
        d = (1, 2, 3, 4)[trial % 4]
        seed = ob.derive_seed(3002, d, trial)
        spec = ob.FamilySpec(family_id="commuting_harmonic", dim=d, aux_dim=4,
                             order=64, seed=seed)
        inst = ob.sample(spec)
        for mu in _mus(seed):
            reps = ob.check_theorem_grid("t1i", inst, T1I_GRID, mu=mu, normal=True)
            reps += ob.check_theorem_grid("t1ii", inst, (1.0 / 3.0,), mu=mu, normal=True)
            worst = min(worst, min(r.normalized_margin for r in reps))
            count += len(reps)
    _report(4, worst >= NORMALIZED_FLOOR,
            f"{count} sharper normal-variant checks over 500 commuting samples, "
            f"min normalized margin {worst:.3e}")


def test_criterion_05_exterior_families():
    worst = math.inf
    worst_ell_dev = 0.0
    for trial in range(200):
        d = (1, 2, 3, 4)[trial % 4]
        seed = ob.derive_seed(3003, d, trial)
        inst = ob.sample(ob.FamilySpec(family_id="exterior_diag", dim=d, aux_dim=4,
                                       order=64, seed=seed))
        (rep,) = ob.check_theorem_grid("t2", inst, [ob.thm2_radius(inst.coeffs[0])])
        worst = min(worst, rep.normalized_margin)
        worst_ell_dev = max(worst_ell_dev, abs(rep.side_values["L"] - 1.0))
    worst_growth = math.inf
    for trial in range(200):
        seed = ob.derive_seed(3004, trial)
        c = ob.sample(ob.FamilySpec(family_id="exterior_colligation", dim=2, aux_dim=4,
                                    order=64, seed=seed))
        for r in (0.2, 1.0 / 3.0):
            (rep,) = ob.check_theorem_grid("t2", c, [r])
            worst = min(worst, rep.normalized_margin)
            worst_growth = min(worst_growth, rep.side_values["growth_margin"],
                               rep.side_values["a0_sq_margin"])
    _report(5, worst >= NORMALIZED_FLOOR and worst_growth >= NORMALIZED_FLOOR
            and worst_ell_dev <= 1e-12,
            f"200 normal-diagonal + 200 realization exterior samples: min margin "
            f"{worst:.3e}, min growth-bound margin {worst_growth:.3e}, "
            f"max |L-1| = {worst_ell_dev:.2e} (tol 1e-12)")


def test_criterion_06_subordination_families():
    worst = math.inf
    for trial in range(200):
        d = (1, 2, 3, 4)[trial % 4]
        seed = ob.derive_seed(3005, d, trial)
        pair, aux = ob.sample(ob.FamilySpec(family_id="convex_diag", dim=d, aux_dim=4,
                                            order=128, seed=seed,
                                            params={"with_witness": True}), with_aux=True)
        (ra,) = ob.check_theorem_grid("t3a", pair, [ob.thm3_radius(pair[0].coeffs[1])],
                                      boundary_eval=aux["eval"])
        (rb,) = ob.check_theorem_grid("t3b", pair, [1.0 / 3.0])
        worst = min(worst, ra.normalized_margin, rb.normalized_margin)
    for trial in range(500):
        d = (1, 2, 3, 4)[trial % 4]
        seed = ob.derive_seed(3006, d, trial)
        pair = ob.sample(ob.FamilySpec(family_id="schur_holo", dim=d, aux_dim=4,
                                       order=64, seed=seed,
                                       params={"with_witness": True}))
        for rid in ("l2a", "l2b"):
            reps = ob.check_theorem_grid(rid, pair, (0.1, 0.2, 1.0 / 3.0))
            worst = min(worst, min(r.normalized_margin for r in reps))
    for trial in range(200):
        d = (1, 2, 3, 4)[trial % 4]
        seed = ob.derive_seed(3007, d, trial)
        pair, aux = ob.sample(ob.FamilySpec(family_id="starlike_diag", dim=d, aux_dim=4,
                                            order=256, seed=seed,
                                            params={"with_witness": True}), with_aux=True)
        (ra,) = ob.check_theorem_grid("t4a", pair, [ob.KOEBE_RADIUS], boundary_eval=aux["eval"])
        (rb,) = ob.check_theorem_grid("t4b", pair, [ob.KOEBE_RADIUS])
        worst = min(worst, ra.normalized_margin, rb.normalized_margin)
    (planted,) = ob.check_theorem_grid("t4b", (ob.koebe_series(2, 256), ob.identity_witness(256)),
                                       [ob.KOEBE_RADIUS])
    _report(6, worst >= NORMALIZED_FLOOR and abs(planted.margin) <= 1e-9,
            f"900 subordination checks (convex 200, generic 500, starlike 200): min "
            f"normalized margin {worst:.3e}; planted Koebe equality margin "
            f"{planted.margin:.2e} (|.| <= 1e-9)")


def test_criterion_07_functional_calculus_oracles():
    rng = np.random.default_rng(777)
    worst_log = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 5))
        eigs = rng.uniform(1.0, 10.0, d)
        w = ob.random_unitary(d, ob.derive_seed(3008, trial))
        m = w @ np.diag(eigs).astype(complex) @ ob.adjoint(w)
        center = complex(0.5 * (eigs.min() + eigs.max()))
        radius = 0.5 * (eigs.max() - eigs.min()) + 0.4 * eigs.min()
        got = ob.log_riesz_dunford(m, ob.ContourSpec(center, radius, 128))
        worst_log = max(worst_log, ob.operator_norm(got - ob.log_eig_normal(m)))
    worst_coeff = 0.0
    for trial in range(50):
        k, d = 4, 2
        rng2 = np.random.default_rng(ob.derive_seed(3009, trial))
        v = rng2.standard_normal((k, d)) + 1j * rng2.standard_normal((k, d))
        v *= float(rng2.uniform(0.4, 1.3)) / ob.operator_norm(v)
        c = ob.ColligationSpec(k=k, U=ob.random_unitary(k, ob.derive_seed(3010, trial)), V=v)
        got = ob.coeffs_via_cauchy_integral(lambda zs: ob.herglotz_transfer_grid(c, zs),
                                            8, 0.5, 128)
        worst_coeff = max(worst_coeff,
                          ob.operator_norm(got.coeffs[0] - 0.5 * ob.adjoint(v) @ v))
        for n in range(1, 9):
            worst_coeff = max(worst_coeff,
                              ob.operator_norm(got.coeffs[n] - ob.colligation_log_coeff(c, n)))
    _report(7, worst_log <= 1e-8 and worst_coeff <= 1e-9,
            f"contour vs eigen log on 100 planted normals: max err {worst_log:.2e} "
            f"(tol 1e-8); realized-log coefficients on 50 colligations: max err "
            f"{worst_coeff:.2e} (tol 1e-9)")


def test_criterion_08_lemma1_sweep():
    worst = math.inf
    count = 0
    for trial in range(1000):
        d = (1, 2, 3, 4)[trial % 4]
        seq = ob.gaussian_coeff_sequence(d, 32, ob.derive_seed(3011, d, trial))
        for k in (0, 1, 3):
            reps = ob.check_theorem_grid("l1", seq, (0.1, 0.5, 0.9), k=k)
            worst = min(worst, min(r.normalized_margin for r in reps))
            count += len(reps)
    _report(8, worst >= NORMALIZED_FLOOR,
            f"{count} squared-majorant checks over 1000 random sequences "
            f"(k in {{0,1,3}}, r in {{0.1,0.5,0.9}}), min normalized margin {worst:.3e}")


def test_criterion_09_classical_bohr_radius():
    observed = []
    worst = 0.0
    for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        scan = scan_radius("mobius", {"a": a}, tol=1e-8)
        observed.append(scan.estimated_radius)
        worst = max(worst, abs(scan.estimated_radius - 1.0 / (1.0 + 2.0 * a)))
    decreasing = all(r2 < r1 for r1, r2 in zip(observed, observed[1:]))
    approaches = observed[-1] - 1.0 / 3.0 < observed[0] - 1.0 / 3.0
    _report(9, worst <= 1e-6 and decreasing and approaches,
            f"bisection recovers 1/(1+2a) within {worst:.2e} (tol 1e-6) for a in "
            f"0.1..0.9; family infimum decreases monotonically toward 1/3 "
            f"(last radius {observed[-1]:.6f})")


def test_criterion_10_reproducibility(tmp_path):
    config = RunConfig(theorems=("t1iii", "e55", "l1", "e17", "t3a"),
                       trials=3, dims=(1, 2), seed=31)
    payloads = []
    for i in range(2):
        report = run_suite(config)
        path = tmp_path / f"run{i}.json"
        write_suite_report(report, str(path), "json")
        obj = json.loads(path.read_text())
        obj["meta"]["timestamp"] = None
        payloads.append(dumps(obj))
    _report(10, payloads[0] == payloads[1],
            "two identically configured suite runs serialize byte-identically "
            "modulo the timestamp field")
