"""Command-line harness: randomized verification suites, radius scans,
sharp-constant demos, and oracle self-tests.

Exit codes: 0 when every check passes, 1 when at least one inequality is
violated, 2 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bohr import (
    KOEBE_RADIUS,
    RadiusScan,
    TheoremReport,
    THEOREM_IDS,
    _check_r,
    _kahan_scalar_sum,
    bohr_radius_bisect,
    check_theorem_grid,
    norm_majorant,
    operator_majorant,
    thm2_radius,
    thm3_radius,
)
from .errors import InvalidInputError, OpBohrError
from .funcalc import (
    ColligationSpec,
    ContourSpec,
    colligation_log_coeff,
    herglotz_transfer_grid,
    log_eig_normal,
    log_riesz_dunford,
    matrix_exp,
)
from .generators import (
    CERT_SLACK,
    UNIT_ROUNDOFF,
    FamilySpec,
    derive_seed,
    gaussian_coeff_sequence,
    identity_witness,
    koebe_scalar_coeffs,
    koebe_series,
    mobius_scalar_coeffs,
    mobius_series,
    ordered_triples,
    random_unitary,
    sample,
)
from .linalg import PSD_TOL, adjoint, operator_norm
from .serialize import dumps, report_to_json
from .series import HoloSeries, coeffs_via_cauchy_integral, compose_subordination, evaluate_grid

OUT_DIR_ENV = "OPBOHR_OUT_DIR"

MU_FIXED = (0.0, 1.0, math.pi / 3.0, math.pi / 7.0)

THEOREM_GROUPS = {
    "t1": ("t1i", "t1ii", "t1iii"),
    "l2": ("l2a", "l2b"),
    "t3": ("t3a", "t3b"),
    "t4": ("t4a", "t4b"),
}

# theorem id -> the first id of its group (the id itself outside the groups);
# the whole group draws its instance from the leader's seed
_LEADER = {t: t for t in THEOREM_IDS} | {
    t: ids[0] for ids in THEOREM_GROUPS.values() for t in ids}


@dataclass(frozen=True)
class RunConfig:
    command: str = "verify"
    theorems: tuple[str, ...] = ("t1iii",)
    trials: int = 10
    dims: tuple[int, ...] = (1, 2)
    order: int | None = None
    seed: int = 0
    psd_tol: float = PSD_TOL
    r_values: tuple[float, ...] | None = None
    normal_variant: bool = False
    force: bool = False
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.trials < 1:
            raise OpBohrError("trials must be >= 1")
        if not self.dims or any(d < 1 or d > 16 for d in self.dims):
            raise OpBohrError("dims must be a nonempty subset of 1..16")
        if self.r_values is not None and not self.r_values:
            raise OpBohrError("r values must be a nonempty list")
        if self.seed < 0:
            raise OpBohrError("seed must be >= 0")
        if not (math.isfinite(self.psd_tol) and self.psd_tol >= 0.0):
            raise OpBohrError(f"psd_tol must be finite and nonnegative, got {self.psd_tol!r}")
        for t in self.theorems:
            if t not in THEOREM_IDS:
                raise OpBohrError(f"unknown theorem id: {t!r}")
        if self.format not in ("json", "csv"):
            raise OpBohrError(f"unknown report format: {self.format!r}")

    def echo(self) -> dict:
        return {
            "command": self.command,
            "theorems": list(self.theorems),
            "trials": self.trials,
            "dims": list(self.dims),
            "order": self.order,
            "seed": self.seed,
            "psd_tol": self.psd_tol,
            "r_values": None if self.r_values is None else list(self.r_values),
            "normal_variant": self.normal_variant,
            "force": self.force,
            "format": self.format,
        }


@dataclass
class SuiteReport:
    config: dict
    reports: list[TheoremReport]
    aggregate: dict
    meta: dict

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "reports": [report_to_json(r) for r in self.reports],
            "aggregate": self.aggregate,
            "meta": self.meta,
        }


def parse_theorem_list(text: str) -> tuple[str, ...]:
    out: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        ids = THEOREM_GROUPS.get(token, (token,))
        for t in ids:
            if t not in THEOREM_IDS:
                raise OpBohrError(f"unknown theorem id: {token!r}")
            if t not in out:
                out.append(t)
    if not out:
        raise OpBohrError("no theorem ids given")
    return tuple(out)


def _random_mu(inst_seed: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([int(inst_seed), 7]))
    return float(rng.uniform(0.0, 2.0 * math.pi))


@dataclass(frozen=True)
class SuiteRun:
    """One check run of a suite trial: the instance it draws and how it calls the check.

    A trial's seed is ``derive_seed(seed, THEOREM_IDS.index(leader), dim, trial)``,
    where the leader is the first id of the theorem's group (t1i, l2a, t3a,
    t4a) or the id itself outside the groups.  Runs of one trial that draw
    the same (family, dim, order, seed, pair) get the same instance object:
    t1ii and t1iii check t1i's harmonic function (t1iii keeps
    ``schur_harmonic`` under ``--normal-variant``), l2b, t3b and t4b their
    leader's pair, and the witness of each report names that draw.

    family         family of the drawn instance: an id of ``FAMILY_IDS``, or
                   ``gaussian_sequence`` (l1) or ``ordered_triple`` (e17)
    order          default truncation order; ``--order`` replaces it
    radii          default r-grid; ``--r`` replaces it.  A None radius is the
                   check's stated radius; ``radii=None`` marks a check without
                   a radius (one report per trial, ``--r`` ignored)
    over_mu        check at every angle of MU_FIXED and at one random angle
    normal_family  family drawn under ``--normal-variant``, checked with normal=True
    pair           draw a (series, subordination witness) pair
    sub_seed       draw from ``derive_seed(trial seed, sub_seed)``
    variants       check kwargs; the check runs once per entry
    """

    family: str
    order: int = 64
    radii: tuple[float | None, ...] | None = (None,)
    over_mu: bool = False
    normal_family: str | None = None
    pair: bool = False
    sub_seed: int | None = None
    variants: tuple[dict, ...] = ({},)


SUITE_RUNS: dict[str, tuple[SuiteRun, ...]] = {
    "l1": (SuiteRun("gaussian_sequence", order=32, radii=(0.1, 0.5, 0.9),
                    variants=({"k": 0}, {"k": 1}, {"k": 3})),),
    "t1i": (SuiteRun("schur_harmonic", radii=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
                     over_mu=True, normal_family="commuting_harmonic"),),
    "t1ii": (SuiteRun("schur_harmonic", over_mu=True, normal_family="commuting_harmonic"),),
    "t1iii": (SuiteRun("schur_harmonic"),),
    "e55": (SuiteRun("schur_holo", radii=(0.25, 0.5, 1.0 / math.sqrt(2.0))),),
    # the colligation's stated radius comes from two operator norms and lands
    # within a few ulp of 1/3; its suite grid holds 1/3 itself
    "t2": (SuiteRun("exterior_diag"),
           SuiteRun("exterior_colligation", radii=(1.0 / 3.0,), sub_seed=1)),
    "e17": (SuiteRun("ordered_triple", radii=None),),
    "t3a": (SuiteRun("convex_diag", order=128, pair=True),),
    "t3b": (SuiteRun("convex_diag", order=128, pair=True),),
    "l2a": (SuiteRun("schur_holo", radii=(0.1, 0.2, 1.0 / 3.0), pair=True),),
    "l2b": (SuiteRun("schur_holo", radii=(0.1, 0.2, 1.0 / 3.0), pair=True),),
    "t4a": (SuiteRun("starlike_diag", order=256, pair=True),),
    "t4b": (SuiteRun("starlike_diag", order=256, pair=True),),
}


def _draw(family: str, dim: int, order: int, seed: int, pair: bool):
    """Instance, aux data and witness fields (besides family and trial) of one draw."""
    if family == "gaussian_sequence":
        fields = {"dim": dim, "order": order, "seed": seed}
        return gaussian_coeff_sequence(dim, order, seed), {}, fields
    if family == "ordered_triple":
        return tuple(ordered_triples(1, seed)[0]), {}, {"seed": seed}
    spec = FamilySpec(family_id=family, dim=dim, aux_dim=4, order=order, seed=seed,
                      params={"with_witness": True} if pair else {})
    instance, aux = sample(spec, with_aux=True)
    return instance, aux, {"dim": dim, "aux_dim": spec.aux_dim, "order": order, "seed": seed}


def _run_one_trial(theorem: str, dim: int, trial: int, config: RunConfig,
                   draws: dict) -> list[TheoremReport]:
    """Reports of one id at one (dim, trial); ``draws`` memoizes the trial's draws."""
    inst_seed = derive_seed(config.seed, THEOREM_IDS.index(_LEADER[theorem]), dim, trial)
    reports: list[TheoremReport] = []
    for run in SUITE_RUNS[theorem]:
        normal = config.normal_variant and run.normal_family is not None
        family = run.normal_family if normal else run.family
        order = run.order if config.order is None else config.order
        seed = inst_seed if run.sub_seed is None else derive_seed(inst_seed, run.sub_seed)
        key = (family, dim, order, seed, run.pair)
        if key not in draws:
            draws[key] = _draw(*key)
        instance, aux, fields = draws[key]
        witness = {"family_id": family, **fields, "trial": trial}
        rs = (None,) if run.radii is None else config.r_values or run.radii
        mus = (*MU_FIXED, _random_mu(inst_seed)) if run.over_mu else (None,)
        for mu, kwargs in itertools.product(mus, run.variants):
            reports.extend(check_theorem_grid(
                theorem, instance, rs, mu, normal=normal, order=order,
                boundary_eval=aux.get("eval"), psd_tol=config.psd_tol,
                force=config.force, witness=witness, **kwargs))
    return reports


def _aggregate(reports: list[TheoremReport]) -> dict:
    passed = sum(1 for r in reports if r.passed)
    failed = len(reports) - passed
    agg = {"pass_count": passed, "fail_count": failed, "report_count": len(reports)}
    if reports:
        worst = min(reports, key=lambda r: r.normalized_margin)
        agg["min_normalized_margin"] = worst.normalized_margin
        agg["argmin_witness_seed"] = worst.witness.get("seed")
        agg["argmin_theorem_id"] = worst.theorem_id
    return agg


def _meta(start: float) -> dict:
    """A report's meta block: the package version, and the time of writing and
    the wall time since ``start`` (a ``time.perf_counter`` reading)."""
    return {
        "artifact_version": __version__,
        "timestamp": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - start,
        },
    }


def run_suite(config: RunConfig) -> SuiteReport:
    """Execute trials x dims x theorem checks and assemble the suite report.

    Each (dim, trial) draws one instance per theorem group (t1, l2, t3, t4),
    from the seed of the group's first id, and runs the selected ids of the
    group on that instance back to back, so the checks share what ``bohr``
    prepares for it.  Reports come out by theorem, then dim, then trial.
    """
    start = time.perf_counter()
    leaders = list(dict.fromkeys(_LEADER[t] for t in config.theorems))
    grouped = sorted(config.theorems, key=lambda t: leaders.index(_LEADER[t]))
    by_id: dict[str, list[TheoremReport]] = {t: [] for t in config.theorems}
    for dim in config.dims:
        for trial in range(config.trials):
            draws: dict = {}
            for theorem in grouped:
                by_id[theorem].extend(_run_one_trial(theorem, dim, trial, config, draws))
    reports = [rep for t in config.theorems for rep in by_id[t]]
    return SuiteReport(config=config.echo(), reports=reports,
                       aggregate=_aggregate(reports), meta=_meta(start))


# ---------------------------------------------------------------------------
# radius scans
# ---------------------------------------------------------------------------

_SCAN_DEFAULTS = {
    "mobius": {"a": 0.5, "order": 96},
    "koebe": {"order": 256},
    "constant": {"value": 0.5},
}


def _float_param(params: dict, key: str) -> float:
    try:
        return float(params[key])
    except (TypeError, ValueError):
        raise InvalidInputError(f"scan parameter {key} must be a number, "
                                f"got {params[key]!r}") from None


def _order_param(params: dict) -> int:
    order = _float_param(params, "order")
    if not (order.is_integer() and order >= 0):
        raise InvalidInputError(f"scan parameter order must be an integer >= 0, "
                                f"got {params['order']!r}")
    return int(order)


def _scan_family(family: str, params: dict) -> tuple[np.ndarray, int, float]:
    """Coefficients of a scan family, the first power of its majorant and its bound."""
    if family == "mobius":
        coeffs = mobius_scalar_coeffs(_float_param(params, "a"), _order_param(params))
        return coeffs[:, None, None], 0, 1.0
    if family == "koebe":
        return koebe_scalar_coeffs(_order_param(params))[:, None, None], 1, 0.25
    return np.array([[[_float_param(params, "value")]]], dtype=np.complex128), 0, 1.0


def scan_radius(family: str, params: dict | None = None, r_min: float = 0.0,
                r_max: float = 0.95, steps: int = 40, tol: float = 1e-7) -> RadiusScan:
    """Margin grid plus a bisection-refined radius for a named scalar family.

    The coefficient norms are computed once; the grid is one majorant sum over
    all its radii, and the bisection predicate sums the same norms.
    """
    if steps < 0:
        raise InvalidInputError(f"steps must be >= 0, got {steps}")
    if family not in _SCAN_DEFAULTS:
        raise OpBohrError(f"unknown scan family: {family!r}")
    merged = dict(_SCAN_DEFAULTS[family])
    unknown = sorted(set(params or {}) - set(merged))
    if unknown:
        raise InvalidInputError(f"unknown scan parameter(s) for {family}: {', '.join(unknown)}; "
                                f"expected {', '.join(sorted(merged))}")
    merged.update(params or {})
    coeffs, k0, bound = _scan_family(family, merged)
    norms = operator_norm(coeffs[k0:])
    rs = np.linspace(_check_r(r_min), _check_r(r_max), steps)
    margins = bound - _kahan_scalar_sum(norms, rs, k0)
    grid = tuple((float(r), float(m), bool(m >= -1e-12)) for r, m in zip(rs, margins))

    def predicate(r: float) -> bool:
        return float(_kahan_scalar_sum(norms, np.array([_check_r(r)]), k0)[0]) <= bound

    result = bohr_radius_bisect(predicate, r_min, r_max, tol=tol)
    return RadiusScan(family_id=family, params=merged, grid=grid,
                      estimated_radius=result.radius, bracketed=result.bracketed,
                      warnings=result.warnings)


def write_scan_csv(scan: RadiusScan, path: str) -> None:
    import json as _json

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family_id", "param_json", "r", "margin", "passed"])
        base = dict(scan.params)
        for r, margin, passed in scan.grid:
            writer.writerow([scan.family_id,
                             _json.dumps({**base, "row": "grid"}, sort_keys=True),
                             f"{r:.12g}", f"{margin:.12g}", passed])
        est_params = {**base, "row": "estimate", "bracketed": scan.bracketed,
                      "warnings": list(scan.warnings)}
        writer.writerow([scan.family_id, _json.dumps(est_params, sort_keys=True),
                         f"{scan.estimated_radius:.12g}", "", scan.bracketed])


# ---------------------------------------------------------------------------
# demos: the named extremal instances and their sharp constants
# ---------------------------------------------------------------------------

DEMO_NAMES = ("sharpness-e55", "radius-t2", "radius-t3", "koebe-t4")


def demo(name: str) -> SuiteReport:
    """Run a planted extremal instance and print target vs computed values."""
    start = time.perf_counter()
    rows: list[tuple[str, float, float]] = []
    reports: list[TheoremReport] = []

    if name == "sharpness-e55":
        a = 1.0 / math.sqrt(2.0)
        for d in (1, 2, 4):
            f = mobius_series(a, d, 64)
            value = operator_norm(operator_majorant(f.coeffs, a, 0))
            rows.append((f"majorant norm at r=1/sqrt(2), d={d}", math.sqrt(2.0), value))
            reports += check_theorem_grid(
                "e55", f, [a], witness={"family_id": "mobius_identity", "a": a, "dim": d})
    elif name == "radius-t2":
        a0 = 2.0 * np.eye(2)
        rows.append(("exterior Bohr radius at A0 = 2I", 1.0 / 3.0, thm2_radius(a0)))
    elif name == "radius-t3":
        rows.append(("convex subordination radius at A1 = I", 1.0 / 3.0, thm3_radius(np.eye(2))))
    elif name == "koebe-t4":
        coeffs = koebe_scalar_coeffs(256)[:, None, None]
        rows.append(("Koebe majorant at r = 3-2sqrt(2)", 0.25,
                     norm_majorant(coeffs, KOEBE_RADIUS, 1)))
        scan = scan_radius("koebe")
        rows.append(("Koebe Bohr radius", KOEBE_RADIUS, scan.estimated_radius))
        pair = (koebe_series(2, 256), identity_witness(256))
        reports += check_theorem_grid("t4b", pair, [KOEBE_RADIUS],
                                      witness={"family_id": "koebe_identity", "dim": 2})
    else:
        raise OpBohrError(f"unknown demo: {name!r}; choose from {DEMO_NAMES}")

    print(f"demo {name}")
    print(f"{'quantity':<44} {'target':>16} {'computed':>16} {'abs diff':>12}")
    for label, target, value in rows:
        print(f"{label:<44} {target:>16.12f} {value:>16.12f} {abs(value - target):>12.3e}")
    for rep in reports:
        print(f"check {rep.theorem_id}: passed={rep.passed} margin={rep.margin:.3e}")

    agg = _aggregate(reports)
    agg["demo_rows"] = [{"label": lb, "target": t, "computed": v} for lb, t, v in rows]
    return SuiteReport(config={"command": "demo", "name": name}, reports=reports,
                       aggregate=agg, meta=_meta(start))


# ---------------------------------------------------------------------------
# self-test: the oracle cross-checks
# ---------------------------------------------------------------------------

_CERTIFIED_FAMILIES = ("schur_holo", "schur_harmonic", "commuting_harmonic", "subordination",
                       "exterior_diag", "exterior_colligation")


def _certificate_gap(family: str, seed: int) -> float:
    """A family's algebraic certificate against a 2^12-point sample near the circle.

    Returns bound - sampled sup for an upper bound on ||f|| (on |phi(z)|/|z|
    for the witness), and sampled inf - bound for a lower bound on the
    smallest singular value, so a sound certificate gives a gap >= 0 up to
    the sample's rounding (for a computed singular value, a few u times the
    largest).  Every family is sampled on |z| = 1 - 2^-10.
    """
    dim = 1 if family == "subordination" else 3
    instance, aux = sample(FamilySpec(family_id=family, dim=dim, order=8, seed=seed),
                           with_aux=True)
    rho = 1.0 - 2.0 ** -10
    zs = rho * np.exp(2j * math.pi * np.arange(2 ** 12) / 2 ** 12)
    if family == "subordination":
        return aux["sup_cert"] - float(np.abs(aux["eval_phi"](zs)).max()) / rho
    if family == "exterior_colligation":
        inverse = matrix_exp(-herglotz_transfer_grid(instance, zs))
        return 1.0 / float(operator_norm(inverse).max()) - aux["min_cert"]
    if family == "exterior_diag":
        sv = np.linalg.svd(aux["eval"](zs), compute_uv=False)
        return float((sv[:, -1] + 16 * dim * UNIT_ROUNDOFF * sv[:, 0]).min()) - aux["min_cert"]
    return aux["sup_cert"] - float(operator_norm(aux["eval"](zs)).max())


def selftest(seed: int = 2024, verbose: bool = True) -> int:
    """Cross-validate the independent numerical routes; returns failure count."""
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    failures = 0

    def record(label: str, ok: bool, detail: str = ""):
        nonlocal failures
        if not ok:
            failures += 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {label}{' ' + detail if detail else ''}")

    rng = np.random.default_rng(seed)
    for i in range(5):
        d = int(rng.integers(2, 5))
        w = random_unitary(d, derive_seed(seed, 10, i))
        eigs = rng.uniform(1.0, 10.0, size=d)
        m = w @ np.diag(eigs).astype(complex) @ adjoint(w)
        # a circle around [min, max] of the spectrum that keeps 0.55 min from 0
        center = complex(0.5 * (eigs.min() + eigs.max()))
        radius = 0.5 * (eigs.max() - eigs.min()) + min(0.45 * eigs.min(), 1.0)
        via_contour = log_riesz_dunford(m, ContourSpec(center, radius))
        via_eig = log_eig_normal(m)
        err = operator_norm(via_contour - via_eig)
        record(f"contour log vs eigen log #{i}", err <= 1e-8, f"(err {err:.2e})")
        roundtrip = operator_norm(matrix_exp(via_contour) - m)
        record(f"exp(log) roundtrip #{i}", roundtrip <= 1e-7 * operator_norm(m),
               f"(err {roundtrip:.2e})")

    for i in range(3):
        k, d = 4, 2
        u = random_unitary(k, derive_seed(seed, 20, i))
        v = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        v *= 1.0 / operator_norm(v)
        c = ColligationSpec(k=k, U=u, V=v)
        extracted = coeffs_via_cauchy_integral(lambda zs: herglotz_transfer_grid(c, zs),
                                               8, 0.5, 128)
        err0 = operator_norm(extracted.coeffs[0] - 0.5 * adjoint(v) @ v)
        errs = [operator_norm(extracted.coeffs[n] - colligation_log_coeff(c, n))
                for n in range(1, 9)]
        record(f"realized log coefficients #{i}", max(err0, max(errs)) <= 1e-9,
               f"(err {max(err0, max(errs)):.2e})")

    poly = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    ps = HoloSeries(poly)
    extracted = coeffs_via_cauchy_integral(lambda zs: evaluate_grid(ps, zs), 5, 0.5, 64)
    err = float(np.abs(extracted.coeffs - poly).max())
    record("coefficient extraction exact on polynomials", err <= 1e-12, f"(err {err:.2e})")

    spec = FamilySpec(family_id="schur_holo", dim=2, aux_dim=3, order=48,
                      seed=derive_seed(seed, 30), params={"with_witness": True})
    f, w = sample(spec)
    g = compose_subordination(f, w, f.order)
    zs = 0.35 * np.exp(2j * math.pi * rng.uniform(size=20))
    phi_vals = np.array([np.polyval(w.phi.coeffs[::-1], z) for z in zs])
    direct = evaluate_grid(f, phi_vals)
    composed = evaluate_grid(g, zs)
    err = float(np.abs(direct - composed).max())
    record("composition matches pointwise evaluation", err <= 1e-9, f"(err {err:.2e})")

    # the closed-form boundary liminf lies below every sampled norm on the
    # circle, and the grid spacing bounds how far below
    theta = 2.0 * math.pi * np.arange(2 ** 14) / 2 ** 14
    gaps = []
    for family in ("convex_diag", "starlike_diag"):
        spec = FamilySpec(family_id=family, dim=3, aux_dim=4, order=8, seed=derive_seed(seed, 40))
        _, aux = sample(spec, with_aux=True)
        exact = aux["eval"].boundary_liminf
        gaps.append(float(operator_norm(aux["eval"](np.exp(1j * theta))).min()) / exact - 1.0)
    record("closed-form boundary liminf vs dense boundary sample",
           all(-1e-13 <= gap <= 1e-3 for gap in gaps),
           "(dense/exact - 1: " + ", ".join(f"{gap:.2e}" for gap in gaps) + ")")

    for family in _CERTIFIED_FAMILIES:
        gap = _certificate_gap(family, derive_seed(seed, 50))
        record(f"{family} certificate vs dense boundary sample", gap >= -CERT_SLACK,
               f"(gap {gap:.2e})")

    if verbose:
        print(f"selftest: {failures} failure(s)")
    return failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUT_DIR_ENV)
    return os.path.join(base, path) if base else path


def write_suite_report(report: SuiteReport, path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(dumps(report.to_json()))
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theorem_id", "r", "mu", "passed", "margin", "scale", "witness_seed"])
        for rep in report.reports:
            writer.writerow([rep.theorem_id, rep.r, rep.mu, rep.passed,
                             f"{rep.margin:.17g}", f"{rep.scale:.17g}",
                             rep.witness.get("seed")])


def _comma_list(convert, what: str):
    """argparse type for a comma list; a malformed item is a usage error (exit 2)."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(x) for x in text.split(",") if x.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma list of {what}, "
                                             f"got {text!r}") from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opbohr",
        description="Randomized numerical verification of Bohr-type operator inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run randomized theorem suites")
    pv.add_argument("--theorems", default="t1i,t1ii,t1iii",
                    help="comma list of ids (groups t1, l2, t3, t4 expand)")
    pv.add_argument("--trials", type=int, default=10)
    pv.add_argument("--dims", type=_comma_list(int, "integers"), default="1,2",
                    help="comma list of matrix dimensions")
    pv.add_argument("--order", type=int, default=None, help="series truncation override")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=PSD_TOL, help="relative PSD slack")
    pv.add_argument("--r", type=_comma_list(float, "numbers"), default=None,
                    help="comma list of radii; replaces every theorem's default grid")
    pv.add_argument("--normal-variant", action="store_true",
                    help="use commuting samples and the sharper normal bounds for t1i/t1ii")
    pv.add_argument("--force", action="store_true",
                    help="allow radii beyond the stated radius (diagnostics)")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    ps = sub.add_parser("scan", help="margin grid and bisection radius for a scalar family")
    ps.add_argument("--family", required=True, choices=("mobius", "koebe", "constant"))
    ps.add_argument("--param", action="append", default=[],
                    help="key=value family parameter (repeatable)")
    ps.add_argument("--r-min", type=float, default=0.0)
    ps.add_argument("--r-max", type=float, default=0.95)
    ps.add_argument("--steps", type=int, default=40)
    ps.add_argument("--out", default=None)

    pd = sub.add_parser("demo", help="planted extremal instances vs their sharp constants")
    pd.add_argument("name", choices=DEMO_NAMES)
    pd.add_argument("--out", default=None)

    pt = sub.add_parser("selftest", help="cross-check the independent numerical routes")
    pt.add_argument("--seed", type=int, default=2024)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves every
# main() of a process.
_parser = functools.cache(build_parser)


def _parse_params(items: list[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise OpBohrError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            config = RunConfig(
                command="verify",
                theorems=parse_theorem_list(args.theorems),
                trials=args.trials,
                dims=args.dims,
                order=args.order,
                seed=args.seed,
                psd_tol=args.tol,
                r_values=args.r,
                normal_variant=args.normal_variant,
                force=args.force,
                out=args.out,
                format=args.format,
            )
            report = run_suite(config)
            agg = report.aggregate
            print(f"checks: {agg['report_count']}  passed: {agg['pass_count']}  "
                  f"failed: {agg['fail_count']}")
            if agg.get("min_normalized_margin") is not None:
                print(f"min normalized margin: {agg['min_normalized_margin']:.6e} "
                      f"({agg['argmin_theorem_id']}, seed {agg['argmin_witness_seed']})")
            out = _resolve_out(config.out)
            if out:
                write_suite_report(report, out, config.format)
                print(f"report written to {out}")
            return 0 if agg["fail_count"] == 0 else 1

        if args.command == "scan":
            scan = scan_radius(args.family, _parse_params(args.param),
                               r_min=args.r_min, r_max=args.r_max, steps=args.steps)
            flag = "" if scan.bracketed else " (unbracketed)"
            print(f"family {scan.family_id}: estimated radius {scan.estimated_radius:.9f}{flag}")
            out = _resolve_out(args.out)
            if out:
                write_scan_csv(scan, out)
                print(f"scan written to {out}")
            return 0

        if args.command == "demo":
            report = demo(args.name)
            out = _resolve_out(args.out)
            if out:
                write_suite_report(report, out, "json")
            return 0 if report.aggregate["fail_count"] == 0 else 1

        if args.command == "selftest":
            return 0 if selftest(seed=args.seed) == 0 else 1

        raise OpBohrError(f"unknown command {args.command!r}")
    except OpBohrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
