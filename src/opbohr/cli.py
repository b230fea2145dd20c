"""Command-line harness: randomized verification suites, radius scans,
sharp-constant demos, and oracle self-tests.

Exit codes: 0 when every check passes, 1 when at least one inequality is
violated, 2 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
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
    check_theorem,
    check_theorem_grid,
    norm_majorant,
    operator_majorant,
    thm2_radius,
    thm3_radius,
)
from .errors import OpBohrError
from .funcalc import (
    ColligationSpec,
    auto_contour,
    colligation_log_coeff,
    herglotz_transfer,
    log_eig_normal,
    log_riesz_dunford,
    matrix_exp,
)
from .generators import (
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
from .linalg import DEFAULT_TOL, ToleranceProfile, adjoint, operator_norm
from .serialize import dumps, report_to_json
from .series import coeffs_via_cauchy_integral, compose_subordination, evaluate, evaluate_grid

OUT_DIR_ENV = "OPBOHR_OUT_DIR"

MU_FIXED = (0.0, 1.0, math.pi / 3.0, math.pi / 7.0)

THEOREM_GROUPS = {
    "t1": ("t1i", "t1ii", "t1iii"),
    "l2": ("l2a", "l2b"),
    "t3": ("t3a", "t3b"),
    "t4": ("t4a", "t4b"),
}

_DEFAULT_ORDER = {
    "l1": 32,
    "convex": 128,
    "starlike": 256,
}

_T1I_RS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class RunConfig:
    command: str = "verify"
    theorems: tuple[str, ...] = ("t1iii",)
    trials: int = 10
    dims: tuple[int, ...] = (1, 2)
    order: int | None = None
    seed: int = 0
    psd_tol: float = 1e-9
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
        for t in self.theorems:
            if t not in THEOREM_IDS:
                raise OpBohrError(f"unknown theorem id: {t!r}")
        if self.format not in ("json", "csv"):
            raise OpBohrError(f"unknown report format: {self.format!r}")

    @property
    def tol(self) -> ToleranceProfile:
        return ToleranceProfile(psd_tol=self.psd_tol)

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


def _order_for(config: RunConfig, family_kind: str) -> int:
    if config.order is not None:
        return config.order
    return _DEFAULT_ORDER.get(family_kind, 64)


def _random_mu(inst_seed: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([int(inst_seed), 7]))
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _witness_ref(spec: FamilySpec, trial: int) -> dict:
    return {
        "family_id": spec.family_id,
        "dim": spec.dim,
        "aux_dim": spec.aux_dim,
        "order": spec.order,
        "seed": spec.seed,
        "trial": trial,
    }


def _run_one_trial(theorem: str, dim: int, trial: int, config: RunConfig) -> list[TheoremReport]:
    tol = config.tol
    inst_seed = derive_seed(config.seed, THEOREM_IDS.index(theorem), dim, trial)
    reports: list[TheoremReport] = []

    if theorem == "l1":
        order = _order_for(config, "l1")
        seq = gaussian_coeff_sequence(dim, order, inst_seed)
        witness = {"family_id": "gaussian_sequence", "dim": dim, "order": order,
                   "seed": inst_seed, "trial": trial}
        rs = config.r_values or (0.1, 0.5, 0.9)
        for k in (0, 1, 3):
            reports.extend(check_theorem_grid("l1", seq, rs, k=k, tol=tol,
                                              force=config.force, witness=witness))
        return reports

    if theorem in ("t1i", "t1ii", "t1iii"):
        family = "commuting_harmonic" if config.normal_variant else "schur_harmonic"
        if theorem == "t1iii":
            family = "schur_harmonic"
        spec = FamilySpec(family_id=family, dim=dim, aux_dim=4,
                          order=_order_for(config, "schur"), seed=inst_seed)
        instance = sample(spec)
        witness = _witness_ref(spec, trial)
        normal = config.normal_variant and theorem in ("t1i", "t1ii")
        if theorem == "t1i":
            rs = config.r_values or _T1I_RS
            for mu in (*MU_FIXED, _random_mu(inst_seed)):
                reports.extend(check_theorem_grid("t1i", instance, rs, mu=mu, normal=normal,
                                                  tol=tol, force=config.force, witness=witness))
        elif theorem == "t1ii":
            rs = config.r_values or ((1.0 / 3.0,) if normal else (0.2,))
            for mu in (*MU_FIXED, _random_mu(inst_seed)):
                reports.extend(check_theorem_grid("t1ii", instance, rs, mu=mu, normal=normal,
                                                  tol=tol, force=config.force, witness=witness))
        else:
            rs = config.r_values or (1.0 / 3.0,)
            reports.extend(check_theorem_grid("t1iii", instance, rs, tol=tol,
                                              force=config.force, witness=witness))
        return reports

    if theorem == "e55":
        spec = FamilySpec(family_id="schur_holo", dim=dim, aux_dim=4,
                          order=_order_for(config, "schur"), seed=inst_seed)
        instance = sample(spec)
        rs = config.r_values or (0.25, 0.5, 1.0 / math.sqrt(2.0))
        reports.extend(check_theorem_grid("e55", instance, rs, tol=tol,
                                          force=config.force, witness=_witness_ref(spec, trial)))
        return reports

    if theorem == "t2":
        diag_spec = FamilySpec(family_id="exterior_diag", dim=dim, aux_dim=4,
                               order=_order_for(config, "exterior"), seed=inst_seed)
        diag_inst = sample(diag_spec)
        r = thm2_radius(diag_inst.coeffs[0], tol=tol)
        reports.append(check_theorem("t2", diag_inst, config.r_values[0] if config.r_values else r,
                                     tol=tol, force=config.force,
                                     witness=_witness_ref(diag_spec, trial)))
        col_spec = FamilySpec(family_id="exterior_colligation", dim=dim, aux_dim=4,
                              order=_order_for(config, "exterior"),
                              seed=derive_seed(inst_seed, 1))
        col_inst = sample(col_spec)
        reports.append(check_theorem("t2", col_inst,
                                     config.r_values[0] if config.r_values else 1.0 / 3.0,
                                     order=col_spec.order, tol=tol, force=config.force,
                                     witness=_witness_ref(col_spec, trial)))
        return reports

    if theorem == "e17":
        triple = ordered_triples(1, inst_seed)[0]
        witness = {"family_id": "ordered_triple", "seed": inst_seed, "trial": trial}
        reports.append(check_theorem("e17", tuple(triple), tol=tol, witness=witness))
        return reports

    if theorem in ("t3a", "t3b"):
        spec = FamilySpec(family_id="convex_diag", dim=dim, aux_dim=4,
                          order=_order_for(config, "convex"), seed=inst_seed,
                          params={"with_witness": True})
        pair, aux = sample(spec, with_aux=True)
        witness = _witness_ref(spec, trial)
        if theorem == "t3a":
            r = config.r_values[0] if config.r_values else thm3_radius(pair[0].coeffs[1])
            reports.append(check_theorem("t3a", pair, r, tol=tol, force=config.force,
                                         boundary_eval=aux["eval"], witness=witness))
        else:
            rs = config.r_values or (1.0 / 3.0,)
            reports.extend(check_theorem_grid("t3b", pair, rs, tol=tol, force=config.force,
                                              witness=witness))
        return reports

    if theorem in ("l2a", "l2b"):
        spec = FamilySpec(family_id="schur_holo", dim=dim, aux_dim=4,
                          order=_order_for(config, "schur"), seed=inst_seed,
                          params={"with_witness": True})
        pair = sample(spec)
        rs = config.r_values or (0.1, 0.2, 1.0 / 3.0)
        reports.extend(check_theorem_grid(theorem, pair, rs, tol=tol, force=config.force,
                                          witness=_witness_ref(spec, trial)))
        return reports

    if theorem in ("t4a", "t4b"):
        spec = FamilySpec(family_id="starlike_diag", dim=dim, aux_dim=4,
                          order=_order_for(config, "starlike"), seed=inst_seed,
                          params={"with_witness": True})
        pair, aux = sample(spec, with_aux=True)
        rs = config.r_values or (KOEBE_RADIUS,)
        reports.extend(check_theorem_grid(theorem, pair, rs, tol=tol, force=config.force,
                                          boundary_eval=aux["eval"] if theorem == "t4a" else None,
                                          witness=_witness_ref(spec, trial)))
        return reports

    raise OpBohrError(f"no runner for theorem id {theorem!r}")


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


def run_suite(config: RunConfig) -> SuiteReport:
    """Execute trials x dims x theorem checks and assemble the suite report."""
    start = time.perf_counter()
    reports: list[TheoremReport] = []
    for theorem in config.theorems:
        for dim in config.dims:
            for trial in range(config.trials):
                reports.extend(_run_one_trial(theorem, dim, trial, config))
    wall = time.perf_counter() - start
    meta = {
        "artifact_version": __version__,
        "timestamp": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_time_s": wall,
        },
    }
    return SuiteReport(config=config.echo(), reports=reports,
                       aggregate=_aggregate(reports), meta=meta)


# ---------------------------------------------------------------------------
# radius scans
# ---------------------------------------------------------------------------

_SCAN_DEFAULTS = {
    "mobius": {"a": 0.5, "order": 96},
    "koebe": {"order": 256},
    "constant": {"value": 0.5},
}


def _scan_family(family: str, params: dict) -> tuple[np.ndarray, int, float]:
    """Coefficients of a scan family, the first power of its majorant and its bound."""
    if family == "mobius":
        return mobius_scalar_coeffs(float(params["a"]), int(params["order"]))[:, None, None], 0, 1.0
    if family == "koebe":
        return koebe_scalar_coeffs(int(params["order"]))[:, None, None], 1, 0.25
    if family == "constant":
        return np.array([[[float(params["value"])]]], dtype=np.complex128), 0, 1.0
    raise OpBohrError(f"unknown scan family: {family!r}")


def scan_radius(family: str, params: dict | None = None, r_min: float = 0.0,
                r_max: float = 0.95, steps: int = 40, tol: float = 1e-7) -> RadiusScan:
    """Margin grid plus a bisection-refined radius for a named scalar family.

    The coefficient norms are computed once; the grid is one majorant sum over
    all its radii, and the bisection predicate sums the same norms.
    """
    merged = dict(_SCAN_DEFAULTS.get(family, {}))
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


def demo(name: str, tol: ToleranceProfile = DEFAULT_TOL) -> SuiteReport:
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
            reports.append(check_theorem("e55", f, a, tol=tol,
                                         witness={"family_id": "mobius_identity", "a": a, "dim": d}))
    elif name == "radius-t2":
        a0 = 2.0 * np.eye(2)
        rows.append(("exterior Bohr radius at A0 = 2I", 1.0 / 3.0, thm2_radius(a0, tol=tol)))
    elif name == "radius-t3":
        rows.append(("convex subordination radius at A1 = I", 1.0 / 3.0, thm3_radius(np.eye(2))))
    elif name == "koebe-t4":
        coeffs = koebe_scalar_coeffs(256)[:, None, None]
        rows.append(("Koebe majorant at r = 3-2sqrt(2)", 0.25,
                     norm_majorant(coeffs, KOEBE_RADIUS, 1)))
        scan = scan_radius("koebe")
        rows.append(("Koebe Bohr radius", KOEBE_RADIUS, scan.estimated_radius))
        pair = (koebe_series(2, 256), identity_witness(256))
        reports.append(check_theorem("t4b", pair, KOEBE_RADIUS, tol=tol,
                                     witness={"family_id": "koebe_identity", "dim": 2}))
    else:
        raise OpBohrError(f"unknown demo: {name!r}; choose from {DEMO_NAMES}")

    print(f"demo {name}")
    print(f"{'quantity':<44} {'target':>16} {'computed':>16} {'abs diff':>12}")
    for label, target, value in rows:
        print(f"{label:<44} {target:>16.12f} {value:>16.12f} {abs(value - target):>12.3e}")
    for rep in reports:
        print(f"check {rep.theorem_id}: passed={rep.passed} margin={rep.margin:.3e}")

    meta = {
        "artifact_version": __version__,
        "timestamp": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - start,
        },
    }
    agg = _aggregate(reports)
    agg["demo_rows"] = [{"label": lb, "target": t, "computed": v} for lb, t, v in rows]
    return SuiteReport(config={"command": "demo", "name": name}, reports=reports,
                       aggregate=agg, meta=meta)


# ---------------------------------------------------------------------------
# self-test: the oracle cross-checks
# ---------------------------------------------------------------------------

def selftest(seed: int = 2024, verbose: bool = True) -> int:
    """Cross-validate the independent numerical routes; returns failure count."""
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
        contour = auto_contour(m)
        try:
            via_contour = log_riesz_dunford(m, contour)
        except OpBohrError:
            center = complex(0.5 * (eigs.min() + eigs.max()))
            radius = 0.5 * (eigs.max() - eigs.min()) + min(0.45 * eigs.min(), 1.0)
            from .funcalc import ContourSpec
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
        extracted = coeffs_via_cauchy_integral(lambda z: herglotz_transfer(c, z), 8, 0.5, 128)
        err0 = operator_norm(extracted.coeffs[0] - 0.5 * adjoint(v) @ v)
        errs = [operator_norm(extracted.coeffs[n] - colligation_log_coeff(c, n))
                for n in range(1, 9)]
        record(f"realized log coefficients #{i}", max(err0, max(errs)) <= 1e-9,
               f"(err {max(err0, max(errs)):.2e})")

    poly = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    from .series import HoloSeries
    ps = HoloSeries(poly)
    extracted = coeffs_via_cauchy_integral(lambda z: evaluate(ps, z), 5, 0.5, 64)
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
    pv.add_argument("--dims", default="1,2", help="comma list of matrix dimensions")
    pv.add_argument("--order", type=int, default=None, help="series truncation override")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=1e-9, help="relative PSD slack")
    pv.add_argument("--r", default=None, help="comma list of radius overrides")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            config = RunConfig(
                command="verify",
                theorems=parse_theorem_list(args.theorems),
                trials=args.trials,
                dims=tuple(int(d) for d in args.dims.split(",") if d.strip()),
                order=args.order,
                seed=args.seed,
                psd_tol=args.tol,
                r_values=None if args.r is None else tuple(
                    float(x) for x in args.r.split(",") if x.strip()),
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
