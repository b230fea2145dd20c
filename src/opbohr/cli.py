"""Command-line harness: randomized verification suites, radius scans,
sharp-constant demos, and oracle self-tests.

``verify`` draws its instances from one table, ``SUITE_RUNS``.  ``demo`` and
``scan`` read another, ``PLANTED``: each row names a planted instance, the
check it makes sharp and that check's sharp radius.  ``demo NAME`` runs the
check at that radius; ``scan --family NAME`` runs it on a radius grid and
narrows the radius where its pass flag turns, in rounds of one check call on
``SCAN_CELLS + 1`` radii each.  All three return a ``SuiteReport`` and write
it with ``write_suite_report``.

Exit codes: 0 when every check passes, 1 when at least one inequality is
violated, 2 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bohr import (
    KOEBE_RADIUS,
    TheoremReport,
    THEOREM_IDS,
    check_theorem_grid,
)
from .errors import ContractError, DomainError, InvalidInputError, OpBohrError
from .funcalc import (
    ColligationSpec,
    colligation_log_coeff,
    herglotz_transfer_grid,
    log_hermitian,
    log_riesz_dunford,
    matrix_exp,
)
from .generators import (
    CERT_SLACK,
    MAX_ORDER,
    UNIT_ROUNDOFF,
    FamilySpec,
    derive_seed,
    identity_witness,
    koebe_series,
    mobius_series,
    random_unitary,
    sample,
)
from .linalg import PSD_TOL, adjoint, operator_norm
from .serialize import dumps, report_to_json
from .series import (
    HarmonicSeries,
    HoloSeries,
    coeffs_via_cauchy_integral,
    compose_subordination,
    evaluate_grid,
)

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
    """The settings of ``opbohr verify``; each field is the ``dest`` of its flag."""

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
        if (not self.dims or any(d < 1 or d > 16 for d in self.dims)
                or len(set(self.dims)) < len(self.dims)):
            raise OpBohrError("dims must be a nonempty subset of 1..16")
        if self.r_values is not None and not self.r_values:
            raise OpBohrError("r values must be a nonempty list")
        if self.order is not None and self.order < 0:
            raise OpBohrError(f"order must be >= 0, got {self.order!r}")
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
        """The report's config block: the command and every setting but ``out``."""
        return {"command": "verify", **{f.name: getattr(self, f.name)
                                        for f in dataclasses.fields(self) if f.name != "out"}}


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

    family         family of the drawn instance, an id of ``FAMILY_IDS``
    order          default truncation order; ``--order`` replaces it.  A pair's
                   cut order at its largest stated radius stays below it, and
                   the envelope tail covers f past it
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
    "t3a": (SuiteRun("convex_diag", pair=True),),
    "t3b": (SuiteRun("convex_diag", pair=True),),
    "l2a": (SuiteRun("schur_holo", radii=(0.1, 0.2, 1.0 / 3.0), pair=True),),
    "l2b": (SuiteRun("schur_holo", radii=(0.1, 0.2, 1.0 / 3.0), pair=True),),
    "t4a": (SuiteRun("starlike_diag", pair=True),),
    "t4b": (SuiteRun("starlike_diag", pair=True),),
}


def _draw(family: str, dim: int, order: int, seed: int, pair: bool):
    """Instance, aux data and witness fields (all but the trial) of one draw."""
    spec = FamilySpec(family_id=family, dim=dim, aux_dim=4, order=order, seed=seed,
                      params={"with_witness": True} if pair else {})
    instance, aux = sample(spec, with_aux=True)
    return instance, aux, {"family_id": family, "dim": dim, "aux_dim": spec.aux_dim,
                           "order": order, "seed": seed}


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
        witness = {**fields, "trial": trial}
        rs = (None,) if run.radii is None else config.r_values or run.radii
        mus = (*MU_FIXED, _random_mu(inst_seed)) if run.over_mu else (None,)
        for mu, kwargs in itertools.product(mus, run.variants):
            reports.extend(check_theorem_grid(
                theorem, instance, rs, mu, normal=normal, boundary_eval=aux.get("eval"),
                psd_tol=config.psd_tol, force=config.force, witness=witness, **kwargs))
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
# planted instances: the sharp cases of the checks, for demo and scan
# ---------------------------------------------------------------------------

# the pass rule of demo and scan: margin >= -PLANTED_TOL * scale
PLANTED_TOL = 1e-12


class Planted(NamedTuple):
    """A planted instance, the check it makes sharp and that check's sharp radius.

    theorem  the id of the check
    build    params -> (instance, check kwargs); params hold ``dim`` and
             every key of ``params``
    params   the default parameters, which ``scan --param`` overrides
    radius   the sharp radius at the default parameters
    shows    the side value ``demo`` prints at that radius, and ``target``
    target   its sharp value
    dims     the dimensions ``demo`` runs; ``scan`` runs at the first
    """

    theorem: str
    build: Callable[[dict], tuple]
    params: dict
    radius: float
    shows: str
    target: float
    dims: tuple[int, ...]


def _mobius_harmonic(p: dict):
    """(a - z)/(1 - az) as a harmonic series with a zero coanalytic part: at
    d = 1 t1ii is the classical Bohr inequality, sharp at r = 1/(1 + 2a)."""
    f = mobius_series(p["a"], p["dim"], p["order"])
    return HarmonicSeries(f.coeffs, np.zeros_like(f.coeffs[1:])), {"mu": 0.0, "normal": True}


def _koebe_pair(p: dict):
    return (koebe_series(p["dim"], p["order"]), identity_witness(p["order"])), {}


def _mobius(p: dict):
    return mobius_series(p["a"], p["dim"], p["order"]), {}


def _exterior_diag(p: dict):
    """An ``exterior_diag`` draw with A_0 = e^c I in the identity frame."""
    return sample(FamilySpec("exterior_diag", dim=p["dim"], order=p["order"],
                             params={"c": p["c"], "frame": np.eye(p["dim"])})), {}


def _convex_pair(p: dict):
    """A ``convex_diag`` pair with unimodular multipliers in the identity frame:
    ||A_1|| ||A_1^-1|| = 1, so t3a's radius is 1/3."""
    pair, aux = sample(FamilySpec("convex_diag", dim=p["dim"], order=p["order"], params={
        "with_witness": True, "kappa": p["kappa"], "frame": np.eye(p["dim"])}), with_aux=True)
    return pair, {"boundary_eval": aux["eval"]}


PLANTED: dict[str, Planted] = {
    "mobius": Planted("t1ii", _mobius_harmonic, {"a": 0.5, "order": 512},
                      1.0 / (1.0 + 2.0 * 0.5), "lhs_norm", 1.0 - 0.5, (1,)),
    "koebe": Planted("t4b", _koebe_pair, {"order": 256}, KOEBE_RADIUS, "lhs_norm", 0.25, (1, 2)),
    "sharpness-e55": Planted("e55", _mobius, {"a": 1.0 / math.sqrt(2.0), "order": 64},
                             1.0 / math.sqrt(2.0), "lhs_norm", math.sqrt(2.0), (1, 2, 4)),
    "radius-t2": Planted("t2", _exterior_diag, {"c": math.log(2.0), "order": 64},
                         1.0 / 3.0, "radius", 1.0 / 3.0, (2,)),
    "radius-t3": Planted("t3a", _convex_pair, {"kappa": 1.0, "order": 64},
                         1.0 / 3.0, "radius", 1.0 / 3.0, (2,)),
}


def _planted_check(name: str, params: dict, dim: int) -> Callable[[list], list[TheoremReport]]:
    """The check of a planted row on its instance at (params, dim), as a
    function of the radii; each report's witness redraws the instance."""
    row = PLANTED[name]
    instance, kwargs = row.build({**params, "dim": dim})
    witness = {"planted": name, **params, "dim": dim}
    return lambda rs: check_theorem_grid(row.theorem, instance, rs, force=True,
                                         psd_tol=PLANTED_TOL, witness=witness, **kwargs)


def _scan_param(key: str, value) -> float | int:
    """A scan parameter, a number or its text, as the scan keeps it: an int
    order, at most ``generators.MAX_ORDER``, a float otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"scan parameter {key} must be a number, got {value!r}") from None
    if key != "order":
        return number
    if not (number.is_integer() and 0 <= number <= MAX_ORDER):
        raise InvalidInputError(f"scan parameter order must be an integer in [0, {MAX_ORDER}], "
                                f"got {value!r}")
    return int(number)


# the radius search splits each round's span into SCAN_CELLS equal cells and
# stops at a cell at most SCAN_TOL wide, well above float spacing on [0, 1)
SCAN_CELLS = 16
SCAN_TOL = 1e-8


def _search_radius(check: Callable[[list], list[TheoremReport]], theorem: str,
                   r_min: float, r_max: float) -> dict:
    """The radius where a check stops passing, read from its reports alone.

    The first round spans r_min to r_max.  A check that fails at r_min
    raises; one that passes at every radius of that round gives r_max,
    unbracketed.  The estimate is the lower end of the last cell, so it lies
    below every radius at which a round saw a fail, and each pass after a
    fail in its round is a warning.
    """
    lo, hi, warnings = r_min, r_max, []
    while True:
        rs = np.linspace(lo, hi, SCAN_CELLS + 1).tolist()
        passed = [rep.passed for rep in check(rs)]
        if not passed[0]:
            raise ContractError(f"a scan needs its check to pass at r_min; {theorem} fails at "
                                f"r_min = {r_min!r}")
        if all(passed):
            return {"estimated_radius": r_max, "bracketed": False, "warnings": warnings}
        first = passed.index(False)
        warnings += [f"non-monotone check near r = {r:.6g}"
                     for r, ok in zip(rs[first:], passed[first:]) if ok]
        lo, hi = rs[first - 1], rs[first]
        if hi - lo <= SCAN_TOL:
            return {"estimated_radius": lo, "bracketed": True, "warnings": warnings}


def scan_radius(family: str, params: dict | None = None, r_min: float = 0.0,
                r_max: float = 0.95, steps: int = 40) -> SuiteReport:
    """The check of a planted row on a radius grid, and the radius where it stops passing.

    ``params`` override the row's defaults, each a number or its text; the
    scan keeps an int order and a float otherwise.  The instance is built
    once, at the row's first dimension.  The reports are the check's at
    ``steps`` radii from r_min to r_max.  The aggregate adds the
    ``estimated_radius`` that ``_search_radius`` reads from the same check's
    pass flag, within ``SCAN_TOL``, whether it ``bracketed`` it, and its
    ``warnings``; both pass a radius whose margin is at least -``PLANTED_TOL``
    scale.
    """
    start = time.perf_counter()
    if steps < 0 or not r_min < r_max:
        raise InvalidInputError(f"a scan needs steps >= 0 and r_min < r_max; got steps = {steps}, "
                                f"r_min = {r_min!r}, r_max = {r_max!r}")
    if not (r_min >= 0.0 and r_max < 1.0):
        raise DomainError(f"a scan's radii must lie in [0, 1); got r_min = {r_min!r}, "
                          f"r_max = {r_max!r}")
    if family not in PLANTED:
        raise OpBohrError(f"unknown scan family: {family!r}")
    row = PLANTED[family]
    unknown = sorted(set(params or {}) - set(row.params))
    if unknown:
        raise InvalidInputError(f"unknown scan parameter(s) for {family}: {', '.join(unknown)}; "
                                f"expected {', '.join(sorted(row.params))}")
    merged = {key: _scan_param(key, value)
              for key, value in {**row.params, **(params or {})}.items()}
    check = _planted_check(family, merged, row.dims[0])
    estimate = _search_radius(check, row.theorem, r_min, r_max)
    reports = check(np.linspace(r_min, r_max, steps).tolist())
    config = {"command": "scan", "family": family, "params": merged,
              "r_min": r_min, "r_max": r_max, "steps": steps}
    return SuiteReport(config=config, reports=reports, aggregate={**_aggregate(reports), **estimate},
                       meta=_meta(start))


def demo(name: str) -> SuiteReport:
    """Run a planted row's check at its sharp radius in each of its dimensions,
    and print the side value it shows against its target."""
    if name not in PLANTED:
        raise OpBohrError(f"unknown demo: {name!r}; choose from {tuple(PLANTED)}")
    start = time.perf_counter()
    row = PLANTED[name]
    reports = [rep for d in row.dims for rep in _planted_check(name, row.params, d)([row.radius])]
    rows = [(f"{row.shows} of {row.theorem} at r = {row.radius:.9f}, d = {rep.witness['dim']}",
             row.target, rep.side_values[row.shows]) for rep in reports]

    _say(f"demo {name}")
    _say(f"{'quantity':<44} {'target':>16} {'computed':>16} {'abs diff':>12}")
    for label, target, value in rows:
        _say(f"{label:<44} {target:>16.12f} {value:>16.12f} {abs(value - target):>12.3e}")
    for rep in reports:
        _say(f"check {rep.theorem_id}: passed={rep.passed} margin={rep.margin:.3e}")

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
        inverse = matrix_exp(-herglotz_transfer_grid(aux["colligation"], zs))
        return 1.0 / float(operator_norm(inverse).max()) - aux["min_cert"]
    if family == "exterior_diag":
        sv = np.linalg.svd(aux["eval"](zs), compute_uv=False)
        return float((sv[:, -1] + 16 * dim * UNIT_ROUNDOFF * sv[:, 0]).min()) - aux["min_cert"]
    return aux["sup_cert"] - float(operator_norm(aux["eval"](zs)).max())


_ENVELOPE_FAMILIES = ("convex_diag", "starlike_diag", "schur_holo")

# below 2^-500 operator_norm squares a norm out of the normal range
_NORM_FLOOR = 2.0 ** -500


def _envelope_gap(family: str, seed: int) -> float:
    """Least 1 - ||A_n||/a_n of a family's envelope over an order-512 draw.

    n runs over the stored coefficients with a_n >= 2^-500; a sound envelope
    gives a gap >= 0.
    """
    f = sample(FamilySpec(family_id=family, dim=3, order=512, seed=seed))
    bound = f.envelope.values(f.order)
    seen = bound >= _NORM_FLOOR
    return float(np.min(1.0 - operator_norm(f.coeffs[1:])[seen] / bound[seen]))


def _witness_growth_gap(seed: int) -> float:
    """Least 1 - |[z^n] phi^k|/g^n over 1 <= k, n <= 512 for an order-512 witness.

    The powers of phi are formed by repeated convolution, apart from the
    power table that composition builds; a sound g gives a gap >= 0.
    """
    w = sample(FamilySpec(family_id="subordination", dim=1, order=512, seed=seed))
    phi = np.array(w.phi.coeffs)
    power, peak = phi, np.abs(phi)
    for _ in range(2, phi.size):
        power = np.convolve(power, phi)[:phi.size]
        peak = np.maximum(peak, np.abs(power))
    bound = w.coeff_growth ** np.arange(phi.size)
    return float(np.min(1.0 - peak[1:] / bound[1:]))


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
            _say(f"[{'PASS' if ok else 'FAIL'}] {label}{' ' + detail if detail else ''}")

    rng = np.random.default_rng(seed)
    for i in range(5):
        d = int(rng.integers(2, 5))
        w = random_unitary(d, derive_seed(seed, 10, i))
        eigs = rng.uniform(1.0, 10.0, size=d)
        m = w @ np.diag(eigs).astype(complex) @ adjoint(w)
        # a circle around [min, max] of the spectrum that keeps 0.55 min from 0
        center = complex(0.5 * (eigs.min() + eigs.max()))
        radius = 0.5 * (eigs.max() - eigs.min()) + min(0.45 * eigs.min(), 1.0)
        via_contour = log_riesz_dunford(m, center, radius)
        via_eig = log_hermitian(m)
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

    for family in _ENVELOPE_FAMILIES:
        gap = _envelope_gap(family, derive_seed(seed, 60))
        record(f"{family} envelope vs stored norms at order 512", gap >= 0.0, f"(gap {gap:.2e})")
    gap = _witness_growth_gap(derive_seed(seed, 60))
    record("subordination coefficient growth vs powers of phi at order 512", gap >= 0.0,
           f"(gap {gap:.2e})")

    if verbose:
        _say(f"selftest: {failures} failure(s)")
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

    # each dest is the name of its RunConfig field
    pv = sub.add_parser("verify", help="run randomized theorem suites")
    pv.add_argument("--theorems", default="t1i,t1ii,t1iii",
                    help="comma list of ids (groups t1, l2, t3, t4 expand)")
    pv.add_argument("--trials", type=int, default=10)
    pv.add_argument("--dims", type=_comma_list(int, "integers"), default="1,2",
                    help="comma list of matrix dimensions")
    pv.add_argument("--order", type=int, default=None, help="series truncation override")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", dest="psd_tol", metavar="TOL", type=float, default=PSD_TOL,
                    help="relative PSD slack")
    pv.add_argument("--r", dest="r_values", metavar="R", type=_comma_list(float, "numbers"),
                    help="comma list of radii; replaces every theorem's default grid")
    pv.add_argument("--normal-variant", action="store_true",
                    help="use commuting samples and the sharper normal bounds for t1i/t1ii")
    pv.add_argument("--force", action="store_true",
                    help="allow radii beyond the stated radius (diagnostics)")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    ps = sub.add_parser("scan", help="margin grid and estimated radius of a planted check")
    ps.add_argument("--family", required=True, choices=tuple(PLANTED))
    ps.add_argument("--param", action="append", default=[],
                    help="key=value parameter of the planted row (repeatable)")
    ps.add_argument("--r-min", type=float, default=0.0)
    ps.add_argument("--r-max", type=float, default=0.95)
    ps.add_argument("--steps", type=int, default=40)
    ps.add_argument("--out", default=None)

    pd = sub.add_parser("demo", help="planted extremal instances vs their sharp constants")
    pd.add_argument("name", choices=tuple(PLANTED))
    pd.add_argument("--out", default=None)

    pt = sub.add_parser("selftest", help="cross-check the independent numerical routes")
    pt.add_argument("--seed", type=int, default=2024)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves every
# main() of a process.
_parser = functools.cache(build_parser)


def _say(line: str) -> None:
    """Print one line to standard output, flushed.

    A reader that has closed the output ends the printing, not the command:
    the line is dropped, and the stream's file descriptor, where it has one,
    is pointed at the null device, so that what is left to print and the
    flush at exit go nowhere.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except OSError:
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _parse_params(items: list[str]) -> dict[str, str]:
    """``--param`` items as text values, which ``scan_radius`` converts."""
    for item in items:
        if "=" not in item:
            raise OpBohrError(f"--param expects key=value, got {item!r}")
    return dict(item.split("=", 1) for item in items)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
            config = RunConfig(**{**settings, "theorems": parse_theorem_list(args.theorems)})
            report = run_suite(config)
            agg = report.aggregate
            _say(f"checks: {agg['report_count']}  passed: {agg['pass_count']}  "
                 f"failed: {agg['fail_count']}")
            if agg.get("min_normalized_margin") is not None:
                _say(f"min normalized margin: {agg['min_normalized_margin']:.6e} "
                     f"({agg['argmin_theorem_id']}, seed {agg['argmin_witness_seed']})")
            out = _resolve_out(config.out)
            if out:
                write_suite_report(report, out, config.format)
                _say(f"report written to {out}")
            return 0 if agg["fail_count"] == 0 else 1

        if args.command == "scan":
            scan = scan_radius(args.family, _parse_params(args.param),
                               r_min=args.r_min, r_max=args.r_max, steps=args.steps)
            agg = scan.aggregate
            flag = "" if agg["bracketed"] else " (unbracketed)"
            _say(f"family {args.family}: estimated radius {agg['estimated_radius']:.9f}{flag}")
            for warning in agg["warnings"]:
                _say(f"warning: {warning}")
            out = _resolve_out(args.out)
            if out:
                write_suite_report(scan, out, "json")
                _say(f"scan written to {out}")
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
