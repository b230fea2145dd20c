"""The benchmark's workloads, built from a seed.

A workload is a fixed batch of instances. The benchmark runs the batch again
and again as a closed loop: one caller, and each instance starts when the
previous one has finished. An instance has two steps. ``execute`` calls the
package's public API and is the only timed step. ``verify`` checks the
results and digests them afterwards, outside the clock.

- ``harmonic-grid`` (acceptance criterion 3): ``schur_harmonic`` at order 64.
  Each instance runs t1i on the 10-point r-grid at 5 angles, t1ii at r = 1/5
  and t1iii at r = 1/3. Margin evaluation dominates; nothing is composed.
- ``subordination`` (acceptance criterion 6): ``convex_diag`` pairs at order
  128 (t3a, t3b), ``schur_holo`` pairs at order 64 (l2a, l2b at 3 radii) and
  ``starlike_diag`` pairs at order 256 (t4a, t4b). Each prepared check is
  evaluated at 1 to 3 radii, so preparation (composition and the boundary
  liminf) dominates.
- ``suite-all``: the user-facing path, ``opbohr verify`` run in-process with
  a JSON report, once for each theorem group (l1, t1, e55, t2, e17, t3, l2,
  t4) and dimension (1..4) with 1 trial: 32 calls and 324 checks per batch,
  the same checks as one call for all of them. Here an instance is one whole
  call. Many short calls rather than one long one keep each instance short,
  so that its fastest repeat is a steady figure: a call longer than the
  host's quiet spells (about a tenth of a second) rarely runs in one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from opbohr import bohr, cli, generators

MARGIN_FLOOR = -1e-9
DIMS = (1, 2, 3, 4)
T1I_RS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
MU_FIXED = (0.0, 1.0, math.pi / 3.0, math.pi / 7.0)
SUITE_GROUPS = ("l1", "t1", "e55", "t2", "e17", "t3", "l2", "t4")
SUITE_TRIALS = 1


def instance_seed(*path: int) -> int:
    """Seed of one instance, derived from the run seed and its position."""
    return int(np.random.SeedSequence([int(i) for i in path]).generate_state(1, np.uint64)[0])


@dataclass
class Outcome:
    """What ``verify`` found for one instance."""

    attempted: int
    failed: int
    digest: str
    errors: list[str] = field(default_factory=list)


def _report_digest(reports) -> str:
    rows = [[r.theorem_id, r.r, r.mu, r.passed, r.margin, sorted(r.side_values.items())]
            for r in reports]
    return hashlib.sha256(json.dumps(rows, default=float).encode()).hexdigest()


# --- instances checked through the library API --------------------------------

def _t1_checks(instance, aux, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    for mu in (*MU_FIXED, float(rng.uniform(0.0, 2.0 * math.pi))):
        yield "t1i", T1I_RS, {"mu": mu}
        yield "t1ii", (0.2,), {"mu": mu}
    yield "t1iii", (1.0 / 3.0,), {}


def _t3_checks(pair, aux, seed):
    yield "t3a", (bohr.thm3_radius(pair[0].coeffs[1]),), {"boundary_eval": aux["eval"]}
    yield "t3b", (1.0 / 3.0,), {}


def _l2_checks(pair, aux, seed):
    for theorem in ("l2a", "l2b"):
        yield theorem, (0.1, 0.2, 1.0 / 3.0), {}


def _t4_checks(pair, aux, seed):
    yield "t4a", (bohr.KOEBE_RADIUS,), {"boundary_eval": aux["eval"]}
    yield "t4b", (bohr.KOEBE_RADIUS,), {}


@dataclass(frozen=True)
class Family:
    family_id: str
    order: int
    with_witness: bool
    n_checks: int
    checks: Callable  # (instance, aux, seed) -> iterable of (theorem_id, radii, kwargs)


HARMONIC = Family("schur_harmonic", 64, False, 5 * (len(T1I_RS) + 1) + 1, _t1_checks)
CONVEX = Family("convex_diag", 128, True, 2, _t3_checks)
HOLO = Family("schur_holo", 64, True, 6, _l2_checks)
STARLIKE = Family("starlike_diag", 256, True, 2, _t4_checks)


@dataclass(frozen=True)
class ApiInstance:
    """Sample one instance, then run its checks."""

    family: Family
    dim: int
    seed: int

    def _sample(self):
        params = {"with_witness": True} if self.family.with_witness else {}
        spec = generators.FamilySpec(family_id=self.family.family_id, dim=self.dim, aux_dim=4,
                                     order=self.family.order, seed=self.seed, params=params)
        return generators.sample(spec, with_aux=True)

    def execute(self):
        # Any exception is a failed check: it is counted, and the loop goes on.
        try:
            instance, aux = self._sample()
        except Exception as exc:
            return [], [f"sample {self.family.family_id}: {exc!r}"]
        reports, errors = [], []
        for theorem, radii, kwargs in self.family.checks(instance, aux, self.seed):
            try:
                reports.extend(bohr.check_theorem_grid(theorem, instance, radii, **kwargs))
            except Exception as exc:
                errors.append(f"{theorem}: {exc!r}")
        return reports, errors

    def verify(self, raw) -> Outcome:
        reports, errors = raw
        planned = self.family.n_checks
        below = sum(1 for r in reports if not r.normalized_margin >= MARGIN_FLOOR)
        if below:
            errors = errors + [f"{below} check(s) below the margin floor {MARGIN_FLOOR}"]
        return Outcome(planned, planned - len(reports) + below, _report_digest(reports), errors)

    def first_check(self) -> None:
        instance, aux = self._sample()
        theorem, radii, kwargs = next(iter(self.family.checks(instance, aux, self.seed)))
        bohr.check_theorem_grid(theorem, instance, radii[:1], **kwargs)


# --- the user-facing suite -------------------------------------------------

@dataclass(frozen=True)
class SuiteCall:
    """One ``opbohr verify`` call, in-process, writing a JSON report."""

    seed: int
    theorems: str
    dim: int
    out: str

    def _argv(self, theorems: str, dims: str, trials: int) -> list[str]:
        return ["verify", "--theorems", theorems, "--dims", dims, "--trials", str(trials),
                "--seed", str(self.seed), "--out", self.out]

    def _main(self, argv: list[str]) -> int:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def execute(self):
        try:
            return self._main(self._argv(self.theorems, str(self.dim), SUITE_TRIALS)), None
        except Exception as exc:
            return None, repr(exc)

    def verify(self, raw) -> Outcome:
        code, error = raw
        errors = [] if error is None else [error]
        if code != 0:
            errors.append(f"verify exited with code {code}")
        try:
            with open(self.out) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return Outcome(1, 1, "", errors + [f"report unreadable: {exc!r}"])
        report["meta"].pop("timestamp", None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        entries = report["reports"]
        below = sum(1 for e in entries
                    if not e["margin"] / e["side_values"]["scale"] >= MARGIN_FLOOR)
        if below:
            errors.append(f"{below} check(s) below the margin floor {MARGIN_FLOOR}")
        failed = max(below, 1) if errors else 0
        return Outcome(max(len(entries), 1), failed, digest, errors)

    def first_check(self) -> None:
        if self._main(self._argv("l1", "1", 1)) != 0:
            raise RuntimeError("warm-up verify call failed")


# --- workloads --------------------------------------------------------------

def _harmonic_grid(seed: int, tmpdir: str):
    return [ApiInstance(HARMONIC, d, instance_seed(seed, 3, d, i))
            for d in DIMS for i in range(8)]


def _subordination(seed: int, tmpdir: str):
    mix = ((CONVEX, 2), (HOLO, 5), (STARLIKE, 2))
    return [ApiInstance(family, d, instance_seed(seed, 6, k, d, i))
            for d in DIMS for k, (family, count) in enumerate(mix) for i in range(count)]


def _suite_all(seed: int, tmpdir: str):
    out = os.path.join(tmpdir, "suite-report.json")
    return [SuiteCall(seed, group, d, out) for group in SUITE_GROUPS for d in DIMS]


# name -> (function making the batch, default seed, held-out seed for validating claims)
WORKLOADS = {
    "harmonic-grid": (_harmonic_grid, 1, 1001),
    "subordination": (_subordination, 1, 1001),
    "suite-all": (_suite_all, 1, 1001),
}


def build(name: str, seed: int, tmpdir: str) -> list:
    return WORKLOADS[name][0](seed, tmpdir)
