"""Majorant sums, disk metrics, sharp-radius formulas, and inequality checkers.

Every checker reports a margin (RHS minus LHS: the smallest eigenvalue of the
difference for Loewner comparisons, the plain difference for scalar ones) plus
a scale, and passes when ``margin >= -psd_tol * scale``.  Margins are reduced
by an analytic bound on the truncation tail of the majorant involved, so a
reported pass is robust to the series being finite.

``check_theorem_grid`` is the check entry point: it prepares the instance once,
validates every radius of the grid, and evaluates the margins of the whole grid
in one pass.  ``check_theorem`` is its single-radius wrapper.  The grid sums
perform, for each radius, the same floating-point operations as a sum at that
radius alone, so a report does not depend on the grid it was evaluated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, InvalidInputError
from .funcalc import ColligationSpec, herglotz_transfer_grid, log_eig_normal, matrix_exp
from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    abs_value,
    adjoint,
    as_matrix,
    hermitize,
    operator_norm,
    smallest_eigenvalue,
)
from .series import (
    HarmonicSeries,
    HoloSeries,
    SubordinationWitness,
    coeffs_from_circle_samples,
    compose_subordination,
    evaluate_grid,
)

THEOREM_IDS = (
    "l1", "t1i", "t1ii", "t1iii", "e55", "t2", "e17",
    "t3a", "t3b", "l2a", "l2b", "t4a", "t4b",
)

KOEBE_RADIUS = 3.0 - 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# majorant sums (fixed ascending order with Kahan compensation)
# ---------------------------------------------------------------------------

def _weight_table(rs: np.ndarray, start_power: int, count: int) -> np.ndarray:
    """Weights r^start_power * r^n, one row per n < count and one column per r.

    Each column is a running product, so it holds bit for bit the weights of a
    loop that starts from ``r ** start_power`` and multiplies by r per term.
    """
    table = np.empty((count, rs.size))
    table[:1] = [r ** start_power for r in rs.tolist()]
    table[1:] = rs
    return np.cumprod(table, axis=0)


def _kahan_matrix_sum(stack: np.ndarray, rs: np.ndarray, start_power: int) -> np.ndarray:
    """Sum of stack[n] r^(start_power + n) over n, for every r of the grid rs.

    The terms are added in ascending n with Kahan compensation, all radii at
    once; each grid point goes through the same floating-point operations as a
    sum at that radius alone.  Returns shape ``(len(rs),) + stack.shape[1:]``.
    """
    weights = _weight_table(rs, start_power, stack.shape[0])
    terms = stack[:, None] * weights.reshape(weights.shape + (1,) * (stack.ndim - 1))
    total = np.zeros(terms.shape[1:], dtype=np.complex128)
    comp = np.zeros_like(total)
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _kahan_scalar_sum(values: np.ndarray, rs: np.ndarray, start_power: int) -> np.ndarray:
    """Sum of values[n] r^(start_power + n) over n, for every r of the grid rs.

    The terms of the whole grid are formed at once; the compensated recurrence
    runs on Python floats, which cost less per step than numpy calls on the
    short grids the checks use.
    """
    values = np.asarray(values, dtype=np.float64)
    terms = values[:, None] * _weight_table(rs, start_power, values.shape[0])
    sums = []
    for column in terms.T.tolist():
        total = 0.0
        comp = 0.0
        for term in column:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        sums.append(total)
    return np.array(sums)


def _coeff_stack(coeffs, name: str = "coeffs") -> np.ndarray:
    if isinstance(coeffs, HoloSeries):
        return coeffs.coeffs
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInputError(f"{name} must be a (N+1, d, d) stack of matrices")
    return a


def _check_r(r: float) -> float:
    r = float(r)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r}")
    return r


def operator_majorant(coeffs, r: float, k0: int = 0) -> np.ndarray:
    """Sum over n >= k0 of |A_n| r^n: a Hermitian PSD matrix majorant."""
    r = _check_r(r)
    stack = _coeff_stack(coeffs)
    if k0 < 0 or k0 > stack.shape[0]:
        raise InvalidInputError(f"k0 out of range: {k0}")
    return _kahan_matrix_sum(abs_value(stack[k0:]), np.array([r]), k0)[0]


def norm_majorant(coeffs, r: float, k0: int = 0) -> float:
    """Sum over n >= k0 of ||A_n|| r^n (scalar majorant)."""
    r = _check_r(r)
    stack = _coeff_stack(coeffs)
    if k0 < 0 or k0 > stack.shape[0]:
        raise InvalidInputError(f"k0 out of range: {k0}")
    return float(_kahan_scalar_sum(operator_norm(stack[k0:]), np.array([r]), k0)[0])


# ---------------------------------------------------------------------------
# rotated coefficients and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotatedSeries:
    """Rotated coefficient family P_n = e^(i mu) A_n + e^(-i mu) B_n, n >= 1."""

    mu: float
    coeffs: np.ndarray


def rotated_coeffs(h: HarmonicSeries, mu: float) -> RotatedSeries:
    phase = complex(np.exp(1j * mu))
    p = phase * h.analytic[1:] + np.conj(phase) * h.coanalytic
    return RotatedSeries(mu=float(mu), coeffs=p)


def _isinf(z) -> bool:
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


def spherical_distance(z1, z2) -> float:
    """Chordal distance on the extended plane; lies in [0, 1]."""
    inf1, inf2 = _isinf(z1), _isinf(z2)
    if inf1 and inf2:
        return 0.0
    if inf1 or inf2:
        finite = complex(z2 if inf1 else z1)
        return 1.0 / math.sqrt(1.0 + abs(finite) ** 2)
    z1, z2 = complex(z1), complex(z2)
    return abs(z1 - z2) / (math.sqrt(1.0 + abs(z1) ** 2) * math.sqrt(1.0 + abs(z2) ** 2))


def psi_peak(r: float) -> tuple[float, float]:
    """Maximizer and maximum of psi(x) = x + (2r/sqrt(1-r^2)) sqrt(1-x^2) on [0, 1]."""
    r = _check_r(r)
    x0 = math.sqrt(1.0 - r * r) / math.sqrt(1.0 + 3.0 * r * r)
    peak = math.sqrt(1.0 + 3.0 * r * r) / math.sqrt(1.0 - r * r)
    return x0, peak


@dataclass(frozen=True)
class LiminfEstimate:
    """Boundary-approach estimate of liminf ||f(z) - base|| as |z| -> 1.

    ``ring_minima[j]`` is the minimum over the sampled angles at radius
    1 - 2^-(j+1); ``value`` is the minimum over the rings closest to the
    boundary (the liminf proxy).  Finite sampling can only overestimate each
    ring's true infimum.
    """

    value: float
    ring_radii: np.ndarray
    ring_minima: np.ndarray

    def __float__(self) -> float:
        return self.value


def boundary_distance_liminf(f, base, grid: tuple[int, int] = (20, 360),
                             tail_rings: int = 5) -> LiminfEstimate:
    """Estimate liminf of ||f(z) - base|| over rings r_j = 1 - 2^-j.

    ``f`` is a HoloSeries or a callable mapping an array of points to a
    (len, d, d) array of values.  Prefer a callable backed by the exact
    instance whenever the coefficients do not decay: a truncated polynomial
    is a different function near |z| = 1 (its partial sums can vanish there)
    and its ring minima say nothing about the generating function.

    All ring minima are reported so monotone trends are visible; the value is
    taken over the last ``tail_rings`` rings, the ones nearest the boundary.
    """
    j_count, m_count = grid
    if j_count < 1 or m_count < 4:
        raise InvalidInputError("grid must request at least one ring and four angles")
    eval_fn = f if callable(f) else (lambda zs: evaluate_grid(f, zs))
    probe = np.asarray(eval_fn(np.zeros(1, dtype=np.complex128)))
    dim = probe.shape[-1]
    base = as_matrix(base, "base") if np.ndim(base) >= 2 else complex(base) * np.eye(dim)
    radii = 1.0 - 2.0 ** -np.arange(1, j_count + 1, dtype=np.float64)
    theta = 2.0 * math.pi * np.arange(m_count) / m_count
    ring_min = np.empty(j_count)
    for j, rr in enumerate(radii):
        values = np.asarray(eval_fn(rr * np.exp(1j * theta))) - base[None, :, :]
        ring_min[j] = float(operator_norm(values).min())
    value = float(ring_min[-min(tail_rings, j_count):].min())
    return LiminfEstimate(value=value, ring_radii=radii, ring_minima=ring_min)


# ---------------------------------------------------------------------------
# sharp-radius formulas
# ---------------------------------------------------------------------------

def thm2_radius(a0, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """(2L - 1)/(2L + 1) with L = log||A0|| / ||log A0||.

    Requires A0 Hermitian positive definite with spectrum in [1, inf) and
    ||A0|| > 1.  Under these preconditions L always evaluates to 1 in finite
    dimension, so the value is 1/3; the general expression is kept verbatim.
    """
    m = as_matrix(a0, "A0")
    norm = operator_norm(m)
    if operator_norm(m - adjoint(m)) > tol.eq_tol * max(1.0, norm):
        raise ContractError("A0 must be Hermitian")
    lam_min = smallest_eigenvalue(m)
    if lam_min < 1.0 - tol.eq_tol * max(1.0, norm):
        raise ContractError(f"A0 must have spectrum in [1, inf); smallest eigenvalue {lam_min:.6g}")
    if norm <= 1.0 + tol.eq_tol:
        raise ContractError("radius is degenerate for ||A0|| <= 1 (A0 = identity)")
    log_a0 = log_eig_normal(hermitize(m), tol=tol)
    ell = math.log(norm) / operator_norm(log_a0)
    return (2.0 * ell - 1.0) / (2.0 * ell + 1.0)


def thm3_radius(a1) -> float:
    """1 / (1 + 2 ||A1|| ||A1^-1||) for invertible A1; lies in (0, 1/3]."""
    m = as_matrix(a1, "A1")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-14 * max(1.0, sv[0]):
        raise ContractError("A1 is numerically singular")
    cond = float(sv[0] / sv[-1])
    return 1.0 / (1.0 + 2.0 * cond)


# ---------------------------------------------------------------------------
# bisection radius search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BisectionResult:
    radius: float
    bracketed: bool
    warnings: tuple[str, ...] = ()


def bohr_radius_bisect(predicate: Callable[[float], bool], r_lo: float, r_hi: float,
                       tol: float = 1e-7) -> BisectionResult:
    """Largest r (within tol) at which a monotone predicate still holds.

    The predicate must hold at r_lo.  If it also holds at r_hi the bracket is
    open and r_hi is returned flagged unbracketed.  Monotonicity is the
    caller's responsibility; it is spot-checked on 8 interior points and
    violations are reported as warnings.
    """
    if not (r_lo < r_hi):
        raise InvalidInputError("need r_lo < r_hi")
    if not predicate(r_lo):
        raise ContractError("predicate must hold at r_lo")
    probes = [(x, bool(predicate(x))) for x in np.linspace(r_lo, r_hi, 10)[1:-1]]
    if predicate(r_hi):
        radius, bracketed = float(r_hi), False
    else:
        lo, hi = float(r_lo), float(r_hi)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if predicate(mid):
                lo = mid
            else:
                hi = mid
        radius, bracketed = lo, True
    warnings = tuple(
        f"non-monotone predicate near r = {x:.6g}"
        for x, ok in probes
        if (x <= radius - tol and not ok) or (x >= radius + tol and ok)
    )
    return BisectionResult(radius=radius, bracketed=bracketed, warnings=warnings)


@dataclass(frozen=True)
class RadiusScan:
    """Grid of (r, margin, passed) rows plus a bisection-refined radius and the
    bisection's monotonicity warnings."""

    family_id: str
    params: dict
    grid: tuple[tuple[float, float, bool], ...]
    estimated_radius: float
    bracketed: bool
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# theorem reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    r: float | None
    mu: float | None
    passed: bool
    margin: float
    side_values: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        return float(self.side_values.get("scale", 1.0))

    @property
    def normalized_margin(self) -> float:
        return self.margin / self.scale


@dataclass
class _Prepared:
    """A check prepared for one instance.

    ``margins(rs)`` evaluates the check at every radius of the validated grid
    ``rs`` (a float array) and returns one ``(margin, scale, sides)`` per radius.
    """

    margins: Callable[[np.ndarray], list[tuple[float, float, dict]]]
    stated_radius: float | None = None
    static_sides: dict = field(default_factory=dict)


def _geom_tail(coeff_bound: float, order: int, r: float) -> float:
    """Bound on coeff_bound * sum of r^n over n > order."""
    return coeff_bound * r ** (order + 1) / (1.0 - r)


def _l2_mass_tail(residual_top: float, order: int, r: float) -> float:
    """Cauchy-Schwarz tail: r^(N+1)/sqrt(1-r^2) * sqrt(remaining square mass)."""
    return r ** (order + 1) / math.sqrt(1.0 - r * r) * math.sqrt(max(residual_top, 0.0))


def _largest_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(h))[-1])


def _as_harmonic(instance) -> HarmonicSeries:
    if not isinstance(instance, HarmonicSeries):
        raise ContractError("this check needs a HarmonicSeries instance")
    return instance


def _as_pair(instance) -> tuple[HoloSeries, SubordinationWitness]:
    if (not isinstance(instance, tuple) or len(instance) != 2
            or not isinstance(instance[0], HoloSeries)
            or not isinstance(instance[1], SubordinationWitness)):
        raise ContractError("this check needs a (HoloSeries, SubordinationWitness) pair")
    return instance


def _require_mu(mu) -> float:
    if mu is None:
        raise ContractError("this check quantifies over mu; pass a rotation angle")
    return float(mu)


# --- per-theorem preparers --------------------------------------------------

def _prep_l1(instance, *, k: int = 0, tol=DEFAULT_TOL, **_) -> _Prepared:
    stack = _coeff_stack(instance, "H")
    if k < 0 or k > stack.shape[0]:
        raise ContractError(f"k out of range: {k}")
    tail_part = stack[k:]
    abs_h = abs_value(tail_part)
    sq = hermitize(np.sum(adjoint(tail_part) @ tail_part, axis=0))

    def margins(rs: np.ndarray):
        s = _kahan_matrix_sum(abs_h, rs, k)
        lhs = hermitize(s @ s)
        coeff = np.array([r ** (2 * k) / (1.0 - r * r) for r in rs.tolist()])
        rhs = coeff[:, None, None] * sq
        lows = smallest_eigenvalue(rhs - lhs).tolist()
        lhs_norms = operator_norm(lhs).tolist()
        rhs_norms = operator_norm(rhs).tolist()
        return [(low, max(1.0, rhs_norm), {"lhs_norm": lhs_norm, "rhs_norm": rhs_norm})
                for low, lhs_norm, rhs_norm in zip(lows, lhs_norms, rhs_norms)]

    return _Prepared(margins=margins, static_sides={"k": float(k)})


def _rotated_parts(h: HarmonicSeries, mu: float, normal: bool, tol: ToleranceProfile):
    """Re(e^(i mu) A0), T = |Re(e^(i mu) A0)|, |P_n|, ||P_n|| and the residual
    mass_coeff (I - T^2) - sum P_n* P_n left for the dropped tail."""
    phase = complex(np.exp(1j * mu))
    re_a0 = hermitize(phase * h.analytic[0])
    t_mat = abs_value(re_a0)
    p = rotated_coeffs(h, mu).coeffs
    if normal:
        defect = operator_norm(p @ adjoint(p) - adjoint(p) @ p)
        scale = np.maximum(1.0, operator_norm(p) ** 2)
        if np.any(defect > 1e-8 * scale):
            raise ContractError("normal variant requested but some P_n is not normal")
    gram = hermitize(adjoint(p) @ p)
    w, v = np.linalg.eigh(gram)
    w = np.clip(w, 0.0, None)
    abs_p = hermitize((v * np.sqrt(w)[..., None, :]) @ adjoint(v))
    norms_p = np.sqrt(w[:, -1])
    mass_coeff = 2.0 if normal else 4.0
    residual = mass_coeff * (np.eye(h.dim) - t_mat @ t_mat) - np.sum(gram, axis=0)
    return re_a0, t_mat, abs_p, norms_p, residual


def _prep_t1i(instance, *, mu=None, normal: bool = False, tol=DEFAULT_TOL, **_) -> _Prepared:
    h = _as_harmonic(instance)
    mu = _require_mu(mu)
    _, t_mat, abs_p, _, residual = _rotated_parts(h, mu, normal, tol)
    d = h.dim
    residual_top = max(0.0, _largest_eigenvalue(residual))
    order = h.order

    def margins(rs: np.ndarray):
        s = t_mat + _kahan_matrix_sum(abs_p, rs, 1)
        radii = rs.tolist()
        if normal:
            x0s = [math.sqrt(1.0 - r * r) / math.sqrt(1.0 + r * r) for r in radii]
            peaks = [math.sqrt(1.0 + r * r) / math.sqrt(1.0 - r * r) for r in radii]
        else:
            x0s, peaks = zip(*(psi_peak(r) for r in radii))
        tails = [_l2_mass_tail(residual_top, order, r) for r in radii]
        lows = smallest_eigenvalue(np.array(peaks)[:, None, None] * np.eye(d) - s).tolist()
        lhs_norms = operator_norm(s).tolist()
        return [(low - tail, max(1.0, peak),
                 {"x0": x0, "psi_peak": peak, "lhs_norm": lhs_norm, "tail": tail})
                for low, tail, peak, x0, lhs_norm in zip(lows, tails, peaks, x0s, lhs_norms)]

    return _Prepared(margins=margins, static_sides={"normal": float(normal)})


def _prep_t1ii(instance, *, mu=None, normal: bool = False, force: bool = False,
               tol=DEFAULT_TOL, **_) -> _Prepared:
    h = _as_harmonic(instance)
    mu = _require_mu(mu)
    re_a0, _, _, norms_p, residual = _rotated_parts(h, mu, normal, tol)
    d = h.dim
    rhs = operator_norm(np.eye(d) - re_a0)
    # sum of ||P_n||^2 over the dropped tail is at most the trace of the residual
    residual_trace = max(0.0, float(np.trace(hermitize(residual)).real))
    order = h.order

    def margins(rs: np.ndarray):
        result = []
        for r, lhs in zip(rs.tolist(), _kahan_scalar_sum(norms_p, rs, 1).tolist()):
            tail = _l2_mass_tail(residual_trace, order, r)
            result.append((rhs - lhs - tail, max(1.0, rhs),
                           {"lhs_norm": lhs, "rhs_norm": rhs, "tail": tail}))
        return result

    return _Prepared(margins=margins,
                     stated_radius=(1.0 / 3.0 if normal else 0.2),
                     static_sides={"normal": float(normal)})


def _prep_t1iii(instance, *, tol=DEFAULT_TOL, **_) -> _Prepared:
    h = _as_harmonic(instance)
    d = h.dim
    abs_pair = np.stack([abs_value(h.analytic[1:]), abs_value(adjoint(h.coanalytic))], axis=1)
    a0 = h.analytic[0]
    used = adjoint(a0) @ a0
    used = used + np.sum(adjoint(h.analytic[1:]) @ h.analytic[1:], axis=0)
    used = used + np.sum(h.coanalytic @ adjoint(h.coanalytic), axis=0)
    residual_top = max(0.0, _largest_eigenvalue(np.eye(d) - used))
    order = h.order

    def margins(rs: np.ndarray):
        pair = _kahan_matrix_sum(abs_pair, rs, 1)
        s = pair[:, 0] + pair[:, 1]
        tails = [_l2_mass_tail(2.0 * residual_top, order, r) for r in rs.tolist()]
        lows = smallest_eigenvalue(0.5 * np.eye(d) - s).tolist()
        lhs_norms = operator_norm(s).tolist()
        return [(low - tail, 1.0, {"lhs_norm": lhs_norm, "tail": tail})
                for low, tail, lhs_norm in zip(lows, tails, lhs_norms)]

    return _Prepared(margins=margins, stated_radius=1.0 / 3.0)


def _prep_e55(instance, *, tol=DEFAULT_TOL, **_) -> _Prepared:
    if not isinstance(instance, HoloSeries):
        raise ContractError("e55 needs a HoloSeries instance")
    f = instance
    d = f.dim
    abs_a = abs_value(f.coeffs)
    used = np.sum(adjoint(f.coeffs) @ f.coeffs, axis=0)
    residual_top = max(0.0, _largest_eigenvalue(np.eye(d) - used))
    order = f.order

    def margins(rs: np.ndarray):
        s = _kahan_matrix_sum(abs_a, rs, 0)
        radii = rs.tolist()
        rhs_vals = [1.0 / math.sqrt(1.0 - r * r) for r in radii]
        tails = [_l2_mass_tail(residual_top, order, r) for r in radii]
        lows = smallest_eigenvalue(np.array(rhs_vals)[:, None, None] * np.eye(d) - s).tolist()
        lhs_norms = operator_norm(s).tolist()
        return [(low - tail, max(1.0, rhs_val),
                 {"lhs_norm": lhs_norm, "rhs_norm": rhs_val, "tail": tail})
                for low, tail, rhs_val, lhs_norm in zip(lows, tails, rhs_vals, lhs_norms)]

    return _Prepared(margins=margins)


def _colligation_series_norms(c: ColligationSpec, order: int, rho: float = 0.5):
    nodes = max(4 * order + 4, 256)
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    logs = herglotz_transfer_grid(c, rho * np.exp(1j * theta))
    samples = np.stack([matrix_exp(logs[i]) for i in range(nodes)])
    coeffs = coeffs_from_circle_samples(samples, rho, order)
    return operator_norm(coeffs)


def _prep_t2(instance, *, order: int = 64, tol=DEFAULT_TOL, **_) -> _Prepared:
    if isinstance(instance, ColligationSpec):
        v_sq = operator_norm(instance.V) ** 2
        a0 = matrix_exp(0.5 * hermitize(adjoint(instance.V) @ instance.V))
        norms_a = _colligation_series_norms(instance, order)
    elif isinstance(instance, HoloSeries):
        a0 = instance.coeffs[0]
        norms_a = operator_norm(instance.coeffs)
        v_sq = 2.0 * operator_norm(log_eig_normal(hermitize(a0), tol=tol))
        order = instance.order
    else:
        raise ContractError("t2 needs a ColligationSpec or exterior HoloSeries instance")
    radius = thm2_radius(a0, tol=tol)
    norm_a0 = operator_norm(as_matrix(a0))
    ell = math.log(norm_a0) / operator_norm(log_eig_normal(hermitize(as_matrix(a0)), tol=tol))

    def margin(r: float, alpha: float):
        rho_t = 0.5 * (1.0 + r)
        growth = math.exp(0.5 * v_sq * (1.0 + rho_t) / (1.0 - rho_t))
        tail = growth * (r / rho_t) ** (order + 1) / (1.0 - r / rho_t)
        alpha_hi = alpha + tail
        lam_lhs = spherical_distance(alpha_hi, norm_a0)
        lam_rhs = spherical_distance(norm_a0, 1.0)
        lam_margin = lam_rhs - lam_lhs
        # growth bound exp((||V||^2/2)(1+r)/(1-r)) and its value ||A0||^2 at
        # the sharp radius both dominate the norm majorant
        growth_bound = math.exp(0.5 * v_sq * (1.0 + r) / (1.0 - r))
        a0_sq_bound = norm_a0 ** 2
        growth_margin = (growth_bound - alpha_hi) / max(1.0, growth_bound)
        a0_sq_margin = (a0_sq_bound - alpha_hi) / max(1.0, a0_sq_bound)
        sides = {
            "lambda_lhs": lam_lhs, "lambda_rhs": lam_rhs, "lambda_margin": lam_margin,
            "growth_bound": growth_bound, "growth_margin": growth_margin,
            "a0_sq_bound": a0_sq_bound, "a0_sq_margin": a0_sq_margin,
            "majorant": alpha, "tail": tail, "L": ell, "norm_a0": norm_a0,
        }
        return min(lam_margin, growth_margin, a0_sq_margin), 1.0, sides

    def margins(rs: np.ndarray):
        return [margin(r, alpha)
                for r, alpha in zip(rs.tolist(), _kahan_scalar_sum(norms_a, rs, 0).tolist())]

    return _Prepared(margins=margins, stated_radius=radius,
                     static_sides={"L": ell, "radius": radius})


def _prep_e17(instance, **_) -> _Prepared:
    try:
        alpha, beta, gamma = (float(x) for x in instance)
    except (TypeError, ValueError) as exc:
        raise ContractError("e17 needs a triple (alpha, beta, gamma)") from exc
    if not (0.0 <= gamma <= alpha <= beta):
        raise ContractError("e17 needs 0 <= gamma <= alpha <= beta")
    margin = spherical_distance(beta, gamma) - spherical_distance(alpha, gamma)

    def margins(rs: np.ndarray):
        return [(margin, 1.0, {"alpha": alpha, "beta": beta, "gamma": gamma}) for _ in rs]

    return _Prepared(margins=margins)


def _subordinated(instance):
    f, w = _as_pair(instance)
    g = compose_subordination(f, w, f.order)
    return f, w, g


def _liminf_margins(norms_b: np.ndarray, liminf: float, sum_norm_a: float, order: int):
    """Margins of the norm sum of the B_n against a boundary liminf (t3a, t4a)."""

    def margins(rs: np.ndarray):
        result = []
        for r, lhs in zip(rs.tolist(), _kahan_scalar_sum(norms_b, rs, 1).tolist()):
            tail = _geom_tail(sum_norm_a, order, r)
            result.append((liminf - lhs - tail, max(1.0, liminf),
                           {"lhs_norm": lhs, "liminf": liminf, "tail": tail}))
        return result

    return margins


def _prep_t3a(instance, *, liminf_grid=(20, 360), boundary_eval=None,
              tol=DEFAULT_TOL, **_) -> _Prepared:
    f, _, g = _subordinated(instance)
    if f.order < 1:
        raise ContractError("t3a needs a series of order >= 1")
    radius = thm3_radius(f.coeffs[1])
    norms_b = operator_norm(g.coeffs[1:])
    liminf = boundary_distance_liminf(boundary_eval if boundary_eval is not None else f,
                                      f.coeffs[0], grid=liminf_grid)
    sum_norm_a = float(np.sum(operator_norm(f.coeffs[1:])))
    return _Prepared(margins=_liminf_margins(norms_b, liminf.value, sum_norm_a, g.order),
                     stated_radius=radius, static_sides={"radius": radius})


def _prep_t3b(instance, *, tol=DEFAULT_TOL, **_) -> _Prepared:
    f, _, g = _subordinated(instance)
    if f.order < 1:
        raise ContractError("t3b needs a series of order >= 1")
    abs_b = abs_value(g.coeffs[1:])
    rhs = 0.5 * abs_value(f.coeffs[1])
    rhs_norm = operator_norm(rhs)
    sum_norm_a = float(np.sum(operator_norm(f.coeffs[1:])))
    order = g.order

    def margins(rs: np.ndarray):
        s = _kahan_matrix_sum(abs_b, rs, 1)
        tails = [_geom_tail(sum_norm_a, order, r) for r in rs.tolist()]
        lows = smallest_eigenvalue(rhs - s).tolist()
        lhs_norms = operator_norm(s).tolist()
        return [(low - tail, max(1.0, rhs_norm),
                 {"lhs_norm": lhs_norm, "rhs_norm": rhs_norm, "tail": tail})
                for low, tail, lhs_norm in zip(lows, tails, lhs_norms)]

    return _Prepared(margins=margins, stated_radius=1.0 / 3.0)


def _prep_l2(instance, *, loewner: bool, tol=DEFAULT_TOL, **_) -> _Prepared:
    f, _, g = _subordinated(instance)
    norms_a = operator_norm(f.coeffs[1:]) if f.order >= 1 else np.zeros(0)
    sum_norm_a = float(np.sum(norms_a))
    order = g.order
    d = f.dim
    if loewner:
        abs_b = abs_value(g.coeffs[1:])
    else:
        norms_b = operator_norm(g.coeffs[1:])

    def margins(rs: np.ndarray):
        rhs_vals = _kahan_scalar_sum(norms_a, rs, 1).tolist()
        tails = [_geom_tail(sum_norm_a, order, r) for r in rs.tolist()]
        if loewner:
            s = _kahan_matrix_sum(abs_b, rs, 1)
            lows = smallest_eigenvalue(np.array(rhs_vals)[:, None, None] * np.eye(d) - s)
            values = [low - tail for low, tail in zip(lows.tolist(), tails)]
            lhs_norms = operator_norm(s).tolist()
        else:
            lhs_norms = _kahan_scalar_sum(norms_b, rs, 1).tolist()
            values = [rhs_val - lhs_norm - tail
                      for rhs_val, lhs_norm, tail in zip(rhs_vals, lhs_norms, tails)]
        return [(value, max(1.0, rhs_val),
                 {"lhs_norm": lhs_norm, "rhs_norm": rhs_val, "tail": tail})
                for value, rhs_val, lhs_norm, tail in zip(values, rhs_vals, lhs_norms, tails)]

    return _Prepared(margins=margins, stated_radius=1.0 / 3.0)


def _check_starlike_normalization(f: HoloSeries) -> None:
    if f.order < 1:
        raise ContractError("starlike checks need a series of order >= 1")
    d = f.dim
    if operator_norm(f.coeffs[0]) > 1e-8 or operator_norm(f.coeffs[1] - np.eye(d)) > 1e-8:
        raise ContractError("t4 checks need a normalized instance (f(0) = 0, f'(0) = I)")


def _prep_t4a(instance, *, liminf_grid=(20, 360), boundary_eval=None,
              tol=DEFAULT_TOL, **_) -> _Prepared:
    f, _, g = _subordinated(instance)
    _check_starlike_normalization(f)
    norms_b = operator_norm(g.coeffs[1:])
    liminf = boundary_distance_liminf(boundary_eval if boundary_eval is not None else f,
                                      0.0, grid=liminf_grid)
    sum_norm_a = float(np.sum(operator_norm(f.coeffs[1:])))
    return _Prepared(margins=_liminf_margins(norms_b, liminf.value, sum_norm_a, g.order),
                     stated_radius=KOEBE_RADIUS)


def _prep_t4b(instance, *, tol=DEFAULT_TOL, **_) -> _Prepared:
    f, _, g = _subordinated(instance)
    _check_starlike_normalization(f)
    abs_b = abs_value(g.coeffs[1:])
    sum_norm_a = float(np.sum(operator_norm(f.coeffs[1:])))
    order = g.order
    d = f.dim

    def margins(rs: np.ndarray):
        s = _kahan_matrix_sum(abs_b, rs, 1)
        tails = [_geom_tail(sum_norm_a, order, r) for r in rs.tolist()]
        lows = smallest_eigenvalue(0.25 * np.eye(d) - s).tolist()
        lhs_norms = operator_norm(s).tolist()
        return [(low - tail, 1.0, {"lhs_norm": lhs_norm, "tail": tail})
                for low, tail, lhs_norm in zip(lows, tails, lhs_norms)]

    return _Prepared(margins=margins, stated_radius=KOEBE_RADIUS)


_PREPARERS = {
    "l1": _prep_l1,
    "t1i": _prep_t1i,
    "t1ii": _prep_t1ii,
    "t1iii": _prep_t1iii,
    "e55": _prep_e55,
    "t2": _prep_t2,
    "e17": _prep_e17,
    "t3a": _prep_t3a,
    "t3b": _prep_t3b,
    "l2a": lambda instance, **kw: _prep_l2(instance, loewner=True, **kw),
    "l2b": lambda instance, **kw: _prep_l2(instance, loewner=False, **kw),
    "t4a": _prep_t4a,
    "t4b": _prep_t4b,
}


def _build_report(theorem_id: str, prepared: _Prepared, rs: Sequence[float | None], mu,
                  tol: ToleranceProfile, force: bool, witness: dict | None) -> list[TheoremReport]:
    """Reports of a prepared check at every radius of rs (e17 takes none).

    Every radius is validated before any is evaluated; the whole grid is then
    evaluated in one ``margins`` call.
    """
    has_radius = theorem_id != "e17"
    if has_radius:
        for r in rs:
            if r is None:
                raise ContractError(f"{theorem_id} needs an evaluation radius")
            if (prepared.stated_radius is not None and not force
                    and r > prepared.stated_radius + 1e-12):
                raise DomainError(
                    f"r = {r:.6g} exceeds the stated radius {prepared.stated_radius:.6g} "
                    f"for {theorem_id}; pass force=True for diagnostics"
                )
        grid = np.array([_check_r(r) for r in rs], dtype=np.float64)
    else:
        grid = np.zeros(len(rs))
    if grid.size == 0:
        return []
    reports = []
    for r, (margin, scale, sides) in zip(grid.tolist(), prepared.margins(grid)):
        side_values = dict(prepared.static_sides)
        side_values.update(sides)
        side_values["scale"] = scale
        reports.append(TheoremReport(
            theorem_id=theorem_id,
            r=r if has_radius else None,
            mu=None if mu is None else float(mu),
            passed=margin >= -tol.psd_tol * scale,
            margin=float(margin),
            side_values=side_values,
            witness=dict(witness or {}),
        ))
    return reports


def check_theorem_grid(theorem_id: str, instance, rs: Sequence[float | None],
                       mu: float | None = None, *, force: bool = False,
                       normal: bool = False, k: int = 0, order: int = 64,
                       liminf_grid: tuple[int, int] = (20, 360),
                       boundary_eval=None, tol: ToleranceProfile = DEFAULT_TOL,
                       witness: dict | None = None) -> list[TheoremReport]:
    """Run one inequality check at every radius of rs; one report per radius.

    The per-instance setup is done once and the margins of the whole grid are
    evaluated in one pass.  theorem_id selects the inequality:

    l1     squared majorant against the scaled square-sum (Loewner), offset k
    t1i    rotated absolute-coefficient bound, peak sqrt(1+3r^2)/sqrt(1-r^2)
           (normal=True uses sqrt(1+r^2)/sqrt(1-r^2))
    t1ii   rotated norm sum against ||I - Re(e^(i mu) A0)||, r <= 1/5 (1/3 normal)
    t1iii  split absolute sums against I/2 at r <= 1/3
    e55    holomorphic majorant against I/sqrt(1-r^2)
    t2     chordal-distance Bohr inequality for exterior instances, plus the
           realization growth bounds; radius (2L-1)/(2L+1) from the instance
    e17    chordal-distance monotonicity on an ordered triple (no radius; each
           entry of rs, which may be None, yields one report)
    t3a/b  subordination to a convex instance: norm sum against the boundary
           liminf at the condition-number radius; absolute sum against |A1|/2
    l2a/b  subordination majorants against the source majorant at r <= 1/3
    t4a/b  subordination to a normalized starlike instance at r <= 3 - 2 sqrt(2)

    A grid with any r beyond the stated radius raises DomainError before any
    evaluation, unless force=True.
    """
    if theorem_id not in _PREPARERS:
        raise ContractError(f"unknown theorem id: {theorem_id!r}")
    prepared = _PREPARERS[theorem_id](
        instance, mu=mu, normal=normal, k=k, order=order,
        liminf_grid=liminf_grid, boundary_eval=boundary_eval, tol=tol, force=force,
    )
    return _build_report(theorem_id, prepared, rs, mu, tol, force, witness)


def check_theorem(theorem_id: str, instance, r: float | None = None, mu: float | None = None,
                  **kwargs) -> TheoremReport:
    """check_theorem_grid at the single radius r; see there for the checks."""
    return check_theorem_grid(theorem_id, instance, [r], mu, **kwargs)[0]
