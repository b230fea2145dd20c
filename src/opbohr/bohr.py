"""Majorant sums, disk metrics, sharp-radius formulas, and inequality checkers.

Each inequality bounds a left side (a majorant sum of |A_n| r^n or of
||A_n|| r^n) plus an analytic bound on its truncation tail by a right side.
A check gives its two sides and its tail at every radius, and one function,
``_form_margins``, turns them into a margin and a scale, max(1, ||right||):
right - left - tail for two scalars; c - lambda_max(S) - tail for a positive
semidefinite S against c I, one ``eigvalsh`` of S giving both the margin and
lambda_max(S) = ||S||; and lambda_min(R - S) - tail for a matrix R against S.
A check passes when ``margin >= -psd_tol * scale``, so a reported pass is
robust to the series being finite.  t2 (the least of three inequalities) and
e17 (no radius) form their own margins.  ``psd_tol`` is the one tolerance a
caller can set (``linalg.PSD_TOL`` = 1e-9 by default); the contracts of the
sharp-radius formulas hold within the constant ``linalg.EQ_TOL``.

``check_theorem_grid`` is the one check entry point: it prepares the instance
once, validates every radius of the grid, and evaluates the margins of the
whole grid in one pass; a single radius is a grid of one.  The majorant
sums are compensated: a matrix sum by a log-depth cascade of error-free
TwoSums, within u |S| + gamma_(n-1)^2 sum |x| of the exact sum of its n formed
terms in each real component, and a scalar sum by ``math.fsum``, correctly
rounded.  Both act on each radius's terms alone, performing for each radius
the same floating-point operations as a sum at that radius alone, so a report
does not depend on the grid it was evaluated in.

The paper states each subordination result twice about one composite
f(phi) = sum B_n z^n, and t1i and t1ii bound one rotated family P_n.
Preparation shared by such a pair is kept for the most recent instance
object, so t3a/t3b, l2a/l2b and t4a/t4b compose f(phi) and take |B_n| and
||B_n|| from one eigendecomposition once, and t1i/t1ii at one angle
read one decomposition of the stack [Re(e^(i mu) A_0); P_1; ...; P_N], whose
first |.| is T = |Re(e^(i mu) A_0)|; t1iii reads one of [A_1; ...; A_N;
B_1*; ...; B_N*].  ``linalg.gram_parts`` acts on each matrix of a stack
alone, so each part is bit for bit the one a separate call would give.
The composite is cut at the order its radius can see, and its tail bounds
the composite of f itself, not of the truncation f_N:
f's coefficient envelope a_n >= ||A_n||, which the generators certify from
their parameters, and the witness's |[z^n] phi^k| <= g^n give
||B_n|| <= g^n S_n, S_n = a_1 + ... + a_n, and the closed-form tail
sum over n > m of S_n (g r)^n.  A series without an envelope falls back on
its stored norms and bounds f_N only, and its reports say so
(``tail_bounds_f`` = 0).  Radius r sums B_1..B_m, m the smallest order (at
most N) at which that tail is at most 2^-53 at rho = max(r, R), R the
largest stated radius of the pair, found once per pair and rho.  So every
radius up to R reads one composite per pair, m depends on r alone, t3 and t4
take no norm of the source coefficients, and the cut lowers a margin by at
most 2^-53 scale beyond rounding, 2^-52 for l2, whose right side stops at m
too (``_prep_subordination``).  A check on
another instance replaces what is kept, and the parts kept are read-only, so
a report never depends on which checks ran before it.  ``cli.run_suite``
draws one instance per theorem group and runs its parts back to back, so the
slot serves ``opbohr verify`` as well as callers of this module.

The right side of t3a and t4a, liminf ||f(z) - f(0)|| as |z| -> 1 (f(0) = 0
for t4a), has one source, ``boundary_distance_liminf``: the closed-form
value carried by a ``series.ClosedFormEval``, exact for the two
diagonal-frame families (max_j |t_j|/(1 + beta_j) for ``convex_diag``,
1/(4 sin^2(G/4)) for ``starlike_diag``), read when the base f(0) is exactly
zero.  Any other evaluator or a nonzero base raises ``ContractError``: a
liminf sampled on rings near the boundary can only overestimate it, which is
the lenient side of both checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError, InvalidInputError, RangeError
from .funcalc import log_hermitian
from .linalg import (
    EQ_TOL,
    PSD_TOL,
    GramParts,
    abs_value,
    adjoint,
    as_matrix,
    gram_parts,
    hermitize,
    operator_norm,
    smallest_eigenvalue,
)
from .series import (
    ClosedFormEval,
    CoeffEnvelope,
    HarmonicSeries,
    HoloSeries,
    SubordinationWitness,
    compose_subordination,
)

THEOREM_IDS = (
    "l1", "t1i", "t1ii", "t1iii", "e55", "t2", "e17",
    "t3a", "t3b", "l2a", "l2b", "t4a", "t4b",
)

KOEBE_RADIUS = 3.0 - 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# majorant sums (compensated, one column of terms per radius)
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

    The real and imaginary parts of the terms are summed apart, by a cascade
    of error-free transformations (Ogita, Rump and Oishi, "Accurate sum and
    dot product", SIAM J. Sci. Comput. 26 (2005)).  The terms fill a buffer
    zero-padded to a power-of-two length; each level folds its top half onto
    its bottom half with one vectorized TwoSum, t + e = a + b exactly, and
    adds the rounding errors e and those carried from below into a
    compensation that is added back at the end.  That is log2 n vector steps
    instead of n.  For n terms x each real component of the result lies within
    u |S| + gamma_(n-1)^2 sum |x| of the exact sum S of the formed terms
    (u = 2^-53, gamma_k = k u / (1 - k u)), the bound of a sum taken in twice
    the working precision and then rounded.

    Each operation is elementwise, so every grid point goes through the same
    floating-point operations as a sum at that radius alone.  An empty stack
    sums to zeros.  Returns shape ``(len(rs),) + stack.shape[1:]``.
    """
    count = stack.shape[0]
    weights = _weight_table(rs, start_power, count)
    parts = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    s = np.zeros((1 << max(count - 1, 0).bit_length(), rs.size) + parts.shape[1:])
    np.multiply(parts[:, None], weights.reshape(weights.shape + (1,) * (parts.ndim - 1)),
                out=s[:count])
    c = None
    while s.shape[0] > 1:
        h = s.shape[0] // 2
        a, b = s[:h], s[h:]
        t = a + b
        z = t - a
        # e = (a - (t - z)) + (b - z), formed in the buffers of t - z and z
        e = t - z
        np.subtract(a, e, out=e)
        np.subtract(b, z, out=z)
        e += z
        if c is not None:
            e += c[:h]
            e += c[h:]
        s, c = t, e
    total = s[0] if c is None else s[0] + c[0]
    return total.view(np.complex128)


def _kahan_scalar_sum(values: np.ndarray, rs: np.ndarray, start_power: int) -> np.ndarray:
    """Sum of values[n] r^(start_power + n) over n, for every r of the grid rs.

    The terms of the whole grid are formed at once and each column is summed
    by ``math.fsum``, the correctly rounded sum of the formed terms; a column
    does not depend on the others, so neither does a radius's sum on its grid.
    An empty ``values`` sums to zeros.
    """
    values = np.asarray(values, dtype=np.float64)
    terms = values[:, None] * _weight_table(rs, start_power, values.shape[0])
    return np.array([math.fsum(column) for column in terms.T.tolist()])


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

def rotated_coeffs(h: HarmonicSeries, mu: float) -> np.ndarray:
    """Rotated coefficient family P_n = e^(i mu) A_n + e^(-i mu) B_n, n >= 1,
    as an (N, d, d) stack."""
    phase = complex(np.exp(1j * mu))
    return phase * h.analytic[1:] + np.conj(phase) * h.coanalytic


def _isinf(z) -> bool:
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


def _sphere_point(z) -> tuple[complex, float]:
    """(z, 1)/sqrt(1 + |z|^2), and (1, 0) at infinity, from z scaled into the unit square."""
    if _isinf(z):
        return 1.0, 0.0
    z = complex(z)
    s = max(1.0, abs(z.real), abs(z.imag))
    n = math.hypot(1.0 / s, z.real / s, z.imag / s)
    return complex(z.real / s, z.imag / s) / n, 1.0 / s / n


def spherical_distance(z1, z2) -> float:
    """Chordal distance |z1 - z2|/(sqrt(1 + |z1|^2) sqrt(1 + |z2|^2)) on the
    extended plane; lies in [0, 1].

    Every finite or infinite value is accepted.  Where some |z|^2 overflows a
    float, the distance is |u1 v2 - u2 v1| of the points (u, v) =
    (z, 1)/sqrt(1 + |z|^2), which no step overflows.
    """
    inf1, inf2 = _isinf(z1), _isinf(z2)
    try:
        if inf1 and inf2:
            return 0.0
        if inf1 or inf2:
            finite = complex(z2 if inf1 else z1)
            return 1.0 / math.sqrt(1.0 + abs(finite) ** 2)
        z1, z2 = complex(z1), complex(z2)
        return abs(z1 - z2) / (math.sqrt(1.0 + abs(z1) ** 2) * math.sqrt(1.0 + abs(z2) ** 2))
    except OverflowError:
        (u1, v1), (u2, v2) = _sphere_point(z1), _sphere_point(z2)
        return min(1.0, abs(u1 * v2 - u2 * v1))


def psi_peak(r: float, normal: bool = False) -> tuple[float, float]:
    """Maximizer and maximum of psi(x) = x + (2r/sqrt(1-r^2)) sqrt(1-x^2) on [0, 1],
    or of psi(x) = x + (sqrt(2) r/sqrt(1-r^2)) sqrt(1-x^2) when normal.

    x + a sqrt(1-x^2) peaks at sqrt(1 + a^2) = sqrt(1 + k r^2)/sqrt(1 - r^2),
    with k = 3, or 1 when normal, at x0 = 1/sqrt(1 + a^2).
    """
    r = _check_r(r)
    k = 1.0 if normal else 3.0
    x0 = math.sqrt(1.0 - r * r) / math.sqrt(1.0 + k * r * r)
    peak = math.sqrt(1.0 + k * r * r) / math.sqrt(1.0 - r * r)
    return x0, peak


def boundary_distance_liminf(boundary_eval, base) -> float:
    """liminf ||f(z) - base|| as |z| -> 1, read from the evaluator's closed form.

    ``boundary_eval`` must be a ``series.ClosedFormEval`` and ``base``
    exactly zero; its ``boundary_liminf`` is then the value.  Anything else,
    a plain callable, None or a nonzero base, raises ``ContractError``.
    """
    if not isinstance(boundary_eval, ClosedFormEval) or np.any(base):
        raise ContractError("the boundary liminf needs a ClosedFormEval boundary_eval and a "
                            f"base of exactly zero; got {type(boundary_eval).__name__}")
    return boundary_eval.boundary_liminf


# ---------------------------------------------------------------------------
# sharp-radius formulas
# ---------------------------------------------------------------------------

def _thm2_parts(a0) -> tuple[float, float, float]:
    """||A0||, ||log A0|| and the radius (2L - 1)/(2L + 1), L = log||A0|| / ||log A0||,
    from one logarithm of A0; the contracts are those of ``thm2_radius``."""
    m = as_matrix(a0, "A0")
    norm = operator_norm(m)
    if operator_norm(m - adjoint(m)) > EQ_TOL * max(1.0, norm):
        raise ContractError("A0 must be Hermitian")
    lam_min = smallest_eigenvalue(m)
    if lam_min < 1.0 - EQ_TOL * max(1.0, norm):
        raise ContractError(f"A0 must have spectrum in [1, inf); smallest eigenvalue {lam_min:.6g}")
    if norm <= 1.0 + EQ_TOL:
        raise ContractError("radius is degenerate for ||A0|| <= 1 (A0 = identity)")
    norm_log = operator_norm(log_hermitian(m))
    ell = math.log(norm) / norm_log
    return norm, norm_log, (2.0 * ell - 1.0) / (2.0 * ell + 1.0)


def thm2_radius(a0) -> float:
    """(2L - 1)/(2L + 1) with L = log||A0|| / ||log A0||.

    Requires A0 Hermitian positive definite with spectrum in [1, inf) and
    ||A0|| > 1.  Under these preconditions L always evaluates to 1 in finite
    dimension, so the value is 1/3; the general expression is kept verbatim.
    """
    return _thm2_parts(a0)[2]


def thm3_radius(a1) -> float:
    """1 / (1 + 2 ||A1|| ||A1^-1||) for invertible A1; lies in (0, 1/3]."""
    m = as_matrix(a1, "A1")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= 1e-14 * max(1.0, sv[0]):
        raise ContractError("A1 is numerically singular")
    cond = float(sv[0] / sv[-1])
    return 1.0 / (1.0 + 2.0 * cond)


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


class _Sides(NamedTuple):
    """The two sides of a check and its truncation-tail bound, per radius.

    lhs       floats, or a stack of positive semidefinite matrices S
    rhs       floats c (c I against a matrix lhs), or a stack of matrices R
    tail      floats
    rhs_norm  ||R|| per radius when rhs is a stack of matrices
    extra     further side values, key -> one value per radius
    """

    lhs: list | np.ndarray
    rhs: list | np.ndarray
    tail: list
    rhs_norm: list | None = None
    extra: dict = {}


def _form_margins(sides: _Sides) -> list[tuple[float, float, dict]]:
    """(margin, scale, side values) per radius, with scale max(1, ||rhs||).

    The margin is rhs - lhs - tail for floats on both sides, and
    c - lambda_max(S) - tail for S against c I: one ``eigvalsh`` of S gives
    both the margin and lhs_norm = lambda_max(S) = ||S||.  For R against S it
    is lambda_min(R - S) - tail.
    """
    lhs, rhs, tails, rhs_norms, extra = sides
    lhs_norms = _largest_eigenvalue(lhs).tolist() if isinstance(lhs, np.ndarray) else lhs
    if rhs_norms is None:
        rhs_norms = rhs
        margins = [c - s - tail for c, s, tail in zip(rhs, lhs_norms, tails)]
    else:
        lows = smallest_eigenvalue(rhs - lhs).tolist()
        margins = [low - tail for low, tail in zip(lows, tails)]
    rows = [(margin, max(1.0, rhs_norm),
             {"lhs_norm": lhs_norm, "rhs_norm": rhs_norm, "tail": tail})
            for margin, lhs_norm, rhs_norm, tail in zip(margins, lhs_norms, rhs_norms, tails)]
    for key, column in extra.items():
        for (_, _, values), value in zip(rows, column):
            values[key] = value
    return rows


@dataclass
class _Prepared:
    """A check prepared for one instance.

    ``sides(rs)`` gives the check's two sides and tail bound at every radius
    of the validated grid ``rs`` (a float array); ``_form_margins`` turns them
    into one ``(margin, scale, sides)`` per radius.  t2 and e17, whose margin
    is not one side less the other, give ``margins(rs)`` in its place.
    """

    sides: Callable[[np.ndarray], _Sides] | None = None
    margins: Callable[[np.ndarray], list[tuple[float, float, dict]]] | None = None
    stated_radius: float | None = None
    static_sides: dict = field(default_factory=dict)


# a composite is summed up to the order where its tail bound falls to one unit roundoff
_TAIL_CUTOFF = 2.0 ** -53


def _composite_tail(envelope: CoeffEnvelope, partial_sum, m, x: float):
    """Sum of S_n x^n over n > m, S_n = a_1 + ... + a_n and S_m = partial_sum.

    It is (S_m x^(m+1) + sum over n > m of a_n x^n)/(1 - x): each S_n past
    m is S_m plus the a_k with m < k <= n.  inf for x >= 1.
    """
    if x >= 1.0:
        return math.inf
    return (partial_sum * x ** (m + 1) + envelope.tail(m, x)) / (1.0 - x)


def _l2_mass_tail(residual_top: float, order: int, r: float) -> float:
    """Cauchy-Schwarz tail: r^(N+1)/sqrt(1-r^2) * sqrt(remaining square mass)."""
    return r ** (order + 1) / math.sqrt(1.0 - r * r) * math.sqrt(max(residual_top, 0.0))


def _largest_eigenvalue(h: np.ndarray):
    """Largest eigenvalue of a Hermitian matrix (symmetrized defensively).

    For a stack over leading axes, returns an array of largest eigenvalues.
    For a positive semidefinite S it is also ||S||, and the eigenvalues of
    c I - S are c - lambda_i(S), so one ``eigvalsh`` of S gives both the norm
    and the margin of a check against c I.
    """
    top = np.linalg.eigvalsh(hermitize(h))[..., -1]
    return float(top) if np.ndim(h) == 2 else top


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


# --- shared per-instance preparation ------------------------------------------

# The most recent instance and the parts prepared for it, (instance, {key: value}).
# Paired checks (t1i/t1ii at one angle, t3a/t3b, l2a/l2b, t4a/t4b) prepare the
# same parts of one instance; the slot lets the second check reuse them.  The
# instance is compared by identity: series are frozen and own read-only
# buffers, and the slot's strong reference keeps its id from being reused.
# Each call works on the dict it read with its instance, so concurrent checks
# can lose reuse but never read the parts of another instance.
_shared_slot: tuple = (None, {})


def _shared(instance, key, compute: Callable):
    """compute(), computed once per key while ``instance`` is the most recent
    instance; a different instance replaces the whole slot."""
    global _shared_slot
    held, parts = _shared_slot
    if held is not instance:
        parts = {}
        _shared_slot = (instance, parts)
    if key not in parts:
        parts[key] = compute()
    return parts[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# --- per-theorem preparers --------------------------------------------------

def _prep_l1(instance, *, k: int = 0, **_) -> _Prepared:
    stack = _coeff_stack(instance, "H")
    if k < 0 or k > stack.shape[0]:
        raise ContractError(f"l1 needs an offset k >= 0 and an order >= k - 1; "
                            f"got k = {k} at order {stack.shape[0] - 1}")
    grams, abs_h, _ = gram_parts(stack[k:])
    sq = hermitize(np.sum(grams, axis=0))
    sq_top = _largest_eigenvalue(sq)

    def sides(rs: np.ndarray) -> _Sides:
        s = _kahan_matrix_sum(abs_h, rs, k)
        coeff = [r ** (2 * k) / (1.0 - r * r) for r in rs.tolist()]
        return _Sides(hermitize(s @ s), np.multiply.outer(coeff, sq), [0.0] * rs.size,
                      rhs_norm=[c * sq_top for c in coeff])

    return _Prepared(sides=sides, static_sides={"k": float(k)})


def _rotated_parts(h: HarmonicSeries, mu: float, normal: bool):
    """Re(e^(i mu) A0), T = |Re(e^(i mu) A0)|, |P_n|, ||P_n|| and the residual
    mass_coeff (I - T^2) - sum P_n* P_n left for the dropped tail.

    Shared by t1i and t1ii at the same angle; the arrays are read-only.  The
    key holds the bits of mu, so -0.0 and 0.0 stay apart.
    """
    return _shared(h, ("rotated", mu.hex(), bool(normal)),
                   lambda: tuple(map(_read_only, _compute_rotated_parts(h, mu, normal))))


def _compute_rotated_parts(h: HarmonicSeries, mu: float, normal: bool):
    phase = complex(np.exp(1j * mu))
    re_a0 = hermitize(phase * h.analytic[0])
    p = rotated_coeffs(h, mu)
    # one eigh for T = |Re(e^(i mu) A0)|, the first |.| of the stack, and the P_n
    gram, abs_all, norms_all = gram_parts(np.concatenate([re_a0[None], p]))
    if normal:
        defect = operator_norm(p @ adjoint(p) - adjoint(p) @ p)
        if np.any(defect > 1e-8 * np.maximum(1.0, norms_all[1:] ** 2)):
            raise ContractError("normal variant requested but some P_n is not normal")
    t_mat = abs_all[0]
    mass_coeff = 2.0 if normal else 4.0
    residual = mass_coeff * (np.eye(h.dim) - t_mat @ t_mat) - np.sum(gram[1:], axis=0)
    return re_a0, t_mat, abs_all[1:], norms_all[1:], residual


def _prep_t1i(instance, *, mu=None, normal: bool = False, **_) -> _Prepared:
    h = _as_harmonic(instance)
    mu = _require_mu(mu)
    _, t_mat, abs_p, _, residual = _rotated_parts(h, mu, normal)
    residual_top = max(0.0, _largest_eigenvalue(residual))
    order = h.order

    def sides(rs: np.ndarray) -> _Sides:
        radii = rs.tolist()
        x0s, peaks = map(list, zip(*(psi_peak(r, normal) for r in radii)))
        tails = [_l2_mass_tail(residual_top, order, r) for r in radii]
        return _Sides(t_mat + _kahan_matrix_sum(abs_p, rs, 1), peaks, tails,
                      extra={"x0": x0s})

    return _Prepared(sides=sides, static_sides={"normal": float(normal)})


def _prep_t1ii(instance, *, mu=None, normal: bool = False, **_) -> _Prepared:
    h = _as_harmonic(instance)
    mu = _require_mu(mu)
    re_a0, _, _, norms_p, residual = _rotated_parts(h, mu, normal)
    d = h.dim
    rhs = operator_norm(np.eye(d) - re_a0)
    # sum of ||P_n||^2 over the dropped tail is at most the trace of the residual
    residual_trace = max(0.0, float(np.trace(hermitize(residual)).real))
    order = h.order

    def sides(rs: np.ndarray) -> _Sides:
        tails = [_l2_mass_tail(residual_trace, order, r) for r in rs.tolist()]
        return _Sides(_kahan_scalar_sum(norms_p, rs, 1).tolist(), [rhs] * rs.size, tails)

    return _Prepared(sides=sides,
                     stated_radius=(1.0 / 3.0 if normal else 0.2),
                     static_sides={"normal": float(normal)})


def _prep_t1iii(instance, **_) -> _Prepared:
    h = _as_harmonic(instance)
    d, order = h.dim, h.order
    # one eigh for both halves: A_1..A_N, then B_1*..B_N*
    gram, abs_all, _ = gram_parts(np.concatenate([h.analytic[1:], adjoint(h.coanalytic)]))
    abs_pair = np.stack([abs_all[:order], abs_all[order:]], axis=1)
    a0 = h.analytic[0]
    used = adjoint(a0) @ a0 + np.sum(gram[:order], axis=0) + np.sum(gram[order:], axis=0)
    residual_top = max(0.0, _largest_eigenvalue(np.eye(d) - used))

    def sides(rs: np.ndarray) -> _Sides:
        pair = _kahan_matrix_sum(abs_pair, rs, 1)
        tails = [_l2_mass_tail(2.0 * residual_top, order, r) for r in rs.tolist()]
        return _Sides(pair[:, 0] + pair[:, 1], [0.5] * rs.size, tails)

    return _Prepared(sides=sides, stated_radius=1.0 / 3.0)


def _prep_e55(instance, **_) -> _Prepared:
    if not isinstance(instance, HoloSeries):
        raise ContractError("e55 needs a HoloSeries instance")
    f = instance
    d = f.dim
    grams, abs_a, _ = gram_parts(f.coeffs)
    residual_top = max(0.0, _largest_eigenvalue(np.eye(d) - np.sum(grams, axis=0)))
    order = f.order

    def sides(rs: np.ndarray) -> _Sides:
        radii = rs.tolist()
        rhs = [1.0 / math.sqrt(1.0 - r * r) for r in radii]
        tails = [_l2_mass_tail(residual_top, order, r) for r in radii]
        return _Sides(_kahan_matrix_sum(abs_a, rs, 0), rhs, tails)

    return _Prepared(sides=sides)


def _prep_t2(instance, **_) -> _Prepared:
    if not isinstance(instance, HoloSeries):
        raise ContractError("t2 needs an exterior HoloSeries instance")
    norm_a0, norm_log_a0, radius = _thm2_parts(instance.coeffs[0])
    v_sq = 2.0 * norm_log_a0  # ||V||^2 for a colligation, whose log A0 is V*V/2
    norms_a = operator_norm(instance.coeffs)
    order = instance.order
    ell = math.log(norm_a0) / norm_log_a0

    def margin(r: float, alpha: float):
        rho_t = 0.5 * (1.0 + r)
        # exp((||V||^2/2)(1+rho)/(1-rho)) at rho_t, for the tail, and at r
        try:
            growth, growth_bound = [math.exp(0.5 * v_sq * (1.0 + rho) / (1.0 - rho))
                                    for rho in (rho_t, r)]
        except OverflowError:
            raise RangeError(f"t2's growth bound overflows a float at r = {r!r}") from None
        tail = growth * (r / rho_t) ** (order + 1) / (1.0 - r / rho_t)
        alpha_hi = alpha + tail
        lam_lhs = spherical_distance(alpha_hi, norm_a0)
        lam_rhs = spherical_distance(norm_a0, 1.0)
        lam_margin = lam_rhs - lam_lhs
        # growth bound exp((||V||^2/2)(1+r)/(1-r)) and its value ||A0||^2 at
        # the sharp radius both dominate the norm majorant
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


def _check_starlike_normalization(instance) -> None:
    """ContractError unless f(0) = 0 and f'(0) = I, within 1e-8; tested once per pair."""
    f = instance[0]
    if f.order < 1:
        raise ContractError("starlike checks need a series of order >= 1")
    if not _shared(instance, "normalized", lambda: (
            operator_norm(f.coeffs[0]) <= 1e-8
            and operator_norm(f.coeffs[1] - np.eye(f.dim)) <= 1e-8)):
        raise ContractError("t4 checks need a normalized instance (f(0) = 0, f'(0) = I)")


def _source_envelope(f: HoloSeries) -> tuple[CoeffEnvelope, float]:
    """f's envelope and 1.0, or for a series without one an envelope of its
    truncation f_N and 0.0.

    The f_N envelope puts s = sum over n = 1..N of ||A_n|| at n = 1, ratio 0:
    it bounds the partial sums of the stored norms, not each norm, and that
    is all the composite tail reads.
    """
    if f.envelope is not None:
        return f.envelope, 1.0
    return CoeffEnvelope(float(np.sum(operator_norm(f.coeffs[1:]))), 0.0), 0.0


def _cut_order(instance, envelope: CoeffEnvelope, rho: float) -> tuple[int, float]:
    """(m, S_m): the smallest m <= N at which ``_composite_tail`` at x = g rho
    is at most 2^-53, or N, and its partial sum; once per pair and rho.

    As every S_n >= a_1, the tail is at least a_1 x^(m+1)/(1 - x).  No order
    below the one at which that bound falls to 2^-53 can do, so the search
    walks up from it, less one step for the rounding of its logarithms.
    """
    def compute():
        f, w = instance
        x = w.coeff_growth * rho
        first = envelope.term(1)
        if x >= 1.0:
            m = f.order
        elif x == 0.0 or first == 0.0:
            m = 0
        else:
            m = min(f.order, max(0, math.ceil(math.log(_TAIL_CUTOFF * (1.0 - x) / first)
                                              / math.log(x)) - 2))
        partial_sum = float(np.sum(envelope.values(m)))
        while m < f.order and _composite_tail(envelope, partial_sum, m, x) > _TAIL_CUTOFF:
            m += 1
            partial_sum += envelope.term(m)
        return m, partial_sum

    return _shared(instance, ("cut", rho), compute)


def _prep_subordination(instance, *, theorem_id: str, boundary_eval=None, **_) -> _Prepared:
    """A majorant of the composite f(phi) = sum B_n z^n against a right side.

    The left side is sum |B_n| r^n, in the Loewner order, for t3b, l2a and
    t4b, and sum ||B_n|| r^n for t3a, l2b and t4a, both over n >= 1.  The
    right side is the boundary liminf of ||f - A_0|| (t3a) or of ||f|| (t4a),
    |A_1|/2 (t3b), sum ||A_n|| r^n over n = 1..m (l2a, l2b) or 1/4 (t4b).  The
    stated radius is 1/(1 + 2 ||A_1|| ||A_1^-1||) for t3a, 3 - 2 sqrt(2) for
    t4a and t4b, and 1/3 for the others.

    f(phi) is composed and summed up to the order m its radius can see, and
    the tail bounds the rest of the composite of f itself, not of its
    truncation.  f's envelope a_n >= ||A_n|| (``series.CoeffEnvelope``, which
    a generator certifies for every n) and the witness's bound
    |[z^n] phi^k| <= g^n give ||B_n|| <= g^n S_n, S_n = a_1 + ... + a_n, as
    B_n = sum over k = 1..n of [z^n] phi^k A_k.  So the B_n past m weigh at
    most sum over n > m of S_n (g r)^n, in norm and, as |B| <= ||B|| I, in
    the Loewner order; ``_composite_tail`` gives that sum in closed form.  A
    series without an envelope falls back on its stored norms: the whole of
    s = sum over n = 1..N of ||A_n|| at n = 1, which bounds the composite of
    the truncation f_N only, with the tail s (g r)^(m+1)/(1 - g r).  The
    side value ``tail_bounds_f`` is 1.0 for the first and 0.0 for the second.

    m is the smallest order (at most N) at which the tail at max(r, R) is at
    most 2^-53, R being the largest stated radius of the pair: 1/3 for t3 and
    l2, 3 - 2 sqrt(2) for t4.  It is found once per pair and max(r, R)
    (``_cut_order``), so every radius up to R reads one composite of order m,
    composed and decomposed once per pair; a forced radius past R takes its
    own, longer one.  m depends on r alone, not on the grid.  t3 and t4 take
    no norm of the source coefficients, and l2 takes those of A_1..A_m: the
    terms its right side drops weigh at most the tail.  As the scale is at
    least 1, the cut moves a margin by at most 2^-53 scale beyond rounding
    (2^-52 for l2), and only down.

    The liminf is ``boundary_distance_liminf`` of ``boundary_eval`` with base
    A_0 (t3a) or 0 (t4a), the closed form of a ``ClosedFormEval`` when that
    base is exactly zero: max_j |t_j|/(1 + beta_j) for ``convex_diag``,
    within 4u relative, and 1/(4 sin^2(G/4)) for ``starlike_diag``, within
    (10 d + 4)u relative (u = 2^-53).  Any other ``boundary_eval``, None
    included, or a nonzero A_0 for t3a raises ``ContractError``.
    """
    f, w = _as_pair(instance)
    group = theorem_id[:2]
    if group == "t4":
        _check_starlike_normalization(instance)
    elif group == "t3" and f.order < 1:
        raise ContractError(f"{theorem_id} needs a series of order >= 1")
    envelope, bounds_f = _shared(instance, "envelope", lambda: _source_envelope(f))
    growth = w.coeff_growth
    pair_radius = KOEBE_RADIUS if group == "t4" else 1.0 / 3.0

    def composite(m: int) -> GramParts:
        """M*M, |M| and ||M|| of B_1..B_m from one eigh, prepared once per pair."""
        return _shared(instance, ("composite", m), lambda: GramParts(*map(
            _read_only, gram_parts(compose_subordination(f, w, m).coeffs[1:]))))

    def source_norms(m: int) -> np.ndarray:
        """||A_1||..||A_m||, for l2's right side, once per pair."""
        return _shared(instance, ("source_norms", m),
                       lambda: _read_only(operator_norm(f.coeffs[1:m + 1])))

    composite(_cut_order(instance, envelope, pair_radius)[0])  # the one every unforced r reads
    static_sides = {"tail_bounds_f": bounds_f}
    stated_radius = pair_radius
    if theorem_id == "t3a":
        stated_radius = static_sides["radius"] = thm3_radius(f.coeffs[1])
    if theorem_id in ("t3a", "t4a"):
        static_sides["liminf"] = boundary_distance_liminf(
            boundary_eval, f.coeffs[0] if group == "t3" else 0.0)
    if theorem_id == "t3b":
        half_abs_a1 = 0.5 * abs_value(f.coeffs[1])
        half_norm_a1 = operator_norm(half_abs_a1)
    matrix_lhs = theorem_id in ("t3b", "l2a", "t4b")

    def sides(rs: np.ndarray) -> _Sides:
        size = rs.size
        radii = rs.tolist()
        cuts = [_cut_order(instance, envelope, max(r, pair_radius)) for r in radii]
        tails = [_composite_tail(envelope, partial_sum, m, growth * r)
                 for (m, partial_sum), r in zip(cuts, radii)]
        orders = [m for m, _ in cuts]
        lhs = np.empty((size, f.dim, f.dim), dtype=np.complex128) if matrix_lhs else np.empty(size)
        source_sums = np.empty(size)
        for m in set(orders):
            at = [i for i, mi in enumerate(orders) if mi == m]
            if matrix_lhs:
                lhs[at] = _kahan_matrix_sum(composite(m).abs, rs[at], 1)
            else:
                lhs[at] = _kahan_scalar_sum(composite(m).norm, rs[at], 1)
            if group == "l2":
                source_sums[at] = _kahan_scalar_sum(source_norms(m), rs[at], 1)
        if not matrix_lhs:
            lhs = lhs.tolist()
        if group == "l2":
            return _Sides(lhs, source_sums.tolist(), tails)
        if theorem_id == "t3b":
            return _Sides(lhs, half_abs_a1, tails, rhs_norm=[half_norm_a1] * size)
        rhs = 0.25 if theorem_id == "t4b" else static_sides["liminf"]
        return _Sides(lhs, [rhs] * size, tails)

    return _Prepared(sides=sides, stated_radius=stated_radius, static_sides=static_sides)


_PREPARERS = {
    "l1": _prep_l1,
    "t1i": _prep_t1i,
    "t1ii": _prep_t1ii,
    "t1iii": _prep_t1iii,
    "e55": _prep_e55,
    "t2": _prep_t2,
    "e17": _prep_e17,
    **{theorem_id: partial(_prep_subordination, theorem_id=theorem_id)
       for theorem_id in ("t3a", "t3b", "l2a", "l2b", "t4a", "t4b")},
}


def _build_report(theorem_id: str, prepared: _Prepared, rs: Sequence[float | None], mu,
                  psd_tol: float, force: bool, witness: dict | None) -> list[TheoremReport]:
    """Reports of a prepared check at every radius of rs (e17 takes none).

    A None radius is the check's stated radius.  Every radius is validated
    before any is evaluated; the whole grid is then evaluated in one
    ``margins`` call.
    """
    has_radius = theorem_id != "e17"
    if has_radius:
        rs = [prepared.stated_radius if r is None else r for r in rs]
        for r in rs:
            if r is None:
                raise ContractError(
                    f"{theorem_id} has no stated radius; pass an evaluation radius")
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
    rows = (prepared.margins(grid) if prepared.sides is None
            else _form_margins(prepared.sides(grid)))
    for r, (margin, scale, sides) in zip(grid.tolist(), rows):
        side_values = dict(prepared.static_sides)
        side_values.update(sides)
        side_values["scale"] = scale
        reports.append(TheoremReport(
            theorem_id=theorem_id,
            r=r if has_radius else None,
            mu=None if mu is None else float(mu),
            passed=margin >= -psd_tol * scale,
            margin=float(margin),
            side_values=side_values,
            witness=dict(witness or {}),
        ))
    return reports


def check_theorem_grid(theorem_id: str, instance, rs: Sequence[float | None],
                       mu: float | None = None, *, force: bool = False,
                       normal: bool = False, k: int = 0, boundary_eval=None, psd_tol: float = PSD_TOL,
                       witness: dict | None = None) -> list[TheoremReport]:
    """Run one inequality check at every radius of rs; one report per radius.

    The per-instance setup is done once and the margins of the whole grid are
    evaluated in one pass.  A None entry of rs is the check's stated radius
    (ContractError for l1, t1i and e55, which have none).  theorem_id selects
    the inequality:

    l1     squared majorant against the scaled square-sum (Loewner), offset k
    t1i    rotated absolute-coefficient bound, peak sqrt(1+3r^2)/sqrt(1-r^2)
           (normal=True uses sqrt(1+r^2)/sqrt(1-r^2))
    t1ii   rotated norm sum against ||I - Re(e^(i mu) A0)||, r <= 1/5 (1/3 normal)
    t1iii  split absolute sums against I/2 at r <= 1/3
    e55    holomorphic majorant against I/sqrt(1-r^2)
    t2     chordal-distance Bohr inequality for an exterior HoloSeries, plus
           the realization growth bounds; radius (2L-1)/(2L+1) from the instance
    e17    chordal-distance monotonicity on an ordered triple (no radius; each
           entry of rs, which may be None, yields one report)
    t3a/b  subordination to a convex instance: norm sum against the boundary
           liminf at the condition-number radius; absolute sum against |A1|/2
    l2a/b  subordination majorants against the source majorant at r <= 1/3
    t4a/b  subordination to a normalized starlike instance at r <= 3 - 2 sqrt(2)

    t3a and t4a read their right side from ``boundary_eval``, which must be a
    ``series.ClosedFormEval`` (``boundary_distance_liminf``); the other
    checks ignore it.

    A report passes when its margin is at least -psd_tol * scale; a psd_tol
    that is not finite and nonnegative raises InvalidInputError.  A grid with
    any r beyond the stated radius raises DomainError before any evaluation,
    unless force=True.
    """
    if not (math.isfinite(psd_tol) and psd_tol >= 0.0):
        raise InvalidInputError(f"psd_tol must be finite and nonnegative, got {psd_tol!r}")
    if theorem_id not in _PREPARERS:
        raise ContractError(f"unknown theorem id: {theorem_id!r}")
    prepared = _PREPARERS[theorem_id](
        instance, mu=mu, normal=normal, k=k, boundary_eval=boundary_eval)
    return _build_report(theorem_id, prepared, rs, mu, psd_tol, force, witness)

