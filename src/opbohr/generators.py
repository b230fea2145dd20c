"""Seeded, reproducible factories for the instance families the checkers need.

Every suite instance is ``sample(FamilySpec)`` of one of the ``FAMILY_IDS``,
the keys of ``_BUILDERS``: ``schur_holo``, ``schur_harmonic``,
``commuting_harmonic``, ``exterior_diag``, ``exterior_colligation``,
``convex_diag``, ``starlike_diag``, ``subordination``, and the sources of
l1 and e17, ``gaussian_sequence`` (a ``HoloSeries`` of
``gaussian_coeff_sequence``) and ``ordered_triple`` (one triple of
``ordered_triples``), drawn from the same seeded stream as those functions.

Both harmonic families are the mix t g + (1 - t) h* of two Schur
realizations g and h (``_harmonic_mix``).  For ``schur_harmonic`` they are
d x d realizations and t is one number.  For ``commuting_harmonic`` each is
the direct sum of d scalar realizations, a block-diagonal realization of
dim d (``_direct_sum``), t holds one value per slice, and the diagonal mix
is put into a unitary frame W as W diag(s) W*.

One rule plants a parameter.  Each builder draws its named parameters from
the seeded stream, and a ``params`` entry of the same name replaces the
drawn value: it takes the drawn value's dtype and shape, a scalar broadcast
over the slices, and it must pass its test in ``_PLANTABLE``.  The draw is
made all the same, so planting one value leaves every other value as drawn.
The aux mapping holds every named parameter, planted or drawn.  The names:

* ``c`` (finite, >= 0) and ``beta`` (in [0, 1)), one per slice: ``c`` of
  ``exterior_diag``, ``beta`` of ``exterior_diag`` and ``convex_diag``;
* ``kappa`` (finite, >= 1) of ``convex_diag``, the bound on its multipliers'
  moduli, drawn from [1, kappa]; kappa = 1 makes them unimodular;
* ``v_norm_sq`` (finite, >= 0) of ``exterior_colligation``, ||V||^2;
* ``zeta`` (unimodular within 1e-12, one per slice) of ``starlike_diag``;
* ``frame`` (unitary within ``linalg.EQ_TOL``) of ``exterior_diag``,
  ``convex_diag``, ``starlike_diag`` and ``commuting_harmonic``; ``np.eye(d)``
  plants the identity frame.

Stored coefficients come from closed forms or exact recurrences, and from
samples on a circle for one family only:

* Schur realizations (``schur_holo``, both harmonic families and the
  subordination witness): A_0 = A and A_n = B D^(n-1) C from the blocks of
  the unitary (``SchurRealization.coeffs``);
* ``exterior_diag``: each slice exp(c (1 + beta z)/(1 - beta z)) from the
  recurrence n a_n = sum_k k g_k a_(n-k) of its exponent g;
* ``convex_diag`` and ``starlike_diag``: t beta^(n-1) and n zeta^(n-1) per
  slice.

``exterior_colligation`` is the one family whose coefficients come from
samples on a circle.  A_0 = exp(V*V/2) is taken from the colligation, and
A_1..A_N from max(4N + 4, 256) samples of exp(H) on |z| = 1/2
(``series.coeffs_via_cauchy_integral``); its aux mapping carries the
colligation as ``"colligation"``.  The extraction's scale 2^n amplifies
the samples' rounding, so coefficient n is off by roughly
2^n u e^(3||V||^2/2): at d = 2, seed 2, order 64 it gives ||A_64|| = 538,
where a series-exponential reference gives 5.24.  t2 weighs coefficient n
by at most 3^-n.  From order 1024 on, 2^n overflows a float, and the draw
raises ``RangeError`` before it samples.

The exact evaluator of ``convex_diag`` and ``starlike_diag`` is a
``ClosedFormEval``: it also carries the boundary liminf of ||f(z)|| as
|z| -> 1 in closed form, which the t3a and t4a checks read in place of a
sampled estimate.  Every value is W diag(s_j) W* with W unitary, so its norm
is max_j |s_j|, and the liminf is the infimum over the circle of the largest
slice modulus:

* ``convex_diag``, slices t_j z/(1 - beta_j z) with 0 <= beta_j < 1: each
  |t_j|/|1 - beta_j e^(i theta)| decreases on [0, pi] and is even in theta,
  so the value is max_j |t_j|/(1 + beta_j), attained at theta = pi.  It is
  computed within 4u relative of that expression of the stored t_j and
  beta_j (u = 2^-53: one hypot, one sum, one quotient);
* ``starlike_diag``, slices z/(1 - zeta_j z)^2 with |zeta_j| = 1: on the
  circle |s_j| = 1/(4 sin^2((theta - theta_j)/2)) about the pole angle
  theta_j = -arg zeta_j, so the value is 1/(4 sin^2(G/4)), G the largest
  cyclic gap between the pole angles, its midpoint the minimizer; G = 2 pi
  and the value 1/4 when d = 1 or all zeta_j are equal.  Each angle is
  within 12u and G within 28u absolute, and G >= 2 pi/d bounds
  cot(G/4) by 2d/pi, so the value is within (10 d + 4)u relative of the
  exact expression of the stored zeta_j.

Both are exact for an exactly unitary frame; the drawn frames have
||W*W - I|| of a few u, which moves the norm of every value, sampled or
closed-form, by at most that much relative.

Every family but the l1 and e17 sources certifies its draw at generation
time from its parameters, with no sample and no random number, and raises
``GenerationError`` if the certificate fails, which would indicate a bug
rather than bad luck:

* Schur realizations: with delta = ||U*U - I|| for the realization's
  unitary U, v = [x; z y] and y = (I - z D)^(-1) C x, U v = [f(z) x; y], so
  ||f(z) x||^2 + ||y||^2 = ||U v||^2 <= (1 + delta)(||x||^2 + |z|^2 ||y||^2),
  and ||f(z)|| <= sqrt(1 + delta) <= 1 + delta/2 on |z|^2 <= 1/(1 + delta)
  (for delta = 0 this is Agler's I - f*f = (1 - |z|^2) g*g).  The harmonic
  mix t g + (1 - t) h* takes the larger of its two bounds;
  ``commuting_harmonic`` multiplies the larger bound of its two direct sums
  by ||W||^2 <= 1 + ||W*W - I|| for its frame W.  The witness phi = z b has
  |phi(z)| <= |z| (1 + delta/2);
* ``exterior_diag``: Re (1 + beta z)/(1 - beta z) = (1 - beta^2 |z|^2)/
  |1 - beta z|^2 is least on the closed disk at z = -1, so the smallest
  slice modulus is min_j exp(c_j (1 - beta_j)/(1 + beta_j)) >= 1 (c_j >= 0,
  0 <= beta_j < 1), and the smallest singular value is at least that times
  1 - ||W*W - I||;
* ``exterior_colligation``: with W = (I - z U)^(-1) V the realized
  logarithm H has Re H = (1/2) W*(I - |z|^2 U*U) W >= 0 on
  |z|^2 <= 1/(1 + delta), so ||exp(H)^(-1)|| = ||exp(-H)|| <= 1
  (Lumer-Phillips) and the smallest singular value of exp(H) is >= 1.

delta is bounded from above by ``_unitarity_defect``.  A realization
certificate fails when delta/2 > ``CERT_SLACK``: then its bound exceeds
1 + ``CERT_SLACK``, and the disk it holds on no longer contains
|z| <= 1 - ``CERT_SLACK``, which it does otherwise.  The aux mapping of each
family carries its bound: ``sup_cert`` (an upper bound on ||f||, or on
|phi(z)|/|z| for the witness) or ``min_cert`` (a lower bound on the
smallest singular value).  Identical ``FamilySpec`` values produce
bit-identical instances, and ``sample`` raises ``InvalidInputError`` on a
``params`` key that the draw does not read.

The families that pair with a witness certify their coefficients the same
way, with a ``series.CoeffEnvelope`` a_n >= ||A_n|| for every n >= 1, past
the stored order too, carried on the ``HoloSeries``:

* ``convex_diag``: (1 + delta_W) max_j |t_j| (max_j beta_j)^(n-1), as
  ||W diag(s) W*|| <= ||W||^2 max_j |s_j| <= (1 + delta_W) max_j |s_j| for
  the frame's defect delta_W = ||W*W - I||;
* ``starlike_diag``: (1 + delta_W) n (max_j |zeta_j| + 4u)^(n-1), the
  growth bound n (1 + delta_W) of the starlike slices.  numpy forms
  zeta^(n-1) through exp((n - 1) log zeta) above n = 100, whose modulus
  drifts from 1 by up to about 0.44 (n - 1) u; the 4u of the ratio covers
  3 (n - 1) u of it.  The draw fails unless its scale is within
  1 + ``CERT_SLACK``, the certificate of the growth bound;
* ``schur_holo``: M (1 + delta)^(n/2), Cauchy's estimate on the disk
  |z|^2 <= 1/(1 + delta) on which ||f|| <= M, the ``sup_cert``.

Both diagonal-frame scales also carry 1 + 16 d u for the rounding of the
stored products W diag(s) W* and of their norms, which stays below 14u on
order-512 draws, d = 1..4.  The witness carries g = max(1, ``sup_cert``) in
``SubordinationWitness.coeff_growth``: with phi = z b and |b| <= sigma on
|z| <= rho = (1 + delta)^(-1/2), Cauchy's estimate gives
|[z^n] phi^k| = |[z^(n-k)] b^k| <= sigma^k rho^(k-n) <= sigma^n, as
1/rho = sqrt(1 + delta) <= 1 + delta/2 = sigma.  ``opbohr selftest``
compares each bound with the stored coefficients of an order-512 draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ContractError, GenerationError, InvalidInputError
from .funcalc import ColligationSpec, herglotz_transfer_grid, matrix_exp
from .linalg import EQ_TOL, adjoint, hermitize, operator_norm
from .series import (
    ClosedFormEval,
    CoeffEnvelope,
    HarmonicSeries,
    HoloSeries,
    ScalarSeries,
    SubordinationWitness,
    coeffs_via_cauchy_integral,
)

CERT_SLACK = 1e-9
UNIT_ROUNDOFF = 2.0 ** -53
# the largest truncation order: a forced subordination radius builds an
# (N + 1)^2 complex power table, about 270 MB at 4096
MAX_ORDER = 4096


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one reproducible instance.

    ``params`` holds ``with_witness`` and planted values: an entry named
    after a parameter of the family's draw (``_PLANTABLE``) replaces the
    drawn value (``sample``).  ``order`` is at most ``MAX_ORDER``.
    """

    family_id: str
    dim: int = 2
    aux_dim: int = 4
    order: int = 64
    seed: int = 0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.family_id not in FAMILY_IDS:
            raise InvalidInputError(f"unknown family id: {self.family_id!r}")
        if self.dim < 1 or self.aux_dim < 1 or self.order < 0:
            raise InvalidInputError("dim and aux_dim must be >= 1, order >= 0")
        if self.order > MAX_ORDER:
            raise InvalidInputError(f"order must be <= {MAX_ORDER}, got {self.order}")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-trial seed from a master seed and index path."""
    ss = np.random.SeedSequence([int(master_seed), *(int(i) for i in indices)])
    return int(ss.generate_state(1, np.uint64)[0])


def random_unitary(n: int, seed) -> np.ndarray:
    """Seeded unitary from the QR phase-fixed complex Gaussian construction."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    rng = _rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def _power_terms(dd: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """The terms D^j X, j < count, side by side: D^j X fills columns j w..(j+1) w - 1.

    Built by doubling: with the first m terms in hand, one product with D^m
    gives the next m, and D^m is squared, so ceil(log2(count)) products form
    them all.
    """
    w = x.shape[1]
    terms = np.empty((x.shape[0], count * w), dtype=np.complex128)
    terms[:, :w] = x
    power, done = dd, 1
    while done < count:
        step = min(done, count - done)
        terms[:, done * w:(done + step) * w] = power @ terms[:, :step * w]
        done += step
        if done < count:
            power = power @ power
    return terms


@dataclass(frozen=True)
class SchurRealization:
    """Block colligation of a (d+k) x (d+k) unitary.

    The transfer function z -> A + z B (I - z D)^(-1) C maps the disk into
    the norm-one ball; ``sup_bound`` bounds it from the unitarity defect of
    the block matrix (module docstring).  ``transfer_grid`` evaluates it at
    any points, one batched solve per point.
    """

    unitary: np.ndarray
    dim: int

    @property
    def aux_dim(self) -> int:
        return self.unitary.shape[0] - self.dim

    def blocks(self):
        d = self.dim
        u = self.unitary
        return u[:d, :d], u[:d, d:], u[d:, :d], u[d:, d:]

    def coeffs(self, order: int) -> np.ndarray:
        """Taylor coefficients A_0 = A and A_n = B D^(n-1) C, n = 1..order.

        The terms D^j C (j < order) are built by doubling (``_power_terms``).
        """
        a, b, c, dd = self.blocks()
        d = self.dim
        out = np.empty((order + 1, d, d), dtype=np.complex128)
        out[0] = a
        if order == 0:
            return out
        out[1:] = (b @ _power_terms(dd, c, order)).reshape(d, order, d).transpose(1, 0, 2)
        return out

    def transfer_grid(self, zs) -> np.ndarray:
        a, b, c, dd = self.blocks()
        z = np.asarray(zs, dtype=np.complex128).ravel()
        eye = np.eye(self.aux_dim, dtype=np.complex128)
        lhs = eye[None, :, :] - z[:, None, None] * dd[None, :, :]
        x = np.linalg.solve(lhs, np.broadcast_to(c, (z.size, *c.shape)))
        return a[None, :, :] + z[:, None, None] * (b[None, :, :] @ x)

    def sup_bound(self) -> float:
        """1 + delta/2 >= sup ||f(z)|| over |z|^2 <= 1/(1 + delta), delta >= ||U*U - I||."""
        return 1.0 + 0.5 * float(_unitarity_defect(self.unitary))


def _unitarity_defect(u: np.ndarray) -> np.ndarray:
    """An upper bound on ||U*U - I|| for each matrix of a (..., n, n) stack.

    The Frobenius norm of the computed U*U - I bounds the spectral norm of
    the exact one up to rounding: the computed product is within
    gamma_n |U|*|U| of U*U (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 3.5), whose Frobenius norm is at most ||U||_F^2, and
    subtracting I is exact where the diagonal lies in [1/2, 2].  Adding
    2 n u ||U||_F^2 covers that error and the norm's own rounding, about
    (n^2 + 3) u times a defect below 1/4.
    """
    n = u.shape[-1]
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    idx = np.arange(n)
    gram[..., idx, idx] -= 1.0
    frob_sq = (u.real ** 2 + u.imag ** 2).sum(axis=(-2, -1))
    return np.linalg.norm(gram, axis=(-2, -1)) + 2.0 * n * UNIT_ROUNDOFF * frob_sq


def _check_realization(family: str, bound: float) -> float:
    """``bound`` if it is within 1 + ``CERT_SLACK``; raises ``GenerationError`` otherwise."""
    if not bound <= 1.0 + CERT_SLACK:
        raise GenerationError(f"{family} realization is not unitary enough to certify: "
                              f"bound {bound:.12f}")
    return bound


def _frame_envelope(w: np.ndarray, top: float, ratio: float, power: int = 0) -> CoeffEnvelope:
    """Envelope of the stored W diag(s_n) W*, max_j |s_n,j| <= top n^power ratio^(n-1).

    Its scale is (1 + delta_W)(1 + 16 d u) top (module docstring).
    """
    d = w.shape[0]
    growth = (1.0 + float(_unitarity_defect(w))) * (1.0 + 16 * d * UNIT_ROUNDOFF)
    return CoeffEnvelope(growth * top, ratio, power)


def _diag_frame_stack(w: np.ndarray, diag_vals: np.ndarray) -> np.ndarray:
    """Stack of W diag(diag_vals[n]) W* over the leading axis of diag_vals.

    The scaled frames W diag(diag_vals[n]) are stacked into one (M d, d)
    matrix, so a single product with W* forms the whole stack.
    """
    m, d = diag_vals.shape
    scaled = w[None, :, :] * diag_vals[:, None, :]
    return (scaled.reshape(m * d, d) @ adjoint(w)).reshape(m, d, d)


def _exp_herglotz_coeffs(cs: np.ndarray, betas: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of exp(c (1 + beta z)/(1 - beta z)), one column per (c, beta).

    The exponent g has g_0 = c and g_k = 2 c beta^k, so a_0 = e^c and
    n a_n = sum_{k=1..n} k g_k a_{n-k}.  For c > 0 and beta >= 0 every term
    is nonnegative, so a_n is accurate to about n eps, relative, above the
    subnormal range (below n eps against a 40-digit reference, n <= 256).
    """
    k = np.arange(1, order + 1, dtype=np.float64)[:, None]
    kg = 2.0 * k * cs[None, :] * betas[None, :] ** k
    a = np.empty((order + 1, cs.size), dtype=np.float64)
    a[0] = np.exp(cs)
    for n in range(1, order + 1):
        a[n] = (kg[:n] * a[n - 1::-1]).sum(axis=0) / n
    return a.astype(np.complex128)


# Plantable parameters, name -> (condition, test of a value): every entry of
# a planted value passes the test.  beta < 1 keeps every pole 1/beta outside
# the closed disk, c >= 0 every exterior slice's modulus >= 1, and kappa >= 1
# is a condition number.
_PLANTABLE = {
    "c": ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
    "beta": ("in [0, 1)", lambda v: (v >= 0.0) & (v < 1.0)),
    "kappa": ("finite and >= 1", lambda v: (v >= 1.0) & (v < math.inf)),
    "v_norm_sq": ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
    "zeta": ("unimodular within 1e-12", lambda v: np.abs(np.abs(v) - 1.0) <= 1e-12),
    "frame": (f"unitary within {EQ_TOL}", lambda v: _unitarity_defect(v) <= EQ_TOL),
}


def _planted(name: str, value, drawn):
    """``value`` in the dtype and shape of the ``drawn`` value it replaces, a
    scalar broadcast, checked against ``_PLANTABLE``."""
    condition, holds = _PLANTABLE[name]
    like = np.asarray(drawn)
    try:
        planted = np.broadcast_to(np.asarray(value).astype(like.dtype, casting="same_kind"),
                                  like.shape).copy()
    except (TypeError, ValueError):
        raise InvalidInputError(f"planted {name} must be numbers that broadcast to shape "
                                f"{like.shape}, got {value!r}") from None
    if not np.all(holds(planted)):
        raise InvalidInputError(f"planted {name} must be {condition}, got {value!r}")
    return planted[()]


def _direct_sum(unitaries: np.ndarray) -> SchurRealization:
    """The realization of diag(f_1, ..., f_d) from a (d, 1 + k, 1 + k) stack of
    scalar realizations' unitaries: each block of the sum is block diagonal."""
    d, n = unitaries.shape[:2]
    idx = np.c_[np.arange(d), d + np.arange(d * (n - 1)).reshape(d, n - 1)]
    u = np.zeros((d * n, d * n), dtype=np.complex128)
    u[idx[:, :, None], idx[:, None, :]] = unitaries
    return SchurRealization(u, dim=d)


def _harmonic_mix(family: str, g: SchurRealization, h: SchurRealization, t, order: int,
                  frame: np.ndarray | None = None):
    """The harmonic function t g + (1 - t) h* of two realizations, and its aux mapping.

    t is a number, or one value per slice when g and h are direct sums; a
    ``frame`` W then puts each diagonal value s into W diag(s) W*, and the
    bound takes the factor 1 + ||W*W - I||.
    """
    gc, hc = g.coeffs(order), h.coeffs(order)
    analytic = t * gc
    analytic[0] += (1.0 - t) * adjoint(hc[0])
    sup = max(g.sup_bound(), h.sup_bound())
    put = lambda m: m
    if frame is not None:
        put = lambda m: _diag_frame_stack(frame, np.diagonal(m, axis1=-2, axis2=-1))
        sup *= 1.0 + float(_unitarity_defect(frame))

    def eval_exact(zs):
        return put(t * g.transfer_grid(zs) + (1.0 - t) * adjoint(h.transfer_grid(zs)))

    instance = HarmonicSeries(analytic=put(analytic), coanalytic=put((1.0 - t) * hc[1:]))
    return instance, {"eval": eval_exact, "t": t, "sup_cert": _check_realization(family, sup)}


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------

def _build_schur_holo(spec: FamilySpec, rng, plant):
    real = SchurRealization(random_unitary(spec.dim + spec.aux_dim, rng), dim=spec.dim)
    sup = _check_realization("schur_holo", real.sup_bound())
    # Cauchy's estimate on |z| = (1 + delta)^(-1/2), with 1 + delta = 2 M - 1
    ratio = math.sqrt(2.0 * sup - 1.0)
    instance = HoloSeries(real.coeffs(spec.order), CoeffEnvelope(sup * ratio, ratio))
    return instance, {"eval": real.transfer_grid, "realization": real, "sup_cert": sup}


def _build_schur_harmonic(spec: FamilySpec, rng, plant):
    g = SchurRealization(random_unitary(spec.dim + spec.aux_dim, rng), dim=spec.dim)
    h = SchurRealization(random_unitary(spec.dim + spec.aux_dim, rng), dim=spec.dim)
    return _harmonic_mix("schur_harmonic", g, h, float(rng.uniform(0.0, 1.0)), spec.order)


def _build_commuting_harmonic(spec: FamilySpec, rng, plant):
    d = spec.dim
    w = plant("frame", random_unitary(d, rng))
    aux_k = max(2, min(spec.aux_dim, 4))
    ts = rng.uniform(0.0, 1.0, size=d)
    # slice j's g and h realizations are drawn in turn, g first
    scalars = np.stack([random_unitary(1 + aux_k, rng) for _ in range(2 * d)])
    return _harmonic_mix("commuting_harmonic", _direct_sum(scalars[0::2]),
                         _direct_sum(scalars[1::2]), ts, spec.order, frame=w)


def _build_exterior_diag(spec: FamilySpec, rng, plant):
    d, order = spec.dim, spec.order
    w = plant("frame", random_unitary(d, rng))
    cs = plant("c", rng.uniform(0.1, 2.0, size=d))
    betas = plant("beta", rng.uniform(0.0, 0.9, size=d))

    def slice_values(zs):
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        return np.exp(cs[None, :] * (1.0 + betas[None, :] * zs[:, None])
                      / (1.0 - betas[None, :] * zs[:, None]))

    def eval_exact(zs):
        return _diag_frame_stack(w, slice_values(zs))

    instance = HoloSeries(_diag_frame_stack(w, _exp_herglotz_coeffs(cs, betas, order)))

    slice_min = float(np.exp(cs * (1.0 - betas) / (1.0 + betas)).min())
    low = (1.0 - float(_unitarity_defect(w))) * slice_min
    if not low >= 1.0 - CERT_SLACK:
        raise GenerationError(f"exterior_diag sample dips inside the unit ball: min {low:.12f}")
    return instance, {"eval": eval_exact, "min_cert": low}


def _build_exterior_colligation(spec: FamilySpec, rng, plant):
    k, d = spec.aux_dim, spec.dim
    u = random_unitary(k, rng)
    v = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    target = plant("v_norm_sq", float(rng.uniform(0.2, 2.0)))
    v *= math.sqrt(target) / operator_norm(v)
    # Re H >= 0 on |z|^2 <= 1/(1 + delta): the same disk as a Schur bound of 1 + delta/2
    _check_realization("exterior_colligation", 1.0 + 0.5 * float(_unitarity_defect(u)))
    colligation = ColligationSpec(k=k, U=u, V=v)
    coeffs = np.array(coeffs_via_cauchy_integral(
        lambda zs: matrix_exp(herglotz_transfer_grid(colligation, zs)),
        spec.order, 0.5, max(4 * spec.order + 4, 256)).coeffs)
    coeffs[0] = matrix_exp(0.5 * hermitize(adjoint(v) @ v))  # f(0), not from the samples
    return HoloSeries(coeffs), {"min_cert": 1.0, "colligation": colligation}


def _build_convex_diag(spec: FamilySpec, rng, plant):
    d, order = spec.dim, spec.order
    w = plant("frame", random_unitary(d, rng))
    betas = plant("beta", rng.uniform(0.0, 0.85, size=d))
    kappa = plant("kappa", float(rng.uniform(1.0, 6.0)))
    moduli = np.exp(rng.uniform(0.0, math.log(kappa), size=d))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=d))
    # the multiplier shares the diagonalizing frame, so every slice is a
    # scaled scalar convex map and the subordination bounds hold slice-wise
    ts = moduli * phases
    diag_coeffs = np.zeros((order + 1, d), dtype=np.complex128)
    n = np.arange(1, order + 1, dtype=np.float64)
    diag_coeffs[1:] = ts[None, :] * betas[None, :] ** (n[:, None] - 1.0)
    envelope = _frame_envelope(w, float(np.abs(ts).max()), float(betas.max()))
    instance = HoloSeries(_diag_frame_stack(w, diag_coeffs), envelope)

    def eval_exact(zs):
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        vals = ts[None, :] * zs[:, None] / (1.0 - betas[None, :] * zs[:, None])
        return _diag_frame_stack(w, vals)

    liminf = float(np.max(np.abs(ts) / (1.0 + betas)))
    return instance, {"eval": ClosedFormEval(eval_exact, liminf), "multipliers": ts}


def _build_starlike_diag(spec: FamilySpec, rng, plant):
    d, order = spec.dim, spec.order
    w = plant("frame", random_unitary(d, rng))
    zetas = plant("zeta", np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=d)))
    diag_coeffs = np.zeros((order + 1, d), dtype=np.complex128)
    n = np.arange(1, order + 1, dtype=np.float64)
    diag_coeffs[1:] = n[:, None] * zetas[None, :] ** (n[:, None] - 1.0)
    envelope = _frame_envelope(w, 1.0, float(np.abs(zetas).max()) + 4.0 * UNIT_ROUNDOFF, 1)
    if not envelope.scale <= 1.0 + CERT_SLACK:
        raise GenerationError("starlike_diag frame is not unitary enough to certify the "
                              f"coefficient growth bound: scale {envelope.scale:.12f}")
    instance = HoloSeries(_diag_frame_stack(w, diag_coeffs), envelope)

    def eval_exact(zs):
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        vals = zs[:, None] / (1.0 - zetas[None, :] * zs[:, None]) ** 2
        return _diag_frame_stack(w, vals)

    poles = np.sort(np.mod(-np.angle(zetas), 2.0 * math.pi))
    gap = max(float(np.diff(poles).max(initial=0.0)), 2.0 * math.pi - float(poles[-1] - poles[0]))
    liminf = 1.0 / (4.0 * math.sin(0.25 * gap) ** 2)
    return instance, {"eval": ClosedFormEval(eval_exact, liminf)}


def _build_subordination(spec: FamilySpec, rng, plant):
    order = spec.order
    aux_k = max(2, min(spec.aux_dim, 6))
    real = SchurRealization(random_unitary(1 + aux_k, rng), dim=1)
    phi = np.zeros(order + 1, dtype=np.complex128)
    phi[1:] = real.coeffs(max(order - 1, 0))[:order, 0, 0]
    sup = _check_realization("subordination witness", real.sup_bound())
    witness = SubordinationWitness(phi=ScalarSeries(phi), coeff_growth=max(1.0, sup))
    return witness, {"eval_phi": lambda zs: np.ravel(zs) * real.transfer_grid(zs)[:, 0, 0],
                     "sup_cert": sup}


def gaussian_coeff_sequence(dim: int, order: int, seed) -> np.ndarray:
    """Random matrix sequence scaled so the square sum sits below the identity."""
    rng = _rng(seed)
    h = rng.standard_normal((order + 1, dim, dim)) + 1j * rng.standard_normal((order + 1, dim, dim))
    gram = np.sum(adjoint(h) @ h, axis=0)
    top = float(np.linalg.eigvalsh(hermitize(gram))[-1])
    return h / math.sqrt(top * (1.0 + 1e-12))


def ordered_triples(count: int, seed, scale: float = 5.0) -> np.ndarray:
    """(count, 3) array of (alpha, beta, gamma) with 0 <= gamma <= alpha <= beta."""
    rng = _rng(seed)
    draws = np.sort(rng.uniform(0.0, scale, size=(count, 3)), axis=1)
    return np.stack([draws[:, 1], draws[:, 2], draws[:, 0]], axis=1)


def _build_gaussian_sequence(spec: FamilySpec, rng, plant):
    return HoloSeries(gaussian_coeff_sequence(spec.dim, spec.order, rng)), {}


def _build_ordered_triple(spec: FamilySpec, rng, plant):
    return tuple(ordered_triples(1, rng)[0]), {}


_BUILDERS = {
    "schur_holo": _build_schur_holo,
    "schur_harmonic": _build_schur_harmonic,
    "commuting_harmonic": _build_commuting_harmonic,
    "exterior_diag": _build_exterior_diag,
    "exterior_colligation": _build_exterior_colligation,
    "convex_diag": _build_convex_diag,
    "starlike_diag": _build_starlike_diag,
    "subordination": _build_subordination,
    "gaussian_sequence": _build_gaussian_sequence,
    "ordered_triple": _build_ordered_triple,
}

FAMILY_IDS = tuple(_BUILDERS)

_PAIRABLE = {"schur_holo", "convex_diag", "starlike_diag"}

def sample(spec: FamilySpec, with_aux: bool = False):
    """Draw the instance described by ``spec``.

    Each builder draws its named parameters (``_PLANTABLE``) from the seeded
    stream, and a ``params`` entry of that name replaces the drawn value.  The
    draw is made all the same, so every value after it is as drawn.  The aux
    mapping holds every named parameter, planted or drawn.  A ``params`` key
    that no family plants raises ``InvalidInputError`` before the draw, and a
    plantable name that this family's draw does not read raises it after.

    Families in {schur_holo, convex_diag, starlike_diag} accept
    ``params["with_witness"] = True`` and then return the pair
    (series, SubordinationWitness), with the witness drawn from the same
    seeded stream.
    """
    def reject_unknown(known, which: str):
        unknown = sorted(set(spec.params) - {"with_witness", *known})
        if unknown:
            raise InvalidInputError(
                f"unknown parameter(s) for {spec.family_id}: {', '.join(unknown)}; expected "
                f"with_witness or {which}: {', '.join(sorted(known)) or 'none'}")

    reject_unknown(_PLANTABLE, "a plantable name")
    rng = _rng(spec.seed)
    named = {}

    def plant(name, drawn):
        named[name] = _planted(name, spec.params[name], drawn) if name in spec.params else drawn
        return named[name]

    instance, aux = _BUILDERS[spec.family_id](spec, rng, plant)
    reject_unknown(named, "a name its draw reads")
    aux = {**aux, **named}
    if spec.params.get("with_witness", False):
        if spec.family_id not in _PAIRABLE:
            raise ContractError(f"{spec.family_id} does not produce (series, witness) pairs")
        wspec = FamilySpec(family_id="subordination", dim=1, aux_dim=spec.aux_dim,
                           order=spec.order, seed=spec.seed)
        # the witness plants nothing
        witness, waux = _build_subordination(wspec, rng, lambda name, drawn: drawn)
        aux = {**aux, "witness_aux": waux}
        instance = (instance, witness)
    return (instance, aux) if with_aux else instance


# ---------------------------------------------------------------------------
# planted extremal instances
# ---------------------------------------------------------------------------

def mobius_scalar_coeffs(a: float, order: int) -> np.ndarray:
    """Coefficients of (a - z)/(1 - a z): a, then -(1-a^2) a^(n-1)."""
    if not (0.0 <= a < 1.0):
        raise InvalidInputError("Mobius parameter must lie in [0, 1)")
    c = np.empty(order + 1, dtype=np.complex128)
    c[0] = a
    if order >= 1:
        c[1:] = -(1.0 - a * a) * a ** np.arange(order, dtype=np.float64)
    return c


def mobius_series(a: float, dim: int, order: int) -> HoloSeries:
    return HoloSeries.from_scalar(mobius_scalar_coeffs(a, order), dim)


def koebe_scalar_coeffs(order: int) -> np.ndarray:
    """Coefficients n of z/(1-z)^2."""
    return np.arange(order + 1, dtype=np.complex128)


def koebe_series(dim: int, order: int) -> HoloSeries:
    """z/(1-z)^2 times the identity, with its exact envelope a_n = n."""
    f = HoloSeries.from_scalar(koebe_scalar_coeffs(order), dim)
    return HoloSeries(f.coeffs, CoeffEnvelope(1.0, 1.0, 1))


def identity_witness(order: int) -> SubordinationWitness:
    """The witness phi(z) = z (subordination by the identity map)."""
    phi = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        phi[1] = 1.0
    return SubordinationWitness(phi=ScalarSeries(phi))
