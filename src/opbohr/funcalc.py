"""Matrix exponential/logarithm, contour-integral logarithm, and unitary
colligation evaluation.

The package takes one logarithm, log A_0 of a Hermitian A_0 with spectrum in
[1, inf) (the exterior-valued theorem t2), on the principal branch.  It
comes in two routes that cross-check each other:

* ``log_hermitian`` applies the real logarithm to the eigenvalues of a
  Hermitian positive definite matrix from ``eigh`` (the route t2 takes);
* ``log_riesz_dunford`` evaluates the resolvent integral
  (1/2*pi*i) * integral of log(xi) (xi I - M)^(-1) d(xi) over a circle whose
  closed disk misses (-inf, 0] by trapezoidal quadrature, which converges
  geometrically for analytic integrands on circles.  It takes any square
  matrix, so it is an oracle independent of ``eigh``.

``matrix_exp`` exponentiates a whole stack in numpy, by scaling and squaring
around the degree-13 Pade approximant r13 (Higham, "The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26,
2005).  Each matrix M is scaled by its own 2^-s, the least s >= 0 with
||2^-s M||_1 <= theta_13 = 5.371920351148152, where r13 is accurate to double
precision; r13(2^-s M) is then squared s times.  Every step acts on the whole
stack at once, and a matrix's result does not depend on the stack it arrives
in.  A matrix with lambda_max(Re M) > ``EXP_NORM_CAP`` = 300, which bounds
log ||exp(M)||, raises ``RangeError``.

The contracts (a unitary U, a Hermitian matrix) hold within
``linalg.EQ_TOL``, and the contour quadrature stops when two successive
results agree within ``linalg.QUAD_TOL``; neither is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourError,
    ContractError,
    DomainError,
    InvalidInputError,
    NumericError,
    RangeError,
)
from .linalg import (
    EQ_TOL,
    QUAD_TOL,
    adjoint,
    all_finite,
    as_matrix,
    as_matrix_stack,
    hermitize,
    operator_norm,
)

# exp(x) overflows double precision near 709; ||exp(M)|| <= exp(lambda_max(Re M))
# stays far below it.
EXP_NORM_CAP = 300.0

# Trapezoidal nodes of the first contour quadrature, and the count at which
# doubling stops without convergence.
CONTOUR_NODES = 512
CONTOUR_MAX_NODES = 65536


@dataclass(frozen=True)
class ColligationSpec:
    """Unitary U on a k-dimensional space plus V mapping dimension d into it.

    Generates the exterior-valued function exp((1/2) V*(I+zU)(I-zU)^(-1) V);
    its logarithm has constant term (1/2) V*V and higher coefficients V* U^n V.
    """

    k: int
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.U, "U")
        v = np.asarray(self.V, dtype=np.complex128)
        if u.shape != (self.k, self.k):
            raise InvalidInputError(f"U must be {self.k}x{self.k}")
        if v.ndim != 2 or v.shape[0] != self.k:
            raise InvalidInputError("V must map the d-dimensional space into the k-dimensional one")
        if not all_finite(v):
            raise InvalidInputError("V has non-finite entries")
        if operator_norm(adjoint(u) @ u - np.eye(self.k)) > EQ_TOL:
            raise InvalidInputError("U is not unitary within tolerance")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)

    @property
    def dim(self) -> int:
        return self.V.shape[1]


# Numerator coefficients b_0..b_13 of the degree-13 Pade approximant to exp,
# and the largest 1-norm at which it is accurate to double precision (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

# Relative slack under the cap below which sqrt(||M||_1 ||M||_inf), an upper
# bound of ||M|| and so of lambda_max(Re M), clears a matrix without an
# eigenvalue: far above the rounding of either computed value (a few d * eps).
_CAP_SLACK = 1e-8


def _pade13_squarings(norm1: np.ndarray) -> np.ndarray:
    """The least s >= 0 with 2^-s ||M||_1 <= theta_13, for each 1-norm given."""
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(norm1 / _THETA13)), 0.0).astype(np.int64)
    # log2 may round across an integer; ldexp is exact, so settle s on it
    s += np.ldexp(norm1, -s) > _THETA13
    s -= (s > 0) & (np.ldexp(norm1, 1 - s) <= _THETA13)
    return s


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential of one matrix or a stack (..., d, d).

    Scaling and squaring around the degree-13 Pade approximant r13 (Higham
    2005), for the whole stack at once: each matrix M is scaled by its own
    2^-s, the least s >= 0 with ||2^-s M||_1 <= theta_13 = 5.371920351148152;
    r13(X) = (V - U)^-1 (V + U), from X^2, X^4, X^6 and one batched solve; then
    each result is squared its own s times.  So each matrix is exponentiated
    as it would be alone.  A stack of 1x1 matrices is ``np.exp``.  Every
    matrix must satisfy lambda_max(Re M) <= EXP_NORM_CAP, with
    Re M = (M + M*)/2, or ``RangeError`` is raised: ||exp(M)|| <=
    exp(lambda_max(Re M)) bounds the result and every squaring, so exp(-H)
    with Re H >= 0 is taken at any norm.  The Pade step's backward error is
    at most u ||M|| (u = 2^-53), so accuracy falls as ||M|| grows.
    """
    a = as_matrix_stack(m)
    shape = a.shape
    if a.size == 0:
        return np.empty(shape, dtype=np.complex128)
    a = a.reshape((-1,) + shape[-2:])
    mags = np.abs(a)
    norm1 = mags.sum(axis=-2).max(axis=-1)
    if not np.isfinite(norm1).all():
        raise RangeError("the 1-norm of a matrix overflows")
    # lambda_max(Re M) <= ||M|| <= sqrt(||M||_1 ||M||_inf): only matrices whose
    # bound nears the cap need their exact lambda_max(Re M)
    bound = np.sqrt(norm1 * mags.sum(axis=-1).max(axis=-1))
    near = a[bound > (1.0 - _CAP_SLACK) * EXP_NORM_CAP]
    if near.size and not np.all(np.linalg.eigvalsh(hermitize(near))[:, -1] <= EXP_NORM_CAP):
        raise RangeError(f"lambda_max(Re M) exceeds the exp cap {EXP_NORM_CAP}")
    if shape[-1] == 1:
        return np.exp(a).reshape(shape)
    s = _pade13_squarings(norm1)
    b = _PADE13
    eye = np.eye(shape[-1], dtype=np.complex128)
    x = np.ldexp(1.0, -s)[:, None, None] * a
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max())):
        more = s > k
        r[more] = r[more] @ r[more]
    return r.reshape(shape)


def log_hermitian(m) -> np.ndarray:
    """Logarithm of a Hermitian positive definite matrix through ``eigh``.

    M must be Hermitian within EQ_TOL * max(1, ||M||) entrywise, or
    ``ContractError`` is raised; its smallest eigenvalue must exceed
    EQ_TOL * max(1, max |lambda|), or ``DomainError`` is raised.  The result
    is Z diag(log lambda) Z* from ``eigh`` of the Hermitian part of M.
    """
    a = as_matrix(m)
    if not np.allclose(a, adjoint(a), rtol=0.0, atol=EQ_TOL * max(1.0, operator_norm(a))):
        raise ContractError("matrix is not Hermitian within tolerance")
    w, z = np.linalg.eigh(hermitize(a))
    if w[0] <= EQ_TOL * max(1.0, float(np.abs(w).max())):
        raise DomainError(f"smallest eigenvalue {w[0]:.6g} is not positive")
    return z @ np.diag(np.log(w).astype(complex)) @ adjoint(z)


def _check_contour_geometry(eigs: np.ndarray, center: complex, radius: float) -> None:
    if not (np.isfinite(center) and math.isfinite(radius)):
        raise InvalidInputError("contour center and radius must be finite")
    gap = np.abs(eigs - center)
    slack = 1e-12 * max(1.0, radius)
    if float(gap.max()) >= radius - slack:
        raise ContourError(
            f"contour (center {center:.6g}, radius {radius:.6g}) "
            f"does not strictly enclose the spectrum (max |lambda - c| = {gap.max():.6g})"
        )
    # distance from the center to the cut (-inf, 0], which holds 0
    cut_distance = abs(center.imag) if center.real <= 0.0 else abs(center)
    if cut_distance <= radius + slack:
        raise ContourError("closed disk bounded by the contour meets (-inf, 0]")


def _trapezoid_log(m: np.ndarray, center: complex, radius: float, nodes: int) -> np.ndarray:
    d = m.shape[0]
    phi = 2.0 * math.pi * np.arange(nodes) / nodes
    rot = np.exp(1j * phi)
    xi = center + radius * rot
    lhs = xi[:, None, None] * np.eye(d)[None, :, :] - m[None, :, :]
    rhs = np.broadcast_to(np.eye(d, dtype=np.complex128), (nodes, d, d))
    try:
        resolvents = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "near-singular resolvent at a quadrature node; move or shrink the contour"
        ) from exc
    residual = float(np.abs(lhs @ resolvents - rhs).max())
    if residual > 1e-6:
        raise NumericError(
            f"resolvent solve residual {residual:.3e}; move or shrink the contour"
        )
    weights = np.log(xi) * rot * (radius / nodes)
    return np.tensordot(weights, resolvents, axes=(0, 0))


def log_riesz_dunford(m, center: complex, radius: float) -> np.ndarray:
    """Principal logarithm of any square matrix as a contour integral over
    the circle |xi - center| = radius.

    The circle must strictly enclose the spectrum, and its closed disk must
    miss (-inf, 0], or ``ContourError`` is raised; a center or radius that is
    not finite raises ``InvalidInputError``.  The quadrature starts at
    ``CONTOUR_NODES`` points and doubles the count until two successive
    results agree within QUAD_TOL * max(1, ||result||), or raises
    ``NumericError`` at ``CONTOUR_MAX_NODES``.
    """
    a = as_matrix(m)
    center, radius = complex(center), float(radius)
    _check_contour_geometry(np.linalg.eigvals(a), center, radius)
    nodes = CONTOUR_NODES
    current = _trapezoid_log(a, center, radius, nodes)
    while True:
        if nodes >= CONTOUR_MAX_NODES:
            raise NumericError(f"quadrature did not converge within {CONTOUR_MAX_NODES} nodes")
        nodes *= 2
        refined = _trapezoid_log(a, center, radius, nodes)
        if operator_norm(refined - current) <= QUAD_TOL * max(1.0, operator_norm(refined)):
            return refined
        current = refined


def herglotz_transfer_grid(c: ColligationSpec, zs) -> np.ndarray:
    """(1/2) V*(I+zU)(I-zU)^(-1) V, the logarithm of the realized function, at
    every point of a 1-D array of points of the open disk: a (len, d, d) stack.

    Its real part is positive semidefinite for every |z| < 1.
    """
    z = np.asarray(zs, dtype=np.complex128).ravel()
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("all evaluation points must satisfy |z| < 1")
    eye = np.eye(c.k, dtype=np.complex128)
    lhs = eye[None, :, :] - z[:, None, None] * c.U[None, :, :]
    w = np.linalg.solve(lhs, np.broadcast_to(c.V, (z.size, *c.V.shape)))
    inner = w + z[:, None, None] * (c.U[None, :, :] @ w)
    return 0.5 * adjoint(c.V)[None, :, :] @ inner


def colligation_log_coeff(c: ColligationSpec, n: int) -> np.ndarray:
    """Taylor coefficient V* U^n V of the realized logarithm, for n >= 1.

    The constant term is (1/2) V*V, not V* U^0 V; asking for n = 0 is a
    contract error that points the caller there.
    """
    if n < 1:
        raise ContractError("n = 0 coefficient is (1/2) V*V (the realized log at 0)")
    return adjoint(c.V) @ np.linalg.matrix_power(c.U, n) @ c.V
