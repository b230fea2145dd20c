"""Matrix exponential/logarithm, contour-integral logarithm, and unitary
colligation evaluation.

The logarithm comes in two routes that cross-check each other:

* ``log_eig_normal`` diagonalizes a normal matrix and applies a scalar branch
  logarithm to the eigenvalues (the oracle path);
* ``log_riesz_dunford`` evaluates the resolvent integral
  (1/2*pi*i) * integral of log(xi) (xi I - M)^(-1) d(xi) over a circle by
  trapezoidal quadrature, which converges geometrically for analytic
  integrands on circles.

A branch is described by the direction of the ray excluded from the plane;
the angle pi reproduces the principal branch on the slit plane C \\ (-inf, 0].
A finite spectrum can never separate 0 from infinity in the plane, so the
only operative preconditions for a matrix logarithm are that 0 lies outside
the spectrum and that the spectrum stays off the chosen branch ray.

``matrix_exp`` exponentiates a whole stack in numpy, by scaling and squaring
around the degree-13 Pade approximant r13 (Higham, "The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26,
2005).  Each matrix M is scaled by its own 2^-s, the least s >= 0 with
||2^-s M||_1 <= theta_13 = 5.371920351148152, where r13 is accurate to double
precision; r13(2^-s M) is then squared s times.  Every step acts on the whole
stack at once, and a matrix's result does not depend on the stack it arrives
in.  A matrix with ||M|| > ``EXP_NORM_CAP`` = 300 raises ``RangeError``.

The contracts (a unitary U, a normal or Hermitian matrix, a spectrum off the
branch ray) hold within ``linalg.EQ_TOL``, and the contour quadrature stops
when two successive results agree within ``linalg.QUAD_TOL``; neither is a
parameter.

``scipy.linalg`` is imported on first use, only for the complex Schur form of
a non-Hermitian normal matrix in ``log_eig_normal``: loading it costs more
than half of a process start, and runs that never take such a logarithm
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutError,
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

# exp(x) overflows double precision near 709; stay far below it.
EXP_NORM_CAP = 300.0


@dataclass(frozen=True)
class BranchCut:
    """Logarithm branch determined by the excluded ray {t e^(i angle) : t >= 0}."""

    angle: float = math.pi

    def __post_init__(self):
        if not (-math.pi < self.angle <= math.pi):
            raise InvalidInputError("branch angle must lie in (-pi, pi]")

    def ray_distance(self, z: complex) -> float:
        """Euclidean distance from z to the excluded ray."""
        w = complex(z) * np.exp(-1j * self.angle)
        if w.real >= 0.0:
            return abs(w.imag)
        return abs(w)

    def log(self, values):
        """Scalar branch logarithm with argument in (angle - 2*pi, angle]."""
        v = np.asarray(values, dtype=np.complex128)
        arg = self.angle - np.mod(self.angle - np.angle(v), 2.0 * math.pi)
        return np.log(np.abs(v)) + 1j * arg


PRINCIPAL_CUT = BranchCut(math.pi)


@dataclass(frozen=True)
class ContourSpec:
    """A single positively oriented circle with a trapezoidal node count."""

    center: complex
    radius: float
    nodes: int = 512

    def __post_init__(self):
        if not (self.radius > 0):
            raise InvalidInputError("contour radius must be positive")
        if self.nodes < 16:
            raise InvalidInputError("contour needs at least 16 nodes")


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

# Relative slack under the norm cap below which sqrt(||M||_1 ||M||_inf), an
# upper bound of ||M||, clears a matrix without its exact norm: far above the
# rounding of either computed value (a few d * eps).
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
    matrix must satisfy ||M|| <= EXP_NORM_CAP, or ``RangeError`` is raised.
    """
    a = as_matrix_stack(m)
    shape = a.shape
    if a.size == 0:
        return np.empty(shape, dtype=np.complex128)
    a = a.reshape((-1,) + shape[-2:])
    mags = np.abs(a)
    norm1 = mags.sum(axis=-2).max(axis=-1)
    # ||M|| <= sqrt(||M||_1 ||M||_inf): only matrices whose bound nears the
    # cap need their exact norm
    bound = np.sqrt(norm1 * mags.sum(axis=-1).max(axis=-1))
    near = a[bound > (1.0 - _CAP_SLACK) * EXP_NORM_CAP]
    if near.size and np.any(operator_norm(near) > EXP_NORM_CAP):
        raise RangeError(f"||M|| exceeds the exp cap {EXP_NORM_CAP}")
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


def _normal_eigensystem(m: np.ndarray):
    """Unitary diagonalization of a normal matrix: ``eigh`` when it is
    Hermitian within EQ_TOL * max(1, ||M||) entrywise, else a complex Schur form."""
    norm = operator_norm(m)
    defect = operator_norm(m @ adjoint(m) - adjoint(m) @ m)
    if defect > EQ_TOL * max(1.0, norm**2):
        raise ContractError(f"matrix is not normal within tolerance (defect {defect:.3e})")
    if np.allclose(m, adjoint(m), rtol=0.0, atol=EQ_TOL * max(1.0, norm)):
        w, z = np.linalg.eigh(hermitize(m))
        return w.astype(np.complex128), z
    from scipy.linalg import schur

    t, z = schur(m, output="complex")
    off = t - np.diag(np.diag(t))
    if operator_norm(off) > math.sqrt(EQ_TOL) * max(1.0, norm):
        raise NumericError("Schur form of a nominally normal matrix is far from diagonal")
    return np.diag(t), z


def log_eig_normal(m, cut: BranchCut = PRINCIPAL_CUT) -> np.ndarray:
    """Logarithm of a normal matrix through its eigenvalues.

    The spectrum must exclude 0 and stay off the branch ray; exp of the result
    reconstructs the input within QUAD_TOL * ||M||.
    """
    a = as_matrix(m)
    w, z = _normal_eigensystem(a)
    scale = max(1.0, float(np.abs(w).max()))
    for lam in w:
        if cut.ray_distance(complex(lam)) <= EQ_TOL * scale:
            raise BranchCutError(
                f"eigenvalue {complex(lam):.6g} touches the branch ray at angle {cut.angle:.6g}"
            )
    return z @ np.diag(cut.log(w)) @ adjoint(z)


def auto_contour(m, nodes: int = 512, factor: float = 1.25) -> ContourSpec:
    """Circle centered at the spectral centroid with radius factor * spread.

    Deterministic; the result may still violate ``log_riesz_dunford``'s
    geometric preconditions, in which case that call rejects it.
    """
    a = as_matrix(m)
    eigs = np.linalg.eigvals(a)
    center = complex(eigs.mean())
    spread = float(np.abs(eigs - center).max())
    radius = factor * spread if spread > 0 else 0.25 * max(1.0, abs(center))
    return ContourSpec(center=center, radius=radius, nodes=nodes)


def _check_contour_geometry(eigs: np.ndarray, contour: ContourSpec, cut: BranchCut) -> None:
    gap = np.abs(eigs - contour.center)
    slack = 1e-12 * max(1.0, contour.radius)
    if float(gap.max()) >= contour.radius - slack:
        raise ContourError(
            f"contour (center {contour.center:.6g}, radius {contour.radius:.6g}) "
            f"does not strictly enclose the spectrum (max |lambda - c| = {gap.max():.6g})"
        )
    if abs(contour.center) <= contour.radius + slack:
        raise ContourError("closed disk bounded by the contour must exclude 0")
    if cut.ray_distance(contour.center) <= contour.radius + slack:
        raise ContourError("closed disk bounded by the contour meets the branch ray")


def _trapezoid_log(m: np.ndarray, contour: ContourSpec, cut: BranchCut, nodes: int) -> np.ndarray:
    d = m.shape[0]
    phi = 2.0 * math.pi * np.arange(nodes) / nodes
    rot = np.exp(1j * phi)
    xi = contour.center + contour.radius * rot
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
    weights = cut.log(xi) * rot * (contour.radius / nodes)
    return np.tensordot(weights, resolvents, axes=(0, 0))


def log_riesz_dunford(m, contour: ContourSpec | None = None,
                      cut: BranchCut = PRINCIPAL_CUT,
                      max_nodes: int = 65536) -> np.ndarray:
    """Contour-integral logarithm over a circle enclosing the spectrum.

    Starts at ``contour.nodes`` quadrature points and doubles the count until
    two successive results agree within QUAD_TOL * max(1, ||result||).
    """
    a = as_matrix(m)
    if contour is None:
        contour = auto_contour(a)
    eigs = np.linalg.eigvals(a)
    _check_contour_geometry(eigs, contour, cut)
    nodes = contour.nodes
    current = _trapezoid_log(a, contour, cut, nodes)
    while True:
        if nodes >= max_nodes:
            raise NumericError(f"quadrature did not converge within {max_nodes} nodes")
        nodes *= 2
        refined = _trapezoid_log(a, contour, cut, nodes)
        if operator_norm(refined - current) <= QUAD_TOL * max(1.0, operator_norm(refined)):
            return refined
        current = refined


def herglotz_transfer(c: ColligationSpec, z: complex) -> np.ndarray:
    """(1/2) V*(I+zU)(I-zU)^(-1) V, the logarithm of the realized function.

    Its real part is positive semidefinite for every |z| < 1.
    """
    if abs(z) >= 1.0:
        raise DomainError(f"|z| must be < 1, got {abs(z):.6g}")
    eye = np.eye(c.k, dtype=np.complex128)
    try:
        w = np.linalg.solve(eye - z * c.U, c.V)
    except np.linalg.LinAlgError as exc:  # unreachable for |z| < 1 and unitary U
        raise NumericError(f"(I - zU) solve failed: {exc}") from exc
    return 0.5 * adjoint(c.V) @ (w + z * (c.U @ w))


def herglotz_transfer_grid(c: ColligationSpec, zs) -> np.ndarray:
    """Vectorized ``herglotz_transfer`` over a 1-D array of points."""
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
