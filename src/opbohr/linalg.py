"""Dense complex matrix primitives: norms, absolute values, Loewner order, spectra.

Matrices are plain ``numpy`` arrays of complex128.  Most operations accept a
single ``(d, d)`` matrix or a stack ``(..., d, d)`` and act on the last two
axes, which keeps the inequality checkers fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InvalidInputError, NumericError


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical slack used throughout the package.

    psd_tol   relative slack for Loewner (positive semidefinite) comparisons
    eq_tol    slack for scalar equalities and Hermitian-ness contracts
    quad_tol  convergence target for quadrature and decomposition residuals
    """

    psd_tol: float = 1e-9
    eq_tol: float = 1e-9
    quad_tol: float = 1e-10

    def __post_init__(self):
        if min(self.psd_tol, self.eq_tol, self.quad_tol) < 0:
            raise InvalidInputError("tolerances must be nonnegative")


DEFAULT_TOL = ToleranceProfile()


class LoewnerResult(NamedTuple):
    holds: bool
    margin: float


def all_finite(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag)))


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate a single square complex matrix and return it as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not all_finite(a):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def as_matrix_stack(m, name: str = "matrix") -> np.ndarray:
    """Validate a matrix or stack of matrices over the last two axes."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"{name} must have square trailing axes, got shape {a.shape}")
    if not all_finite(a):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (M + M*)/2, over the last two axes."""
    return 0.5 * (m + adjoint(m))


def operator_norm(m):
    """Largest singular value (rectangular input allowed).

    Computed as the square root of the top eigenvalue of the smaller Gram
    matrix (M*M for tall or square input, MM* for wide input), clipped at 0.
    Its relative error is about d * eps with d the Gram dimension.  Norms
    below about 1e-154 may round toward 0, since the Gram squares them; a
    finite input whose Gram overflows (norm above about 1e154) raises
    ``NumericError``.  For a stack over leading axes, returns an array of
    norms.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InvalidInputError(f"operator norm needs a matrix, got shape {a.shape}")
    if not all_finite(a):
        raise InvalidInputError("matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = adjoint(a) @ a if a.shape[-2] >= a.shape[-1] else a @ adjoint(a)
    if not all_finite(gram):
        raise NumericError(f"Gram matrix overflows (entries up to {np.abs(a).max():.3e})")
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigvalsh of the Gram matrix failed: {exc}") from exc
    top = np.sqrt(np.maximum(w[..., -1], 0.0))
    return float(top) if a.ndim == 2 else top


def abs_value(m):
    """Operator absolute value |M| = (M*M)^(1/2), elementwise over a stack.

    Computed from the Hermitian eigendecomposition of M*M.  Eigenvalues that
    round off slightly negative are clamped to zero before the square root, so
    the result is Hermitian positive semidefinite by construction.
    """
    a = as_matrix_stack(m)
    gram = hermitize(adjoint(a) @ a)
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition of M*M failed (norm ~ {np.abs(a).max():.3e}): {exc}"
        ) from exc
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[..., None, :]) @ adjoint(v)
    return hermitize(root)


def re_im_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian decomposition (Re M, Im M) = ((M+M*)/2, (M-M*)/2i).

    Both parts are Hermitian and Re M + i Im M reconstructs M.
    """
    a = as_matrix_stack(m)
    re = 0.5 * (a + adjoint(a))
    im = (a - adjoint(a)) / 2j
    return re, im


def smallest_eigenvalue(h):
    """Smallest eigenvalue of a Hermitian matrix (symmetrized defensively).

    For a stack over leading axes, returns an array of smallest eigenvalues.
    """
    a = as_matrix_stack(h)
    try:
        w = np.linalg.eigvalsh(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigvalsh failed: {exc}") from exc
    low = w[..., 0]
    return float(low) if a.ndim == 2 else low


def loewner_leq(a, b, tol: ToleranceProfile = DEFAULT_TOL) -> LoewnerResult:
    """Test A <= B in the Loewner order, returning (holds, margin).

    margin is the smallest eigenvalue of B - A; the comparison passes when
    margin >= -psd_tol * max(1, ||A|| + ||B||).  Inputs must be Hermitian
    within eq_tol relative to that same scale.
    """
    ma = as_matrix(a, "A")
    mb = as_matrix(b, "B")
    if ma.shape != mb.shape:
        raise InvalidInputError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    scale = operator_norm(ma) + operator_norm(mb)
    herm_slack = tol.eq_tol * max(1.0, scale)
    for name, m in (("A", ma), ("B", mb)):
        if operator_norm(m - adjoint(m)) > herm_slack:
            raise ContractError(f"{name} is not Hermitian within tolerance")
    margin = smallest_eigenvalue(mb - ma)
    return LoewnerResult(margin >= -tol.psd_tol * max(1.0, scale), margin)


def spectrum(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues with multiplicity, as a length-d complex array.

    For (numerically) normal input the eigenpair residuals ||Mv - lambda v||
    are checked against quad_tol * max(1, ||M||).
    """
    a = as_matrix(m)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    norm = operator_norm(a)
    normal_defect = operator_norm(a @ adjoint(a) - adjoint(a) @ a)
    if normal_defect <= tol.eq_tol * max(1.0, norm**2):
        resid = np.linalg.norm(a @ v - v * w[None, :], axis=0)
        vlen = np.linalg.norm(v, axis=0)
        worst = float(np.max(resid / np.maximum(vlen, 1e-300)))
        if worst > tol.quad_tol * max(1.0, norm):
            raise NumericError(
                f"eigenpair residual {worst:.3e} exceeds target for a normal matrix"
            )
    return w


def hausdorff_distance(s1, s2) -> float:
    """Hausdorff distance between two finite nonempty sets of complex points."""
    a = np.asarray(s1, dtype=np.complex128).ravel()
    b = np.asarray(s2, dtype=np.complex128).ravel()
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("Hausdorff distance requires nonempty sets")
    if not (all_finite(a) and all_finite(b)):
        raise InvalidInputError("point sets must be finite")
    pair = np.abs(a[:, None] - b[None, :])
    return float(max(pair.min(axis=1).max(), pair.min(axis=0).max()))
