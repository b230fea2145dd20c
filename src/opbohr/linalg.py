"""Dense complex matrix primitives: norms, absolute values, Gram parts, eigenvalues.

Matrices are plain ``numpy`` arrays of complex128.  Most operations accept a
single ``(d, d)`` matrix or a stack ``(..., d, d)`` and act on the last two
axes, which keeps the inequality checkers fully vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericError


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
        tols = (self.psd_tol, self.eq_tol, self.quad_tol)
        if not all(math.isfinite(t) and t >= 0 for t in tols):
            raise InvalidInputError("tolerances must be finite and nonnegative")


DEFAULT_TOL = ToleranceProfile()


def all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


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


def _norm_input(m) -> np.ndarray:
    """A validated matrix or stack, C-contiguous, so that a matrix's Gram
    product does not depend on the layout or the stack it comes in."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InvalidInputError(f"operator norm needs a matrix, got shape {a.shape}")
    if not all_finite(a):
        raise InvalidInputError("matrix has non-finite entries")
    return a


def _is_tall(a: np.ndarray) -> bool:
    return a.shape[-2] >= a.shape[-1]


def _gram_top_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the smaller Gram matrix of each matrix of a
    (M*M for tall or square input, MM* for wide input)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = adjoint(a) @ a if _is_tall(a) else a @ adjoint(a)
    if not all_finite(gram):
        raise NumericError(f"Gram matrix overflows (entries up to {np.abs(a).max():.3e})")
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigvalsh of the Gram matrix failed: {exc}") from exc
    return w[..., -1]


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
    a = _norm_input(m)
    top = np.sqrt(np.maximum(_gram_top_eigenvalues(a), 0.0))
    return float(top) if a.ndim == 2 else top


# Relative slack of the pruning in min_operator_norm: far above the relative
# error of the Gram diagonal and of eigvalsh (small multiples of d * eps).
# The absolute floor covers the subnormal range, where errors are absolute.
_PRUNE_SLACK = 1e-8
_PRUNE_FLOOR = 1e-290


def min_operator_norm(m) -> float:
    """Smallest operator norm over a stack: ``operator_norm(m).min()``, bit for bit.

    The top eigenvalue of a Gram matrix G is at least max_k G_kk, the largest
    squared column norm (row norm for wide input).  One matrix, the one with
    the smallest such bound, goes through ``eigvalsh`` first; a matrix whose
    bound exceeds that eigenvalue by more than the slack cannot hold the
    minimum and is skipped.  Only the others have their Gram matrices formed
    and go through ``eigvalsh``.  A stack of 1x1 matrices needs no
    ``eigvalsh`` at all: each Gram matrix is its own eigenvalue.  Non-finite
    input anywhere raises ``InvalidInputError``, and a Gram diagonal that
    overflows anywhere raises ``NumericError``, as in ``operator_norm``.
    """
    a = _norm_input(m)
    a = a.reshape((-1,) + a.shape[-2:])
    if a.shape[0] == 0:
        raise InvalidInputError("minimum operator norm of an empty stack")
    with np.errstate(over="ignore"):
        diag = (a.real ** 2 + a.imag ** 2).sum(axis=-2 if _is_tall(a) else -1)
    if not all_finite(diag):
        raise NumericError(f"Gram matrix overflows (entries up to {np.abs(a).max():.3e})")
    lower = diag.max(axis=-1)
    if a.shape[-2:] == (1, 1):
        # a 1x1 Gram matrix is its own eigenvalue, re^2 + im^2
        return float(np.sqrt(lower.min()))
    probe_top = max(float(_gram_top_eigenvalues(a[np.argmin(lower)])), 0.0)
    candidates = a[lower <= (1.0 + _PRUNE_SLACK) * probe_top + _PRUNE_FLOOR]
    return float(np.sqrt(np.maximum(_gram_top_eigenvalues(candidates), 0.0)).min())


class GramParts(NamedTuple):
    gram: np.ndarray   # M*M as formed
    abs: np.ndarray    # |M| = (M*M)^(1/2), Hermitian positive semidefinite
    norm: object       # ||M||: a float for one matrix, an array for a stack


def gram_parts(m) -> GramParts:
    """M*M, |M| and ||M||, elementwise over a stack, from one ``eigh``.

    The ``eigh`` is of the Hermitian part of M*M.  Eigenvalues that round off
    slightly negative are clamped to zero before the square root, so |M| is
    Hermitian positive semidefinite by construction, and ||M|| is the square
    root of the largest clamped eigenvalue.
    """
    a = as_matrix_stack(m)
    gram = adjoint(a) @ a
    try:
        w, v = np.linalg.eigh(hermitize(gram))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition of M*M failed (norm ~ {np.abs(a).max():.3e}): {exc}"
        ) from exc
    w = np.clip(w, 0.0, None)
    root = hermitize((v * np.sqrt(w)[..., None, :]) @ adjoint(v))
    top = np.sqrt(w[..., -1])
    return GramParts(gram, root, float(top) if a.ndim == 2 else top)


def abs_value(m):
    """Operator absolute value |M| = (M*M)^(1/2), elementwise over a stack;
    see ``gram_parts``."""
    return gram_parts(m).abs


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
