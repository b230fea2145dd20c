"""Dense complex matrix primitives: norms, absolute values, Gram parts, eigenvalues.

Matrices are plain ``numpy`` arrays of complex128.  Most operations accept a
single ``(d, d)`` matrix or a stack ``(..., d, d)`` and act on the last two
axes, which keeps the inequality checkers fully vectorized.

The package's tolerances are constants here: ``PSD_TOL``, the default slack
of a Loewner comparison and the one tolerance a caller can set
(``bohr.check_theorem_grid(psd_tol=...)``, ``opbohr verify --tol``);
``EQ_TOL`` for equalities and the Hermitian and unitary contracts;
and ``QUAD_TOL``, the convergence target of quadrature.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericError


# Relative slack of a Loewner (positive semidefinite) comparison.
PSD_TOL = 1e-9
# Slack of scalar equalities and of the Hermitian and unitary contracts.
EQ_TOL = 1e-9
# Convergence target of quadrature and decomposition residuals.
QUAD_TOL = 1e-10


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
    """Conjugate transpose over the last two axes (a view of real input)."""
    return np.asarray(m).swapaxes(-1, -2).conj()


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
    # C-contiguous, so that a matrix's Gram product does not depend on the
    # layout or the stack it comes in
    a = np.ascontiguousarray(m, dtype=np.complex128)
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

    Every step acts on each matrix of the stack alone, so a matrix's parts do
    not depend on the stack it comes in: its slice of the parts of a
    concatenated stack is bit for bit its parts alone.  A caller may stack
    unrelated matrices to decompose them in one ``eigh``.
    """
    a = as_matrix_stack(m)
    gram = adjoint(a) @ a
    try:
        w, v = np.linalg.eigh(hermitize(gram))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition of M*M failed (norm ~ {np.abs(a).max():.3e}): {exc}"
        ) from exc
    w = np.maximum(w, 0.0)
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
