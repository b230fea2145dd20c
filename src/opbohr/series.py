"""Truncated matrix-coefficient power series.

A holomorphic series stores coefficients A_0..A_N as a single complex array of
shape (N+1, d, d).  A harmonic series adds coanalytic coefficients B_1..B_N
whose adjoints multiply conj(z)^n during evaluation.  Subordination composition
follows the coefficient algebra B_k = sum over n of alpha_k^(n) A_n, where
alpha^(n) are the Taylor coefficients of the n-th power of the inner map,
built once per composition as a power table.  The table is built by block
doubling, ceil(log2(count)) products with triangular Toeplitz matrices, each
entry within (order + 1) (ceil(log2(count)) + 1) u (|phi|^n)_k of the exact
coefficient (``_power_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DomainError, InvalidInputError
from .linalg import adjoint, all_finite, as_matrix_stack


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128, order="C")  # own the buffer before locking it
    a.flags.writeable = False
    return a


def _check_coeff_stack(coeffs, name: str) -> np.ndarray:
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInputError(f"{name} must have shape (N+1, d, d), got {a.shape}")
    if not all_finite(a):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class HoloSeries:
    """Truncated holomorphic series sum of A_n z^n with matrix coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze(_check_coeff_stack(self.coeffs, "coeffs")))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @staticmethod
    def from_scalar(scalar_coeffs, dim: int) -> "HoloSeries":
        """Scalar coefficients times the identity."""
        c = np.asarray(scalar_coeffs, dtype=np.complex128).ravel()
        return HoloSeries(c[:, None, None] * np.eye(dim)[None, :, :])


@dataclass(frozen=True)
class HarmonicSeries:
    """Truncated harmonic series: analytic A_0..A_N plus coanalytic B_1..B_N.

    Evaluation adds adjoint(B_n) * conj(z)^n, so the stored arrays are the
    B_n themselves.
    """

    analytic: np.ndarray
    coanalytic: np.ndarray

    def __post_init__(self):
        a = _check_coeff_stack(self.analytic, "analytic")
        b = _check_coeff_stack(self.coanalytic, "coanalytic")
        if a.shape[1] != b.shape[1]:
            raise InvalidInputError("analytic and coanalytic dims differ")
        if b.shape[0] != a.shape[0] - 1:
            raise InvalidInputError(
                "coanalytic part must carry orders 1..N (one fewer than analytic)"
            )
        object.__setattr__(self, "analytic", _freeze(a))
        object.__setattr__(self, "coanalytic", _freeze(b))

    @property
    def dim(self) -> int:
        return self.analytic.shape[1]

    @property
    def order(self) -> int:
        return self.analytic.shape[0] - 1


@dataclass(frozen=True)
class ScalarSeries:
    """Truncated scalar power series."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if c.size == 0:
            raise InvalidInputError("scalar series needs at least the constant term")
        if not all_finite(c):
            raise InvalidInputError("scalar series has non-finite entries")
        object.__setattr__(self, "coeffs", _freeze(c))

    @property
    def order(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class SubordinationWitness:
    """A disk self-map phi with phi(0) = 0.

    Generators certify |phi(z)| <= |z| from phi's parameters when they draw
    it (``generators``); the constructor checks phi(0) = 0 only.
    """

    phi: ScalarSeries

    def __post_init__(self):
        if self.phi.coeffs[0] != 0:
            raise InvalidInputError("subordination witness requires phi(0) = 0")


def evaluate(f: HoloSeries | HarmonicSeries, z: complex) -> np.ndarray:
    """Evaluate a series at a single point of the open unit disk (Horner)."""
    if abs(z) >= 1.0:
        raise DomainError(f"|z| must be < 1, got {abs(z):.6g}")
    z = complex(z)
    if isinstance(f, HarmonicSeries):
        coeffs = f.analytic
    else:
        coeffs = f.coeffs
    acc = coeffs[-1].copy()
    for n in range(coeffs.shape[0] - 2, -1, -1):
        acc = acc * z + coeffs[n]
    if isinstance(f, HarmonicSeries):
        zb = np.conj(z)
        co = adjoint(f.coanalytic)
        tail = co[-1].copy()
        for n in range(co.shape[0] - 2, -1, -1):
            tail = tail * zb + co[n]
        acc = acc + tail * zb
    return acc


def evaluate_grid(f: HoloSeries | HarmonicSeries, zs) -> np.ndarray:
    """Vectorized evaluation on a 1-D array of points, returning (len, d, d)."""
    z = np.asarray(zs, dtype=np.complex128).ravel()
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("all evaluation points must satisfy |z| < 1")
    if isinstance(f, HarmonicSeries):
        coeffs = f.analytic
    else:
        coeffs = f.coeffs
    n = coeffs.shape[0]
    powers = z[:, None] ** np.arange(n)[None, :]
    out = np.tensordot(powers, coeffs, axes=(1, 0))
    if isinstance(f, HarmonicSeries):
        zb = np.conj(z)
        cpow = zb[:, None] ** np.arange(1, n)[None, :]
        out = out + np.tensordot(cpow, adjoint(f.coanalytic), axes=(1, 0))
    return out


def _inner_map(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of phi cut or zero-padded to ``order``, with phi(0) set to 0."""
    phi = np.zeros(order + 1, dtype=np.complex128)
    src = coeffs[: order + 1]
    phi[: src.size] = src
    phi[0] = 0.0
    return phi


def _power_table(phi: np.ndarray, count: int) -> np.ndarray:
    """Table alpha[n, k] of the coefficient of z^k in phi^n, n = 0..count.

    ``phi`` holds coefficients 0..order with phi[0] = 0 and count <= order,
    so phi^n vanishes below order n.  The rows are built by doubling (Brent
    and Kung, JACM 1978): with rows 1..m in hand, rows m+1..min(2m, count)
    are phi^j phi^m for j = 1..m, one product of the block of rows 1..m with
    the upper-triangular Toeplitz matrix of row m's band.  That matrix is
    split once into 2x2 blocks and its zero block is never multiplied, so
    ceil(log2(count)) block products form the table.  Below a row's band
    every product has an exact zero factor, so with finite entries each row
    stays exactly zero there.

    Entry (n, k) lies within (order + 1) (ceil(log2(count)) + 1) u (|phi|^n)_k
    of phi^n's coefficient, with u the unit roundoff and |phi| the series of
    the moduli |phi_k|.
    """
    order = phi.size - 1
    alpha = np.zeros((count + 1, order + 1), dtype=np.complex128)
    alpha[0, 0] = 1.0
    if count == 0:
        return alpha
    alpha[1] = phi
    m = 1
    while m < count:
        step, size = min(m, count - m), order - m
        h = size // 2
        # columns h.. of the Toeplitz matrix t[i, k] = alpha[m, m + k - i] (zero for
        # k < i), copied from the reversed rows of a Hankel view of the padded band;
        # the leading h x h block of t is right[h:2h, :h]
        padded = np.zeros(2 * size - h - 1, dtype=np.complex128)
        padded[size - h - 1:] = alpha[m, m:order]
        hankel = as_strided(padded, shape=(size, size - h), strides=2 * padded.strides)
        right = hankel[::-1].copy()
        rows = alpha[1:step + 1, 1:size + 1]
        out = alpha[m + 1:m + step + 1, m + 1:]
        np.matmul(rows[:, :h], right[h:2 * h, :h], out=out[:, :h])
        np.matmul(rows, right, out=out[:, h:])
        m += step
    return alpha


def scalar_power_coeffs(phi: ScalarSeries, t: int, order: int) -> ScalarSeries:
    """Coefficients of phi^t up to ``order``: row t of the power table.

    Requires phi(0) = 0 and t >= 1, so the result vanishes below order t.
    """
    if t < 1:
        raise ContractError("power must be a positive integer")
    if abs(phi.coeffs[0]) > 1e-12:
        raise ContractError("scalar_power_coeffs requires phi(0) = 0")
    if t > order:
        return ScalarSeries(np.zeros(order + 1, dtype=np.complex128))
    return ScalarSeries(_power_table(_inner_map(phi.coeffs, order), t)[t])


def compose_subordination(f: HoloSeries, w: SubordinationWitness, order: int) -> HoloSeries:
    """Coefficients of f(phi(z)) up to ``order``.

    B_0 = A_0 and B_k = sum over n = 1..k of alpha_k^(n) A_n, with alpha^(n)
    the coefficients of phi^n.  The power table of phi is built once and
    applied to A_1..A_N in a single tensor contraction.
    """
    count = min(order, f.order)
    alpha = _power_table(_inner_map(w.phi.coeffs, order), count)
    out = np.tensordot(alpha[1:].T, f.coeffs[1:count + 1], axes=1)
    out[0] = f.coeffs[0]  # phi(0) = 0 keeps the constant term exact
    return HoloSeries(out)


def coeffs_from_circle_samples(samples: np.ndarray, rho: float, order: int) -> np.ndarray:
    """Taylor coefficients from equispaced samples on |z| = rho (DFT).

    ``samples`` has shape (M, ...) taken at z_m = rho * exp(2*pi*i*m/M), e.g.
    (M, d, d) for matrix functions; the result has shape (N+1, ...).
    """
    samples = np.asarray(samples, dtype=np.complex128)
    m = samples.shape[0]
    if m <= 2 * order:
        raise ContractError("need more than 2N sample points to extract N coefficients")
    spec = np.fft.fft(samples, axis=0)[: order + 1] / m
    scale = rho ** -np.arange(order + 1, dtype=np.float64)
    return spec * scale.reshape((-1,) + (1,) * (samples.ndim - 1))


def coeffs_via_cauchy_integral(eval_grid, order: int, rho: float, nodes: int) -> HoloSeries:
    """Extract A_0..A_N of an analytic matrix function by a Cauchy integral.

    ``eval_grid`` maps a 1-D array of points to the (len, d, d) stack of the
    function's values; it is called once, on the ``nodes`` points
    z_m = rho * exp(2*pi*i*m/nodes), and ``coeffs_from_circle_samples`` takes
    the coefficients from its stack.  The trapezoid rule on |z| = rho aliases
    coefficient n by at most sup-norm * rho^(M-n) / (1 - rho^M), so nodes
    must exceed 2N.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError("extraction radius must lie in (0, 1)")
    if nodes <= 2 * order:
        raise ContractError("nodes must exceed twice the requested order")
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    samples = as_matrix_stack(eval_grid(rho * np.exp(1j * theta)), "eval_grid output")
    if samples.ndim != 3 or samples.shape[0] != nodes:
        raise InvalidInputError(f"eval_grid must return a ({nodes}, d, d) stack, "
                                f"got shape {samples.shape}")
    return HoloSeries(coeffs_from_circle_samples(samples, rho, order))
