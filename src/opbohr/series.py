"""Truncated matrix-coefficient power series.

A holomorphic series stores coefficients A_0..A_N as a single complex array of
shape (N+1, d, d), and may carry a ``CoeffEnvelope``: a closed-form bound
a_n >= ||A_n|| for every n >= 1, past N too, which a generator certifies
from the parameters of its draw.  A ``ClosedFormEval`` is the other
certified datum a generator attaches: an exact evaluator with its boundary
liminf in closed form.  A harmonic series adds coanalytic
coefficients B_1..B_N whose adjoints multiply conj(z)^n during evaluation.
Subordination composition follows the coefficient algebra B_k = sum over n
of alpha_k^(n) A_n, where alpha^(n) are the Taylor coefficients of the n-th
power of the inner map, built once per composition as a power table.  The
table is built by doubling, ceil(log2(count)) products with triangular
Toeplitz matrices, each entry within
(order + 1) (ceil(log2(count)) + 1) u (|phi|^n)_k of the exact coefficient
(``_power_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DomainError, InvalidInputError, RangeError
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
class CoeffEnvelope:
    """The bound a_n = scale * n^power * ratio^(n-1) on ||A_n||, for every n >= 1.

    power is 0 (geometric) or 1 (arithmetico-geometric); ratio 0 puts the
    whole scale at n = 1.  ``tail`` sums the terms past an order in closed
    form, which is what lets a subordination tail cover f past its stored
    order.
    """

    scale: float
    ratio: float
    power: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0.0
                and math.isfinite(self.ratio) and self.ratio >= 0.0):
            raise InvalidInputError("an envelope needs a finite scale and ratio >= 0")
        if self.power not in (0, 1):
            raise InvalidInputError(f"envelope power must be 0 or 1, got {self.power!r}")

    def term(self, n):
        """a_n, for n >= 1 a number or an array."""
        return self.scale * n ** self.power * self.ratio ** (n - 1)

    def values(self, count: int) -> np.ndarray:
        """a_1..a_count."""
        return self.term(np.arange(1.0, count + 1.0))

    def tail(self, m, x: float):
        """Sum of a_n x^n over n > m, for x >= 0.

        With y = ratio x < 1 it is scale x y^m/(1 - y) for power 0 and
        scale x y^m (m + 1 - m y)/(1 - y)^2 for power 1; inf for y >= 1.
        """
        y = self.ratio * x
        if y >= 1.0:
            return math.inf
        head = self.scale * x * y ** m / (1.0 - y)
        return head if self.power == 0 else head * (m + 1 - m * y) / (1.0 - y)


@dataclass(frozen=True)
class ClosedFormEval:
    """An exact evaluator, zs -> (len(zs), d, d) values, with its boundary liminf.

    ``boundary_liminf`` is liminf ||f(z)|| as |z| -> 1 in closed form (see
    ``generators`` for each family's formula and rounding bound).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    boundary_liminf: float

    def __call__(self, zs) -> np.ndarray:
        return self.fn(zs)


@dataclass(frozen=True)
class HoloSeries:
    """Truncated holomorphic series sum of A_n z^n with matrix coefficients.

    ``envelope``, when given, bounds the norms of every coefficient of the
    function the series truncates (``CoeffEnvelope``); None claims nothing
    beyond the stored coefficients.
    """

    coeffs: np.ndarray
    envelope: CoeffEnvelope | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze(_check_coeff_stack(self.coeffs, "coeffs")))
        if self.envelope is not None and not isinstance(self.envelope, CoeffEnvelope):
            raise InvalidInputError("envelope must be a CoeffEnvelope or None")

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

    ``coeff_growth`` is a g with |[z^n] phi^k| <= g^n for all n, k >= 1.  A
    map with |phi(z)| <= |z| has g = 1, the default.  Generators certify the
    bound from phi's parameters when they draw it (``generators``); the
    constructor checks phi(0) = 0 and g >= 0 only.
    """

    phi: ScalarSeries
    coeff_growth: float = 1.0

    def __post_init__(self):
        if self.phi.coeffs[0] != 0:
            raise InvalidInputError("subordination witness requires phi(0) = 0")
        if not (math.isfinite(self.coeff_growth) and self.coeff_growth >= 0.0):
            raise InvalidInputError("coeff_growth must be finite and >= 0")


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
    the upper-triangular Toeplitz matrix of row m's band, a strided view of
    the zero-padded band.  So ceil(log2(count)) products form the table.
    Below a row's band every product has an exact zero factor, so with
    finite entries each row stays exactly zero there.

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
        # t[i, k] = alpha[m, m + k - i], zero for k < i, read from the padded band
        padded = np.zeros(2 * size - 1, dtype=np.complex128)
        padded[size - 1:] = alpha[m, m:order]
        stride = padded.strides[0]
        toeplitz = as_strided(padded[size - 1:], shape=(size, size), strides=(-stride, stride))
        np.matmul(alpha[1:step + 1, 1:size + 1], toeplitz, out=alpha[m + 1:m + step + 1, m + 1:])
        m += step
    return alpha


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
    must exceed 2N.  An order whose rho^-N overflows a float raises
    RangeError before ``eval_grid`` is called.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError("extraction radius must lie in (0, 1)")
    if nodes <= 2 * order:
        raise ContractError("nodes must exceed twice the requested order")
    try:
        math.pow(rho, -order)  # the largest DFT scale, checked before any sample is taken
    except OverflowError:
        raise RangeError(f"extraction at order {order} overflows a float: "
                         f"rho^-{order} with rho = {rho!r}") from None
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    samples = as_matrix_stack(eval_grid(rho * np.exp(1j * theta)), "eval_grid output")
    if samples.ndim != 3 or samples.shape[0] != nodes:
        raise InvalidInputError(f"eval_grid must return a ({nodes}, d, d) stack, "
                                f"got shape {samples.shape}")
    return HoloSeries(coeffs_from_circle_samples(samples, rho, order))
