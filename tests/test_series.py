import math

import numpy as np
import pytest

from opbohr import (
    CoeffEnvelope,
    ContractError,
    DomainError,
    HarmonicSeries,
    HoloSeries,
    InvalidInputError,
    ScalarSeries,
    SubordinationWitness,
    adjoint,
    coeffs_via_cauchy_integral,
    compose_subordination,
    evaluate_grid,
)
from opbohr.generators import FamilySpec, identity_witness, koebe_series, sample
from opbohr.series import _inner_map, _power_table


def scalar_series(coeffs, dim=1):
    return HoloSeries.from_scalar(np.asarray(coeffs, dtype=complex), dim)


def horner(f, z):
    """f(z) at one point by Horner's rule, adding adjoint(B_n) conj(z)^n for a harmonic f."""
    coeffs = f.analytic if isinstance(f, HarmonicSeries) else f.coeffs
    acc = np.zeros(coeffs.shape[1:], dtype=complex)
    for a in coeffs[::-1]:
        acc = acc * z + a
    if isinstance(f, HarmonicSeries):
        tail = np.zeros_like(acc)
        for b in adjoint(f.coanalytic)[::-1]:
            tail = (tail + b) * np.conj(z)
        acc = acc + tail
    return acc


class TestEvaluate:
    def test_constant(self):
        a0 = np.array([[1.0, 2j], [0.0, -1.0]])
        f = HoloSeries(a0[None])
        for value in evaluate_grid(f, [0.0, 0.5j, -0.9]):
            assert np.allclose(value, a0)

    def test_truncated_geometric(self):
        f = scalar_series(np.ones(61))
        val = evaluate_grid(f, [0.5])[0, 0, 0]
        assert abs(val - 2.0) <= 1e-15 + 2.0 ** -59

    def test_harmonic_single_coanalytic_term(self):
        b1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        h = HarmonicSeries(analytic=np.zeros((2, 2, 2)), coanalytic=b1[None])
        val = evaluate_grid(h, [0.5j])[0]
        assert np.allclose(val, adjoint(b1) * (-0.5j), atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            evaluate_grid(scalar_series([1.0]), [0.5, 1.0])

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(4)
        f = HoloSeries(rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3)))
        zs = 0.7 * np.exp(2j * math.pi * rng.uniform(size=11))
        grid = evaluate_grid(f, zs)
        for i, z in enumerate(zs):
            assert np.allclose(grid[i], horner(f, complex(z)), atol=1e-13)

    def test_harmonic_against_direct_sum(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        b = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        h = HarmonicSeries(analytic=a, coanalytic=b)
        for z in (0.3, -0.2 + 0.4j, 0.75j):
            direct = sum(a[n] * z**n for n in range(5))
            direct += sum(adjoint(b[n - 1]) * np.conj(z) ** n for n in range(1, 5))
            assert np.allclose(horner(h, z), direct, atol=1e-13)
            assert np.allclose(evaluate_grid(h, np.array([z]))[0], direct, atol=1e-13)


def compose_reference(f, w, order):
    """f(phi) by the per-power loop: one full Cauchy product and one update per power."""
    phi = np.zeros(order + 1, dtype=complex)
    src = w.phi.coeffs[: order + 1]
    phi[: src.size] = src
    out = np.zeros((order + 1, f.dim, f.dim), dtype=complex)
    out[0] = f.coeffs[0]
    power = phi.copy()
    for n in range(1, min(order, f.order) + 1):
        if n > 1:
            power = np.convolve(power, phi)[: order + 1]
        out += power[:, None, None] * f.coeffs[n][None, :, :]
    out[0] = f.coeffs[0]
    return out


def random_pair(seed, f_order, phi_order, dim):
    rng = np.random.default_rng(seed)
    shape = (f_order + 1, dim, dim)
    f = HoloSeries(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    phi = np.zeros(phi_order + 1, dtype=complex)
    decay = 0.6 ** np.arange(1, phi_order + 1)
    phi[1:] = decay * (rng.standard_normal(phi_order) + 1j * rng.standard_normal(phi_order))
    return f, SubordinationWitness(phi=ScalarSeries(phi))


def power_table_loop(phi, count):
    """alpha[n] = phi^n by the per-power loop: one full convolution per power."""
    order = phi.size - 1
    alpha = np.zeros((count + 1, order + 1), dtype=complex)
    alpha[0, 0] = 1.0
    for n in range(1, count + 1):
        alpha[n] = np.convolve(alpha[n - 1], phi)[: order + 1]
    return alpha


def doubling_bound(order, count):
    """The stated error bound of the doubled table, in units of u (|phi|^n)_k."""
    return (order + 1) * (math.ceil(math.log2(max(count, 1))) + 1)


class TestPowerTable:
    U = np.finfo(float).eps / 2

    @staticmethod
    def witness_phi(order, seed):
        return np.array(sample(FamilySpec(family_id="subordination", dim=1, aux_dim=4,
                                          order=order, seed=seed)).phi.coeffs)

    @staticmethod
    def non_schur_phi(order, seed):
        # sum |phi_k| is about 3, so the powers grow: not a self-map of the disk
        rng = np.random.default_rng(seed)
        phi = np.zeros(order + 1, dtype=complex)
        phi[1:] = 0.9 ** np.arange(order) * (rng.standard_normal(order)
                                             + 1j * rng.standard_normal(order))
        return phi

    @pytest.mark.parametrize("order", [64, 96])
    def test_matches_high_precision_reference(self, order):
        mpmath = pytest.importorskip("mpmath")
        for phi in (self.witness_phi(order, order), self.non_schur_phi(order, order)):
            got = _power_table(phi, order)
            with mpmath.workdps(40):
                p = [mpmath.mpc(complex(c)) for c in phi]
                ref = [[mpmath.mpc(1)] + [mpmath.mpc(0)] * order]
                for n in range(1, order + 1):
                    ref.append([mpmath.fsum(ref[-1][i] * p[k - i] for i in range(n - 1, k))
                                if k >= n else mpmath.mpc(0) for k in range(order + 1)])
                ref = np.array([[complex(c) for c in row] for row in ref])
            # (|phi|^n)_k sums nonnegative terms, so the loop gets it to a few ulps
            mod = power_table_loop(np.abs(phi).astype(complex), order).real
            # entry by entry, and exactly zero where (|phi|^n)_k is zero (below the band)
            bound = doubling_bound(order, order) * self.U * mod
            assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 63, 64, 65, 100])
    def test_matches_per_power_reference(self, count):
        for order, length in ((100, 101), (130, 101), (100, 9)):
            # count == order, count < order, and phi shorter than the order
            phi = _inner_map(self.non_schur_phi(length - 1, count), order)
            got = _power_table(phi, count)
            ref = power_table_loop(phi, count)
            mod = power_table_loop(np.abs(phi).astype(complex), count).real
            assert got.shape == (count + 1, order + 1)
            assert got[0, 0] == 1 and np.all(got[0, 1:] == 0)
            if count >= 1:
                assert np.array_equal(got[1], phi)
            for n in range(count + 1):
                assert np.all(got[n, :n] == 0)
            # the doubled table's bound plus the loop's own, n (order + 1) u (|phi|^n)_k
            n = np.arange(count + 1)[:, None]
            bound = (doubling_bound(order, count) + n * (order + 1)) * self.U * mod
            assert np.all(np.abs(got - ref) <= bound)

    def test_identity_witness_table_is_exact(self):
        # phi(z) = z gives alpha[n] = e_n with no rounding, so composing with
        # it returns f bit for bit (the planted t4b Koebe margin rests on it)
        alpha = _power_table(_inner_map(identity_witness(256).phi.coeffs, 256), 256)
        assert np.array_equal(alpha, np.eye(257))
        f = koebe_series(2, 256)
        assert np.array_equal(compose_subordination(f, identity_witness(256), 256).coeffs,
                              f.coeffs)


class TestComposeSubordination:
    @pytest.mark.parametrize("f_order, phi_order, order", [
        (0, 0, 0), (1, 1, 1), (8, 8, 8), (64, 64, 64), (256, 256, 256),
        (100, 64, 40),    # order < f.order
        (12, 64, 64),     # order > f.order
        (64, 9, 64),      # phi shorter than order
        (3, 2, 30),
    ])
    def test_matches_per_power_reference(self, f_order, phi_order, order):
        for dim in (1, 3):
            f, w = random_pair(f_order * 1000 + order + dim, f_order, phi_order, dim)
            got = compose_subordination(f, w, order).coeffs
            ref = compose_reference(f, w, order)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            assert np.array_equal(got[0], f.coeffs[0])

    def test_identity_map(self):
        rng = np.random.default_rng(1)
        f = HoloSeries(rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2)))
        g = compose_subordination(f, identity_witness(6), 6)
        assert np.allclose(g.coeffs, f.coeffs, atol=1e-14)

    def test_koebe_with_square_map(self):
        # koebe(z^2) = z^2/(1-z^2)^2 has coefficient k at order 2k
        f = koebe_series(2, 12)
        phi = np.zeros(13)
        phi[2] = 1.0
        w = SubordinationWitness(phi=ScalarSeries(phi))
        g = compose_subordination(f, w, 12)
        for k in range(1, 7):
            assert np.allclose(g.coeffs[2 * k], k * np.eye(2), atol=1e-12)
        for odd in range(1, 12, 2):
            assert np.allclose(g.coeffs[odd], 0, atol=1e-12)

    def test_pointwise_oracle(self):
        spec = FamilySpec(family_id="schur_holo", dim=2, aux_dim=3, order=64, seed=77,
                          params={"with_witness": True})
        f, w = sample(spec)
        g = compose_subordination(f, w, f.order)
        rng = np.random.default_rng(5)
        zs = rng.uniform(0.05, 0.4, 50) * np.exp(2j * math.pi * rng.uniform(size=50))
        phi_vals = np.array([np.polyval(w.phi.coeffs[::-1], z) for z in zs])
        direct = evaluate_grid(f, phi_vals)
        composed = evaluate_grid(g, zs)
        assert float(np.abs(direct - composed).max()) <= 1e-10

    def test_constant_contraction_shifts_geometrically(self):
        f = koebe_series(1, 10)
        s = 0.6
        phi = np.zeros(11)
        phi[1] = s
        w = SubordinationWitness(phi=ScalarSeries(phi))
        g = compose_subordination(f, w, 10)
        for n in range(11):
            assert g.coeffs[n][0, 0] == pytest.approx(n * s**n, abs=1e-12)


class TestCauchyExtraction:
    def test_exponential_coefficients(self):
        got = coeffs_via_cauchy_integral(
            lambda zs: np.exp(zs)[:, None, None], 10, 0.5, 256)
        for n in range(11):
            assert got.coeffs[n][0, 0] == pytest.approx(1.0 / math.factorial(n), abs=1e-12)

    def test_constant(self):
        a0 = np.array([[2.0, 1j], [0.0, -1.0]])
        got = coeffs_via_cauchy_integral(lambda zs: np.broadcast_to(a0, (zs.size, 2, 2)),
                                         5, 0.5, 64)
        assert np.allclose(got.coeffs[0], a0, atol=1e-14)
        assert float(np.abs(got.coeffs[1:]).max()) <= 1e-13

    def test_exact_on_polynomials(self):
        rng = np.random.default_rng(3)
        poly = HoloSeries(rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2)))
        got = coeffs_via_cauchy_integral(lambda zs: evaluate_grid(poly, zs), 6, 0.5, 64)
        assert float(np.abs(got.coeffs - poly.coeffs).max()) <= 1e-12

    def test_evaluates_the_circle_once(self):
        calls = []

        def eval_grid(zs):
            calls.append(zs)
            return zs[:, None, None] ** 2

        coeffs_via_cauchy_integral(eval_grid, 3, 0.5, 16)
        (zs,) = calls
        theta = 2.0 * math.pi * np.arange(16) / 16
        assert np.array_equal(zs, 0.5 * np.exp(1j * theta))

    def test_node_count_contract(self):
        with pytest.raises(ContractError):
            coeffs_via_cauchy_integral(lambda zs: np.ones((zs.size, 1, 1)), 10, 0.5, 20)

    @pytest.mark.parametrize("shape", [(63, 2, 2), (64, 2, 3), (64, 2), (2, 2), (64, 1, 2, 2)])
    def test_output_shape_contract(self, shape):
        with pytest.raises(InvalidInputError):
            coeffs_via_cauchy_integral(lambda zs: np.zeros(shape), 5, 0.5, 64)


class TestWitnessValidation:
    def test_requires_vanishing_constant(self):
        with pytest.raises(Exception):
            SubordinationWitness(phi=ScalarSeries([0.5, 1.0]))

    @pytest.mark.parametrize("growth", [-1.0, math.inf, math.nan])
    def test_coeff_growth_must_be_finite_and_nonnegative(self, growth):
        with pytest.raises(InvalidInputError):
            SubordinationWitness(phi=ScalarSeries([0.0, 1.0]), coeff_growth=growth)

    def test_coeff_growth_defaults_to_a_self_map(self):
        assert identity_witness(4).coeff_growth == 1.0


class TestCoeffEnvelope:
    """Closed-form values and tails against sums the test takes itself."""

    CASES = [(2.0, 0.0, 0), (1.5, 0.6, 0), (0.7, 1.0 + 1e-9, 0), (1.0, 1.0, 1),
             (3.0, 0.85, 1), (1.0, 1.0 + 2.0 ** -51, 1)]

    @pytest.mark.parametrize("scale, ratio, power", CASES)
    def test_values(self, scale, ratio, power):
        env = CoeffEnvelope(scale, ratio, power)
        expected = [scale * n ** power * ratio ** (n - 1) for n in range(1, 41)]
        assert env.values(40) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("scale, ratio, power", CASES)
    def test_tail_is_the_sum_past_m(self, scale, ratio, power):
        env = CoeffEnvelope(scale, ratio, power)
        for x in (0.0, 0.1, 1.0 / 3.0, 0.9):
            terms = [scale * n ** power * ratio ** (n - 1) * x ** n for n in range(1, 1200)]
            for m in (0, 1, 5, 30):
                assert env.tail(m, x) == pytest.approx(math.fsum(terms[m:]), rel=1e-12, abs=0)

    def test_tail_diverges_past_the_ratio(self):
        env = CoeffEnvelope(1.0, 2.0)
        assert env.tail(3, 0.5) == math.inf and env.tail(3, 0.7) == math.inf

    @pytest.mark.parametrize("scale, ratio, power", [
        (-1.0, 0.5, 0), (1.0, -0.5, 0), (math.inf, 0.5, 0), (1.0, math.nan, 0), (1.0, 0.5, 2)])
    def test_rejects_invalid_parameters(self, scale, ratio, power):
        with pytest.raises(InvalidInputError):
            CoeffEnvelope(scale, ratio, power)

    def test_series_takes_only_an_envelope(self):
        assert HoloSeries(np.zeros((2, 1, 1))).envelope is None
        with pytest.raises(InvalidInputError):
            HoloSeries(np.zeros((2, 1, 1)), envelope=(1.0, 0.5))
