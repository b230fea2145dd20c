import math

import numpy as np
import pytest

from opbohr import (
    ContractError,
    DomainError,
    HarmonicSeries,
    HoloSeries,
    ScalarSeries,
    SubordinationWitness,
    adjoint,
    coeffs_via_cauchy_integral,
    compose_subordination,
    derivative,
    evaluate,
    evaluate_grid,
    koebe_transform,
    operator_norm,
    scalar_power_coeffs,
)
from opbohr.generators import FamilySpec, identity_witness, koebe_series, sample


def scalar_series(coeffs, dim=1):
    return HoloSeries.from_scalar(np.asarray(coeffs, dtype=complex), dim)


class TestEvaluate:
    def test_constant(self):
        a0 = np.array([[1.0, 2j], [0.0, -1.0]])
        f = HoloSeries(a0[None])
        for z in (0.0, 0.5j, -0.9):
            assert np.allclose(evaluate(f, z), a0)

    def test_truncated_geometric(self):
        f = scalar_series(np.ones(61))
        val = evaluate(f, 0.5)[0, 0]
        assert abs(val - 2.0) <= 1e-15 + 2.0 ** -59

    def test_harmonic_single_coanalytic_term(self):
        b1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        h = HarmonicSeries(analytic=np.zeros((2, 2, 2)), coanalytic=b1[None])
        val = evaluate(h, 0.5j)
        assert np.allclose(val, adjoint(b1) * (-0.5j), atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            evaluate(scalar_series([1.0]), 1.0)

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(4)
        f = HoloSeries(rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3)))
        zs = 0.7 * np.exp(2j * math.pi * rng.uniform(size=11))
        grid = evaluate_grid(f, zs)
        for i, z in enumerate(zs):
            assert np.allclose(grid[i], evaluate(f, complex(z)), atol=1e-13)

    def test_harmonic_against_direct_sum(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        b = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        h = HarmonicSeries(analytic=a, coanalytic=b)
        for z in (0.3, -0.2 + 0.4j, 0.75j):
            direct = sum(a[n] * z**n for n in range(5))
            direct += sum(adjoint(b[n - 1]) * np.conj(z) ** n for n in range(1, 5))
            assert np.allclose(evaluate(h, z), direct, atol=1e-13)
            assert np.allclose(evaluate_grid(h, np.array([z]))[0], direct, atol=1e-13)


class TestDerivative:
    def test_constant_to_zero(self):
        f = scalar_series([3.0])
        df = derivative(f)
        assert df.order == 0 and np.allclose(df.coeffs, 0)

    def test_linear(self):
        f = HoloSeries(np.stack([np.zeros((2, 2)), np.eye(2)]).astype(complex))
        df = derivative(f)
        assert df.order == 0 and np.allclose(df.coeffs[0], np.eye(2))

    def test_koebe_coefficients(self):
        # d/dz sum n z^n has coefficient (n+1)^2 at index n
        f = scalar_series(np.arange(8.0))
        df = derivative(f)
        expected = np.array([(n + 1) ** 2 for n in range(7)], dtype=float)
        assert np.allclose(df.coeffs[:, 0, 0], expected)


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
    return f, SubordinationWitness(phi=ScalarSeries(phi), certified_bound=0.99)


class TestScalarPowerCoeffs:
    def test_monomial(self):
        phi = ScalarSeries([0.0, 1.0])
        out = scalar_power_coeffs(phi, 3, 6).coeffs
        expected = np.zeros(7)
        expected[3] = 1.0
        assert np.allclose(out, expected)

    def test_square_monomial(self):
        phi = ScalarSeries([0.0, 0.0, 1.0])
        out = scalar_power_coeffs(phi, 2, 6).coeffs
        assert out[4] == pytest.approx(1.0)
        assert np.allclose(np.delete(out, 4), 0)

    def test_hand_expansion(self):
        # (z + z^2)^2 = z^2 + 2 z^3 + z^4
        phi = ScalarSeries([0.0, 1.0, 1.0])
        out = scalar_power_coeffs(phi, 2, 4).coeffs
        assert np.allclose(out, [0, 0, 1, 2, 1])

    def test_power_one_is_identity(self):
        rng = np.random.default_rng(9)
        coeffs = np.concatenate([[0.0], rng.standard_normal(6)])
        phi = ScalarSeries(coeffs)
        assert np.allclose(scalar_power_coeffs(phi, 1, 6).coeffs, coeffs)

    def test_requires_zero_constant(self):
        with pytest.raises(ContractError):
            scalar_power_coeffs(ScalarSeries([1.0, 1.0]), 2, 4)

    def test_power_beyond_order_vanishes(self):
        out = scalar_power_coeffs(ScalarSeries([0.0, 0.5, 0.25]), 5, 3).coeffs
        assert out.shape == (4,) and np.all(out == 0)

    def test_rows_match_repeated_products(self):
        _, w = random_pair(3, 1, 40, 1)
        acc = np.array(w.phi.coeffs)
        for t in range(1, 12):
            if t > 1:
                acc = np.convolve(acc, w.phi.coeffs)[:41]
            got = scalar_power_coeffs(w.phi, t, 40).coeffs
            assert np.abs(got - acc).max() <= 1e-14


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
        w = SubordinationWitness(phi=ScalarSeries(phi), certified_bound=0.999)
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
        w = SubordinationWitness(phi=ScalarSeries(phi), certified_bound=s)
        g = compose_subordination(f, w, 10)
        for n in range(11):
            assert g.coeffs[n][0, 0] == pytest.approx(n * s**n, abs=1e-12)


class TestCauchyExtraction:
    def test_exponential_coefficients(self):
        got = coeffs_via_cauchy_integral(
            lambda z: np.array([[np.exp(z)]]), 10, 0.5, 256)
        for n in range(11):
            assert got.coeffs[n][0, 0] == pytest.approx(1.0 / math.factorial(n), abs=1e-12)

    def test_constant(self):
        a0 = np.array([[2.0, 1j], [0.0, -1.0]])
        got = coeffs_via_cauchy_integral(lambda z: a0, 5, 0.5, 64)
        assert np.allclose(got.coeffs[0], a0, atol=1e-14)
        assert float(np.abs(got.coeffs[1:]).max()) <= 1e-13

    def test_exact_on_polynomials(self):
        rng = np.random.default_rng(3)
        poly = HoloSeries(rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2)))
        got = coeffs_via_cauchy_integral(lambda z: evaluate(poly, z), 6, 0.5, 64)
        assert float(np.abs(got.coeffs - poly.coeffs).max()) <= 1e-12

    def test_node_count_contract(self):
        with pytest.raises(ContractError):
            coeffs_via_cauchy_integral(lambda z: np.eye(1), 10, 0.5, 20)


class TestKoebeTransform:
    def test_identity_at_zero_center(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
        coeffs[0] = 0.0
        coeffs[1] = np.eye(2)
        f = HoloSeries(coeffs)
        g = koebe_transform(f, 0.0, 7)
        assert float(np.abs(g.coeffs - f.coeffs).max()) <= 1e-11

    def test_linear_map_closed_form(self):
        # f = z I at a = 1/2 gives z/(1 + z/2), coefficients (-1/2)^(n-1)
        f = HoloSeries(np.stack([np.zeros((2, 2)), np.eye(2)]).astype(complex))
        g = koebe_transform(f, 0.5, 12)
        assert float(np.abs(g.coeffs[0]).max()) <= 1e-12
        for n in range(1, 13):
            assert np.allclose(g.coeffs[n], (-0.5) ** (n - 1) * np.eye(2), atol=1e-12)

    def test_normalization_forced(self):
        spec = FamilySpec(family_id="convex_diag", dim=3, aux_dim=3, order=64, seed=5)
        f = sample(spec)
        g = koebe_transform(f, 0.3 - 0.2j, 32)
        assert operator_norm(g.coeffs[0]) <= 1e-9
        assert operator_norm(g.coeffs[1] - np.eye(3)) <= 1e-9

    def test_singular_derivative_rejected(self):
        f = scalar_series([0.0, 0.0, 1.0])  # z^2, derivative vanishes at 0
        with pytest.raises(ContractError):
            koebe_transform(f, 0.0, 4)


class TestWitnessValidation:
    def test_requires_vanishing_constant(self):
        with pytest.raises(Exception):
            SubordinationWitness(phi=ScalarSeries([0.5, 1.0]), certified_bound=0.9)

    def test_requires_subunit_bound(self):
        with pytest.raises(Exception):
            SubordinationWitness(phi=ScalarSeries([0.0, 1.0]), certified_bound=1.5)
