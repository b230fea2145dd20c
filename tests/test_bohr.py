import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbohr import (
    KOEBE_RADIUS,
    THEOREM_IDS,
    ContractError,
    DomainError,
    HarmonicSeries,
    HoloSeries,
    bohr_radius_bisect,
    boundary_distance_liminf,
    check_theorem,
    check_theorem_grid,
    evaluate_grid,
    norm_majorant,
    operator_majorant,
    operator_norm,
    psi_peak,
    rotated_coeffs,
    spherical_distance,
    thm2_radius,
    thm3_radius,
)
from opbohr import bohr
from opbohr.generators import (
    FamilySpec,
    gaussian_coeff_sequence,
    identity_witness,
    koebe_scalar_coeffs,
    koebe_series,
    mobius_scalar_coeffs,
    mobius_series,
    ordered_triples,
    sample,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def reference_matrix_sum(stack, r, start_power):
    """Compensated majorant sum at one radius, the loop the grid sum reproduces."""
    total = np.zeros(stack.shape[1:], dtype=np.complex128)
    comp = np.zeros_like(total)
    weight = r ** start_power
    for n in range(stack.shape[0]):
        term = stack[n] * weight
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        weight *= r
    return total


def reference_scalar_sum(values, r, start_power):
    """Scalar counterpart of reference_matrix_sum."""
    total = 0.0
    comp = 0.0
    weight = r ** start_power
    for v in values:
        term = float(v) * weight
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        weight *= r
    return total


class TestMajorants:
    def test_mobius_sharpness(self):
        f = mobius_series(INV_SQRT2, 2, 64)
        out = operator_majorant(f.coeffs, INV_SQRT2, 0)
        assert operator_norm(out - math.sqrt(2.0) * np.eye(2)) <= 1e-6

    def test_linear_term_only(self):
        f = HoloSeries(np.stack([np.zeros((2, 2)), np.eye(2)]).astype(complex))
        out = operator_majorant(f.coeffs, 1.0 / 3.0, 1)
        assert np.allclose(out, np.eye(2) / 3.0, atol=1e-14)

    def test_zero_series(self):
        out = operator_majorant(np.zeros((4, 2, 2)), 0.7, 0)
        assert np.allclose(out, 0)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((10, 3, 3)) + 1j * rng.standard_normal((10, 3, 3))
        prev = operator_majorant(stack, 0.1, 0)
        for r in (0.3, 0.5, 0.7, 0.9):
            cur = operator_majorant(stack, r, 0)
            assert np.linalg.eigvalsh(cur - prev)[0] >= -1e-12
            prev = cur

    def test_koebe_norm_constant(self):
        coeffs = koebe_scalar_coeffs(256)[:, None, None]
        assert norm_majorant(coeffs, KOEBE_RADIUS, 1) == pytest.approx(0.25, abs=1e-10)

    def test_mobius_norm_at_bohr_radius(self):
        coeffs = mobius_scalar_coeffs(0.5, 96)[:, None, None]
        assert norm_majorant(coeffs, 0.5, 0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        coeffs = np.array([[[3.0 + 4.0j]]])
        for r in (0.0, 0.5, 0.9):
            assert norm_majorant(coeffs, r, 0) == pytest.approx(5.0)

    def test_r_domain(self):
        with pytest.raises(DomainError):
            norm_majorant(np.zeros((1, 1, 1)), 1.0, 0)


class TestGridKahanSums:
    radii = st.lists(st.floats(0.0, 0.999), min_size=1, max_size=12)

    @given(radii, st.integers(0, 4), st.integers(0, 70), st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matrix_sum_is_the_per_radius_loop(self, rs, start_power, n, d, paired):
        rng = np.random.default_rng(n * 97 + d)
        shape = (n, 2, d, d) if paired else (n, d, d)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = bohr._kahan_matrix_sum(stack, np.array(rs), start_power)
        assert out.shape == (len(rs),) + shape[1:]
        for row, r in zip(out, rs):
            assert row.tobytes() == reference_matrix_sum(stack, r, start_power).tobytes()

    @given(radii, st.integers(0, 4), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_scalar_sum_is_the_per_radius_loop(self, rs, start_power, n):
        values = np.abs(np.random.default_rng(n).standard_normal(n)) * 10.0
        out = bohr._kahan_scalar_sum(values, np.array(rs), start_power)
        assert out.tolist() == [reference_scalar_sum(values, r, start_power) for r in rs]


class TestRotatedCoeffs:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.a = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        self.b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        self.h = HarmonicSeries(analytic=self.a, coanalytic=self.b)

    def test_zero_angle_without_coanalytic(self):
        h = HarmonicSeries(analytic=self.a, coanalytic=np.zeros_like(self.b))
        assert np.allclose(rotated_coeffs(h, 0.0).coeffs, self.a[1:])

    def test_pi(self):
        out = rotated_coeffs(self.h, math.pi).coeffs
        assert np.allclose(out, -(self.a[1:] + self.b), atol=1e-14)

    def test_half_pi(self):
        out = rotated_coeffs(self.h, math.pi / 2).coeffs
        assert np.allclose(out, 1j * (self.a[1:] - self.b), atol=1e-14)


class TestSphericalDistance:
    def test_zero(self):
        assert spherical_distance(0.0, 0.0) == 0.0

    def test_infinity_case(self):
        assert spherical_distance(1.0, math.inf) == pytest.approx(INV_SQRT2)
        assert spherical_distance(math.inf, 1.0) == pytest.approx(INV_SQRT2)
        assert spherical_distance(math.inf, math.inf) == 0.0

    def test_direct_value(self):
        assert spherical_distance(2.0, 1.0) == pytest.approx(1.0 / math.sqrt(10.0))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_metric_on_triples(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal(3) * 3 + 1j * rng.standard_normal(3)
        a, b, c = (complex(p) for p in pts)
        assert spherical_distance(a, b) == pytest.approx(spherical_distance(b, a))
        assert 0.0 <= spherical_distance(a, b) <= 1.0
        assert spherical_distance(a, c) <= (spherical_distance(a, b)
                                            + spherical_distance(b, c) + 1e-12)


class TestPsiPeak:
    def test_r_zero(self):
        assert psi_peak(0.0) == (1.0, 1.0)

    def test_half(self):
        x0, peak = psi_peak(0.5)
        assert x0 == pytest.approx(math.sqrt(3.0 / 7.0), abs=1e-12)
        assert peak == pytest.approx(math.sqrt(7.0 / 3.0), abs=1e-12)

    def test_peak_identity_and_grid_dominance(self):
        for r in (0.1, 0.33, 0.5, 0.77, 0.95):
            x0, peak = psi_peak(r)
            psi = lambda x: x + (2 * r / math.sqrt(1 - r * r)) * math.sqrt(max(0.0, 1 - x * x))
            assert psi(x0) == pytest.approx(peak, abs=1e-12)
            xs = np.linspace(0.0, 1.0, 1000)
            assert max(psi(x) for x in xs) <= peak + 1e-12


class TestBoundaryLiminf:
    def test_half_plane_map(self):
        est = boundary_distance_liminf(lambda zs: (zs / (1.0 - zs))[:, None, None], 0.0)
        assert est.value == pytest.approx(0.5, abs=1e-4)
        # ring minima increase toward the liminf
        assert np.all(np.diff(est.ring_minima) >= -1e-12)

    def test_koebe(self):
        est = boundary_distance_liminf(lambda zs: (zs / (1.0 - zs) ** 2)[:, None, None], 0.0)
        assert est.value == pytest.approx(0.25, abs=1e-4)

    def test_linear_series(self):
        # the polynomial path is exact here because the series terminates
        f = HoloSeries(np.stack([np.zeros((2, 2)), np.eye(2)]).astype(complex))
        est = boundary_distance_liminf(f, 0.0)
        assert est.value == pytest.approx(1.0, abs=1e-4)

    def test_truncation_is_not_the_function_near_the_boundary(self):
        # the partial sums of z/(1-z) have roots on the unit circle, so the
        # series path collapses; the callable path is required for liminfs
        coeffs = np.ones(257)
        coeffs[0] = 0.0
        est = boundary_distance_liminf(HoloSeries.from_scalar(coeffs, 1), 0.0)
        assert est.value < 0.01

    def test_ring_minima_match_svd_reference(self):
        spec = FamilySpec(family_id="starlike_diag", dim=3, aux_dim=4, order=64, seed=5,
                          params={"with_witness": True})
        _, aux = sample(spec, with_aux=True)
        rng = np.random.default_rng(12)
        series = HoloSeries(rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2)))
        base = np.array([[1.0, 0.5j], [0.0, -1.0]])
        grid = (12, 90)
        for f, b in ((aux["eval"], 0.0), (series, base)):
            est = boundary_distance_liminf(f, b, grid=grid)
            eval_fn = f if callable(f) else (lambda zs: evaluate_grid(series, zs))
            dim = np.asarray(eval_fn(np.zeros(1, dtype=complex))).shape[-1]
            b_mat = np.asarray(b) if np.ndim(b) == 2 else b * np.eye(dim)
            theta = 2.0 * math.pi * np.arange(grid[1]) / grid[1]
            for j, rr in enumerate(1.0 - 2.0 ** -np.arange(1, grid[0] + 1)):
                values = eval_fn(rr * np.exp(1j * theta)) - b_mat
                ref = np.linalg.svd(values, compute_uv=False)[:, 0].min()
                assert abs(est.ring_minima[j] - ref) <= 1e-12 * ref


class TestRadiusFormulas:
    def test_thm2_at_twice_identity(self):
        assert thm2_radius(2.0 * np.eye(2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_thm2_diagonal(self):
        assert thm2_radius(np.diag([2.0, 4.0]).astype(complex)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_thm2_requires_spectrum_above_one(self):
        with pytest.raises(ContractError):
            thm2_radius(np.diag([0.5, 2.0]).astype(complex))

    def test_thm2_rejects_identity(self):
        with pytest.raises(ContractError):
            thm2_radius(np.eye(3))

    def test_thm3_identity(self):
        assert thm3_radius(np.eye(4)) == pytest.approx(1.0 / 3.0)

    def test_thm3_diagonal(self):
        assert thm3_radius(np.diag([1.0, 2.0]).astype(complex)) == pytest.approx(0.2)

    def test_thm3_scaled_unitary(self):
        from opbohr.generators import random_unitary

        u = 3.7 * random_unitary(3, 5)
        assert thm3_radius(u) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_thm3_singular(self):
        with pytest.raises(ContractError):
            thm3_radius(np.diag([1.0, 0.0]).astype(complex))


class TestBisect:
    def mobius_predicate(self, a, order=96):
        coeffs = mobius_scalar_coeffs(a, order)[:, None, None]
        return lambda r: norm_majorant(coeffs, r, 0) <= 1.0

    def test_mobius_half(self):
        res = bohr_radius_bisect(self.mobius_predicate(0.5), 0.0, 0.95, tol=1e-8)
        assert res.bracketed
        assert res.radius == pytest.approx(0.5, abs=1e-6)
        assert not res.warnings

    def test_mobius_point_nine(self):
        res = bohr_radius_bisect(self.mobius_predicate(0.9), 0.0, 0.95, tol=1e-8)
        assert res.radius == pytest.approx(1.0 / 2.8, abs=1e-6)

    def test_unbracketed(self):
        res = bohr_radius_bisect(lambda r: True, 0.0, 0.9)
        assert res.radius == 0.9 and not res.bracketed

    def test_predicate_must_hold_at_lo(self):
        with pytest.raises(ContractError):
            bohr_radius_bisect(lambda r: False, 0.0, 0.9)


class TestCheckTheorem:
    def scalar_z_harmonic(self):
        analytic = np.zeros((2, 1, 1), dtype=complex)
        analytic[1, 0, 0] = 1.0
        return HarmonicSeries(analytic=analytic, coanalytic=np.zeros((1, 1, 1)))

    def test_t1iii_planted_margin(self):
        rep = check_theorem("t1iii", self.scalar_z_harmonic(), 1.0 / 3.0)
        assert rep.passed
        assert rep.margin == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_t1iii_detects_violation_under_force(self):
        rep = check_theorem("t1iii", self.scalar_z_harmonic(), 0.6, force=True)
        assert not rep.passed
        assert rep.margin == pytest.approx(-0.1, abs=1e-12)

    def test_radius_guard(self):
        with pytest.raises(DomainError):
            check_theorem("t1iii", self.scalar_z_harmonic(), 0.6)

    def test_e55_planted_near_equality(self):
        rep = check_theorem("e55", mobius_series(INV_SQRT2, 2, 64), INV_SQRT2)
        assert rep.passed and abs(rep.margin) <= 1e-6

    def test_t4b_planted_koebe_equality(self):
        pair = (koebe_series(2, 256), identity_witness(256))
        rep = check_theorem("t4b", pair, KOEBE_RADIUS)
        assert rep.passed and abs(rep.margin) <= 1e-9

    def test_e17_vectorized_sweep(self):
        triples = ordered_triples(100_000, 31)
        alpha, beta, gamma = triples[:, 0], triples[:, 1], triples[:, 2]
        lam = lambda x, y: np.abs(x - y) / (np.sqrt(1 + x * x) * np.sqrt(1 + y * y))
        margins = lam(beta, gamma) - lam(alpha, gamma)
        assert float(margins.min()) >= -1e-15
        # spot-check the checker against the vectorized formula
        for i in range(0, 100_000, 9999):
            rep = check_theorem("e17", tuple(triples[i]))
            assert rep.passed
            assert rep.margin == pytest.approx(float(margins[i]), abs=1e-13)

    def test_l1_margin_against_direct_eigenvalue(self):
        seq = gaussian_coeff_sequence(3, 16, 5)
        r, k = 0.5, 1
        rep = check_theorem("l1", seq, r, k=k)
        from opbohr import abs_value, adjoint, hermitize

        s = sum(abs_value(seq[n]) * r**n for n in range(k, 17))
        rhs = (r ** (2 * k) / (1 - r * r)) * sum(adjoint(seq[n]) @ seq[n] for n in range(k, 17))
        expected = float(np.linalg.eigvalsh(hermitize(rhs - s @ s))[0])
        assert rep.margin == pytest.approx(expected, abs=1e-10)
        assert rep.passed

    def test_mu_required_for_rotated_checks(self):
        spec = FamilySpec(family_id="schur_harmonic", dim=2, aux_dim=3, order=32, seed=1)
        inst = sample(spec)
        with pytest.raises(ContractError):
            check_theorem("t1i", inst, 0.5)

    def test_instance_type_mismatch(self):
        with pytest.raises(ContractError):
            check_theorem("t1i", koebe_series(2, 8), 0.5, mu=0.0)
        with pytest.raises(ContractError):
            check_theorem("t3a", koebe_series(2, 8), 0.1)

    def test_unknown_id(self):
        with pytest.raises(ContractError):
            check_theorem("t9", None, 0.5)

    def test_margin_monotone_in_r_for_fixed_rhs_checks(self):
        # for checks whose right side does not move with r, the majorant can
        # only grow, so margins are nonincreasing (forced violations included)
        spec = FamilySpec(family_id="schur_harmonic", dim=3, aux_dim=4, order=64, seed=13)
        inst = sample(spec)
        rs = (0.05, 0.1, 0.2, 1.0 / 3.0, 0.5, 0.7)
        for theorem_id, kwargs in (("t1ii", {"mu": 0.4}), ("t1iii", {})):
            reports = check_theorem_grid(theorem_id, inst, rs, force=True, **kwargs)
            margins = [rep.margin for rep in reports]
            assert all(m2 <= m1 + 1e-9 for m1, m2 in zip(margins, margins[1:]))
        pair_spec = FamilySpec(family_id="starlike_diag", dim=2, aux_dim=4, order=128,
                               seed=4, params={"with_witness": True})
        pair = sample(pair_spec)
        reports = check_theorem_grid("t4b", pair, (0.05, 0.1, KOEBE_RADIUS, 0.3), force=True)
        margins = [rep.margin for rep in reports]
        assert all(m2 <= m1 + 1e-9 for m1, m2 in zip(margins, margins[1:]))

    def test_t1_rotation_shares_instance(self):
        spec = FamilySpec(family_id="schur_harmonic", dim=2, aux_dim=4, order=64, seed=21)
        inst = sample(spec)
        for mu in (0.0, 1.0, math.pi / 3, math.pi / 7):
            rep = check_theorem("t1i", inst, 0.9, mu=mu)
            assert rep.passed
            rep2 = check_theorem("t1ii", inst, 0.2, mu=mu)
            assert rep2.passed

    def test_t2_sides_include_growth_bounds(self):
        spec = FamilySpec(family_id="exterior_colligation", dim=2, aux_dim=4, order=64, seed=3)
        inst = sample(spec)
        rep = check_theorem("t2", inst, 1.0 / 3.0)
        assert rep.passed
        for key in ("lambda_lhs", "lambda_rhs", "growth_bound", "a0_sq_bound", "L"):
            assert key in rep.side_values

    def test_t4b_koebe_fails_just_past_its_sharp_radius(self):
        pair = (koebe_series(2, 256), identity_witness(256))
        at, past = check_theorem_grid("t4b", pair, (KOEBE_RADIUS, KOEBE_RADIUS + 1e-3),
                                      force=True)
        assert at.passed and abs(at.margin) <= 1e-9
        assert not past.passed

    def test_e55_mobius_touches_its_bound_only_at_the_extremal_radius(self):
        # e55 holds at every radius, so no radius exists past which Mobius(a)
        # fails: it meets the bound at r = a and lies strictly inside on both
        # sides.  A checker that inflated margins would read > 0 at r = a; one
        # that cannot fail is caught by pushing the instance past norm one.
        f = mobius_series(INV_SQRT2, 2, 64)
        rs = (INV_SQRT2 - 1e-3, INV_SQRT2, INV_SQRT2 + 1e-3)
        below, at, past = check_theorem_grid("e55", f, rs, force=True)
        assert at.passed and abs(at.margin) <= 1e-12
        assert below.margin > 1e-6 and past.margin > 1e-6
        scaled = HoloSeries((1.0 + 1e-3) * f.coeffs)
        assert not any(rep.passed for rep in check_theorem_grid("e55", scaled, rs, force=True))

    def test_grid_past_stated_radius_raises_before_evaluating(self, monkeypatch):
        rs = (0.1, 1.0 / 3.0, 0.6)
        assert len(check_theorem_grid("t1iii", self.scalar_z_harmonic(), rs, force=True)) == 3

        def evaluated(*args):
            raise AssertionError("a margin was evaluated before the grid was validated")

        monkeypatch.setattr(bohr, "_kahan_matrix_sum", evaluated)
        with pytest.raises(DomainError):
            check_theorem_grid("t1iii", self.scalar_z_harmonic(), rs)

    def test_normalized_margin_and_scale(self):
        rep = check_theorem("t1iii", self.scalar_z_harmonic(), 1.0 / 3.0)
        assert rep.scale == 1.0
        assert rep.normalized_margin == rep.margin


@pytest.fixture(scope="module")
def radius_cases():
    """theorem id -> (instance, radii, kwargs) for every check that takes a radius."""
    harmonic = sample(FamilySpec(family_id="schur_harmonic", dim=2, aux_dim=4, order=32, seed=3))
    holo = sample(FamilySpec(family_id="schur_holo", dim=2, aux_dim=4, order=32, seed=3))
    holo_pair = sample(FamilySpec(family_id="schur_holo", dim=2, aux_dim=4, order=32, seed=4,
                                  params={"with_witness": True}))
    exterior = sample(FamilySpec(family_id="exterior_diag", dim=2, aux_dim=4, order=32, seed=5))
    convex, convex_aux = sample(FamilySpec(family_id="convex_diag", dim=2, aux_dim=4, order=64,
                                           seed=6, params={"with_witness": True}), with_aux=True)
    starlike, starlike_aux = sample(FamilySpec(family_id="starlike_diag", dim=2, aux_dim=4,
                                               order=64, seed=7, params={"with_witness": True}),
                                    with_aux=True)
    return {
        "l1": (gaussian_coeff_sequence(2, 16, 5), (0.1, 0.5, 0.9), {"k": 1}),
        "t1i": (harmonic, (0.1, 0.5, 0.9, 0.95), {"mu": 0.7}),
        "t1ii": (harmonic, (0.05, 0.2, 0.6), {"mu": 0.7}),
        "t1iii": (harmonic, (0.1, 1.0 / 3.0, 0.6), {}),
        "e55": (holo, (0.25, 0.5, INV_SQRT2), {}),
        "t2": (exterior, (0.1, 1.0 / 3.0, 0.6), {}),
        "t3a": (convex, (0.05, thm3_radius(convex[0].coeffs[1]), 0.6),
                {"boundary_eval": convex_aux["eval"]}),
        "t3b": (convex, (0.05, 1.0 / 3.0, 0.6), {}),
        "l2a": (holo_pair, (0.1, 0.2, 1.0 / 3.0, 0.6), {}),
        "l2b": (holo_pair, (0.1, 0.2, 1.0 / 3.0, 0.6), {}),
        "t4a": (starlike, (0.05, KOEBE_RADIUS, 0.6), {"boundary_eval": starlike_aux["eval"]}),
        "t4b": (starlike, (0.05, KOEBE_RADIUS, 0.6), {}),
    }


def test_radius_cases_cover_every_check_with_a_radius(radius_cases):
    assert set(radius_cases) == set(THEOREM_IDS) - {"e17"}


@pytest.mark.parametrize("theorem_id", [t for t in THEOREM_IDS if t != "e17"])
def test_grid_equals_single_radius_checks(theorem_id, radius_cases):
    instance, rs, kwargs = radius_cases[theorem_id]
    grid = check_theorem_grid(theorem_id, instance, rs, force=True, **kwargs)
    singles = [check_theorem(theorem_id, instance, r, force=True, **kwargs) for r in rs]
    assert [rep.r for rep in grid] == list(rs)
    assert grid == singles
    assert check_theorem_grid(theorem_id, instance, (), **kwargs) == []
