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
    InvalidInputError,
    HoloSeries,
    bohr_radius_bisect,
    boundary_distance_liminf,
    check_theorem_grid,
    compose_subordination,
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
from opbohr.linalg import abs_value, adjoint, hermitize, smallest_eigenvalue
from opbohr.generators import (
    ClosedFormEval,
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


U = 2.0 ** -53  # unit roundoff of float64


def gamma(k):
    return k * U / (1.0 - k * U)


def formed_terms(stack, rs, start_power):
    """The float64 terms the matrix sum adds: real and imaginary parts of
    stack[n] r^(start_power + n), one row per n and one column per radius."""
    weights = bohr._weight_table(np.array(rs), start_power, stack.shape[0])
    parts = np.ascontiguousarray(stack).view(np.float64)
    return parts[:, None] * weights.reshape(weights.shape + (1,) * (parts.ndim - 1))


def sum_case(seed, n, d, paired, spread, cancel, r0):
    """A complex stack of n terms with entries spread over 10^(+-spread).

    With cancel, every odd term is the negation of its predecessor divided
    by r0, perturbed in its last few digits, so the formed terms at r0 cancel
    in pairs down to a sum far below the sum of their magnitudes.
    """
    rng = np.random.default_rng(seed)
    shape = (n, 2, d, d) if paired else (n, d, d)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack *= 10.0 ** rng.uniform(-spread, spread, shape)
    if cancel:
        odd = -stack[0:n - 1:2] / r0
        stack[1::2] = odd * (1.0 + 1e-12 * rng.standard_normal(odd.shape))
    return stack


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
    # around the powers of two at which the cascade gains a level
    term_counts = st.sampled_from((0, 1, 2, 3, 63, 64, 65, 256, 257))

    @given(radii, st.integers(0, 4), term_counts, st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matrix_sum_rows_equal_single_radius_sums(self, rs, start_power, n, d, paired):
        shape = (n, 2, d, d) if paired else (n, d, d)
        rng = np.random.default_rng(n * 97 + d)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = bohr._kahan_matrix_sum(stack, np.array(rs), start_power)
        assert out.shape == (len(rs),) + shape[1:]
        for row, r in zip(out, rs):
            alone = bohr._kahan_matrix_sum(stack, np.array([r]), start_power)[0]
            assert row.tobytes() == alone.tobytes()

    @given(radii, st.integers(0, 4), term_counts)
    @settings(max_examples=60, deadline=None)
    def test_scalar_sum_rows_equal_single_radius_sums(self, rs, start_power, n):
        values = np.abs(np.random.default_rng(n).standard_normal(n)) * 10.0
        out = bohr._kahan_scalar_sum(values, np.array(rs), start_power)
        assert out.tolist() == [bohr._kahan_scalar_sum(values, np.array([r]), start_power)[0]
                                for r in rs]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 260), st.integers(1, 3), st.booleans(),
           st.sampled_from((0.0, 5.0, 20.0)), st.booleans(),
           st.lists(st.floats(0.05, 0.999), min_size=1, max_size=3), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_matrix_sum_within_compensated_bound(self, seed, n, d, paired, spread, cancel,
                                                 rs, start_power):
        """Each real component lies within u |S| + gamma_(n-1)^2 sum |x| of
        the exact sum S of the formed terms x, against a 40-digit reference."""
        mpmath = pytest.importorskip("mpmath")
        stack = sum_case(seed, n, d, paired, spread, cancel, rs[0])
        out = bohr._kahan_matrix_sum(stack, np.array(rs), start_power)
        got = np.ascontiguousarray(out).view(np.float64).reshape(-1)
        terms = formed_terms(stack, rs, start_power).reshape(n, got.size)
        g2 = gamma(max(n - 1, 0)) ** 2
        with mpmath.workdps(40):
            for column, value in zip(terms.T.tolist(), got.tolist()):
                exact = mpmath.fsum(column)
                bound = U * abs(exact) + g2 * mpmath.fsum(column, absolute=True)
                assert abs(mpmath.mpf(value) - exact) <= bound

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300), st.sampled_from((0.0, 5.0, 20.0)),
           st.booleans(), st.lists(st.floats(0.05, 0.999), min_size=1, max_size=4),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_scalar_sum_is_correctly_rounded(self, seed, n, spread, cancel, rs, start_power):
        """Each sum is the exact sum of its formed terms rounded once.  The
        reference is mpmath's summation at a precision that covers the whole
        float64 range, so it is exact: a 40-digit one could round onto a tie
        that the exact sum is not on."""
        mpmath = pytest.importorskip("mpmath")
        values = sum_case(seed, n, 1, False, spread, cancel, rs[0])[:, 0, 0].real
        out = bohr._kahan_scalar_sum(values, np.array(rs), start_power)
        terms = values[:, None] * bohr._weight_table(np.array(rs), start_power, n)
        with mpmath.workprec(2200):
            assert out.tolist() == [float(mpmath.fsum(column)) for column in terms.T.tolist()]


class TestRotatedCoeffs:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.a = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        self.b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        self.h = HarmonicSeries(analytic=self.a, coanalytic=self.b)

    def test_zero_angle_without_coanalytic(self):
        h = HarmonicSeries(analytic=self.a, coanalytic=np.zeros_like(self.b))
        assert np.allclose(rotated_coeffs(h, 0.0), self.a[1:])

    def test_pi(self):
        out = rotated_coeffs(self.h, math.pi)
        assert np.allclose(out, -(self.a[1:] + self.b), atol=1e-14)

    def test_half_pi(self):
        out = rotated_coeffs(self.h, math.pi / 2)
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


class TestClosedFormLiminf:
    """t3a and t4a read the closed-form liminf of the diagonal-frame families
    and accept no other boundary."""

    @staticmethod
    def counted(closed_form: ClosedFormEval, sizes: list) -> ClosedFormEval:
        """The same closed form, with an evaluator that logs each call's point count."""
        def fn(zs):
            sizes.append(np.size(zs))
            return closed_form(zs)

        return ClosedFormEval(fn, closed_form.boundary_liminf)

    @staticmethod
    def pair(family_id, d, seed):
        return sample(FamilySpec(family_id=family_id, dim=d, aux_dim=4, order=128, seed=seed,
                                 params={"with_witness": True}), with_aux=True)

    @pytest.mark.parametrize("zeta, frame", [([1.0], False), ([1.0, 1.0], True)])
    def test_planted_t4a_koebe_meets_its_bound_and_fails_just_past_it(self, zeta, frame):
        # the Koebe slice z/(1 - z)^2 with the identity witness: sum n r^n
        # = r/(1 - r)^2 meets the exact liminf 1/4 at 3 - 2 sqrt(2)
        spec = FamilySpec(family_id="starlike_diag", dim=len(zeta), order=256,
                          params={"zeta": zeta, "frame_identity": frame})
        f, aux = sample(spec, with_aux=True)
        assert aux["eval"].boundary_liminf == 0.25
        pair = (f, identity_witness(256))
        at, past = check_theorem_grid("t4a", pair, (KOEBE_RADIUS, KOEBE_RADIUS + 1e-3),
                                      force=True, boundary_eval=aux["eval"])
        assert at.side_values["liminf"] == 0.25
        assert at.passed and 0.0 <= at.margin <= 1e-15
        assert not past.passed
        assert past.margin == pytest.approx(-2.07e-3, abs=1e-5)

    @pytest.mark.parametrize("theorem_id, family_id", [
        ("t3a", "convex_diag"), ("t3a", "starlike_diag"), ("t4a", "starlike_diag"),
    ])
    def test_diagonal_families_take_the_closed_form(self, theorem_id, family_id):
        sizes = []
        for d in (1, 2, 3, 4):
            pair, aux = self.pair(family_id, d, seed=d)
            boundary_eval = self.counted(aux["eval"], sizes)
            (rep,) = check_theorem_grid(theorem_id, pair, [None], boundary_eval=boundary_eval)
            assert rep.side_values["liminf"] == aux["eval"].boundary_liminf
            assert boundary_distance_liminf(boundary_eval, 0.0) == aux["eval"].boundary_liminf
        assert sizes == []
        boundary_eval(np.zeros(3))
        assert sizes == [3]

    def test_verify_samples_no_boundary(self, monkeypatch):
        from opbohr import cli
        from opbohr.cli import RunConfig, parse_theorem_list, run_suite

        sizes = []
        draw = cli._draw

        def draw_counted(*args):
            instance, aux, fields = draw(*args)
            if "eval" in aux:
                aux = {**aux, "eval": self.counted(aux["eval"], sizes)}
            return instance, aux, fields

        monkeypatch.setattr(cli, "_draw", draw_counted)
        config = RunConfig(theorems=parse_theorem_list("t3,t4"), trials=2, dims=(1, 2, 3, 4))
        reports = run_suite(config).reports
        assert all(rep.passed for rep in reports)
        assert {rep.theorem_id for rep in reports} == {"t3a", "t3b", "t4a", "t4b"}
        assert sizes == []

    @pytest.mark.parametrize("route", ["plain callable", "series", "nonzero base"])
    def test_other_boundaries_raise(self, route):
        for d in (1, 3):
            (f, w), aux = self.pair("convex_diag", d, seed=d)
            exact = aux["eval"]
            boundary_eval, base = (lambda zs: exact(zs)), 0.0
            if route == "series":
                boundary_eval = None
            elif route == "nonzero base":
                # f + C, whose evaluator still carries the value of f
                shift = np.diag(np.arange(1.0, d + 1.0)).astype(complex)
                f = HoloSeries(np.concatenate([f.coeffs[:1] + shift, f.coeffs[1:]]))
                boundary_eval = ClosedFormEval(lambda zs: exact(zs) + shift, exact.boundary_liminf)
                base = shift
            with pytest.raises(ContractError):
                check_theorem_grid("t3a", (f, w), [None], boundary_eval=boundary_eval)
            with pytest.raises(ContractError):
                boundary_distance_liminf(boundary_eval, base)
        if route != "nonzero base":
            # t4a measures ||f||: its base is 0, so only the evaluator can be wrong
            pair, aux = self.pair("starlike_diag", 2, seed=2)
            exact = aux["eval"]
            boundary_eval = None if route == "series" else (lambda zs: exact(zs))
            with pytest.raises(ContractError):
                check_theorem_grid("t4a", pair, [None], boundary_eval=boundary_eval)


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
        (rep,) = check_theorem_grid("t1iii", self.scalar_z_harmonic(), [1.0 / 3.0])
        assert rep.passed
        assert rep.margin == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_t1iii_detects_violation_under_force(self):
        (rep,) = check_theorem_grid("t1iii", self.scalar_z_harmonic(), [0.6], force=True)
        assert not rep.passed
        assert rep.margin == pytest.approx(-0.1, abs=1e-12)

    def test_radius_guard(self):
        with pytest.raises(DomainError):
            check_theorem_grid("t1iii", self.scalar_z_harmonic(), [0.6])

    def test_e55_planted_near_equality(self):
        (rep,) = check_theorem_grid("e55", mobius_series(INV_SQRT2, 2, 64), [INV_SQRT2])
        assert rep.passed and abs(rep.margin) <= 1e-6

    def test_t4b_planted_koebe_equality(self):
        pair = (koebe_series(2, 256), identity_witness(256))
        (rep,) = check_theorem_grid("t4b", pair, [KOEBE_RADIUS])
        assert rep.passed and abs(rep.margin) <= 1e-9

    def test_e17_vectorized_sweep(self):
        triples = ordered_triples(100_000, 31)
        alpha, beta, gamma = triples[:, 0], triples[:, 1], triples[:, 2]
        lam = lambda x, y: np.abs(x - y) / (np.sqrt(1 + x * x) * np.sqrt(1 + y * y))
        margins = lam(beta, gamma) - lam(alpha, gamma)
        assert float(margins.min()) >= -1e-15
        # spot-check the checker against the vectorized formula
        for i in range(0, 100_000, 9999):
            (rep,) = check_theorem_grid("e17", tuple(triples[i]), [None])
            assert rep.passed
            assert rep.margin == pytest.approx(float(margins[i]), abs=1e-13)

    def test_l1_margin_against_direct_eigenvalue(self):
        seq = gaussian_coeff_sequence(3, 16, 5)
        r, k = 0.5, 1
        (rep,) = check_theorem_grid("l1", seq, [r], k=k)
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
            check_theorem_grid("t1i", inst, [0.5])

    def test_instance_type_mismatch(self):
        with pytest.raises(ContractError):
            check_theorem_grid("t1i", koebe_series(2, 8), [0.5], mu=0.0)
        with pytest.raises(ContractError):
            check_theorem_grid("t3a", koebe_series(2, 8), [0.1])

    def test_unknown_id(self):
        with pytest.raises(ContractError):
            check_theorem_grid("t9", None, [0.5])

    def test_psd_tol_must_be_finite_and_nonnegative(self):
        f = mobius_series(0.5, 2, 16)
        for psd_tol in (math.nan, math.inf, -1.0):
            with pytest.raises(InvalidInputError):
                check_theorem_grid("e55", f, [0.5], psd_tol=psd_tol)

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
            (rep,) = check_theorem_grid("t1i", inst, [0.9], mu=mu)
            assert rep.passed
            (rep2,) = check_theorem_grid("t1ii", inst, [0.2], mu=mu)
            assert rep2.passed

    def test_t2_sides_include_growth_bounds(self):
        spec = FamilySpec(family_id="exterior_colligation", dim=2, aux_dim=4, order=64, seed=3)
        inst = sample(spec)
        (rep,) = check_theorem_grid("t2", inst, [1.0 / 3.0])
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

    @pytest.mark.parametrize("theorem_id", ["l2a", "l2b"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_l2_identity_witness_meets_its_bound(self, theorem_id, d):
        # phi(z) = z makes f(phi) = f, so both sides are sum ||A_n|| r^n (the
        # A_n are scalar, so |A_n| = ||A_n|| I) and the margin is minus the tail
        pair = (mobius_series(0.5, d, 64), identity_witness(64))
        for rep in check_theorem_grid(theorem_id, pair, (0.1, 0.2, 1.0 / 3.0)):
            assert abs(rep.margin + rep.side_values["tail"]) <= 1e-14 * rep.scale

    def test_l2b_identity_witness_meets_its_bound_on_a_schur_draw(self):
        f = sample(FamilySpec(family_id="schur_holo", dim=3, aux_dim=4, order=64, seed=11))
        pair = (f, identity_witness(64))
        for rep in check_theorem_grid("l2b", pair, (0.1, 0.2, 1.0 / 3.0)):
            assert abs(rep.margin + rep.side_values["tail"]) <= 1e-14 * rep.scale

    def test_t3b_fails_just_past_one_third_on_z_over_one_minus_z(self):
        # f = z/(1 - z) I: sum over n >= 1 of r^n = r/(1 - r) meets |A_1|/2 = 1/2
        # at r = 1/3
        pair = (HoloSeries.from_scalar([0.0] + [1.0] * 64, 2), identity_witness(64))
        at, past = check_theorem_grid("t3b", pair, (1.0 / 3.0, 1.0 / 3.0 + 1e-3), force=True)
        assert at.passed and abs(at.margin) <= 1e-12
        assert not past.passed

    def test_grid_past_stated_radius_raises_before_evaluating(self, monkeypatch):
        rs = (0.1, 1.0 / 3.0, 0.6)
        assert len(check_theorem_grid("t1iii", self.scalar_z_harmonic(), rs, force=True)) == 3

        def evaluated(*args):
            raise AssertionError("a margin was evaluated before the grid was validated")

        monkeypatch.setattr(bohr, "_kahan_matrix_sum", evaluated)
        with pytest.raises(DomainError):
            check_theorem_grid("t1iii", self.scalar_z_harmonic(), rs)

    def test_normalized_margin_and_scale(self):
        (rep,) = check_theorem_grid("t1iii", self.scalar_z_harmonic(), [1.0 / 3.0])
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


# theorem id -> stated radius of an instance; l1, t1i and e55 have none
STATED_RADII = {
    "t1ii": lambda h: 0.2,
    "t1iii": lambda h: 1.0 / 3.0,
    "t2": lambda f: thm2_radius(f.coeffs[0]),
    "t3a": lambda pair: thm3_radius(pair[0].coeffs[1]),
    "t3b": lambda pair: 1.0 / 3.0,
    "l2a": lambda pair: 1.0 / 3.0,
    "l2b": lambda pair: 1.0 / 3.0,
    "t4a": lambda pair: KOEBE_RADIUS,
    "t4b": lambda pair: KOEBE_RADIUS,
}


@pytest.mark.parametrize("theorem_id", [t for t in THEOREM_IDS if t != "e17"])
def test_none_radius_is_the_stated_radius(theorem_id, radius_cases):
    instance, _, kwargs = radius_cases[theorem_id]
    if theorem_id in ("l1", "t1i", "e55"):
        with pytest.raises(ContractError):
            check_theorem_grid(theorem_id, instance, [None], **kwargs)
        return
    stated = STATED_RADII[theorem_id](instance)
    (rep,) = check_theorem_grid(theorem_id, instance, [None], **kwargs)
    assert rep.r == stated
    assert [rep] == check_theorem_grid(theorem_id, instance, [stated], **kwargs)


def test_radius_cases_cover_every_check_with_a_radius(radius_cases):
    assert set(radius_cases) == set(THEOREM_IDS) - {"e17"}


@pytest.mark.parametrize("theorem_id", [t for t in THEOREM_IDS if t != "e17"])
def test_grid_equals_single_radius_checks(theorem_id, radius_cases):
    instance, rs, kwargs = radius_cases[theorem_id]
    grid = check_theorem_grid(theorem_id, instance, rs, force=True, **kwargs)
    singles = [rep for r in rs
               for rep in check_theorem_grid(theorem_id, instance, [r], force=True, **kwargs)]
    assert [rep.r for rep in grid] == list(rs)
    assert grid == singles
    assert check_theorem_grid(theorem_id, instance, (), **kwargs) == []


def loewner_sides(theorem_id, instance, rs, kwargs):
    """(lhs, rhs) stacks over the grid rs: the two sides of each Loewner
    check, formed with the module's own sums and preparation."""
    grid = np.array(rs)
    if theorem_id == "l1":
        k = kwargs["k"]
        tail = bohr._coeff_stack(instance)[k:]
        s = bohr._kahan_matrix_sum(abs_value(tail), grid, k)
        sq = hermitize(np.sum(adjoint(tail) @ tail, axis=0))
        coeff = np.array([r ** (2 * k) / (1.0 - r * r) for r in rs])
        return hermitize(s @ s), coeff[:, None, None] * sq
    if theorem_id == "t1i":
        _, t_mat, abs_p, _, _ = bohr._rotated_parts(instance, kwargs["mu"], False)
        s = t_mat + bohr._kahan_matrix_sum(abs_p, grid, 1)
        c = [psi_peak(r)[1] for r in rs]
    elif theorem_id == "t1iii":
        pair = np.stack([abs_value(instance.analytic[1:]),
                         abs_value(adjoint(instance.coanalytic))], axis=1)
        halves = bohr._kahan_matrix_sum(pair, grid, 1)
        s, c = halves[:, 0] + halves[:, 1], 0.5
    elif theorem_id == "e55":
        s = bohr._kahan_matrix_sum(abs_value(instance.coeffs), grid, 0)
        c = [1.0 / math.sqrt(1.0 - r * r) for r in rs]
    else:
        f, w = instance
        g = compose_subordination(f, w, f.order)
        s = bohr._kahan_matrix_sum(abs_value(g.coeffs[1:]), grid, 1)
        if theorem_id == "t3b":
            return s, np.broadcast_to(0.5 * abs_value(f.coeffs[1]), s.shape)
        norms_a = operator_norm(f.coeffs[1:])
        c = 0.25 if theorem_id == "t4b" else bohr._kahan_scalar_sum(norms_a, grid, 1)
    return s, np.multiply.outer(np.broadcast_to(c, len(rs)), np.eye(s.shape[-1]))


@pytest.mark.parametrize("psd_tol", [None, 0.0])
@pytest.mark.parametrize("theorem_id", ["l1", "t1i", "t1iii", "e55", "l2a", "t3b", "t4b"])
def test_loewner_checks_agree_with_the_difference_eigenvalue(theorem_id, psd_tol, radius_cases):
    """A check against c I reads its margin and its norm off one eigvalsh of
    the PSD side S; both agree with the two-solve route, lambda_min(c I - S)
    and the Gram norm of S, and so does the pass flag, at the default slack
    (psd_tol None: not passed) and at a slack passed in."""
    instance, rs, kwargs = radius_cases[theorem_id]
    slack = bohr.PSD_TOL if psd_tol is None else psd_tol
    if psd_tol is not None:
        kwargs = {**kwargs, "psd_tol": psd_tol}
    reports = check_theorem_grid(theorem_id, instance, rs, force=True, **kwargs)
    lhs, rhs = loewner_sides(theorem_id, instance, rs, kwargs)
    d = lhs.shape[-1]
    for rep, left, right in zip(reports, lhs, rhs):
        lhs_norm = operator_norm(left)
        assert abs(rep.side_values["lhs_norm"] - lhs_norm) <= 8 * d * U * lhs_norm
        scale = rep.scale
        if theorem_id in ("l1", "t3b"):
            rhs_norm = operator_norm(right)
            assert abs(rep.side_values["rhs_norm"] - rhs_norm) <= 8 * d * U * rhs_norm
            scale = max(1.0, rhs_norm)
        if theorem_id == "t1i":
            assert rep.side_values["rhs_norm"] == psi_peak(rep.r)[1]
        margin = smallest_eigenvalue(right - left) - rep.side_values["tail"]
        assert abs(rep.margin - margin) <= 1e-14 * rep.scale
        assert rep.passed == (margin >= -slack * scale)


class TestSharedPreparation:
    """Paired checks on one instance share its preparation, and a cache hit
    gives the reports of a cold call."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(bohr, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bohr, name, counted)
        return calls

    @staticmethod
    def pair(family_id, seed):
        return sample(FamilySpec(family_id=family_id, dim=2, aux_dim=4, order=64, seed=seed,
                                 params={"with_witness": True}), with_aux=True)

    def test_rotated_parts_once_per_angle(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_compute_rotated_parts")
        h = sample(FamilySpec(family_id="commuting_harmonic", dim=2, aux_dim=4, order=32, seed=8))
        for mu in (0.0, 1.0):
            check_theorem_grid("t1i", h, (0.1, 0.5), mu=mu)
            check_theorem_grid("t1ii", h, [0.2], mu=mu)
        assert len(calls) == 2
        check_theorem_grid("t1ii", h, [0.2], mu=1.0, normal=True)
        check_theorem_grid("t1ii", h, [0.2], mu=-0.0)
        assert len(calls) == 4

    def test_each_subordination_pair_composes_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "compose_subordination")
        for (a, b), family_id in ((("t3a", "t3b"), "convex_diag"),
                                  (("l2a", "l2b"), "schur_holo"),
                                  (("t4a", "t4b"), "starlike_diag")):
            pair, aux = self.pair(family_id, seed=9)
            kwargs = {"boundary_eval": aux["eval"]} if a != "l2a" else {}
            before = len(calls)
            check_theorem_grid(a, pair, [None], **kwargs)
            check_theorem_grid(b, pair, [None])
            assert len(calls) == before + 1

    def test_each_subordination_pair_decomposes_its_composite_once(self, monkeypatch):
        solved = []
        for name in ("eigh", "eigvalsh"):
            def recorded(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                solved.append(np.array(a))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        for (a, b), family_id in ((("t3a", "t3b"), "convex_diag"),
                                  (("l2a", "l2b"), "schur_holo"),
                                  (("t4a", "t4b"), "starlike_diag")):
            pair, aux = self.pair(family_id, seed=9)
            composite = compose_subordination(*pair, pair[0].order).coeffs[1:]
            gram = adjoint(composite) @ composite
            kwargs = {"boundary_eval": aux["eval"]} if a != "l2a" else {}
            solved.clear()
            check_theorem_grid(a, pair, [None], **kwargs)
            check_theorem_grid(b, pair, [None])
            grams = [m for m in solved if m.shape == gram.shape and np.allclose(m, gram)]
            assert len(grams) == 1, (a, b)

    def test_interleaved_instances_give_cold_reports(self, monkeypatch):
        h = sample(FamilySpec(family_id="commuting_harmonic", dim=3, aux_dim=4, order=32, seed=2))
        h_copy = HarmonicSeries(analytic=h.analytic, coanalytic=h.coanalytic)
        (f, w), aux = self.pair("convex_diag", seed=3)
        pair, pair_copy = (f, w), (HoloSeries(f.coeffs), w)
        runs = [
            ("t1i", h, (0.1, 0.9), {"mu": 0.4}),
            ("t1ii", h_copy, (0.1, 0.2), {"mu": 0.4, "normal": True}),
            ("t1ii", h, (0.2,), {"mu": 2.0}),
            ("t1i", h_copy, (0.5,), {"mu": 0.4, "normal": True}),
            ("t1ii", h, (0.2,), {"mu": 0.4}),
            ("t3a", pair, [None], {"boundary_eval": aux["eval"]}),
            ("l2b", pair_copy, (0.1, 1.0 / 3.0), {}),
            ("t3b", pair, [None], {}),
            ("l2a", pair, (0.2,), {}),
            ("t3a", pair_copy, [None], {"boundary_eval": aux["eval"]}),
        ]
        warm = [check_theorem_grid(t, inst, rs, **kw) for t, inst, rs, kw in runs]
        monkeypatch.setattr(bohr, "_shared", lambda instance, key, compute: compute())
        cold = [check_theorem_grid(t, inst, rs, **kw) for t, inst, rs, kw in runs]
        assert warm == cold

    def test_shared_arrays_are_read_only(self):
        h = sample(FamilySpec(family_id="schur_harmonic", dim=2, aux_dim=4, order=32, seed=4))
        check_theorem_grid("t1ii", h, [0.2], mu=0.3)
        (parts,) = bohr._shared_slot[1].values()
        assert len(parts) == 5
        for a in parts:
            assert not a.flags.writeable
        pair, _ = self.pair("schur_holo", seed=5)
        check_theorem_grid("l2a", pair, [0.2])
        shared = bohr._shared_slot[1]
        for a in shared["composite"]:
            assert not a.flags.writeable
        assert not shared["source_norms"].flags.writeable
        with pytest.raises(ValueError):
            shared["source_norms"][0] = 0.0
