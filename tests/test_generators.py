import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbohr import (
    GenerationError,
    HarmonicSeries,
    HoloSeries,
    InvalidInputError,
    RangeError,
    ScalarSeries,
    SubordinationWitness,
    abs_value,
    adjoint,
    check_theorem_grid,
    compose_subordination,
    operator_norm,
    thm2_radius,
)
from opbohr import generators
from opbohr.funcalc import herglotz_transfer_grid, matrix_exp
from opbohr.generators import (
    CERT_SLACK,
    FamilySpec,
    SchurRealization,
    derive_seed,
    gaussian_coeff_sequence,
    identity_witness,
    koebe_series,
    ordered_triples,
    random_unitary,
    sample,
)
from opbohr.linalg import hermitize
from opbohr.series import coeffs_from_circle_samples, coeffs_via_cauchy_integral

BOUNDARY_GRID = 0.97 * np.exp(2j * math.pi * np.arange(720) / 720)
U = 2.0 ** -53  # unit roundoff of float64


def spec_of(family, **kw):
    base = dict(family_id=family, dim=2, aux_dim=4, order=64, seed=12345)
    base.update(kw)
    return FamilySpec(**base)


class TestRandomUnitary:
    def test_scalar_is_unimodular(self):
        u = random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_unitarity(self):
        for n, seed in ((2, 0), (5, 1), (9, 2)):
            u = random_unitary(n, seed)
            assert operator_norm(adjoint(u) @ u - np.eye(n)) <= 1e-12

    def test_seed_reproducibility(self):
        assert np.array_equal(random_unitary(3, 42), random_unitary(3, 42))
        assert not np.array_equal(random_unitary(3, 42), random_unitary(3, 43))


class TestDeterminism:
    @pytest.mark.parametrize("family", [
        "schur_holo", "schur_harmonic", "commuting_harmonic", "exterior_diag",
        "exterior_colligation", "convex_diag", "starlike_diag", "subordination",
        "gaussian_sequence", "ordered_triple",
    ])
    def test_bit_identical_resample(self, family):
        a, a_aux = sample(spec_of(family), with_aux=True)
        b, b_aux = sample(spec_of(family), with_aux=True)
        for key in ("sup_cert", "min_cert"):
            assert a_aux.get(key) == b_aux.get(key)
        if isinstance(a, HoloSeries):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
        elif isinstance(a, HarmonicSeries):
            assert a.analytic.tobytes() == b.analytic.tobytes()
            assert a.coanalytic.tobytes() == b.coanalytic.tobytes()
        elif isinstance(a, SubordinationWitness):
            assert a.phi.coeffs.tobytes() == b.phi.coeffs.tobytes()
        else:
            assert np.array(a).tobytes() == np.array(b).tobytes()

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestSchurFamilies:
    def test_blaschke_scalar(self):
        inst, aux = sample(spec_of("schur_holo", dim=1, aux_dim=1), with_aux=True)
        sup = float(operator_norm(aux["eval"](BOUNDARY_GRID)).max())
        assert sup <= 1.0 + 1e-9

    def test_unit_ball_invariant_720(self):
        for seed in (1, 2, 3):
            for family in ("schur_holo", "schur_harmonic"):
                _, aux = sample(spec_of(family, dim=3, seed=seed), with_aux=True)
                sup = float(operator_norm(aux["eval"](BOUNDARY_GRID)).max())
                assert sup <= 1.0 + 1e-9

    def test_truncation_matches_exact_inside(self):
        inst, aux = sample(spec_of("schur_holo", dim=2, seed=9), with_aux=True)
        from opbohr import evaluate_grid

        zs = 0.5 * np.exp(2j * math.pi * np.arange(16) / 16)
        err = float(np.abs(evaluate_grid(inst, zs) - aux["eval"](zs)).max())
        assert err <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_direct_sum_is_the_diagonal_of_its_slices(self, d):
        unitaries = np.stack([random_unitary(5, derive_seed(d, j)) for j in range(d)])
        total = generators._direct_sum(unitaries)
        coeffs = total.coeffs(64)
        zs = 0.9 * np.exp(2j * math.pi * np.arange(16) / 16)
        values = total.transfer_grid(zs)
        off = ~np.eye(d, dtype=bool)
        assert not np.any(coeffs[:, off]) and not np.any(values[:, off])
        for j, u in enumerate(unitaries):
            scalar = SchurRealization(u, dim=1)
            assert np.abs(coeffs[:, j, j] - scalar.coeffs(64)[:, 0, 0]).max() <= 4 * U
            assert np.abs(values[:, j, j] - scalar.transfer_grid(zs)[:, 0, 0]).max() <= 1e-14
        assert total.sup_bound() <= 1.0 + 1e-12

    def test_commuting_rotations_are_normal(self):
        inst = sample(spec_of("commuting_harmonic", dim=3, seed=5))
        from opbohr import rotated_coeffs

        for mu in (0.0, 1.0, math.pi / 3):
            p = rotated_coeffs(inst, mu)
            defect = operator_norm(p @ adjoint(p) - adjoint(p) @ p)
            assert float(np.max(defect)) <= 1e-10


def mp_schur_coeffs(u, d, order):
    """A_0 = A and A_n = B D^(n-1) C of a realization, as a 40-digit running product."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.matrix(u.tolist())
        n = u.shape[0]
        b, p = m[:d, d:n], m[d:n, :d]
        out = [m[:d, :d]]
        for _ in range(order):
            out.append(b * p)
            p = m[d:n, d:n] * p
        return np.array([[[complex(a[i, j]) for j in range(d)] for i in range(d)] for a in out])


def cauchy_coeffs(fn, order, rho=0.95, nodes=1024):
    """Taylor coefficients 0..order of a matrix function, given on arrays of
    points, by Cauchy integral."""
    return coeffs_via_cauchy_integral(fn, order, rho, nodes).coeffs


class TestExactCoefficients:
    # a Schur realization's coefficients have norm at most 1, so the bound is
    # absolute: about 4.5 eps (the largest error seen is 1.3e-16)
    SCHUR_BOUND = 1e-15

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_schur_coeffs_match_high_precision_reference(self, d):
        for order, seed in ((64, 10 + d), (256, 20 + d), (0, 1), (1, 2), (3, 3), (5, 4)):
            u = random_unitary(d + 4, seed)
            got = SchurRealization(u, d).coeffs(order)
            ref = mp_schur_coeffs(u, d, order)
            assert got.shape == (order + 1, d, d)
            assert float(np.abs(got - ref).max()) <= self.SCHUR_BOUND

    def test_schur_families_match_cauchy_integral(self):
        for d, seed in ((1, 3), (2, 4), (4, 5)):
            inst, aux = sample(spec_of("schur_holo", dim=d, seed=seed), with_aux=True)
            assert np.abs(inst.coeffs - cauchy_coeffs(aux["eval"], 64)).max() <= 1e-12
            for family in ("schur_harmonic", "commuting_harmonic"):
                inst, aux = sample(spec_of(family, dim=d, seed=seed), with_aux=True)
                # F = sum A_n z^n + (sum B_m z^m)*, so F* carries B_m at z^m
                analytic = cauchy_coeffs(aux["eval"], 64)
                coanalytic = cauchy_coeffs(lambda z: adjoint(aux["eval"](z)), 64)
                assert np.abs(inst.analytic - analytic).max() <= 1e-12
                assert np.abs(inst.coanalytic - coanalytic[1:]).max() <= 1e-12
            w, waux = sample(spec_of("subordination", dim=1, seed=seed), with_aux=True)
            phi = cauchy_coeffs(lambda z: waux["eval_phi"](z)[:, None, None], 64)[:, 0, 0]
            assert np.abs(w.phi.coeffs - phi).max() <= 1e-12

    def test_exterior_diag_matches_high_precision_reference(self):
        # exp(c (1 + beta z)/(1 - beta z)) has a_0 = e^c and, for n >= 1,
        # a_n = e^c beta^n sum_{k=1..n} binom(n-1, k-1) (2c)^k / k!.  Bound:
        # 2(n+1) eps relative (the largest error seen is below n eps), with an
        # absolute floor for coefficients in the subnormal range.
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for seed, dim, order in ((1, 3, 64), (2, 3, 64), (3, 1, 256)):
            inst, aux = sample(spec_of("exterior_diag", dim=dim, order=order, seed=seed),
                               with_aux=True)
            got = generators._exp_herglotz_coeffs(aux["c"], aux["beta"], order)
            assert np.array_equal(inst.coeffs, generators._diag_frame_stack(aux["frame"], got))
            with mpmath.workdps(40):
                for c, beta, column in zip(aux["c"], aux["beta"], got.T):
                    c, beta = mpmath.mpf(float(c)), mpmath.mpf(float(beta))
                    for n, a in enumerate(column):
                        ref = mpmath.exp(c) * (1 if n == 0 else beta**n * mpmath.fsum(
                            mpmath.binomial(n - 1, k - 1) * (2 * c) ** k / mpmath.factorial(k)
                            for k in range(1, n + 1)))
                        bound = 2 * (n + 1) * eps * float(ref) + 1e-300
                        assert abs(a - complex(ref)) <= bound, (seed, n)

    def test_colligation_path_matches_per_node_reference(self):
        for d, seed in ((1, 2), (2, 7), (3, 8), (4, 9)):
            inst, aux = sample(spec_of("exterior_colligation", dim=d, seed=seed), with_aux=True)
            c = aux["colligation"]
            # radius-0.5 samples of exp(log f), one node at a time
            nodes = 4 * 64 + 4
            theta = 2.0 * math.pi * np.arange(nodes) / nodes
            logs = herglotz_transfer_grid(c, 0.5 * np.exp(1j * theta))
            samples = np.stack([matrix_exp(lg) for lg in logs])
            reference = coeffs_from_circle_samples(samples, 0.5, 64)
            assert np.array_equal(inst.coeffs[1:], reference[1:])
            assert np.array_equal(inst.coeffs[0], matrix_exp(0.5 * hermitize(adjoint(c.V) @ c.V)))

    @pytest.mark.parametrize("order", [0, 8, 64])
    def test_colligation_draw_has_the_spec_order(self, order):
        inst = sample(spec_of("exterior_colligation", order=order, seed=5))
        assert isinstance(inst, HoloSeries) and inst.order == order

    def test_colligation_order_whose_scale_overflows_raises_before_sampling(self):
        # 0.5^-1100 overflows a float: the draw stops with RangeError, and no
        # numpy overflow warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="order 1100"):
                sample(spec_of("exterior_colligation", dim=1, order=1100, seed=1))


class TestExteriorFamilies:
    def test_diag_stays_outside_unit_ball(self):
        for seed in (1, 4):
            _, aux = sample(spec_of("exterior_diag", dim=3, seed=seed), with_aux=True)
            values = aux["eval"](BOUNDARY_GRID)
            sv_min = float(np.linalg.svd(values, compute_uv=False)[:, -1].min())
            assert sv_min >= 1.0 - 1e-9

    def test_diag_normal_at_every_point(self):
        _, aux = sample(spec_of("exterior_diag", dim=3, seed=2), with_aux=True)
        values = aux["eval"](BOUNDARY_GRID[:64])
        defect = operator_norm(values @ adjoint(values) - adjoint(values) @ values)
        assert float(np.max(defect)) <= 1e-10

    def test_diag_constant_slice(self):
        spec = spec_of("exterior_diag", dim=1, order=8, params={"c": math.log(2), "beta": 0.0})
        inst = sample(spec)
        assert inst.coeffs[0][0, 0] == pytest.approx(2.0, abs=1e-12)
        assert float(np.abs(inst.coeffs[1:]).max()) <= 1e-12
        (rep,) = check_theorem_grid("t2", inst, [1.0 / 3.0])
        assert rep.passed

    def test_diag_radius_precondition(self):
        inst = sample(spec_of("exterior_diag", dim=2, seed=8))
        assert thm2_radius(inst.coeffs[0]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_colligation_v_norm_in_range(self):
        spec = spec_of("exterior_colligation", seed=3, params={"v_norm_sq": 0.55})
        _, aux = sample(spec, with_aux=True)
        assert operator_norm(aux["colligation"].V) ** 2 == pytest.approx(0.55, rel=1e-9)


DENSE_ANGLES = 2 ** 12
DENSE_RADII = (0.97, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -20)


def dense_circle(rho):
    return rho * np.exp(2j * math.pi * np.arange(DENSE_ANGLES) / DENSE_ANGLES)


def certified_spec(family, seed, d):
    # the witness is scalar, so d sizes its realization instead
    if family == "subordination":
        return spec_of(family, dim=1, aux_dim=d + 1, order=8, seed=seed)
    return spec_of(family, dim=d, order=8, seed=seed)


class TestAlgebraicCertificates:
    """Each family's bound from its parameters, against a dense sample taken here only.

    CERT_SLACK also covers the sample's own rounding: a solve at
    |z| = 1 - 2^-20 can lose about 2^20 u = 1.2e-10.
    """

    @pytest.mark.parametrize("family", [
        "schur_holo", "schur_harmonic", "commuting_harmonic", "subordination",
    ])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), d=st.integers(1, 4))
    def test_sup_bound_dominates_dense_sample(self, family, seed, d):
        _, aux = sample(certified_spec(family, seed, d), with_aux=True)
        for rho in DENSE_RADII:
            zs = dense_circle(rho)
            if family == "subordination":
                sampled = float(np.abs(aux["eval_phi"](zs)).max()) / rho
            else:
                sampled = float(operator_norm(aux["eval"](zs)).max())
            assert sampled <= aux["sup_cert"] + CERT_SLACK, rho
        if family in ("schur_holo", "subordination"):
            # a unitary realization is inner: its norm tends to 1 at the circle
            assert sampled >= aux["sup_cert"] - 1e-4

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), d=st.integers(1, 4))
    def test_exterior_diag_min_bound_is_the_dense_infimum(self, seed, d):
        _, aux = sample(spec_of("exterior_diag", dim=d, order=8, seed=seed), with_aux=True)
        bound = aux["min_cert"]
        for rho in DENSE_RADII:
            sv = np.linalg.svd(aux["eval"](dense_circle(rho)), compute_uv=False)
            # a computed singular value is within a few u ||f(z)|| of the exact one
            slack = CERT_SLACK * bound + 16 * d * U * sv[:, 0]
            assert np.all(sv[:, -1] >= bound - slack), rho
        # the infimum is reached at z = -1, one of the sampled points
        assert float(sv[:, -1].min()) <= bound * (1.0 + 1e-5)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), d=st.integers(1, 4))
    def test_colligation_log_has_nonnegative_real_part(self, seed, d):
        _, aux = sample(spec_of("exterior_colligation", dim=d, order=8, seed=seed),
                        with_aux=True)
        for rho in DENSE_RADII:
            logs = herglotz_transfer_grid(aux["colligation"], dense_circle(rho))
            re = np.linalg.eigvalsh(hermitize(logs))
            assert np.all(re[:, 0] >= -CERT_SLACK * np.maximum(1.0, np.abs(re).max(axis=1))), rho
            # Re H >= 0 keeps ||exp(-H)|| <= 1 whatever ||H||, so matrix_exp takes it
            inverse_norm = float(operator_norm(matrix_exp(-logs)).max())
            assert 1.0 / inverse_norm >= aux["min_cert"] - CERT_SLACK, rho

    def test_unitarity_defect_bounds_a_40_digit_reference(self):
        # an upper bound on ||U*U - I||, and at most the Frobenius norm's
        # sqrt(n) above it plus its stated 2 n u ||U||_F^2
        mpmath = pytest.importorskip("mpmath")
        for n, seed in ((2, 1), (5, 2), (9, 3)):
            for scale in (1.0, 1.0 + 1e-12):
                u = scale * random_unitary(n, seed)
                with mpmath.workdps(40):
                    m = mpmath.matrix(u.tolist())
                    exact = float(max(mpmath.svd(m.H * m - mpmath.eye(n), compute_uv=False)))
                bound = float(generators._unitarity_defect(u))
                assert exact <= bound <= math.sqrt(n) * exact + 3 * n * n * U

    @pytest.mark.parametrize("family, params", [
        ("schur_holo", {}), ("schur_harmonic", {}), ("commuting_harmonic", {}),
        ("subordination", {}), ("exterior_colligation", {}),
        ("exterior_diag", {"c": 0.0}),
        ("convex_diag", {"with_witness": True}), ("starlike_diag", {}),
    ])
    def test_unitary_perturbed_by_1e_6_raises(self, monkeypatch, family, params):
        draw = generators.random_unitary
        monkeypatch.setattr(generators, "random_unitary",
                            lambda n, seed: (1.0 + 1e-6) * draw(n, seed))
        with pytest.raises(GenerationError):
            sample(spec_of(family, params=params))


class TestSubordinatedFamilies:
    def test_starlike_coefficient_growth(self):
        inst = sample(spec_of("starlike_diag", dim=3, order=128, seed=6))
        norms = operator_norm(inst.coeffs[1:])
        n = np.arange(1, 129, dtype=float)
        assert np.all(norms <= n + 1e-9)
        assert operator_norm(inst.coeffs[1] - np.eye(3)) <= 1e-12

    def test_starlike_boundary_liminf(self):
        # Koebe's quarter: a normalized starlike map omits no point of |w| < 1/4
        _, aux = sample(spec_of("starlike_diag", dim=2, order=128, seed=7), with_aux=True)
        assert aux["eval"].boundary_liminf >= 0.25
        assert dense_boundary_min(aux["eval"]) >= 0.25 - 1e-6

    def test_planted_koebe(self):
        spec = spec_of("starlike_diag", dim=2, order=16,
                       params={"zeta": [1.0, 1.0], "frame": np.eye(2)})
        inst = sample(spec)
        expected = koebe_series(2, 16)
        assert float(np.abs(inst.coeffs - expected.coeffs).max()) <= 1e-12

    def test_convex_subordinated_norm_bound(self):
        # ||B_k|| <= ||A_1|| across random witnesses
        for seed in range(10):
            f = sample(spec_of("convex_diag", dim=3, order=96, seed=seed))
            a1_norm = operator_norm(f.coeffs[1])
            for wseed in range(3):
                w = sample(spec_of("subordination", order=96, seed=derive_seed(seed, wseed)))
                g = compose_subordination(f, w, 96)
                assert float(operator_norm(g.coeffs[1:]).max()) <= a1_norm + 1e-9

    def test_convex_subordinated_abs_bound(self):
        # |B_k| <= |A_1| in the Loewner order for the frame-coupled family
        f = sample(spec_of("convex_diag", dim=3, order=64, seed=11))
        w = sample(spec_of("subordination", order=64, seed=13))
        g = compose_subordination(f, w, 64)
        abs_a1 = abs_value(f.coeffs[1])
        for k in range(1, 65):
            diff = abs_a1 - abs_value(g.coeffs[k])
            assert np.linalg.eigvalsh(0.5 * (diff + adjoint(diff)))[0] >= -1e-9

    def test_witness_structure(self):
        w, aux = sample(spec_of("subordination", order=32, seed=14), with_aux=True)
        assert w.phi.coeffs[0] == 0
        assert aux["sup_cert"] <= 1.0 + CERT_SLACK

    def test_witness_constant_contraction(self):
        c = 0.6 * np.exp(0.7j)
        phi = np.zeros(9, dtype=np.complex128)
        phi[1] = c
        w = SubordinationWitness(phi=ScalarSeries(phi))
        f = koebe_series(1, 8)
        g = compose_subordination(f, w, 8)
        for n in range(1, 9):
            assert g.coeffs[n][0, 0] == pytest.approx(n * c**n, abs=1e-12)

    def test_with_witness_pairs(self):
        pair = sample(spec_of("convex_diag", params={"with_witness": True}))
        assert isinstance(pair[0], HoloSeries)
        assert isinstance(pair[1], SubordinationWitness)


# below 2^-500 operator_norm squares a norm out of the normal range
NORM_FLOOR = 2.0 ** -500


class TestCoeffEnvelopes:
    """Each pairable family's envelope a_n >= ||A_n|| and the witness's
    |[z^n] phi^k| <= g^n, against the stored coefficients of the draw."""

    @pytest.mark.parametrize("family", ["convex_diag", "starlike_diag", "schur_holo"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), d=st.integers(1, 4), order=st.integers(1, 512))
    def test_envelope_dominates_every_stored_norm(self, family, seed, d, order):
        f = sample(spec_of(family, dim=d, order=order, seed=seed))
        norms = operator_norm(f.coeffs[1:])
        bound = f.envelope.values(order)
        seen = bound >= NORM_FLOOR
        assert np.all(norms[seen] <= bound[seen])
        assert np.all(norms[~seen] <= 2.0 * NORM_FLOOR)

    @pytest.mark.parametrize("params", [
        {"zeta": [1.0, 1.0, 1.0], "frame": np.eye(3)},
        {"zeta": [1.0 + 5e-13, 1j, -1.0]},
        {"beta": 0.999, "kappa": 1.0},
    ])
    def test_planted_envelopes_dominate_their_norms(self, params):
        family = "convex_diag" if "beta" in params else "starlike_diag"
        f = sample(spec_of(family, dim=3, order=512, params=params))
        assert np.all(operator_norm(f.coeffs[1:]) <= f.envelope.values(512))

    @pytest.mark.parametrize("family", ["convex_diag", "starlike_diag"])
    def test_diagonal_envelopes_are_tight_at_the_first_coefficient(self, family):
        # ||A_1|| = max_j |t_j| for convex_diag and 1 for starlike_diag
        for d in (1, 2, 3, 4):
            f = sample(spec_of(family, dim=d, order=8, seed=d))
            a1 = float(f.envelope.values(1)[0])
            assert operator_norm(f.coeffs[1]) <= a1 <= operator_norm(f.coeffs[1]) * (1.0 + 1e-12)

    def test_envelope_forms(self):
        (f, w), aux = sample(spec_of("schur_holo", order=8, params={"with_witness": True}),
                             with_aux=True)
        # Cauchy's estimate on |z|^2 = 1/(1 + delta): a_n = M (1 + delta)^(n/2)
        m = aux["sup_cert"]
        assert f.envelope.values(8) == pytest.approx(m * (2.0 * m - 1.0) ** (np.arange(1, 9) / 2),
                                                     rel=1e-15)
        assert w.coeff_growth == max(1.0, aux["witness_aux"]["sup_cert"])
        f, aux = sample(spec_of("convex_diag", order=8), with_aux=True)
        assert f.envelope.ratio == float(aux["beta"].max()) and f.envelope.power == 0
        f, aux = sample(spec_of("starlike_diag", order=8), with_aux=True)
        assert f.envelope.power == 1
        assert 1.0 < f.envelope.ratio <= float(np.abs(aux["zeta"]).max()) + 4 * U

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_witness_growth_bounds_every_power_coefficient(self, seed):
        w = sample(spec_of("subordination", dim=1, order=512, seed=seed))
        phi = np.array(w.phi.coeffs)
        bound = w.coeff_growth ** np.arange(513)
        assert w.coeff_growth >= 1.0
        power = phi
        for k in range(1, 513):
            if k > 1:
                power = np.convolve(power, phi)[:513]
            assert np.all(np.abs(power) <= bound), k


def dense_boundary_min(evaluator, points=2 ** 14):
    """Smallest norm of the evaluator's values at equally spaced points of |z| = 1."""
    theta = 2.0 * math.pi * np.arange(points) / points
    return float(operator_norm(evaluator(np.exp(1j * theta))).min())


class TestClosedFormLiminf:
    """The closed-form boundary liminf of the diagonal-frame families."""

    @pytest.mark.parametrize("family", ["convex_diag", "starlike_diag"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_within_stated_rounding_bound_of_a_40_digit_reference(self, family, d):
        # 4u for convex, (10 d + 4)u for starlike, against the exact
        # expression of the stored parameters
        mpmath = pytest.importorskip("mpmath")
        bound = 4 * U if family == "convex_diag" else (10 * d + 4) * U
        for seed in range(20):
            _, aux = sample(spec_of(family, dim=d, order=8, seed=seed), with_aux=True)
            got = aux["eval"].boundary_liminf
            with mpmath.workdps(40):
                if family == "convex_diag":
                    ref = max(abs(mpmath.mpc(complex(t))) / (1 + mpmath.mpf(float(b)))
                              for t, b in zip(aux["multipliers"], aux["beta"]))
                else:
                    two_pi = 2 * mpmath.pi
                    poles = sorted(mpmath.fmod(two_pi - mpmath.arg(mpmath.mpc(complex(z))),
                                               two_pi) for z in aux["zeta"])
                    gaps = [b - a for a, b in zip(poles, poles[1:])]
                    gap = max(gaps + [two_pi - (poles[-1] - poles[0])])
                    ref = 1 / (4 * mpmath.sin(gap / 4) ** 2)
                assert abs(mpmath.mpf(got) / ref - 1) <= bound, seed

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_starlike_is_the_infimum_of_a_dense_boundary_sample(self, d):
        # the value lies below every sampled norm, by no more than the grid
        # spacing can explain
        slack = (10 * d + 4) * U + 32 * U
        for seed in range(6):
            _, aux = sample(spec_of("starlike_diag", dim=d, order=8, seed=seed), with_aux=True)
            exact = aux["eval"].boundary_liminf
            dense = dense_boundary_min(aux["eval"])
            assert exact <= dense * (1.0 + slack)
            assert dense <= exact * (1.0 + 1e-3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_convex_is_the_norm_at_minus_one(self, d):
        for seed in range(6):
            _, aux = sample(spec_of("convex_diag", dim=d, order=8, seed=seed), with_aux=True)
            exact = aux["eval"].boundary_liminf
            at_minus_one = np.linalg.svd(aux["eval"](np.array([-1.0])), compute_uv=False)[0, 0]
            assert abs(exact - at_minus_one) <= 32 * U * exact
            assert exact <= dense_boundary_min(aux["eval"]) * (1.0 + 32 * U)

    @pytest.mark.parametrize("zeta, expected", [
        ([1.0], 0.25), ([1.0, 1.0], 0.25), ([1.0, -1.0], 0.5), ([1j, 1j, 1j], 0.25),
    ])
    def test_planted_starlike_poles(self, zeta, expected):
        spec = spec_of("starlike_diag", dim=len(zeta), order=8,
                       params={"zeta": zeta, "frame": np.eye(len(zeta))})
        _, aux = sample(spec, with_aux=True)
        assert aux["eval"].boundary_liminf == pytest.approx(expected, rel=4 * U)


# Each plantable name and the families whose draw reads it
READERS = {
    "c": ("exterior_diag",),
    "beta": ("exterior_diag", "convex_diag"),
    "kappa": ("convex_diag",),
    "v_norm_sq": ("exterior_colligation",),
    "zeta": ("starlike_diag",),
    "frame": ("exterior_diag", "convex_diag", "starlike_diag", "commuting_harmonic"),
}

# Values just outside each name's condition, at d = 2: c finite and >= 0,
# beta in [0, 1), kappa finite and >= 1, v_norm_sq finite and >= 0, zeta
# unimodular within 1e-12, a frame unitary within EQ_TOL; and values that are
# not numbers of the drawn value's kind and shape
OUTSIDE = {
    "c": [np.nextafter(0.0, -1.0), math.inf, math.nan, 1j, [0.5, 0.5, 0.5]],
    "beta": [np.nextafter(0.0, -1.0), 1.0, math.nan],
    "kappa": [np.nextafter(1.0, 0.0), math.inf, math.nan],
    "v_norm_sq": [np.nextafter(0.0, -1.0), math.inf, math.nan],
    "zeta": [1.0 + 2e-12, [1j, 1.0 - 2e-12], math.nan],
    "frame": [(1.0 + 1e-9) * np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(3), math.nan],
}

# Values at the edge of each condition, accepted at d = 2
AT_THE_EDGE = [
    ("exterior_diag", "c", 0.0),
    *((family, "beta", beta) for family in READERS["beta"]
      for beta in (0.0, np.nextafter(1.0, 0.0))),
    ("convex_diag", "kappa", 1.0),
    ("exterior_colligation", "v_norm_sq", 0.0),
    ("starlike_diag", "zeta", [1.0 + 5e-13, -1j]),
    *((family, "frame", (1.0 + 2e-10) * np.eye(2)) for family in READERS["frame"]),
]

# One planted value per (family, name) read, distinct from the seed-6 draw
ONE_PLANTED = [
    ("exterior_diag", "c", 0.5), ("exterior_diag", "beta", 0.3),
    ("exterior_diag", "frame", np.eye(2)), ("convex_diag", "beta", 0.999),
    ("convex_diag", "kappa", 1.0), ("convex_diag", "frame", np.eye(2)),
    ("starlike_diag", "zeta", 1.0), ("starlike_diag", "frame", np.eye(2)),
    ("commuting_harmonic", "frame", np.eye(2)), ("exterior_colligation", "v_norm_sq", 0.5),
]


def planted_names(aux):
    return sorted(set(generators._PLANTABLE) & set(aux))


class TestPlantedParameters:
    @pytest.mark.parametrize("family", generators.FAMILY_IDS)
    def test_the_aux_mapping_names_each_parameter_the_draw_reads(self, family):
        _, aux = sample(spec_of(family, order=8), with_aux=True)
        assert planted_names(aux) == sorted(n for n, fams in READERS.items() if family in fams)

    @pytest.mark.parametrize("family", ["exterior_diag", "starlike_diag"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_planting_every_named_parameter_reproduces_the_draw(self, family, d):
        drawn, aux = sample(spec_of(family, dim=d, seed=4), with_aux=True)
        params = {name: aux[name] for name in planted_names(aux)}
        other = sample(spec_of(family, dim=d, seed=5))
        planted, paux = sample(spec_of(family, dim=d, seed=5, params=params), with_aux=True)
        assert other.coeffs.tobytes() != drawn.coeffs.tobytes()
        assert planted.coeffs.tobytes() == drawn.coeffs.tobytes()
        assert planted.envelope == drawn.envelope
        for name in params:
            assert paux[name].tobytes() == aux[name].tobytes()
        if family == "starlike_diag":
            assert paux["eval"].boundary_liminf == aux["eval"].boundary_liminf
        else:
            assert paux["min_cert"] == aux["min_cert"]

    @pytest.mark.parametrize("family, name, value", ONE_PLANTED)
    def test_planting_one_value_leaves_the_rest_as_drawn(self, family, name, value):
        params = {"with_witness": True} if family in generators._PAIRABLE else {}
        drawn, aux = sample(spec_of(family, seed=6, params=params), with_aux=True)
        planted, paux = sample(spec_of(family, seed=6, params={**params, name: value}),
                               with_aux=True)
        assert not np.array_equal(aux[name], paux[name])
        assert np.array_equal(paux[name], np.broadcast_to(value, np.shape(aux[name])))
        for other in planted_names(aux):
            if other != name:
                assert np.asarray(paux[other]).tobytes() == np.asarray(aux[other]).tobytes(), other
        if params:
            assert planted[1].phi.coeffs.tobytes() == drawn[1].phi.coeffs.tobytes()
            assert planted[1].coeff_growth == drawn[1].coeff_growth

    @pytest.mark.parametrize("family, name, value", [
        (family, name, value) for name, values in OUTSIDE.items()
        for family in READERS[name] for value in values + ["ab", None]
    ])
    def test_value_outside_its_condition_is_rejected(self, family, name, value):
        with pytest.raises(InvalidInputError, match=f"planted {name}"):
            sample(spec_of(family, order=8, params={name: value}))

    @pytest.mark.parametrize("family, name, value", AT_THE_EDGE)
    def test_value_at_the_edge_of_its_condition_is_accepted(self, family, name, value):
        _, aux = sample(spec_of(family, order=8, params={name: value}), with_aux=True)
        assert np.array_equal(aux[name], np.broadcast_to(value, np.shape(aux[name])))

    def test_kappa_one_gives_unimodular_multipliers(self):
        # the moduli are drawn from [1, kappa], and |e^(i theta)| is 1 within 2u
        for seed in range(4):
            _, aux = sample(spec_of("convex_diag", dim=4, order=8, seed=seed,
                                    params={"kappa": 1.0}), with_aux=True)
            assert np.all(np.abs(np.abs(aux["multipliers"]) - 1.0) <= 2 * U)

    @pytest.mark.parametrize("family", generators.FAMILY_IDS)
    def test_a_key_no_draw_reads_is_rejected(self, family):
        # a misspelling, the range keys, frame_identity and constant, and the
        # names of other families' draws
        unread = [name for name, fams in READERS.items() if family not in fams]
        for key in ("c_rnage", "c_range", "beta_range", "cond_range", "v_norm_sq_range",
                    "frame_identity", "constant", *unread):
            with pytest.raises(InvalidInputError, match="unknown parameter"):
                sample(spec_of(family, dim=1, order=8, seed=2, params={key: 1.0}))

    @pytest.mark.parametrize("order", [8, 1000, 1100])
    def test_a_key_no_family_plants_is_rejected_before_the_draw(self, monkeypatch, order):
        # at order 1100 the colligation's extraction would raise RangeError first
        calls = []
        build = generators._BUILDERS["exterior_colligation"]
        monkeypatch.setitem(generators._BUILDERS, "exterior_colligation",
                            lambda *args: calls.append(1) or build(*args))
        with pytest.raises(InvalidInputError, match="c_rnage; expected with_witness or a "
                                                    "plantable name: beta, c, frame"):
            sample(spec_of("exterior_colligation", order=order, params={"c_rnage": 1.0}))
        assert calls == []

    def test_a_plantable_name_the_draw_does_not_read_is_rejected_after_it(self, monkeypatch):
        calls = []
        build = generators._BUILDERS["exterior_colligation"]
        monkeypatch.setitem(generators._BUILDERS, "exterior_colligation",
                            lambda *args: calls.append(1) or build(*args))
        with pytest.raises(InvalidInputError, match="zeta; expected with_witness or a name "
                                                    "its draw reads: v_norm_sq$"):
            sample(spec_of("exterior_colligation", order=8, params={"zeta": 1.0}))
        assert calls == [1]


class TestAdHocSources:
    def test_gaussian_sequences_mass_below_identity(self):
        for seed in (0, 5):
            seq = gaussian_coeff_sequence(3, 24, seed)
            gram = np.sum(adjoint(seq) @ seq, axis=0)
            assert np.linalg.eigvalsh(gram)[-1] <= 1.0 + 1e-12

    def test_ordered_triples(self):
        t = ordered_triples(1000, 3)
        alpha, beta, gamma = t[:, 0], t[:, 1], t[:, 2]
        assert np.all(gamma >= 0) and np.all(gamma <= alpha) and np.all(alpha <= beta)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_l1_and_e17_families_draw_their_sources(self, seed, dim):
        f = sample(spec_of("gaussian_sequence", dim=dim, order=32, seed=seed))
        assert f.coeffs.tobytes() == gaussian_coeff_sequence(dim, 32, seed).tobytes()
        triple = sample(spec_of("ordered_triple", dim=dim, seed=seed))
        assert np.array(triple).tobytes() == ordered_triples(1, seed)[0].tobytes()

    def test_identity_witness(self):
        w = identity_witness(8)
        assert w.phi.coeffs[1] == 1.0 and np.all(w.phi.coeffs[2:] == 0)
