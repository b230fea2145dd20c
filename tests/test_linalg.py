import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import directed_hausdorff

from opbohr import (
    ContractError,
    InvalidInputError,
    NumericError,
    ToleranceProfile,
    abs_value,
    adjoint,
    hausdorff_distance,
    loewner_leq,
    operator_norm,
    re_im_parts,
    spectrum,
)
from opbohr.generators import random_unitary
from opbohr.linalg import smallest_eigenvalue

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def rand_matrix(seed, d=3, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


class TestOperatorNorm:
    def test_identity(self):
        for d in (1, 2, 5):
            assert operator_norm(np.eye(d)) == pytest.approx(1.0)

    def test_rank_one(self):
        assert operator_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0)

    def test_jordan_block(self):
        # eigenvalues of M*M solve t^2 - 3t + 1 = 0, so the norm is the golden ratio
        m = np.array([[1, 1], [0, 1]], dtype=complex)
        assert operator_norm(m) == pytest.approx(GOLDEN, abs=1e-12)

    def test_adjoint_invariance(self):
        for seed in range(20):
            m = rand_matrix(seed)
            assert operator_norm(m) == pytest.approx(operator_norm(adjoint(m)), rel=1e-12)

    def test_normal_matrix_matches_spectral_radius(self):
        w = random_unitary(4, 1)
        eigs = np.array([0.5, -2.0, 3.0, 1.0 + 1.0j])
        m = w @ np.diag(eigs) @ adjoint(w)
        assert operator_norm(m) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(InvalidInputError):
            operator_norm(bad)

    @given(st.integers(0, 10**6), st.lists(st.integers(1, 3), max_size=2),
           st.integers(1, 6), st.integers(1, 6), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_svd_on_stacks(self, seed, lead, rows, cols, log_scale):
        rng = np.random.default_rng(seed)
        shape = (*lead, rows, cols)
        m = 10.0**log_scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = np.linalg.svd(m, compute_uv=False)[..., 0]
        got = operator_norm(m)
        assert np.shape(got) == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_tall_and_wide(self):
        tall = np.array([[3.0], [4.0]], dtype=complex)
        assert operator_norm(tall) == pytest.approx(5.0, rel=1e-15)
        assert operator_norm(tall.T) == pytest.approx(5.0, rel=1e-15)
        wide = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0j]])
        assert operator_norm(wide) == pytest.approx(2.0, rel=1e-15)
        assert operator_norm(adjoint(wide)) == pytest.approx(2.0, rel=1e-15)

    def test_zero_matrix_is_exactly_zero(self):
        assert operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0
        assert np.all(operator_norm(np.zeros((4, 2, 3))) == 0.0)

    def test_gram_overflow_raises(self):
        for m in (1e200 * np.eye(2), np.full((3, 2), 1e160)):
            with pytest.raises(NumericError):
                operator_norm(m)
        assert operator_norm(1e150 * np.eye(2)) == pytest.approx(1e150, rel=1e-15)


class TestAbsValue:
    def test_normal_diagonal(self):
        m = np.diag([-3.0 + 0j, 4j])
        assert np.allclose(abs_value(m), np.diag([3.0, 4.0]), atol=1e-12)

    def test_nilpotent(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(abs_value(m), np.diag([0.0, 1.0]), atol=1e-14)

    def test_involution(self):
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(abs_value(m), np.eye(2), atol=1e-14)

    def test_norm_preserved(self):
        for seed in range(10):
            m = rand_matrix(seed)
            assert operator_norm(abs_value(m)) == pytest.approx(operator_norm(m), rel=1e-10)

    def test_idempotent_on_psd(self):
        for seed in range(10):
            m = rand_matrix(seed)
            p = adjoint(m) @ m
            assert np.allclose(abs_value(p), p, atol=1e-9 * max(1.0, operator_norm(p)))

    def test_result_psd(self):
        for seed in range(10):
            a = abs_value(rand_matrix(seed))
            assert np.linalg.eigvalsh(a)[0] >= -1e-12

    def test_batched_matches_loop(self):
        stack = np.stack([rand_matrix(s) for s in range(5)])
        batched = abs_value(stack)
        for i in range(5):
            assert np.allclose(batched[i], abs_value(stack[i]), atol=1e-12)


class TestReImParts:
    def test_hermitian(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        re, im = re_im_parts(h)
        assert np.allclose(re, h) and np.allclose(im, 0)

    def test_formula(self):
        m = np.array([[0, 2], [0, 0]], dtype=complex)
        re, im = re_im_parts(m)
        assert np.allclose(re, np.array([[0, 1], [1, 0]]))
        assert np.allclose(im, np.array([[0, -1j], [1j, 0]]))

    def test_skew(self):
        s = np.array([[1j, 2], [-2, -3j]], dtype=complex)
        assert np.allclose(s, -adjoint(s))
        re, im = re_im_parts(s)
        assert np.allclose(re, 0) and np.allclose(im, s / 1j)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, seed):
        m = rand_matrix(seed)
        re, im = re_im_parts(m)
        assert np.allclose(re, adjoint(re), atol=1e-14)
        assert np.allclose(im, adjoint(im), atol=1e-14)
        assert np.allclose(re + 1j * im, m, atol=1e-14 * max(1.0, operator_norm(m)))


class TestLoewner:
    def test_strict(self):
        holds, margin = loewner_leq(np.diag([1.0, 1.0]), np.diag([2.0, 3.0]))
        assert holds and margin == pytest.approx(1.0)

    def test_violated(self):
        b = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        holds, margin = loewner_leq(np.eye(2), b)
        assert not holds and margin == pytest.approx(-2.0)

    def test_reflexive(self):
        a = abs_value(rand_matrix(3))
        holds, margin = loewner_leq(a, a)
        assert holds and abs(margin) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            loewner_leq(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))

    def test_abs_square_below_norm_square(self):
        # |M|^2 <= ||M||^2 I for every matrix
        for seed in range(25):
            m = rand_matrix(seed, d=4)
            a = abs_value(m)
            holds, _ = loewner_leq(a @ a, operator_norm(m) ** 2 * np.eye(4))
            assert holds


class TestSmallestEigenvalue:
    def test_single_matrix_gives_float(self):
        out = smallest_eigenvalue(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert isinstance(out, float) and out == -1.0

    def test_stack_matches_loop_exactly(self):
        stack = np.stack([abs_value(rand_matrix(s)) - 0.5 * np.eye(3) for s in range(6)])
        batched = smallest_eigenvalue(stack.reshape(2, 3, 3, 3))
        assert batched.shape == (2, 3)
        assert batched.ravel().tolist() == [smallest_eigenvalue(m) for m in stack]


class TestSpectrum:
    def test_diagonal(self):
        assert sorted(spectrum(np.diag([2.0, 5.0])).real) == pytest.approx([2.0, 5.0])

    def test_triangular(self):
        w = spectrum(np.array([[1, 1], [0, 1]], dtype=complex))
        assert np.allclose(sorted(w.real), [1.0, 1.0]) and np.allclose(w.imag, 0)

    def test_planted_conjugation(self):
        w = random_unitary(3, 99)
        m = w @ np.diag([1.0, 3.0, 7.0]).astype(complex) @ adjoint(w)
        got = np.sort(spectrum(m).real)
        assert np.allclose(got, [1.0, 3.0, 7.0], atol=1e-10)


class TestHausdorff:
    def test_singletons(self):
        assert hausdorff_distance([0.0], [1.0]) == pytest.approx(1.0)

    def test_identity(self):
        s = [0.0, 1.0 + 1j, -2.0]
        assert hausdorff_distance(s, s) == 0.0

    def test_asymmetric_sets(self):
        # directed distances are 1 (from {0,2}) and 1 (from {1}), so max is 1
        assert hausdorff_distance([0.0, 2.0], [1.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            hausdorff_distance([], [1.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(rng.integers(1, 6)) + 1j * rng.standard_normal(1)
        b = rng.standard_normal(rng.integers(1, 6)) + 1j * rng.standard_normal(1)
        pts = lambda s: np.stack([s.real, s.imag], axis=1)
        expected = max(directed_hausdorff(pts(a), pts(b))[0],
                       directed_hausdorff(pts(b), pts(a))[0])
        assert hausdorff_distance(a, b) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        sets = [rng.standard_normal(rng.integers(1, 5)) + 1j * rng.standard_normal(rng.integers(1, 5) * 0 + 1)
                for _ in range(3)]
        dab = hausdorff_distance(sets[0], sets[1])
        dbc = hausdorff_distance(sets[1], sets[2])
        dac = hausdorff_distance(sets[0], sets[2])
        assert dac <= dab + dbc + 1e-12


def test_tolerance_profile_rejects_negative():
    with pytest.raises(InvalidInputError):
        ToleranceProfile(psd_tol=-1.0)
