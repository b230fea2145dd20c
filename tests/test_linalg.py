import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbohr import (
    InvalidInputError,
    NumericError,
    abs_value,
    adjoint,
    operator_norm,
)
from opbohr.generators import random_unitary
from opbohr import linalg
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

    def test_gram_overflow_in_a_stack_raises(self):
        # one overflowing matrix fails the stack; the wide one overflows in its
        # row norm (its Gram is MM*) but not in its column norms
        wide = np.array([[[1.0, 0.0, 0.0]], [[1e154, 1e154, 1e154]]])
        for stack in (np.stack([np.eye(2), 1e200 * np.eye(2)]), wide):
            with pytest.raises(NumericError):
                operator_norm(stack)

    def test_non_finite_entry_in_a_stack_raises(self):
        stack = np.stack([np.eye(3, dtype=complex), 100.0 * np.eye(3, dtype=complex)])
        for bad in (np.nan, np.inf):
            with_bad = stack.copy()
            with_bad[1, 0, 2] = bad
            with pytest.raises(InvalidInputError):
                operator_norm(with_bad)

    def test_rejects_vectors_and_scalars(self):
        for bad in (np.ones(3), np.float64(2.0), 1.0 + 1.0j):
            with pytest.raises(InvalidInputError):
                operator_norm(bad)

    @given(st.integers(0, 10**6), st.lists(st.integers(1, 360), min_size=1, max_size=2),
           st.floats(-140.0, 140.0), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_scalar_stacks(self, seed, lead, log_scale, real):
        # the norm of a 1x1 matrix is the modulus of its entry
        rng = np.random.default_rng(seed)
        shape = (*lead, 1, 1)
        m = 10.0**log_scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if real:
            m = m.real.astype(complex)
        ref = np.abs(m[..., 0, 0])
        got = operator_norm(m)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 2.0 * np.finfo(float).eps * ref)

    def test_stack_equals_per_matrix_bit_for_bit(self):
        # a matrix's norm depends neither on its stack nor on the memory layout
        for rows, cols in ((4, 4), (5, 2), (2, 5), (1, 1)):
            stack = np.stack([rand_matrix(k, d=max(rows, cols))[:rows, :cols]
                              for k in range(30)])
            got = operator_norm(stack)
            assert got.tolist() == [operator_norm(m) for m in stack]
            strided = np.empty((30, rows, 2 * cols), dtype=complex)
            strided[..., ::2] = stack
            assert operator_norm(strided[..., ::2]).tolist() == got.tolist()
            assert operator_norm(np.asfortranarray(stack)).tolist() == got.tolist()


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

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_gram_parts_of_one_eigh(self, d):
        """The Gram matrices, |M| and ||M|| of one decomposition agree with
        their separate routes, for a stack and for one matrix."""
        stack = np.stack([rand_matrix(s, d, scale=10.0 ** (s - 2)) for s in range(5)])
        gram, root, norms = linalg.gram_parts(stack)
        assert np.array_equal(gram, adjoint(stack) @ stack)
        assert np.array_equal(root, abs_value(stack))
        assert np.allclose(norms, operator_norm(stack), rtol=8 * d * 2.0 ** -52, atol=0)
        assert linalg.gram_parts(stack[3]).norm == norms[3]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("head", [1, 7], ids=["one-then-stack", "stack-then-stack"])
    def test_gram_parts_of_a_concatenated_stack_are_its_parts_alone(self, d, head):
        """A matrix's Gram, |M| and ||M|| do not depend on the stack it comes
        in: its slice of the parts of [first; second] is bit for bit its parts
        alone, for one matrix followed by a stack and for two stacks."""
        rng = np.random.default_rng(100 * d + head)
        first, second = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
                         for n in (head, 9))
        joined = linalg.gram_parts(np.concatenate([first, second]))
        alone = [linalg.gram_parts(m) for m in (*first, *second)]
        for k, parts in enumerate(alone):
            assert joined.gram[k].tobytes() == parts.gram.tobytes()
            assert joined.abs[k].tobytes() == parts.abs.tobytes()
            assert joined.norm[k].tobytes() == np.float64(parts.norm).tobytes()
        for part, stack in ((slice(None, head), first), (slice(head, None), second)):
            by_stack = linalg.gram_parts(stack)
            assert joined.gram[part].tobytes() == by_stack.gram.tobytes()
            assert joined.abs[part].tobytes() == by_stack.abs.tobytes()
            assert joined.norm[part].tobytes() == np.asarray(by_stack.norm).tobytes()


class TestLoewner:
    def test_abs_square_below_norm_square(self):
        # |M|^2 <= ||M||^2 I for every matrix: the difference has no negative
        # eigenvalue beyond the rounding slack of the two sides
        for seed in range(25):
            m = rand_matrix(seed, d=4)
            a = abs_value(m)
            bound = operator_norm(m) ** 2
            slack = 1e-9 * max(1.0, operator_norm(a @ a) + bound)
            assert smallest_eigenvalue(bound * np.eye(4) - a @ a) >= -slack


class TestSmallestEigenvalue:
    def test_single_matrix_gives_float(self):
        out = smallest_eigenvalue(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert isinstance(out, float) and out == -1.0

    def test_stack_matches_loop_exactly(self):
        stack = np.stack([abs_value(rand_matrix(s)) - 0.5 * np.eye(3) for s in range(6)])
        batched = smallest_eigenvalue(stack.reshape(2, 3, 3, 3))
        assert batched.shape == (2, 3)
        assert batched.ravel().tolist() == [smallest_eigenvalue(m) for m in stack]

