import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import opbohr
from opbohr import (
    BranchCut,
    BranchCutError,
    ColligationSpec,
    ContourError,
    ContourSpec,
    ContractError,
    DomainError,
    RangeError,
    abs_value,
    adjoint,
    auto_contour,
    colligation_log_coeff,
    herglotz_transfer_grid,
    log_eig_normal,
    log_riesz_dunford,
    matrix_exp,
    operator_norm,
)
from opbohr.funcalc import EXP_NORM_CAP
from opbohr.generators import random_unitary
from opbohr.linalg import PSD_TOL, QUAD_TOL, smallest_eigenvalue
from opbohr.series import coeffs_via_cauchy_integral


def planted_normal(seed, eigs):
    eigs = np.asarray(eigs, dtype=complex)
    w = random_unitary(eigs.size, seed)
    return w @ np.diag(eigs) @ adjoint(w)


def eig_exp_oracle(m):
    w, v = np.linalg.eig(m)
    return v @ np.diag(np.exp(w)) @ np.linalg.inv(v)


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(out, np.diag([math.e, math.e**2]), rtol=1e-13)

    def test_nilpotent(self):
        out = matrix_exp(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.allclose(out, np.array([[1, 1], [0, 1]]), atol=1e-14)

    def test_matches_eigendecomposition_oracle(self):
        for seed in range(8):
            m = planted_normal(seed, np.random.default_rng(seed).uniform(-2, 2, 4))
            assert operator_norm(matrix_exp(m) - eig_exp_oracle(m)) <= 1e-10

    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(4)
        stacks = []
        for shape in ((7, 1, 1), (5, 3, 3), (2, 4, 2, 2), (1, 4, 4)):
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stack[..., 0, :] *= 3.0
            stacks.append(stack)
        # 1-norms from about 4e-3 to 8e2 take from 0 to 8 squarings, so the
        # stack is squared under masks that differ from matrix to matrix
        mixed = rng.standard_normal((12, 3, 3)) + 1j * rng.standard_normal((12, 3, 3))
        mixed *= (np.logspace(-3, math.log10(250.0), 12) / operator_norm(mixed))[:, None, None]
        norm1 = np.abs(mixed).sum(axis=-2).max(axis=-1)
        assert norm1.min() < 5.37 < 2**6 * 5.37 < norm1.max()
        stacks.append(mixed)
        for stack in stacks:
            got = matrix_exp(stack)
            assert got.shape == stack.shape
            flat = stack.reshape(-1, *stack.shape[-2:])
            loop = np.stack([matrix_exp(m) for m in flat]).reshape(stack.shape)
            assert np.array_equal(got, loop)

    @pytest.mark.parametrize("kind", ["hermitian", "normal", "nilpotent"])
    def test_mpmath_reference(self, kind):
        # 40-digit exponentials of stacks with ||M|| from 1e-3 to the cap
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng({"hermitian": 1, "normal": 2, "nilpotent": 3}[kind])
        norms = np.logspace(-3, math.log10(0.999 * EXP_NORM_CAP), 8)
        for d in (2, 3, 4):
            g = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
            if kind == "hermitian":
                stack = g + adjoint(g)
            elif kind == "normal":
                eigs = rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d))
                stack = np.stack([planted_normal(10 * d + i, e) for i, e in enumerate(eigs)])
            else:
                stack = np.triu(g, 1)
            stack *= (norms / operator_norm(stack))[:, None, None]
            got = matrix_exp(stack)
            with mpmath.workdps(40):
                for m, e in zip(stack, got):
                    ref = mpmath.expm(mpmath.matrix(m.tolist()))
                    ref = np.array(ref.tolist(), dtype=complex)
                    assert operator_norm(e - ref) <= 1e-13 * operator_norm(ref)

    def test_agrees_with_scipy(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            stack = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
            stack *= rng.uniform(0.01, 20.0, 40)[:, None, None]
            got, ref = matrix_exp(stack), expm(stack)
            assert np.all(operator_norm(got - ref) <= 1e-13 * operator_norm(ref))

    def test_one_by_one_is_numpy_exp(self):
        stack = np.array([0.0, 1.5 - 2j, -40.0 + 0.3j, 299.0])[:, None, None]
        assert np.array_equal(matrix_exp(stack), np.exp(stack))
        assert np.array_equal(matrix_exp(stack[2]), np.exp(stack[2]))

    def test_shapes_kept(self):
        m = np.array([[0.3, 1.0], [-1.0, 0.2j]])
        assert matrix_exp(m).shape == (2, 2)
        assert matrix_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert matrix_exp(np.zeros((2, 0, 4, 4))).shape == (2, 0, 4, 4)

    def test_norm_cap(self):
        with pytest.raises(RangeError):
            matrix_exp(1e6 * np.eye(2))

    def test_norm_cap_is_the_exact_norm(self):
        # sqrt(||M||_1 ||M||_inf) = 400 is above the cap, but ||M|| = 282.8 is not
        m = 200.0 * np.array([[1.0, 1.0], [1.0, -1.0]])
        lam = 200.0 * math.sqrt(2.0)
        assert operator_norm(m) < EXP_NORM_CAP < 400.0
        got = matrix_exp(m)
        ref = eig_exp_oracle(m.astype(complex))
        assert operator_norm(got - ref) <= 1e-13 * math.exp(lam)

    def test_cap_is_on_the_hermitian_part(self):
        # exp(-H) with Re H >= 0 has norm at most 1 at any ||H||, and a large
        # skew-Hermitian part is no bar either: only lambda_max(Re M) is capped
        rng = np.random.default_rng(0)
        for seed, eigs in enumerate((-rng.uniform(0.0, 1e3, 3) + 1j * rng.uniform(-1e3, 1e3, 3),
                                     [299.0 + 1e3j, -5e3 + 200j, 10.0 - 800j])):
            eigs = np.asarray(eigs)
            m = planted_normal(seed, eigs)
            assert operator_norm(m) > EXP_NORM_CAP
            got = matrix_exp(m)
            ref = planted_normal(seed, np.exp(eigs))
            assert operator_norm(got - ref) <= 1e-11 * math.exp(eigs.real.max())
        with pytest.raises(RangeError):
            matrix_exp(planted_normal(3, [301.0 + 1e3j, -1e3, 0.0]))

    def test_overflowing_norm_raises(self):
        # Re M = 0, but the 1-norm that sets the squarings overflows
        with np.errstate(over="ignore"), pytest.raises(RangeError):
            matrix_exp(1e308j * np.ones((2, 2)))

    def test_norm_cap_applies_to_every_matrix_of_a_stack(self):
        stack = np.stack([np.eye(2), 0.5 * np.eye(2), 301.0 * np.eye(2)]).astype(complex)
        with pytest.raises(RangeError):
            matrix_exp(stack)
        with pytest.raises(RangeError):
            matrix_exp(stack[::-1])


class TestScipyLoadedOnFirstUse:
    def test_only_exponentials_load_scipy_linalg(self):
        # a fresh process: a verify run over every theorem group never loads
        # scipy.linalg; the logarithm of a non-Hermitian normal matrix (a
        # complex Schur form) loads it when it first runs
        script = textwrap.dedent("""
            import sys
            from opbohr.cli import main
            assert main(["verify", "--theorems", "l1,t1,e55,t2,e17,t3,l2,t4",
                         "--dims", "1,2", "--trials", "1"]) == 0
            assert "scipy.linalg" not in sys.modules, "verify loaded scipy.linalg"
            from opbohr import log_eig_normal, matrix_exp, operator_norm
            from opbohr.generators import random_unitary
            u = random_unitary(3, 7)
            assert operator_norm(matrix_exp(log_eig_normal(u)) - u) <= 1e-10
            assert "scipy.linalg" in sys.modules, "a Schur form ran without scipy.linalg"
        """)
        src = str(Path(opbohr.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr


class TestBranchCut:
    def test_principal_matches_numpy(self):
        cut = BranchCut(math.pi)
        zs = np.array([1.0, 1j, -1j, 2.0 + 3.0j, 0.5 - 0.1j])
        assert np.allclose(cut.log(zs), np.log(zs))

    def test_rotated_cut(self):
        # with the ray along the positive reals, arguments live in (0 - 2pi, 0]
        cut = BranchCut(0.0)
        val = complex(cut.log(np.array([-1.0]))[0])
        assert val == pytest.approx(-1j * math.pi)

    def test_angle_domain(self):
        with pytest.raises(Exception):
            BranchCut(4.0)


class TestLogEigNormal:
    def test_identity(self):
        assert np.allclose(log_eig_normal(np.eye(3)), 0)

    def test_diagonal(self):
        out = log_eig_normal(np.diag([math.e, math.e**2]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-13)

    def test_imaginary_pair(self):
        out = log_eig_normal(np.diag([2j, -2j]))
        expected = np.diag([math.log(2) + 1j * math.pi / 2, math.log(2) - 1j * math.pi / 2])
        assert np.allclose(out, expected, atol=1e-13)

    def test_exp_roundtrip(self):
        for seed in range(6):
            m = planted_normal(seed, np.random.default_rng(seed).uniform(1.0, 10.0, 3))
            back = matrix_exp(log_eig_normal(m))
            assert operator_norm(back - m) <= 1e-10 * operator_norm(m)

    def test_small_skew_hermitian_part_kept(self):
        # entrywise 6e-6 from Hermitian, far above EQ_TOL: not the eigh route
        m = np.diag([2.0, 2.0 * np.exp(3e-6j)])
        back = matrix_exp(log_eig_normal(m))
        assert operator_norm(back - m) <= QUAD_TOL * operator_norm(m)

    def test_spectrum_on_cut_rejected(self):
        with pytest.raises(BranchCutError):
            log_eig_normal(np.diag([-1.0, 2.0]).astype(complex))

    def test_non_normal_rejected(self):
        with pytest.raises(ContractError):
            log_eig_normal(np.array([[1, 1], [0, 1]], dtype=complex))


class TestLogRieszDunford:
    def test_diagonal_against_scalar_logs(self):
        out = log_riesz_dunford(np.diag([2.0, 3.0]).astype(complex),
                                ContourSpec(2.5, 1.0, 256))
        assert np.allclose(out, np.diag([math.log(2), math.log(3)]), atol=1e-10)

    def test_identity(self):
        out = log_riesz_dunford(np.eye(2), ContourSpec(1.0, 0.5, 64))
        assert operator_norm(out) <= 1e-12

    def test_against_eigen_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            eigs = rng.uniform(1.0, 10.0, 4)
            m = planted_normal(seed, eigs)
            center = complex(0.5 * (eigs.min() + eigs.max()))
            radius = 0.5 * (eigs.max() - eigs.min()) + 0.4 * eigs.min()
            got = log_riesz_dunford(m, ContourSpec(center, radius, 128))
            assert operator_norm(got - log_eig_normal(m)) <= 1e-8

    def test_adaptive_refinement_from_coarse_start(self):
        m = np.diag([2.0, 7.0]).astype(complex)
        got = log_riesz_dunford(m, ContourSpec(4.5, 3.5, 16))
        assert np.allclose(got, np.diag([math.log(2), math.log(7)]), atol=1e-9)

    def test_contour_must_enclose_spectrum(self):
        with pytest.raises(ContourError):
            log_riesz_dunford(np.diag([2.0, 9.0]).astype(complex), ContourSpec(2.0, 1.0, 64))

    def test_contour_must_exclude_zero(self):
        with pytest.raises(ContourError):
            log_riesz_dunford(np.diag([0.5, 1.5]).astype(complex), ContourSpec(1.0, 1.2, 64))

    def test_contour_must_avoid_cut(self):
        with pytest.raises(ContourError):
            log_riesz_dunford(np.diag([1.0 + 2j, 1.0 - 2j]), ContourSpec(1.0, 2.5, 64))

    def test_auto_contour_roundtrip(self):
        m = planted_normal(5, [2.0, 3.0, 4.0])
        got = log_riesz_dunford(m, auto_contour(m))
        assert operator_norm(got - log_eig_normal(m)) <= 1e-9

    def test_exp_log_roundtrip_through_contour(self):
        rng = np.random.default_rng(12)
        for seed in range(6):
            eigs = rng.uniform(1.0, 10.0, 3)
            m = planted_normal(seed + 100, eigs)
            center = complex(0.5 * (eigs.min() + eigs.max()))
            radius = 0.5 * (eigs.max() - eigs.min()) + 0.4 * eigs.min()
            back = matrix_exp(log_riesz_dunford(m, ContourSpec(center, radius, 128)))
            assert operator_norm(back - m) <= 1e-7 * operator_norm(m)

    def test_spectrum_hugging_contour_does_not_converge(self):
        from opbohr import NumericError

        # an eigenvalue 1.5e-7 inside the circle stalls the geometric
        # convergence of the trapezoid rule until the node cap trips
        m = np.diag([2.0, 3.0 - 1e-7]).astype(complex)
        with pytest.raises(NumericError):
            log_riesz_dunford(m, ContourSpec(2.5, 0.5 + 5e-8, 64), max_nodes=4096)


def scalar_colligation(u_phase, v_val):
    return ColligationSpec(k=1, U=np.array([[u_phase]], dtype=complex),
                           V=np.array([[v_val]], dtype=complex))


def random_colligation(seed, k=4, d=2, v_norm=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    v *= v_norm / operator_norm(v)
    return ColligationSpec(k=k, U=random_unitary(k, seed), V=v)


class TestHerglotzTransfer:
    def test_zero_v(self):
        c = ColligationSpec(k=2, U=np.eye(2), V=np.zeros((2, 2)))
        logs = herglotz_transfer_grid(c, [0.0, 0.3 + 0.2j, -0.9])
        assert logs.shape == (3, 2, 2)
        assert np.all(operator_norm(logs) == 0.0)

    def test_scalar_closed_form(self):
        cval = 0.7
        c = scalar_colligation(1.0, math.sqrt(2 * cval))
        zs = np.array([0.0, 0.5, 0.3 - 0.4j])
        expected = cval * (1 + zs) / (1 - zs)
        assert np.abs(herglotz_transfer_grid(c, zs)[:, 0, 0] - expected).max() <= 1e-13

    def test_origin_value(self):
        c = random_colligation(7)
        (at0,) = herglotz_transfer_grid(c, [0.0])
        assert np.allclose(at0, 0.5 * adjoint(c.V) @ c.V, atol=1e-14)
        assert np.linalg.eigvalsh(at0)[0] >= -1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            herglotz_transfer_grid(random_colligation(1), [0.5, 1.0])

    def test_positivity_on_grid(self):
        # real part of the realized log is PSD throughout the disk
        c = random_colligation(11, v_norm=1.4)
        rng = np.random.default_rng(0)
        zs = rng.uniform(0, 0.95, 100) * np.exp(2j * math.pi * rng.uniform(size=100))
        logs = herglotz_transfer_grid(c, zs)
        for lg in logs:
            assert np.linalg.eigvalsh(lg + adjoint(lg))[0] >= -1e-11


class TestExteriorRealization:
    def test_zero_v(self):
        c = ColligationSpec(k=2, U=np.eye(2), V=np.zeros((2, 1)))
        assert np.allclose(matrix_exp(herglotz_transfer_grid(c, [0.4j])), np.eye(1))

    def test_scalar_value_two(self):
        c = scalar_colligation(1.0, math.sqrt(2 * math.log(2)))
        assert matrix_exp(herglotz_transfer_grid(c, [0.0]))[0, 0, 0] == pytest.approx(
            2.0, abs=1e-12)

    def test_origin_exp_psd(self):
        c = random_colligation(3)
        (f0,) = matrix_exp(herglotz_transfer_grid(c, [0.0]))
        assert np.linalg.eigvalsh(f0)[0] >= 1.0 - 1e-12

    def test_exterior_property_on_grid(self):
        c = random_colligation(19, v_norm=1.2)
        rng = np.random.default_rng(1)
        zs = rng.uniform(0, 0.95, 100) * np.exp(2j * math.pi * rng.uniform(size=100))
        for f in matrix_exp(herglotz_transfer_grid(c, zs)):
            sv_min = np.linalg.svd(f, compute_uv=False)[-1]
            assert sv_min >= 1.0 - 1e-10
            # I <= |f| in the Loewner order
            abs_f = abs_value(f)
            slack = PSD_TOL * max(1.0, 1.0 + operator_norm(abs_f))
            assert smallest_eigenvalue(abs_f - np.eye(f.shape[0])) >= -slack


class TestColligationLogCoeff:
    def test_identity_u(self):
        c = ColligationSpec(k=3, U=np.eye(3), V=np.ones((3, 2)) / 3.0)
        for n in (1, 2, 5):
            assert np.allclose(colligation_log_coeff(c, n), adjoint(c.V) @ c.V)

    def test_zero_v(self):
        c = ColligationSpec(k=2, U=np.eye(2), V=np.zeros((2, 2)))
        assert np.allclose(colligation_log_coeff(c, 3), 0)

    def test_scalar_phase(self):
        theta = 0.8
        c = scalar_colligation(np.exp(1j * theta), 0.9)
        for n in (1, 2, 4):
            expected = 0.81 * np.exp(1j * n * theta)
            assert colligation_log_coeff(c, n)[0, 0] == pytest.approx(expected, abs=1e-13)

    def test_n_zero_contract(self):
        with pytest.raises(ContractError):
            colligation_log_coeff(random_colligation(2), 0)

    def test_norm_bound(self):
        c = random_colligation(23, v_norm=1.3)
        for n in range(1, 10):
            assert operator_norm(colligation_log_coeff(c, n)) <= 1.3**2 + 1e-12


def test_taylor_consistency_with_cauchy_extraction():
    # series coefficients of the realized log match (1/2)V*V and V* U^n V
    c = random_colligation(31, v_norm=1.1)
    got = coeffs_via_cauchy_integral(lambda zs: herglotz_transfer_grid(c, zs), 10, 0.5, 256)
    assert operator_norm(got.coeffs[0] - 0.5 * adjoint(c.V) @ c.V) <= 1e-9
    for n in range(1, 11):
        assert operator_norm(got.coeffs[n] - colligation_log_coeff(c, n)) <= 1e-9
