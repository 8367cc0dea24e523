import numpy as np
import pytest

from lurestab import linalg
from lurestab.errors import (
    DimensionMismatchError,
    NonFiniteEntriesError,
    NonSquareError,
    NotHurwitzError,
    NotMetzlerError,
    SingularMatrixError,
)
from lurestab.linalg import NormKind

from generators import random_metzler, random_metzler_hurwitz

A_EXAMPLE = np.array([[-5.0, 5, 1], [6, -7, 1], [2, 1, -5]])
UPPER_LOOP = A_EXAMPLE - 0.48 * np.ones((3, 3))  # worst-case closed loop of the first example


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = linalg.as_matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2) and m.dtype == float

    def test_rejects_ragged(self):
        with pytest.raises(DimensionMismatchError):
            linalg.as_matrix([[1, 2], [3]])

    def test_rejects_1d_and_empty(self):
        with pytest.raises(DimensionMismatchError):
            linalg.as_matrix([1, 2, 3])
        with pytest.raises(DimensionMismatchError):
            linalg.as_matrix(np.empty((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteEntriesError):
            linalg.as_matrix([[1.0, np.nan]])
        with pytest.raises(NonFiniteEntriesError):
            linalg.as_matrix([[np.inf, 1.0]])


class TestPredicates:
    def test_nonnegative_column_of_ones(self):
        assert linalg.is_nonnegative([[1.0], [1.0], [1.0]])

    def test_nonnegative_zero_matrix(self):
        assert linalg.is_nonnegative(np.zeros((2, 2)))

    def test_nonnegative_is_a_strict_sign_test(self):
        assert not linalg.is_nonnegative([[1.0, -1e-12], [0.0, 1.0]])

    def test_metzler_example_system(self):
        assert linalg.is_metzler(A_EXAMPLE)

    def test_metzler_identity(self):
        assert linalg.is_metzler(np.eye(3))

    def test_metzler_fails_with_negative_off_diagonal(self):
        # lower-sector closed loop of the first example: off-diagonal -1 entries
        m = np.array([[-7.0, 3, -1], [4, -9, -1], [0, -1, -7]])
        assert not linalg.is_metzler(m)

    def test_metzler_requires_square(self):
        with pytest.raises(NonSquareError):
            linalg.is_metzler(np.ones((2, 3)))


class TestSpectral:
    def test_abscissa_diagonal(self):
        assert linalg.spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_abscissa_rotation(self):
        assert linalg.spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_abscissa_upper_loop_negative(self):
        # cross-check through the characteristic polynomial roots
        res = linalg.spectral_abscissa(UPPER_LOOP)
        assert res < 0
        roots = np.roots(np.poly(UPPER_LOOP))
        assert res == pytest.approx(float(np.max(roots.real)), abs=1e-9)

    def test_hurwitz_diagonal(self):
        assert linalg.is_hurwitz(np.diag([-1.0, -2.0]))

    def test_hurwitz_zero_matrix_false(self):
        assert not linalg.is_hurwitz(np.zeros((2, 2)))

    def test_open_loop_example_is_unstable(self):
        assert not linalg.is_hurwitz(A_EXAMPLE)

    def test_radius_diagonal(self):
        assert linalg.spectral_radius(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_radius_nilpotent(self):
        assert linalg.spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-9)

    def test_radius_scalar(self):
        assert linalg.spectral_radius([[-3.5]]) == pytest.approx(3.5)


class TestOperatorNorm:
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_identity_is_one(self, kind):
        assert linalg.operator_norm(np.eye(3), kind) == pytest.approx(1.0)

    def test_inf_norm_is_max_row_sum(self):
        assert linalg.operator_norm([[1.0, -2.0], [3.0, 4.0]], NormKind.INF) == pytest.approx(7.0)

    def test_one_norm_is_max_column_sum(self):
        assert linalg.operator_norm([[1.0, -2.0], [3.0, 4.0]], NormKind.ONE) == pytest.approx(6.0)

    def test_two_norm_is_largest_singular_value(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert linalg.operator_norm(m, NormKind.TWO) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])

    def test_maxabs(self):
        assert linalg.operator_norm([[1.0, -2.0], [3.0, 4.0]], NormKind.MAX_ABS) == pytest.approx(4.0)

    def test_monotone_on_nonnegative_cone(self, rng):
        for _ in range(100):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            b = rng.uniform(0.0, 3.0, size=(n, k))
            a = b * rng.uniform(0.0, 1.0, size=(n, k))
            for kind in (NormKind.ONE, NormKind.TWO, NormKind.INF):
                assert linalg.operator_norm(a, kind) <= linalg.operator_norm(b, kind) + 1e-9


class TestInverse:
    def test_identity(self):
        assert np.allclose(linalg.inverse(np.eye(3), np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(linalg.inverse(np.diag([2.0, 4.0]), np.eye(2)), np.diag([0.5, 0.25]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.inverse([[1.0, 2.0], [2.0, 4.0]], np.eye(2))
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.zeros((2, 2)), np.eye(2))

    def test_matches_numpy_solve(self, rng):
        for _ in range(50):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            m = rng.normal(0.0, 1.0, size=(n, n)) + n * np.eye(n)
            block = rng.normal(0.0, 1.0, size=(n, k))
            for rhs in (block, block[:, 0]):
                got = linalg.inverse(m, rhs)
                assert got.shape == rhs.shape
                assert np.allclose(got, np.linalg.solve(m, rhs), rtol=1e-12, atol=1e-14)

    def test_singular_non_metzler_raises_singular_matrix_error(self):
        # numpy's LinAlgError must not escape: an exact zero pivot and a 1-norm
        # condition number above COND_MAX both raise the package's own error
        singular = np.array([[1.0, -2.0], [-2.0, 4.0]])
        ill = np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-13]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, np.ones(2))
        assert np.isfinite(np.linalg.solve(ill, np.ones(2))).all()
        assert np.linalg.cond(ill, 1) > linalg.COND_MAX
        for m in (singular, ill):
            assert not linalg.is_metzler(m)
            with pytest.raises(SingularMatrixError, match="numerically singular"):
                linalg.inverse(m, np.ones(2))

    def test_pivot_check_is_scale_relative(self):
        # the bound is on the condition number, which no scaling of m changes
        for scale in (1e-6, 1.0, 1e6):
            with pytest.raises(SingularMatrixError):
                linalg.inverse(scale * np.diag([1.0, 1e-13]), np.ones(2))
            v = linalg.inverse(scale * np.diag([1.0, 1e-11]), np.ones(2))
            assert v == pytest.approx([1.0 / scale, 1e11 / scale])

    def test_m_matrix_inverse_is_nonnegative(self):
        inv = linalg.inverse(-UPPER_LOOP, np.eye(3))
        assert (inv >= -1e-9).all()

    def test_round_trip_residual(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            m = rng.normal(0.0, 1.0, size=(n, n)) + n * np.eye(n)
            inv = linalg.inverse(m, np.eye(n))
            assert np.abs(m @ inv - np.eye(n)).max() < 1e-9
            assert np.abs(inv @ m - np.eye(n)).max() < 1e-9

    def test_random_m_matrix_inverses_nonnegative(self, rng):
        for _ in range(50):
            m = random_metzler_hurwitz(rng, int(rng.integers(2, 7)))
            assert (linalg.inverse(-m, np.eye(len(m))) >= -1e-9).all()


class TestCertificate:
    def test_negated_identity(self):
        v = linalg.metzler_hurwitz_certificate(-np.eye(3))
        assert np.allclose(v, np.ones(3))

    def test_upper_loop_certificate(self):
        v = linalg.metzler_hurwitz_certificate(UPPER_LOOP)
        assert (v > 0).all()
        assert (UPPER_LOOP @ v < 0).all()

    def test_unstable_scalar(self):
        with pytest.raises(NotHurwitzError):
            linalg.metzler_hurwitz_certificate([[1.0]])

    def test_requires_metzler(self):
        with pytest.raises(NotMetzlerError):
            linalg.metzler_hurwitz_certificate([[-1.0, -1.0], [0.0, -1.0]])

    def test_agrees_with_abscissa_on_random_metzler(self, rng):
        agree = 0
        total = 1000
        for _ in range(total):
            m = random_metzler(rng, int(rng.integers(2, 6)))
            stable = linalg.spectral_abscissa(m) < 0
            try:
                v = linalg.metzler_hurwitz_certificate(m)
                certified = True
                assert (v > 0).all() and (m @ v < 0).all()
            except NotHurwitzError:
                certified = False
            if certified == stable:
                agree += 1
            else:
                assert abs(linalg.spectral_abscissa(m)) < 1e-7
        assert agree >= 0.99 * total


class TestMetzlerSolve:
    @staticmethod
    def near_singular(eps):
        # Metzler and Hurwitz, with kappa_inf = (2 + eps)^2 / eps
        return np.array([[-1.0, 1.0], [1.0, -1.0 - eps]])

    def test_witness_gives_the_exact_condition_number(self, rng):
        # (-m)^{-1} >= 0 for a Metzler Hurwitz m, so ||(-m)^{-1}||_inf = max(v)
        cases = [random_metzler_hurwitz(rng, int(rng.integers(2, 9))) for _ in range(50)]
        for m in cases + [self.near_singular(1e-11)]:
            v, _ = linalg.metzler_solve(m)
            kappa = np.abs(m).sum(axis=1).max() * v.max()
            assert kappa == pytest.approx(np.linalg.cond(m, np.inf), rel=1e-6)
        assert kappa == pytest.approx(4e11, rel=1e-6)

    def test_refuses_a_condition_number_above_the_bound(self):
        # kappa_inf is 4e11 for eps = 1e-11 and 4e12 for eps = 1e-12
        rhs = np.ones((2, 1))
        v, solution = linalg.metzler_solve(self.near_singular(1e-11), rhs)
        assert (v > 0).all() and solution is not None
        for args in [(rhs,), ()]:
            v, solution = linalg.metzler_solve(self.near_singular(1e-12), *args)
            assert v is None and solution is None

    def test_exactly_singular_gives_no_witness_and_no_solve(self):
        m = np.array([[-0.5, 1.0], [1.0, -2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(-m, np.ones(2))
        v, solution = linalg.metzler_solve(m, np.ones((2, 1)))
        assert v is None and solution is None


def test_norm_kind_parsing():
    assert NormKind.from_name("TWO") is NormKind.TWO
    assert NormKind.from_name(" one ") is NormKind.ONE
    with pytest.raises(ValueError):
        NormKind.from_name("frobenius")
