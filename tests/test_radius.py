import tracemalloc

import numpy as np
import pytest

from lurestab import linalg, radius as rad
from lurestab.errors import (
    CertificationError,
    DimensionMismatchError,
    InputError,
    MissingSchurScaleError,
    NonFiniteEntriesError,
    NotHurwitzError,
    NotMetzlerError,
    ZeroSpectralRadiusError,
)
from lurestab.linalg import NormKind
from lurestab.radius import LtiSystem, PerturbationStructure, SectorBound

from generators import (
    bisect_destabilizing_delta,
    monotonicity_gap,
    ordered_metzler_pair,
    random_metzler,
    random_metzler_hurwitz,
)

# First worked example: open-loop unstable Metzler plant with unit feedback paths.
SYS_A = LtiSystem(
    a=[[-5.0, 5, 1], [6, -7, 1], [2, 1, -5]],
    b=[[1.0], [1.0], [1.0]],
    c=[[1.0, 1.0, 1.0]],
)
SECTOR_A = SectorBound.scalar(-2.0, -0.48)
PERT_A = PerturbationStructure(d=[[2.5], [1.25], [2.5]], e=[[0.5, 1.0, 1.0]], norm=NormKind.TWO)

# Second worked example: network-controlled plant, perturbation on the (1,1) entry.
SYS_B = LtiSystem(
    a=[[-5.0, 3, 1], [2, -5, 1], [1.4, 1, -8.7]],
    b=[[0.5], [1.0], [0.4]],
    c=[[0.3, 1.0, 1.0]],
)
SECTOR_B = SectorBound.scalar(-0.91, 0.91)
PERT_B = PerturbationStructure(d=[[1.0], [0.0], [0.0]], e=[[1.0, 0.0, 0.0]], norm=NormKind.TWO)


class TestTypes:
    def test_system_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            LtiSystem(a=np.ones((2, 3)), b=np.ones((2, 1)), c=np.ones((1, 2)))
        with pytest.raises(DimensionMismatchError):
            LtiSystem(a=np.eye(2), b=np.ones((3, 1)), c=np.ones((1, 2)))
        with pytest.raises(DimensionMismatchError):
            LtiSystem(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 3)))

    def test_sector_ordering_enforced(self):
        # the order is the certificate's gate, so an unordered sector fails it
        unordered = SectorBound.scalar(1.0, -1.0)
        cert = rad.certify_positive_lure(SYS_B, unordered)
        assert cert.sector_ordered is False and cert.verdict is False
        assert "sector_ordered" in cert.failed_gates()
        with pytest.raises(CertificationError, match="sector_ordered"):
            rad.stability_radius_lure(SYS_B, unordered, PERT_B)

    def test_sector_bounds_share_a_shape(self):
        with pytest.raises(DimensionMismatchError, match="sector bounds must share a shape"):
            SectorBound(np.zeros((1, 2)), np.ones((2, 1)))
        # a sector of the wrong shape for the plant is refused by the loop it would close
        with pytest.raises(DimensionMismatchError, match="gain must be 1x1"):
            rad.certify_positive_lure(SYS_B, SectorBound(np.zeros((1, 2)), np.ones((1, 2))))

    def test_certificates_and_reports_compare_by_identity(self, example_b):
        # a field-wise == over their arrays would have no single truth value
        certs = [rad.certify_positive_lure(SYS_B, SECTOR_B, PERT_B) for _ in range(2)]
        reports = [example_b.radius() for _ in range(2)]
        for first, second in (certs, reports):
            assert first == first and first != second
            assert len({first, second, first}) == 2

    def test_perturbation_requires_nonnegative_scalings(self):
        with pytest.raises(ValueError):
            PerturbationStructure(d=[[-1.0]], e=[[1.0]])

    def test_schur_scale_forces_maxabs(self):
        with pytest.raises(ValueError):
            PerturbationStructure(d=[[1.0]], e=[[1.0]], norm=NormKind.TWO, schur_scale=[[1.0]])


def gain_loop(sys: LtiSystem, gain) -> np.ndarray:
    """``A + B K C`` for a constant gain K, as the certificate of the sector [K, K] makes it."""
    return rad.certify_positive_lure(sys, SectorBound(gain, gain)).closed_loop


class TestClosedLoop:
    def test_zero_gain_returns_a(self):
        assert np.array_equal(gain_loop(SYS_A, [[0.0]]), SYS_A.a)

    def test_upper_gain_hand_product(self):
        expected = [[-5.48, 4.52, 0.52], [5.52, -7.48, 0.52], [1.52, 0.52, -5.48]]
        assert gain_loop(SYS_A, [[-0.48]]) == pytest.approx(np.array(expected))

    def test_lower_gain_breaks_metzler(self):
        loop = gain_loop(SYS_A, [[-2.0]])
        off = loop - np.diag(np.diag(loop))
        assert off.min() == pytest.approx(-1.0)
        assert not linalg.is_metzler(loop)

    def test_gain_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            gain_loop(SYS_A, np.ones((2, 2)))


class TestCertify:
    def test_example_b_all_gates_pass(self):
        cert = rad.certify_positive_lure(SYS_B, SECTOR_B)
        assert cert.verdict
        assert cert.gates() == {
            "b_nonneg": True,
            "c_nonneg": True,
            "sector_ordered": True,
            "metzler_at_lower": True,
            "hurwitz_at_upper": True,
        }
        assert cert.positive_vector is not None
        upper = cert.closed_loop
        assert np.array_equal(upper, gain_loop(SYS_B, SECTOR_B.upper))
        assert (cert.positive_vector > 0).all()
        assert (upper @ cert.positive_vector < 0).all()

    def test_degenerate_sector_on_stable_positive_plant(self):
        sys = LtiSystem(a=-np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)))
        cert = rad.certify_positive_lure(sys, SectorBound.scalar(0.0, 0.0))
        assert cert.verdict

    def test_example_a_fails_lower_metzler_gate(self):
        cert = rad.certify_positive_lure(SYS_A, SECTOR_A)
        assert not cert.metzler_at_lower
        assert cert.hurwitz_at_upper
        assert cert.metzler_at_upper
        assert not cert.verdict
        assert cert.failed_gates() == ["metzler_at_lower"]
        # the upper loop is fine, so the witness vector is still available
        assert cert.positive_vector is not None

    @pytest.mark.parametrize("abscissa", [-1e-7, -1e-8, 1e-8, 1e-7])
    def test_gate_and_certificate_agree_near_boundary(self, abscissa):
        # Metzler upper loops shifted to sit just inside or just outside the
        # Hurwitz boundary: the eigenvalue gate and the witness v > 0 must
        # give the same answer there
        rng = np.random.default_rng(17)
        for _ in range(240):
            n = int(rng.integers(2, 81))
            m = random_metzler(rng, n)
            a = m - (linalg.spectral_abscissa(m) - abscissa) * np.eye(n)
            sys = LtiSystem(a=a, b=np.zeros((n, 1)), c=np.zeros((1, n)))
            cert = rad.certify_positive_lure(sys, SectorBound.scalar(0.0, 0.0))
            assert cert.hurwitz_at_upper == (cert.positive_vector is not None)
            assert cert.hurwitz_at_upper == (abscissa < 0)


    def test_certificate_accepts_metzler_loop_just_inside_the_boundary(self):
        # abscissa -1e-10 lies inside the eigenvalue gate's -HURWITZ_TOL
        # margin; for a Metzler loop the witness v > 0 decides, exactly
        a = np.array([[-1.0, 1.0], [1.0, -1.0]]) - 1e-10 * np.eye(2)
        assert linalg.spectral_abscissa(a) == pytest.approx(-1e-10, rel=1e-6)
        assert not linalg.is_hurwitz(a)
        sys = LtiSystem(a=a, b=np.zeros((2, 1)), c=np.zeros((1, 2)))
        cert = rad.certify_positive_lure(sys, SectorBound.scalar(0.0, 0.0))
        assert cert.hurwitz_at_upper and cert.verdict
        assert (cert.positive_vector > 0).all() and (a @ cert.positive_vector < 0).all()
        pert = PerturbationStructure(d=np.eye(2), e=np.eye(2), norm=NormKind.TWO)
        assert rad.stability_radius_linear(a, pert).radius == pytest.approx(1e-10, rel=1e-5)

    @pytest.mark.parametrize("embedded", [False, True], ids=["2x2", "in-3x3"])
    def test_metzler_only_within_slack_and_unstable_is_rejected(self, embedded):
        # off-diagonals -1e-9 pass is_metzler(tol=FLOAT_SLACK), and v > 0
        # with a @ v < 0 exists, but the abscissa is +5e-10: the witness
        # must be checked on the Metzler majorant, not on a itself
        a = np.array([[-5e-10, -1e-9], [-1e-9, -5e-10]])
        if embedded:
            a = np.block([[a, np.zeros((2, 1))], [np.zeros((1, 2)), -np.ones((1, 1))]])
        n = a.shape[0]
        assert linalg.spectral_abscissa(a) == pytest.approx(5e-10, rel=1e-6)
        assert linalg.is_metzler(a, tol=linalg.FLOAT_SLACK)
        v = np.linalg.solve(-a, np.ones(n))
        assert (v > 0).all() and (a @ v < 0).all()
        with pytest.raises(NotHurwitzError):
            linalg.metzler_hurwitz_certificate(a)
        sys = LtiSystem(a=a, b=np.zeros((n, 1)), c=np.zeros((1, n)))
        cert = rad.certify_positive_lure(sys, SectorBound.scalar(0.0, 0.0))
        assert cert.metzler_at_upper
        assert not cert.hurwitz_at_upper and not cert.verdict
        assert cert.positive_vector is None
        pert = PerturbationStructure(d=np.eye(n), e=np.eye(n), norm=NormKind.TWO)
        with pytest.raises(NotHurwitzError, match="requires a Hurwitz matrix"):
            rad.stability_radius_linear(a, pert)
        schur = PerturbationStructure(
            d=np.eye(n), e=np.eye(n), norm=NormKind.MAX_ABS, schur_scale=np.ones((n, n))
        )
        with pytest.raises(NotHurwitzError, match="requires a Hurwitz matrix"):
            rad.stability_radius_schur(a, schur)

    def test_passing_verdict_implies_metzler_upper_loop(self):
        # B, C >= 0 and S1 <= S2 make the upper loop the lower loop plus a
        # nonnegative matrix, so a passing verdict never has a non-Metzler
        # upper loop; the radius formula therefore needs no gate of its own
        rng = np.random.default_rng(23)
        passed = 0
        for _ in range(1500):
            n, m, p = (int(k) for k in rng.integers(1, 6, size=3))
            a = rng.uniform(-0.5, 1.0, size=(n, n))
            np.fill_diagonal(a, rng.uniform(-6.0, -1.0, size=n))
            sys = LtiSystem(a=a, b=rng.uniform(0.0, 1.0, (n, m)), c=rng.uniform(0.0, 1.0, (p, n)))
            lower = rng.uniform(-0.5, 1.0, size=(m, p))
            sector = SectorBound(lower, lower + rng.uniform(0.0, 1.0, size=(m, p)))
            cert = rad.certify_positive_lure(sys, sector)
            if cert.verdict:
                passed += 1
                assert cert.metzler_at_upper
                assert cert.positive_vector is not None
        assert passed >= 100


class TestMetzlerPathsUseNoEigenvalues:
    """Gates, formulas and refinement on Metzler loops run on LAPACK solves only."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Refuses eigenvalues and n-column solves; records each solve's rhs shape."""

        def refuse(m):
            raise AssertionError("spectral_abscissa called on a Metzler path")

        solve = np.linalg.solve
        shapes = []

        def column_solve(m, rhs):
            # a right-hand side with n columns would be an explicit inverse
            assert np.ndim(rhs) == 1 or np.shape(rhs)[1] < len(m)
            shapes.append(np.shape(rhs))
            return solve(m, rhs)

        monkeypatch.setattr(linalg, "spectral_abscissa", refuse)
        monkeypatch.setattr(np.linalg, "solve", column_solve)
        return shapes

    @staticmethod
    def seeded_system():
        # off-diagonal entries >= 0.3 keep the lower loop Metzler, and row
        # sums <= -1 keep the upper loop Hurwitz, for the sector [-0.1, 0.1]
        rng = np.random.default_rng(5)
        a = rng.uniform(0.3, 1.0, (6, 6))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=1) - 1.0)
        sys = LtiSystem(a=a, b=rng.uniform(0.0, 1.0, (6, 1)), c=rng.uniform(0.0, 1.0, (1, 6)))
        pert = PerturbationStructure(
            d=rng.uniform(0.0, 1.0, (6, 1)), e=rng.uniform(0.0, 1.0, (1, 6)), norm=NormKind.TWO
        )
        return sys, SectorBound.scalar(-0.1, 0.1), pert

    @pytest.mark.parametrize("case", ["example_b", "seeded"])
    def test_no_eigvals_and_no_explicit_inverse(self, solves, case):
        sys, sector, pert = (SYS_B, SECTOR_B, PERT_B) if case == "example_b" else self.seeded_system()
        cert = rad.certify_positive_lure(sys, sector)
        assert cert.verdict and cert.positive_vector is not None
        schur = PerturbationStructure(d=pert.d, e=pert.e, norm=NormKind.MAX_ABS, schur_scale=[[1.0]])
        radii = [
            rad.stability_radius_lure(sys, sector, pert).radius,
            rad.nn_stability_radius(sys, sector, pert).radius,
            rad.stability_radius_linear(sys.a, pert).radius,
            rad.stability_radius_schur(sys.a, schur).radius,
        ]
        assert all(np.isfinite(r) and r > 0 for r in radii)
        assert radii[2] == pytest.approx(radii[3], rel=1e-12)
        assert rad.refine_upper_sector(sys, pert, radii[0]) == pytest.approx(
            float(sector.upper[0, 0]), rel=1e-9
        )
        assert solves


class TestOneFactorizationPerClosedLoop:
    """Gate, certificate and transfer of a Metzler loop share one LAPACK solve."""

    CALLS = {
        "certify": lambda: rad.certify_positive_lure(SYS_B, SECTOR_B),
        "lure": lambda: rad.stability_radius_lure(SYS_B, SECTOR_B, PERT_B),
        "lure-override": lambda: rad.stability_radius_lure(
            SYS_A, SECTOR_A, PERT_A, override_gates=True
        ),
        "linear": lambda: rad.stability_radius_linear(SYS_B.a, PERT_B),
        "schur": lambda: rad.stability_radius_schur(
            SYS_B.a,
            PerturbationStructure(d=PERT_B.d, e=PERT_B.e, norm=NormKind.MAX_ABS, schur_scale=[[1.0]]),
        ),
        "refine": lambda: rad.refine_upper_sector(SYS_B, PERT_B, 3.15),
    }

    # one call of the row-block Metzler test per closed loop, which a 3-state loop
    # makes as one block: the lower and upper loops of a sector formula, the plant
    # of a linear one, the perturbed plant of refine
    METZLER_TESTS = {
        "certify": 2, "lure": 2, "lure-override": 2, "linear": 1, "schur": 1, "refine": 1,
    }

    # the one solve's right-hand side: the column of ones to certify, the
    # block [ones | D] (D has k1 = 1 column) for a formula, [ones | B] for refine
    RHS_SHAPES = {
        "certify": (3, 1),
        "lure": (3, 2), "lure-override": (3, 2), "linear": (3, 2), "schur": (3, 2),
        "refine": (3, 2),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_lu(self, monkeypatch, call):
        solve = np.linalg.solve
        calls = []

        def counted(m, rhs):
            calls.append((np.shape(m), np.shape(rhs)))
            return solve(m, rhs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        self.CALLS[call]()
        assert calls == [((3, 3), self.RHS_SHAPES[call])]

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_metzler_test_per_closed_loop(self, monkeypatch, call):
        # counts linalg._is_metzler_rows, which the sector loops' row pass and
        # is_metzler (the plant formulas, refine) both call once per row block
        is_metzler_rows = linalg._is_metzler_rows
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return is_metzler_rows(*args, **kwargs)

        monkeypatch.setattr(linalg, "_is_metzler_rows", counted)
        self.CALLS[call]()
        assert len(calls) == self.METZLER_TESTS[call]

    def test_override_on_a_non_metzler_loop_factors_nothing(self, monkeypatch):
        # a non-Metzler upper loop has no Metzler solve, so no transfer: the
        # override refuses it as any gate failure is refused, with no solve or inverse
        def refuse(*args, **kwargs):
            raise AssertionError("a factorization")

        for name in ("solve", "inv", "cond"):
            monkeypatch.setattr(np.linalg, name, refuse)
        sys = LtiSystem(a=[[-1.0, -1.0], [-1.0, -4.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])
        pert = PerturbationStructure(d=[[1.0], [1.0]], e=[[1.0, 1.0]], norm=NormKind.TWO)
        with pytest.raises(CertificationError) as info:
            rad.stability_radius_lure(sys, SectorBound.scalar(0.0, 0.5), pert, override_gates=True)
        assert str(info.value) == (
            "closed loop failed gate(s): metzler_at_lower; the upper loop has no Metzler solve"
        )
        cert = info.value.certificate
        assert not cert.metzler_at_upper and cert.hurwitz_at_upper and cert.transfer is None

    def test_transfer_matches_the_inverse_bit_for_bit(self):
        upper = gain_loop(SYS_B, SECTOR_B.upper)
        v, solution = linalg.metzler_solve(upper, PERT_B.d)
        block = np.linalg.solve(-upper, np.column_stack((np.ones(3), PERT_B.d)))
        assert np.array_equal(v, block[:, 0])
        assert np.array_equal(solution, block[:, 1:])
        v_alone, none = linalg.metzler_solve(upper)
        assert np.array_equal(v_alone, np.linalg.solve(-upper, np.ones((3, 1)))[:, 0])
        assert np.array_equal(v_alone, np.linalg.solve(-upper, np.ones(3)))
        assert none is None

    def test_certificate_given_d_is_the_radius_certificate(self):
        # given the perturbation, the certificate is the one the radius reads,
        # bit for bit: its loop, its witness and its transfer from one solve
        cert = rad.certify_positive_lure(SYS_B, SECTOR_B, PERT_B)
        report = rad.stability_radius_lure(SYS_B, SECTOR_B, PERT_B)
        for field in ("closed_loop", "positive_vector", "transfer"):
            assert getattr(cert, field).tobytes() == getattr(report.certificate, field).tobytes()
        v, transfer = linalg.metzler_solve(cert.closed_loop, PERT_B.d)
        assert cert.positive_vector.tobytes() == v.tobytes()
        assert cert.transfer.tobytes() == transfer.tobytes()
        assert report.radius == 1.0 / np.linalg.norm(PERT_B.e @ transfer, 2)
        assert rad.certify_positive_lure(SYS_B, SECTOR_B).transfer is None

    def test_certificate_without_a_witness_has_no_transfer(self):
        # a non-Metzler upper loop is gated by eigenvalues and has no solve
        sys = LtiSystem(a=[[-1.0, -1.0], [-1.0, -4.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])
        pert = PerturbationStructure(d=[[1.0], [1.0]], e=[[1.0, 1.0]], norm=NormKind.TWO)
        cert = rad.certify_positive_lure(sys, SectorBound.scalar(0.0, 0.5), pert)
        assert not cert.metzler_at_upper and cert.hurwitz_at_upper
        assert cert.positive_vector is None and cert.transfer is None

    @pytest.mark.parametrize("d, e, message", [
        ([[1.0], [0.0]], [[1.0, 0.0, 0.0]], "D must have 3 rows"),
        ([[1.0], [0.0], [0.0]], [[1.0, 0.0]], "E must have 3 columns"),
    ])
    def test_certificate_checks_the_perturbation_against_the_plant(self, d, e, message):
        pert = PerturbationStructure(d=d, e=e)
        for call in (rad.certify_positive_lure, rad.stability_radius_lure):
            with pytest.raises(DimensionMismatchError, match=message):
                call(SYS_B, SECTOR_B, pert)


class TestLinearRadius:
    def test_negated_identity_radius_one(self):
        for norm in (NormKind.ONE, NormKind.TWO, NormKind.INF):
            pert = PerturbationStructure(d=np.eye(3), e=np.eye(3), norm=norm)
            report = rad.stability_radius_linear(-np.eye(3), pert)
            assert report.radius == pytest.approx(1.0)
            assert report.formula == "linear_norm"

    def test_scalar_case(self):
        pert = PerturbationStructure(d=[[1.0]], e=[[1.0]], norm=NormKind.TWO)
        assert rad.stability_radius_linear([[-2.0]], pert).radius == pytest.approx(2.0)

    def test_rejects_unstable_or_non_metzler(self):
        pert = PerturbationStructure(d=np.eye(2), e=np.eye(2))
        with pytest.raises(
            NotHurwitzError, match=r"^stability radius formula requires a Hurwitz matrix$"
        ):
            rad.stability_radius_linear([[1.0, 0.0], [0.0, -1.0]], pert)
        with pytest.raises(
            NotMetzlerError, match=r"^stability radius formula requires a Metzler matrix$"
        ):
            rad.stability_radius_linear([[-1.0, -1.0], [0.0, -1.0]], pert)

    def test_rejects_maxabs_norm(self):
        pert = PerturbationStructure(d=[[1.0]], e=[[1.0]], norm=NormKind.MAX_ABS)
        with pytest.raises(ValueError):
            rad.stability_radius_linear([[-1.0]], pert)

    def test_matches_bisection_oracle_scalar_structure(self, rng):
        # brute-force check: the formula equals the smallest destabilizing
        # magnitude along the nonnegative rank-one direction
        for _ in range(10):
            a = random_metzler_hurwitz(rng, 3)
            d = rng.uniform(0.1, 1.0, size=(3, 1))
            e = rng.uniform(0.1, 1.0, size=(1, 3))
            pert = PerturbationStructure(d=d, e=e, norm=NormKind.TWO)
            formula = rad.stability_radius_linear(a, pert).radius
            # the worst perturbation direction is the positive one
            assert (e @ np.linalg.inv(-a) @ d >= 0).all()

            def abscissa(delta):
                return linalg.spectral_abscissa(a + delta * (d @ e))

            star = bisect_destabilizing_delta(abscissa, 0.0, 10.0 * formula, 1e-9 * formula)
            assert star == pytest.approx(formula, rel=1e-6)

    def test_sigma_min_identity_for_identity_structure(self, rng):
        # with D = E = I and the 2-norm, the radius is the smallest singular value
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = random_metzler_hurwitz(rng, n)
            pert = PerturbationStructure(d=np.eye(n), e=np.eye(n), norm=NormKind.TWO)
            r = rad.stability_radius_linear(a, pert).radius
            sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
            assert r == pytest.approx(sigma_min, abs=1e-7)


class TestSchurRadius:
    def test_scalar_schur_equals_linear(self):
        a = [[-2.0]]
        linear = rad.stability_radius_linear(
            a, PerturbationStructure(d=[[1.0]], e=[[1.0]], norm=NormKind.TWO)
        ).radius
        schur = rad.stability_radius_schur(
            a,
            PerturbationStructure(d=[[1.0]], e=[[1.0]], norm=NormKind.MAX_ABS, schur_scale=[[1.0]]),
        )
        assert schur.radius == pytest.approx(linear, abs=1e-9)
        assert schur.formula == "schur_spectral"

    def test_zero_scale_is_unperturbable(self):
        pert = PerturbationStructure(
            d=[[1.0]], e=[[1.0]], norm=NormKind.MAX_ABS, schur_scale=[[0.0]]
        )
        with pytest.raises(ZeroSpectralRadiusError):
            rad.stability_radius_schur([[-1.0]], pert)

    def test_rejects_unstable_or_non_metzler(self):
        pert = PerturbationStructure(
            d=np.eye(2), e=np.eye(2), norm=NormKind.MAX_ABS, schur_scale=np.ones((2, 2))
        )
        with pytest.raises(
            NotHurwitzError, match=r"^stability radius formula requires a Hurwitz matrix$"
        ):
            rad.stability_radius_schur([[1.0, 0.0], [0.0, -1.0]], pert)
        with pytest.raises(
            NotMetzlerError, match=r"^stability radius formula requires a Metzler matrix$"
        ):
            rad.stability_radius_schur([[-1.0, -1.0], [0.0, -1.0]], pert)

    def test_missing_scale(self):
        pert = PerturbationStructure(d=[[1.0]], e=[[1.0]], norm=NormKind.MAX_ABS)
        with pytest.raises(MissingSchurScaleError):
            rad.stability_radius_schur([[-1.0]], pert)

    def test_scalar_structure_equivalence_across_norms(self, rng):
        # at k1 = k2 = 1 the transfer is scalar, so every norm gives the
        # same radius and the Schur form with S = [1] coincides too
        for _ in range(10):
            a = random_metzler_hurwitz(rng, 3)
            d = rng.uniform(0.1, 1.0, size=(3, 1))
            e = rng.uniform(0.1, 1.0, size=(1, 3))
            values = [
                rad.stability_radius_linear(
                    a, PerturbationStructure(d=d, e=e, norm=norm)
                ).radius
                for norm in (NormKind.ONE, NormKind.TWO, NormKind.INF)
            ]
            schur = rad.stability_radius_schur(
                a,
                PerturbationStructure(d=d, e=e, norm=NormKind.MAX_ABS, schur_scale=[[1.0]]),
            ).radius
            for v in values:
                assert v == pytest.approx(values[0], abs=1e-9)
            assert schur == pytest.approx(values[0], abs=1e-9)

    def test_against_sign_pattern_bisection(self, rng):
        # oracle: worst delta with |delta_ij| <= t over all sign patterns
        for _ in range(5):
            a = random_metzler_hurwitz(rng, 2)
            pert = PerturbationStructure(
                d=np.eye(2), e=np.eye(2), norm=NormKind.MAX_ABS, schur_scale=np.ones((2, 2))
            )
            formula = rad.stability_radius_schur(a, pert).radius
            best = np.inf
            for bits in range(16):
                signs = np.array([(bits >> k) & 1 for k in range(4)], dtype=float).reshape(2, 2)
                signs = 2.0 * signs - 1.0

                def abscissa(t):
                    return linalg.spectral_abscissa(a + t * signs)

                if abscissa(10.0 * formula) <= 0:
                    continue
                best = min(
                    best, bisect_destabilizing_delta(abscissa, 0.0, 10.0 * formula, 1e-4 * formula)
                )
            assert best == pytest.approx(formula, rel=0.02)


class TestLureRadius:
    def test_example_a_radius(self):
        report = rad.stability_radius_lure(SYS_A, SECTOR_A, PERT_A, override_gates=True)
        assert report.radius == pytest.approx(0.25955616721142294, rel=1e-12)
        assert abs(report.radius - 0.26) <= 0.01
        assert report.formula == "lure_upper_sector"
        assert report.certificate is not None and not report.certificate.verdict

    def test_example_a_requires_override(self):
        with pytest.raises(CertificationError) as exc_info:
            rad.stability_radius_lure(SYS_A, SECTOR_A, PERT_A)
        assert "metzler_at_lower" in str(exc_info.value)
        assert exc_info.value.certificate is not None

    def test_degenerate_sector_reduces_to_linear(self, rng):
        a = random_metzler_hurwitz(rng, 3)
        sys = LtiSystem(a=a, b=np.ones((3, 1)), c=np.ones((1, 3)))
        pert = PerturbationStructure(d=np.eye(3), e=np.eye(3), norm=NormKind.TWO)
        lure = rad.stability_radius_lure(sys, SectorBound.scalar(0.0, 0.0), pert)
        linear = rad.stability_radius_linear(a, pert)
        assert lure.radius == pytest.approx(linear.radius, rel=1e-12)

    def test_example_b_radius(self):
        report = rad.stability_radius_lure(SYS_B, SECTOR_B, PERT_B)
        assert report.radius == pytest.approx(2.039786909714503, rel=1e-12)
        assert abs(report.radius - 2.04) <= 0.02


class TestNnRadius:
    def test_example_b_network_sector(self):
        report = rad.nn_stability_radius(SYS_B, SECTOR_B, PERT_B)
        assert report.radius == pytest.approx(2.039786909714503, rel=1e-12)
        assert report.formula == "nn_upper_sector"

    def test_zero_network_gives_open_loop_radius(self):
        report = rad.nn_stability_radius(SYS_B, SectorBound.scalar(0.0, 0.0), PERT_B)
        open_loop = rad.stability_radius_linear(SYS_B.a, PERT_B)
        assert report.radius == pytest.approx(open_loop.radius, rel=1e-12)

    def test_asymmetric_sector_rejected(self):
        with pytest.raises(ValueError):
            rad.nn_stability_radius(SYS_B, SectorBound.scalar(-0.5, 0.91), PERT_B)

    def test_intermediate_gain_matches_bisection_oracle(self):
        gamma2 = 0.5
        report = rad.nn_stability_radius(SYS_B, SectorBound.scalar(-gamma2, gamma2), PERT_B)
        loop = gain_loop(SYS_B, [[gamma2]])
        structure = PERT_B.d @ PERT_B.e

        def abscissa(delta):
            return linalg.spectral_abscissa(loop + delta * structure)

        star = bisect_destabilizing_delta(abscissa, 0.0, 10.0 * report.radius, 1e-9)
        assert star == pytest.approx(report.radius, rel=1e-6)


class TestRefineUpperSector:
    def test_example_b_at_observed_critical_delta(self):
        magnitude = rad.refine_upper_sector(SYS_B, PERT_B, 3.15)
        assert magnitude == pytest.approx(0.2497639282341831, rel=1e-12)
        assert abs(magnitude - 0.25) <= 0.01

    def test_zero_delta_uses_unperturbed_plant(self):
        magnitude = rad.refine_upper_sector(SYS_B, PERT_B, 0.0)
        expected = 1.0 / linalg.operator_norm(
            SYS_B.c @ np.linalg.inv(SYS_B.a) @ SYS_B.b, NormKind.TWO
        )
        assert magnitude == pytest.approx(expected, rel=1e-12)

    def test_round_trip_recovers_sector_norm(self):
        r = rad.stability_radius_lure(SYS_B, SECTOR_B, PERT_B).radius
        assert rad.refine_upper_sector(SYS_B, PERT_B, r) == pytest.approx(0.91, abs=1e-6)

    @pytest.mark.parametrize("delta_crit", [-1.0, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_delta(self, delta_crit):
        with pytest.raises(InputError, match="delta_crit must be nonnegative and finite"):
            rad.refine_upper_sector(SYS_B, PERT_B, delta_crit)

    def test_refusal_names_the_perturbed_plant(self):
        # past the plant's own radius (3.46) A + delta_crit D E is not Hurwitz;
        # with D, E >= 0 it is Metzler exactly when A is
        with pytest.raises(NotHurwitzError, match=r"^refine requires a Hurwitz A \+ delta_crit D E$"):
            rad.refine_upper_sector(SYS_B, PERT_B, 10.0)
        sys = LtiSystem(a=[[-2.0, -1.0], [0.0, -2.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])
        pert = PerturbationStructure(d=[[1.0], [0.0]], e=[[1.0, 0.0]], norm=NormKind.TWO)
        with pytest.raises(NotMetzlerError, match=r"^refine requires a Metzler A \+ delta_crit D E$"):
            rad.refine_upper_sector(sys, pert, 1.0)


class TestZeroTransfer:
    """A transfer of zero size has no finite reciprocal: each formula raises,
    naming the size and the transfer."""

    ZERO_D = PerturbationStructure(d=[[0.0], [0.0], [0.0]], e=[[1.0, 0.0, 0.0]], norm=NormKind.TWO)
    CANNOT = "is zero; this structure cannot destabilize the system"

    def test_linear_radius(self):
        with pytest.raises(ZeroSpectralRadiusError) as info:
            rad.stability_radius_linear(SYS_B.a, self.ZERO_D)
        assert str(info.value) == f"the norm of the transfer E A^-1 D {self.CANNOT}"

    def test_schur_radius(self):
        # E A^-1 D S = S is nonzero but nilpotent: its spectral radius is zero
        pert = PerturbationStructure(
            d=np.eye(2), e=np.eye(2), norm=NormKind.MAX_ABS, schur_scale=[[0.0, 1.0], [0.0, 0.0]]
        )
        with pytest.raises(ZeroSpectralRadiusError) as info:
            rad.stability_radius_schur(-np.eye(2), pert)
        assert str(info.value) == (
            f"the spectral radius of the scaled transfer E A^-1 D S {self.CANNOT}"
        )

    def test_lure_radius(self):
        with pytest.raises(ZeroSpectralRadiusError) as info:
            rad.stability_radius_lure(SYS_B, SECTOR_B, self.ZERO_D)
        assert str(info.value) == f"the norm of the transfer E (A + B S2 C)^-1 D {self.CANNOT}"

    def test_refined_sector(self):
        no_feedback = LtiSystem(a=SYS_B.a, b=[[0.0], [0.0], [0.0]], c=SYS_B.c)
        with pytest.raises(ZeroSpectralRadiusError) as info:
            rad.refine_upper_sector(no_feedback, PERT_B, 1.0)
        assert str(info.value) == (
            f"the norm of the transfer C (A + delta_crit D E)^-1 B {self.CANNOT}"
        )

    def test_report_records_the_sector(self):
        assert rad.stability_radius_lure(SYS_B, SECTOR_B, PERT_B).sector is SECTOR_B
        assert rad.nn_stability_radius(SYS_B, SECTOR_B, PERT_B).sector is SECTOR_B


class TestOverflowingTransfer:
    """A transfer that overflows is refused under its own name, and numpy does not warn."""

    @pytest.mark.parametrize(("call", "transfer"), [
        (lambda: rad.stability_radius_linear(
            [[-0.1]], PerturbationStructure(d=[[1.0]], e=[[1e308]], norm=NormKind.TWO)
        ), "the transfer E A^-1 D"),
        # E A^-1 D = 10 is finite; its product with S is not
        (lambda: rad.stability_radius_schur([[-0.1]], PerturbationStructure(
            d=[[1.0]], e=[[1.0]], norm=NormKind.MAX_ABS, schur_scale=[[1e308]]
        )), "the scaled transfer E A^-1 D S"),
        # (-M)^-1 D has first entry 1.96 on example_b's upper loop M
        (lambda: rad.stability_radius_lure(SYS_B, SECTOR_B, PerturbationStructure(
            d=[[4.0], [0.0], [0.0]], e=[[1e308, 0.0, 0.0]], norm=NormKind.TWO
        )), "the transfer E (A + B S2 C)^-1 D"),
        (lambda: rad.refine_upper_sector(
            LtiSystem(a=SYS_B.a, b=[[50.0], [100.0], [40.0]], c=[[1e308, 0.0, 0.0]]), PERT_B, 1.0
        ), "the transfer C (A + delta_crit D E)^-1 B"),
    ], ids=["linear", "schur", "lure", "refine"])
    def test_overflow_is_named(self, call, transfer):
        with pytest.raises(NonFiniteEntriesError) as info:
            call()
        assert str(info.value) == f"{transfer}: contains NaN or infinite entries"


class TestMonotonicity:
    def test_equal_matrices_equal_radii(self):
        p = -2.0 * np.eye(2)
        pert = PerturbationStructure(d=np.eye(2), e=np.eye(2), norm=NormKind.TWO)
        pair = monotonicity_gap(p, p, pert)
        assert pair.r_p == pair.r_q

    def test_diagonal_pair(self):
        pert = PerturbationStructure(d=np.eye(2), e=np.eye(2), norm=NormKind.TWO)
        pair = monotonicity_gap(-np.eye(2), -2.0 * np.eye(2), pert)
        assert pair.r_p == pytest.approx(1.0)
        assert pair.r_q == pytest.approx(2.0)

    def test_order_violation_raises(self):
        pert = PerturbationStructure(d=np.eye(2), e=np.eye(2), norm=NormKind.TWO)
        with pytest.raises(ValueError, match="P >= Q"):
            monotonicity_gap(-2.0 * np.eye(2), -np.eye(2), pert)

    def test_random_ordered_pairs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p, q = ordered_metzler_pair(rng, n)
            for norm in (NormKind.ONE, NormKind.TWO, NormKind.INF):
                pert = PerturbationStructure(d=np.eye(n), e=np.eye(n), norm=norm)
                pair = monotonicity_gap(p, q, pert)
                assert pair.r_p <= pair.r_q + 1e-9

    def test_interval_interior_matrices_stay_stable(self, rng):
        # every matrix between an ordered stable pair inherits stability
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p, q = ordered_metzler_pair(rng, n)
            for _ in range(10):
                t = rng.uniform(0.0, 1.0, size=(n, n))
                mid = q + t * (p - q)
                assert linalg.spectral_abscissa(mid) < 0


class TestAizermanSoundness:
    def test_certified_interval_gains_are_stable(self, rng):
        # whenever the verdict is true, sampled linear gains in the sector
        # produce stable loops
        checked = 0
        while checked < 10:
            a = random_metzler_hurwitz(rng, 3)
            b = rng.uniform(0.0, 1.0, size=(3, 1))
            c = rng.uniform(0.0, 1.0, size=(1, 3))
            sys = LtiSystem(a=a, b=b, c=c)
            lo = -rng.uniform(0.0, 0.3)
            hi = rng.uniform(0.0, 0.3)
            sector = SectorBound.scalar(lo, hi)
            cert = rad.certify_positive_lure(sys, sector)
            if not cert.verdict:
                continue
            checked += 1
            for u in rng.uniform(0.0, 1.0, size=20):
                gain = np.array([[lo + u * (hi - lo)]])
                loop = gain_loop(sys, gain)
                assert linalg.spectral_abscissa(loop) < 0


def dense_loop_system(n: int, k: int, seed: int = 0) -> tuple:
    """A dense certified plant with k inputs and outputs, its sector [-0.1, 0.5]
    on every gain entry, and a nonnegative perturbation with k columns."""
    rng = np.random.default_rng(seed + 1000 * n + k)
    a = rng.uniform(0.5, 1.5, (n, n)) / n
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1) - 3.0)
    b, c = rng.uniform(0.0, 1.0, (n, k)), rng.uniform(0.0, 1.0, (k, n)) / n
    sector = SectorBound(np.full((k, k), -0.1 / k), np.full((k, k), 0.5 / k))
    pert = PerturbationStructure(
        d=rng.uniform(0.0, 1.0, (n, k)), e=rng.uniform(0.0, 1.0, (k, n)) / n, norm=NormKind.TWO
    )
    return LtiSystem(a=a, b=b, c=c), sector, pert


def whole_loop_certificate(sys: LtiSystem, sector: SectorBound, rhs=None) -> tuple:
    """Unblocked reference for the row pass: the gates from whole n x n loops,
    and the witness and solution from the one solve and a whole majorant.  The
    solve takes ``rhs`` as the code's does, since its bits depend on the block."""

    def metzler(m):
        ok = m >= -linalg.FLOAT_SLACK
        np.fill_diagonal(ok, True)
        return bool(ok.all())

    lower = sys.a + sys.b @ sector.lower @ sys.c
    upper = sys.a + sys.b @ sector.upper @ sys.c
    ones = np.ones((sys.n, 1))
    x = np.linalg.solve(upper, -(ones if rhs is None else np.hstack((ones, rhs))))
    v = x[:, 0]
    majorant = np.abs(upper)
    kappa = majorant.sum(axis=1).max() * np.abs(v).max()
    np.fill_diagonal(majorant, np.diag(upper))
    keep = kappa <= linalg.COND_MAX and (v > 0).all() and (majorant @ v < 0).all()
    return metzler(lower), metzler(upper), upper, v if keep else None, x[:, 1:]


class TestRowPass:
    """Lower-loop gate, upper loop and majorant made a row block at a time give
    the bits of whole-matrix passes.  The sizes straddle ROW_BLOCK = 64: a single
    block, an exact block, a one-row tail folded into its block, a two-row tail."""

    SIZES = [1, 2, 63, 64, 65, 66, 197]

    def test_blocks_partition_the_rows(self):
        assert linalg.ROW_BLOCK == 64
        for n in [*self.SIZES, 128, 129, 130, 800]:
            blocks = list(linalg.row_blocks(n))
            assert [i for i, _ in blocks] == [0, *(j for _, j in blocks[:-1])]
            assert blocks[-1][1] == n
            sizes = [j - i for i, j in blocks]
            assert all(2 <= s <= linalg.ROW_BLOCK + 1 for s in sizes) or sizes == [1]
        assert list(linalg.row_blocks(65)) == [(0, 65)]
        assert list(linalg.row_blocks(66)) == [(0, 64), (64, 66)]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_whole_loop_bit_for_bit(self, n, k):
        sys, sector, pert = dense_loop_system(n, k)
        metzler_lower, metzler_upper, upper, v, _ = whole_loop_certificate(sys, sector)
        cert = rad.certify_positive_lure(sys, sector)
        assert cert.verdict and v is not None
        assert (cert.metzler_at_lower, cert.metzler_at_upper) == (metzler_lower, metzler_upper)
        assert cert.positive_vector.tobytes() == v.tobytes()
        *gates, upper, v, solution = whole_loop_certificate(sys, sector, pert.d)
        report = rad.stability_radius_lure(sys, sector, pert)
        assert [report.certificate.metzler_at_lower, report.certificate.metzler_at_upper] == gates
        assert report.closed_loop.tobytes() == upper.tobytes()
        assert report.certificate.positive_vector.tobytes() == v.tobytes()
        assert report.radius == 1.0 / np.linalg.norm(pert.e @ solution, 2)
        assert cert.closed_loop.tobytes() == upper.tobytes()

    @pytest.mark.parametrize("entry, metzler", [(-5e-10, True), (-2e-9, False)],
                             ids=["inside-slack", "outside-slack"])
    @pytest.mark.parametrize("n", [66, 197])
    def test_slack_in_the_last_block(self, n, entry, metzler):
        # Sigma1 = 0 makes the lower loop A itself; the upper loop adds B Sigma2 C > 0
        sys, _, _ = dense_loop_system(n, 1)
        a = sys.a.copy()
        a[n - 1, 0] = entry
        sys = LtiSystem(a=a, b=sys.b, c=sys.c)
        sector = SectorBound.scalar(0.0, 0.5)
        assert list(linalg.row_blocks(n))[-1][0] > 0
        cert = rad.certify_positive_lure(sys, sector)
        assert cert.metzler_at_lower is metzler
        assert cert.metzler_at_lower == whole_loop_certificate(sys, sector)[0]
        assert cert.metzler_at_upper and cert.hurwitz_at_upper

    @pytest.mark.parametrize("first_row", [0.0, 1.0], ids=["metzler-blocks", "non-metzler-block"])
    def test_overflow_in_the_last_block_raises(self, first_row):
        # B's last row, 1e308, overflows that row of B S1 C alone; where B's first
        # row makes the first block fail the Metzler test, the gate still covers
        # every block after it
        n = 197
        sys, _, _ = dense_loop_system(n, 1)
        b = np.zeros((n, 1))
        b[0, 0] = first_row
        sector = SectorBound.scalar(-2.0, 0.0)
        cert = rad.certify_positive_lure(LtiSystem(a=sys.a, b=b, c=np.ones((1, n))), sector)
        assert cert.metzler_at_lower is not bool(first_row)
        b[n - 1, 0] = 1e308
        sys = LtiSystem(a=sys.a, b=b, c=np.ones((1, n)))
        with pytest.raises(NonFiniteEntriesError) as info:
            rad.certify_positive_lure(sys, sector)
        assert str(info.value) == "the closed loop A + B K C: contains NaN or infinite entries"

    def test_overflow_in_the_last_block_of_the_upper_loop_raises(self):
        # Sigma1 = 0 keeps the lower loop A, Metzler and finite; Sigma2 = 2 doubles
        # B's last row, 1e308, to inf, in the upper loop's last row block alone
        n = 197
        sys, _, pert = dense_loop_system(n, 1)
        b = np.zeros((n, 1))
        b[n - 1, 0] = 1e308
        sys = LtiSystem(a=sys.a, b=b, c=np.ones((1, n)))
        sector = SectorBound.scalar(0.0, 2.0)
        assert list(linalg.row_blocks(n))[-1] == (192, 197)
        assert rad._loop_pass(sys, sector.lower)
        for call in (rad.certify_positive_lure, lambda s, k: rad.stability_radius_lure(s, k, pert)):
            with pytest.raises(NonFiniteEntriesError) as info:
                call(sys, sector)
            assert str(info.value) == "the closed loop A + B K C: contains NaN or infinite entries"

    @pytest.mark.parametrize("call, limit", [
        ("certify", 1.5), ("lure", 1.5), ("linear", 0.5), ("schur", 0.5),
    ])
    def test_peak_memory_is_one_loop(self, call, limit):
        # the loop formulas hold the one upper loop, the plant formulas no n x n
        # array beyond their input; LAPACK's own copy of the loop is not traced
        n = 400
        sys, sector, pert = dense_loop_system(n, 1)
        schur = PerturbationStructure(d=pert.d, e=pert.e, norm=NormKind.MAX_ABS,
                                      schur_scale=[[1.0]])
        run = {
            "certify": lambda: rad.certify_positive_lure(sys, sector),
            "lure": lambda: rad.stability_radius_lure(sys, sector, pert),
            "linear": lambda: rad.stability_radius_linear(sys.a, pert),
            "schur": lambda: rad.stability_radius_schur(sys.a, schur),
        }[call]
        run()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert result is not None
        assert peak <= limit * 8 * n * n
