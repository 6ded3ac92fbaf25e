import numpy as np
import pytest

from oracles import make_psd, make_stable

from sensact import linalg
from sensact.exceptions import DimensionError, DomainError, StabilityError
from sensact.plant import (
    CwParams,
    GainSet,
    SystemModel,
    TargetSpec,
    build_cw_continuous,
    check_equilibrium,
    discretize_zoh,
    mode_matrices,
    synthesize_lqr_gain,
    synthesize_observer_gain,
)


class TestCwConstruction:
    def test_zero_mean_motion_limit(self):
        # w -> 0 degenerates to a triple double-integrator
        a, b = build_cw_continuous(CwParams(mass=1.0, mean_motion=1e-12, ts=1.0))
        np.testing.assert_allclose(a[:3, 3:], np.eye(3))
        np.testing.assert_allclose(a[3:, :3], np.zeros((3, 3)), atol=1e-20)

    def test_printed_entries(self):
        a, _ = build_cw_continuous(CwParams(mass=140.0, mean_motion=0.001, ts=30.0))
        assert a[3, 0] == pytest.approx(3e-6)
        assert a[3, 4] == pytest.approx(2e-3)
        assert a[5, 2] == pytest.approx(-1e-6)

    def test_mass_scales_input_map(self):
        _, b = build_cw_continuous(CwParams(mass=140.0, mean_motion=0.001, ts=30.0))
        nonzero = b[b != 0.0]
        np.testing.assert_allclose(nonzero, 1.0 / 140.0)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(DomainError):
            CwParams(mass=0.0, mean_motion=0.001, ts=30.0)


class TestZoh:
    def test_pure_integrator(self):
        a, b = discretize_zoh(np.zeros((3, 3)), np.eye(3), 0.5)
        np.testing.assert_allclose(a, np.eye(3))
        np.testing.assert_allclose(b, 0.5 * np.eye(3))

    def test_scalar_closed_form(self):
        ac, bc, ts = -1.3, 0.7, 0.25
        a, b = discretize_zoh([[ac]], [[bc]], ts)
        assert a[0, 0] == pytest.approx(np.exp(ac * ts), rel=1e-12)
        assert b[0, 0] == pytest.approx((np.exp(ac * ts) - 1.0) * bc / ac, rel=1e-12)

    def test_small_ts_approaches_identity(self):
        rng = np.random.default_rng(0)
        a_c = rng.standard_normal((4, 4))
        b_c = rng.standard_normal((4, 2))
        for ts in (1e-2, 1e-3, 1e-4):
            a, _ = discretize_zoh(a_c, b_c, ts)
            assert np.linalg.norm(a - np.eye(4), "fro") <= 2.0 * ts * np.linalg.norm(a_c, "fro")

    def test_cw_discrete_on_unit_circle(self):
        # CW eigenvalues are {0, 0, +-iw, +-iw}; the exact ZOH therefore
        # has all eigenvalue moduli equal to one (a defective pair at 1)
        a_c, b_c = build_cw_continuous(CwParams(mass=140.0, mean_motion=0.001, ts=30.0))
        a, _ = discretize_zoh(a_c, b_c, 30.0)
        eig = np.linalg.eigvals(a)
        np.testing.assert_allclose(np.abs(eig), np.ones(6), atol=1e-6)
        assert linalg.spectral_radius(a) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_ts(self):
        with pytest.raises(DomainError):
            discretize_zoh(np.zeros((2, 2)), np.zeros((2, 1)), 0.0)


class TestGainSynthesis:
    def test_scalar_closed_form(self):
        # p = golden ratio, k = -p/(1+p), closed loop 1/(1+p) ~ 0.382
        k = synthesize_lqr_gain([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        p = (1.0 + np.sqrt(5.0)) / 2.0
        assert k[0, 0] == pytest.approx(-p / (1.0 + p), rel=1e-10)
        assert 1.0 + k[0, 0] == pytest.approx(0.3819660, rel=1e-6)

    def test_zero_b_stable_a_gives_zero_gain(self):
        rng = np.random.default_rng(1)
        a = make_stable(rng, 3, 0.7)
        k = synthesize_lqr_gain(a, np.zeros((3, 2)), np.eye(3), np.eye(2))
        np.testing.assert_allclose(k, np.zeros((2, 3)), atol=1e-12)

    def test_zero_b_unstable_a_rejected(self):
        with pytest.raises(StabilityError):
            synthesize_lqr_gain([[1.2]], [[0.0]], [[1.0]], [[1.0]])

    def test_observer_dual_of_lqr(self):
        # with C = I the dual Riccati mirrors the control one transposed
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        k = synthesize_lqr_gain(a.T, np.eye(3), np.eye(3), np.eye(3))
        l = synthesize_observer_gain(a, np.eye(3), np.eye(3), np.eye(3))
        np.testing.assert_allclose(l, k.T, atol=1e-9)

    def test_observer_rejects_zero_row(self):
        with pytest.raises(DomainError):
            synthesize_observer_gain(np.eye(2) * 0.5, [[0.0, 0.0]], np.eye(2), [[1.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_synthesis_always_stabilizes(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, m, p = 4, 2, 2
        a = rng.standard_normal((n, n)) * rng.uniform(0.3, 1.3)
        b = rng.standard_normal((n, m))
        c = rng.standard_normal((p, n))
        k = synthesize_lqr_gain(a, b, np.eye(n), np.eye(m))
        l = synthesize_observer_gain(a, c, np.eye(n), np.eye(p))
        assert linalg.spectral_radius(a + b @ k) < 1.0
        assert linalg.spectral_radius(a + l @ c) < 1.0

    def test_case_study_radii(self, cw_mm):
        # feedback and observer loops reproduce the reported contraction
        # rates; the coast matrix sits exactly on the unit circle
        rb0, rb1, rt0, rt1 = cw_mm.spectral_radii
        assert rb1 == pytest.approx(0.2016, abs=1e-3)
        assert rt0 == pytest.approx(0.0332, abs=1e-3)
        assert rb0 == pytest.approx(1.0, abs=1e-6)
        assert rt1 == rb0


class TestModeMatrices:
    def test_zero_gains_collapse_to_a(self, cw_model):
        gains = GainSet(k=np.zeros((3, 6)), l=np.zeros((6, 3)))
        mm = mode_matrices(cw_model, gains)
        for mat in (mm.omega_bar0, mm.omega_bar1, mm.omega_tilde0, mm.omega_tilde1):
            np.testing.assert_allclose(mat, cw_model.a)

    def test_eta_indexing(self, cw_model, cw_gains, cw_mm):
        a, b, c = cw_model.a, cw_model.b, cw_model.c
        k, l = cw_gains.k, cw_gains.l
        for eta in (0, 1):
            np.testing.assert_allclose(cw_mm.abar(eta), a + eta * b @ k)
            np.testing.assert_allclose(cw_mm.atilde(eta), a + (1 - eta) * l @ c)

    def test_shared_coast_matrix(self, cw_mm):
        assert cw_mm.omega_bar0 is cw_mm.omega_tilde1 or np.array_equal(
            cw_mm.omega_bar0, cw_mm.omega_tilde1
        )

    def test_dimension_mismatch_rejected(self, cw_model):
        with pytest.raises(DimensionError):
            mode_matrices(cw_model, GainSet(k=np.zeros((2, 6)), l=np.zeros((6, 3))))

    @pytest.mark.parametrize("seed", range(4))
    def test_radii_equal_one_matrix_radii(self, cw_model, cw_gains, seed):
        # the batched eigenvalue call gives each matrix's own radius exactly
        if seed == 0:
            model, gains = cw_model, cw_gains
        else:
            rng = np.random.default_rng(seed)
            n = 2 + seed
            model = SystemModel(a=make_stable(rng, n, 1.1), b=np.eye(n), c=np.eye(n),
                                sigma_w=make_psd(rng, n), sigma_v=make_psd(rng, n))
            gains = GainSet(k=rng.standard_normal((n, n)), l=rng.standard_normal((n, n)))
        mm = mode_matrices(model, gains)
        mats = (mm.omega_bar0, mm.omega_bar1, mm.omega_tilde0, mm.omega_tilde1)
        assert mm.spectral_radii == tuple(linalg.spectral_radius(m) for m in mats)

    def test_frobenius_feedback_norm(self, cw_mm):
        assert cw_mm.fro_norms[1] == pytest.approx(10.4716, abs=0.01)


class TestTargetSpec:
    def test_origin_always_equilibrium(self, cw_model):
        check_equilibrium(cw_model, TargetSpec.origin(6, 3))

    def test_random_models_origin(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = SystemModel(
                a=rng.standard_normal((3, 3)),
                b=rng.standard_normal((3, 1)),
                c=rng.standard_normal((2, 3)),
                sigma_w=make_psd(rng, 3),
                sigma_v=make_psd(rng, 2),
            )
            check_equilibrium(model, TargetSpec.origin(3, 1))

    def test_non_equilibrium_rejected(self, cw_model):
        with pytest.raises(DomainError):
            check_equilibrium(
                cw_model, TargetSpec(np.ones(6), np.zeros(3))
            )

    def test_supported_equilibrium_accepted(self):
        # x+ = 0.5 x + u with x_T = 2 requires u_T = 1
        model = SystemModel(
            a=[[0.5]], b=[[1.0]], c=[[1.0]], sigma_w=[[0.0]], sigma_v=[[0.0]]
        )
        check_equilibrium(model, TargetSpec([2.0], [1.0]))


class TestSystemModelValidation:
    def test_rejects_bad_sigma_shape(self):
        with pytest.raises(DimensionError):
            SystemModel(a=np.eye(2), b=np.eye(2), c=np.eye(2),
                        sigma_w=np.eye(3), sigma_v=np.eye(2))

    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(DomainError):
            SystemModel(a=np.eye(2), b=np.eye(2), c=np.eye(2),
                        sigma_w=[[1.0, 0.5], [0.0, 1.0]], sigma_v=np.eye(2))
