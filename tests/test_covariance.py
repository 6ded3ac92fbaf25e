import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    augmented_matrices,
    build_augmented,
    error_noise_term,
    fit_decay_rate,
    loop_cov_propagate,
    loop_mean_propagate,
    loop_steady_mean_phases,
    make_psd,
    make_stable,
    periodic_dlyap_phases,
    recursive_steady_phases,
)

import sensact.covariance as covariance_module
from sensact import linalg
from sensact.covariance import (
    _joint_steps,
    contraction_certificate,
    propagate_error_cov,
    steady_augmented_cov,
    steady_error_cov,
    steady_mean_phases,
    transient,
)
from sensact.exceptions import (
    DimensionError,
    DomainError,
    NilpotencyError,
    NumericsError,
    StabilityError,
)
from sensact.plant import (
    GainSet,
    SystemModel,
    TargetSpec,
    mode_matrices,
    synthesize_gains,
)
from sensact.sequence import CONTRACTION_MARGIN, admissibility


def random_closed_loop(seed, n=3, m=1, p=1):
    """Random plant with synthesized stabilizing gains."""
    rng = np.random.default_rng(seed)
    model = SystemModel(
        a=rng.standard_normal((n, n)) * rng.uniform(0.3, 1.2),
        b=rng.standard_normal((n, m)),
        c=rng.standard_normal((p, n)),
        sigma_w=make_psd(rng, n, scale=rng.uniform(0.01, 1.0)),
        sigma_v=make_psd(rng, p, scale=rng.uniform(0.01, 1.0)),
    )
    gains = synthesize_gains(model, np.eye(n), np.eye(m))
    return model, gains, rng


def random_admissible_pairs(count, start_seed=0, max_len=6):
    """Deterministic stream of (model, gains, mm, bits) with an admissible
    word; skips draws that fail the admissibility check."""
    found = 0
    seed = start_seed
    while found < count:
        model, gains, rng = random_closed_loop(seed)
        mm = mode_matrices(model, gains)
        bits = tuple(int(b) for b in rng.integers(0, 2, int(rng.integers(2, max_len + 1))))
        seed += 1
        if len(set(bits)) < 2:
            continue
        try:
            if not admissibility(bits, mm).admissible:
                continue
        except NilpotencyError:
            continue
        found += 1
        yield model, gains, mm, bits


class TestErrorNoiseTerm:
    def test_actuation_step_drops_injection(self, cw_model, cw_gains):
        r = error_noise_term(1, cw_gains.l, cw_model.sigma_v, cw_model.sigma_w)
        np.testing.assert_allclose(r, cw_model.sigma_w)

    def test_zero_gain(self, cw_model):
        r = error_noise_term(0, np.zeros((6, 3)), cw_model.sigma_v, cw_model.sigma_w)
        np.testing.assert_allclose(r, cw_model.sigma_w)

    def test_scalar_arithmetic(self):
        r = error_noise_term(0, [[2.0]], [[0.01]], [[0.0001]])
        assert r[0, 0] == pytest.approx(0.0401)

    def test_rejects_bad_eta(self):
        with pytest.raises(DomainError):
            error_noise_term(2, [[1.0]], [[1.0]], [[1.0]])


@pytest.mark.parametrize("call", [
    lambda mm, sv, sw: error_noise_term(0, mm.l, sv, sw),
    lambda mm, sv, sw: propagate_error_cov(np.zeros((6, 6)), "0011",
                                           replace(mm, sigma_v=sv, sigma_w=sw), 4),
    lambda mm, sv, sw: steady_error_cov("0011", replace(mm, sigma_v=sv, sigma_w=sw)),
    lambda mm, sv, sw: contraction_certificate("0011", replace(mm, sigma_v=sv, sigma_w=sw)),
], ids=["error_noise_term", "propagate_error_cov", "steady_error_cov",
        "contraction_certificate"])
@pytest.mark.parametrize("name", ["sigma_v", "sigma_w"])
def test_public_entry_points_check_the_noise_they_are_given(cw_model, cw_mm, call, name):
    # the oracle checks the covariances it is given; the solvers read them
    # from a ModeMatrices, which checks them when it is built
    noise = {"sigma_v": cw_model.sigma_v, "sigma_w": cw_model.sigma_w}
    noise[name] = -noise[name]
    with pytest.raises(DomainError, match=f"{name} is not positive semi-definite"):
        call(cw_mm, noise["sigma_v"], noise["sigma_w"])


class TestPropagation:
    def test_deadbeat_first_step(self, cw_model):
        # Atil = 0 when L is chosen to cancel A against C = I
        model = SystemModel(a=np.eye(2) * 0.5, b=np.eye(2), c=np.eye(2),
                            sigma_w=0.1 * np.eye(2), sigma_v=0.2 * np.eye(2))
        gains = GainSet(k=np.zeros((2, 2)), l=-model.a)
        mm = mode_matrices(model, gains)
        np.testing.assert_allclose(mm.omega_tilde0, np.zeros((2, 2)))
        p0 = make_psd(np.random.default_rng(0), 2)
        traj = propagate_error_cov(p0, (0,), mm, 1)
        r0 = error_noise_term(0, gains.l, model.sigma_v, model.sigma_w)
        np.testing.assert_allclose(traj[1], r0)

    def test_matches_unrolled_recursion(self, cw_model, cw_gains, cw_mm):
        bits = (0, 0, 1, 1)
        p0 = make_psd(np.random.default_rng(1), 6)
        traj = propagate_error_cov(p0, bits, cw_mm, 4)
        p = p0.copy()
        for eta in bits:
            a = cw_mm.atilde(eta)
            r = (cw_gains.l @ cw_model.sigma_v @ cw_gains.l.T) * (1 - eta) + cw_model.sigma_w
            p = a @ p @ a.T + r
        np.testing.assert_allclose(traj[4], p, rtol=1e-10, atol=1e-11)

    def test_steady_is_fixed_point(self, cw_model, cw_mm):
        steady = steady_error_cov("0011", cw_mm)
        traj = propagate_error_cov(steady[0], "0011", cw_mm, 4)
        assert np.max(np.abs(traj[4] - steady[0])) < 1e-8

    def test_psd_preserved(self, cw_model, cw_mm):
        traj = propagate_error_cov(np.zeros((6, 6)), "0011", cw_mm, 40)
        for p in traj:
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-9 * (1 + np.trace(p))


class TestSteadyErrorCov:
    def test_period_one_single_lyapunov(self, cw_model, cw_gains, cw_mm):
        steady = steady_error_cov("0", cw_mm)
        atil = cw_mm.omega_tilde0
        r0 = error_noise_term(0, cw_gains.l, cw_model.sigma_v, cw_model.sigma_w)
        expected = linalg.solve_discrete_lyapunov(atil, r0)
        np.testing.assert_allclose(steady[0], expected, atol=1e-10)

    def test_cyclic_recursion_residual(self, cw_model, cw_gains, cw_mm):
        bits = (0, 0, 1, 1)
        steady = steady_error_cov(bits, cw_mm)
        for k in range(4):
            eta = bits[k]
            a = cw_mm.atilde(eta)
            r = error_noise_term(eta, cw_gains.l, cw_model.sigma_v, cw_model.sigma_w)
            succ = a @ steady[k] @ a.T + r
            assert np.max(np.abs(succ - steady[(k + 1) % 4])) < 1e-8

    def test_long_propagation_converges(self, cw_model, cw_mm):
        steady = steady_error_cov("0011", cw_mm)
        traj = propagate_error_cov(np.zeros((6, 6)), "0011", cw_mm, 500)
        for k in range(496, 500):
            assert np.max(np.abs(traj[k] - steady[k % 4])) < 1e-6

    def test_observer_unstable_rejected(self, cw_model, cw_mm):
        # all-ones never senses; the observer side sits on the unit circle
        with pytest.raises(StabilityError):
            steady_error_cov("1", cw_mm)

    @pytest.mark.parametrize("idx", range(50))
    def test_random_pairs_fixed_point(self, idx):
        model, gains, mm, bits = next(random_admissible_pairs(1, start_seed=idx * 37))
        steady = steady_error_cov(bits, mm)
        n_p = len(bits)
        for k in range(n_p):
            eta = bits[k]
            a = mm.atilde(eta)
            r = error_noise_term(eta, gains.l, model.sigma_v, model.sigma_w)
            succ = a @ steady[k] @ a.T + r
            scale = 1.0 + np.max(np.abs(steady[(k + 1) % n_p]))
            assert np.max(np.abs(succ - steady[(k + 1) % n_p])) < 1e-8 * scale


def joint_means(mm, mu_x0, mu_e0, s, target, steps):
    """transient's state and error means from (mu_x0, mu_e0), with no
    initial covariance."""
    n = mm.n
    means, _ = transient(s, mm, target, np.concatenate((mu_x0, mu_e0)),
                         np.zeros((2 * n, 2 * n)), steps)
    return means[:, :n], means[:, n:]


class TestMeanPropagate:
    """The mean recursion, through the joint means of transient."""

    def test_all_zero(self, cw_mm):
        target = TargetSpec.origin(6, 3)
        xs, es = joint_means(cw_mm, np.zeros(6), np.zeros(6), "0011", target, 20)
        assert np.allclose(xs, 0.0) and np.allclose(es, 0.0)

    def test_decoupled_when_error_zero(self, cw_mm):
        rng = np.random.default_rng(3)
        mu0 = rng.standard_normal(6)
        target = TargetSpec.origin(6, 3)
        xs, _ = joint_means(cw_mm, mu0, np.zeros(6), "0011", target, 8)
        mu = mu0.copy()
        for k in range(8):
            mu = cw_mm.abar((0, 0, 1, 1)[k % 4]) @ mu
            np.testing.assert_allclose(xs[k + 1], mu, rtol=1e-12, atol=1e-12)

    def test_exponential_decay_rate(self, cw_mm):
        rng = np.random.default_rng(4)
        target = TargetSpec.origin(6, 3)
        periods = 20
        xs, es = joint_means(cw_mm, rng.standard_normal(6), rng.standard_normal(6),
                             "0011", target, 4 * periods)
        norms = np.linalg.norm(xs[:: 4], axis=1)
        rep = admissibility("0011", cw_mm)
        rate = fit_decay_rate(norms[2:])
        # per-period decay should approach qbar
        assert rate < 1.0
        assert rate == pytest.approx(rep.qbar, rel=0.2)
        assert np.linalg.norm(es[-1]) < 1e-12

    def test_equilibrium_held_under_actuation(self):
        model = SystemModel(a=[[0.5]], b=[[1.0]], c=[[1.0]],
                            sigma_w=[[0.0]], sigma_v=[[0.0]])
        gains = synthesize_gains(model, np.eye(1), np.eye(1))
        mm = mode_matrices(model, gains)
        target = TargetSpec([2.0], [1.0])
        xs, _ = joint_means(mm, np.array([2.0]), np.zeros(1), "1", target, 5)
        np.testing.assert_allclose(xs, 2.0 * np.ones((6, 1)), rtol=1e-12)

    def test_steady_mean_zero_for_origin(self, cw_mm):
        phases = steady_mean_phases(cw_mm, "0011", TargetSpec.origin(6, 3))
        np.testing.assert_allclose(phases, np.zeros((4, 6)), atol=1e-12)

    @pytest.mark.parametrize("word", ["0011", "0010111", "1"])
    def test_steady_mean_closes_around_a_feedforward_target(self, word):
        # x_T = A x_T + B u_T with u_T = (I - A) x_T != 0, so the actuation
        # steps drive the mean with eta B (u_T - K x_T)
        rng = np.random.default_rng(12)
        a = make_stable(rng, 3, 0.9)
        model = SystemModel(a=a, b=np.eye(3), c=np.eye(3),
                            sigma_w=make_psd(rng, 3, 0.1), sigma_v=make_psd(rng, 3, 0.1))
        gains = synthesize_gains(model, np.eye(3), np.eye(3))
        mm = mode_matrices(model, gains)
        x_t = np.array([1.0, -2.0, 0.5])
        target = TargetSpec(x_t, (np.eye(3) - a) @ x_t)
        feed = model.b @ (target.u_target - gains.k @ x_t)
        phases = steady_mean_phases(mm, word, target)
        assert np.linalg.norm(phases) > 0.1
        bits = [int(ch) for ch in word]
        for k, eta in enumerate(bits):
            nxt = phases[(k + 1) % len(bits)]
            resid = np.linalg.norm(mm.abar(eta) @ phases[k] + eta * feed - nxt)
            assert resid <= 1e-12 * np.linalg.norm(nxt)
        # one scan re-associates the loop's products: 2.1e-16 measured
        assert phase_rel_err(phases, loop_steady_mean_phases(mm, word, target)) <= 1e-14


class TestTransient:
    @pytest.mark.parametrize("steps", [0, 1, 3, 4, 5, 13, 41])
    def test_horizon_is_the_step_loops(self, steps, cw_model, cw_gains, cw_mm):
        # horizons of no step, inside the first period, on a period's
        # end and inside a later one, on a word of period 7
        rng = np.random.default_rng(steps)
        word = "0011101"
        # any target: the drift need not hold an equilibrium here
        target = TargetSpec(rng.standard_normal(6), rng.standard_normal(3))
        mu0, cov0 = rng.standard_normal(12), make_psd(rng, 12)
        means, covs = transient(word, cw_mm, target, mu0, cov0, steps)
        assert means.shape == (steps + 1, 12) and covs.shape == (steps + 1, 12, 12)
        xs, es = loop_mean_propagate(cw_mm, mu0[:6], mu0[6:], word, target, steps)
        aug = build_augmented(cw_model, cw_gains)
        ref = loop_cov_propagate(aug.a_modes, [aug.step_noise(eta) for eta in (0, 1)],
                                 cov0, word, steps)
        # the loop, not the scan, sets the tolerance: at 13 steps the loop's
        # covariance is 1.3e-12 from the same loop in long double, the
        # scan's 7e-15 (joint step norms up to 67 on the CW model)
        assert phase_rel_err(means, np.hstack((xs, es))) <= 1e-11
        assert phase_rel_err(covs, ref) <= 1e-11

    def test_error_block_is_propagate_error_cov(self, cw_mm):
        rng = np.random.default_rng(9)
        cov0 = make_psd(rng, 12)
        _, covs = transient("0011", cw_mm, TargetSpec.origin(6, 3), np.zeros(12), cov0, 10)
        # the error block does not read the state and cross blocks
        cov0[:6], cov0[:, :6] = 0.0, 0.0
        assert np.array_equal(propagate_error_cov(cov0[6:, 6:], "0011", cw_mm, 10),
                              covs[:, 6:, 6:])

    @pytest.mark.parametrize("mean, cov, steps, error", [
        (np.zeros(6), np.zeros((12, 12)), 3, DimensionError),
        (np.zeros(12), np.zeros((6, 6)), 3, DimensionError),
        (np.zeros(12), -np.eye(12), 3, DomainError),
        (np.zeros(12), np.zeros((12, 12)), -1, DomainError),
    ], ids=["mean", "cov", "indefinite", "steps"])
    def test_rejects_bad_input(self, cw_mm, mean, cov, steps, error):
        with pytest.raises(error):
            transient("0011", cw_mm, TargetSpec.origin(6, 3), mean, cov, steps)


class TestContraction:
    def test_deadbeat_certificate(self):
        model = SystemModel(a=np.eye(2) * 0.5, b=np.eye(2), c=np.eye(2),
                            sigma_w=0.1 * np.eye(2), sigma_v=0.2 * np.eye(2))
        gains = GainSet(k=np.zeros((2, 2)), l=-model.a)
        mm = mode_matrices(model, gains)
        cert = contraction_certificate("0", mm)
        r0 = error_noise_term(0, gains.l, model.sigma_v, model.sigma_w)
        assert cert.gamma == pytest.approx(np.linalg.norm(r0, 2))

    def test_noise_scaling_linearity(self, cw_model, cw_mm):
        zero_v = np.zeros((3, 3))
        cert1 = contraction_certificate("0011", replace(cw_mm, sigma_v=zero_v))
        cert4 = contraction_certificate("0011", replace(cw_mm, sigma_v=zero_v,
                                                        sigma_w=4.0 * cw_model.sigma_w))
        assert cert4.gamma == pytest.approx(4.0 * cert1.gamma, rel=1e-12)

    def test_requires_observer_stability(self, cw_model, cw_mm):
        with pytest.raises(StabilityError):
            contraction_certificate("1", cw_mm)

    @pytest.mark.parametrize("idx", range(20))
    def test_norm_sequence_inequality(self, idx):
        # rigorous variant: ||P_{N(n+1)}|| - g/(1-b) <= b (||P_Nn|| - g/(1-b))
        # with b the squared spectral norm of the monodromy
        model, gains, mm, bits = next(random_admissible_pairs(1, start_seed=900 + idx * 13))
        cert = contraction_certificate(bits, mm)
        beta = cert.monodromy_norm_sq
        rng = np.random.default_rng(idx)
        traj = propagate_error_cov(make_psd(rng, model.n, 5.0), bits, mm, 8 * len(bits))
        norms = [np.linalg.norm(traj[i * len(bits)], 2) for i in range(9)]
        for i in range(8):
            lhs = norms[i + 1]
            rhs = beta * norms[i] + cert.gamma
            assert lhs <= rhs * (1 + 1e-10) + 1e-12


class TestAugmented:
    def test_block_structure(self, cw_model, cw_gains):
        # the oracle's joint step (Gu, the feedforward input matrix of the
        # removed sensact.covariance.augmented_matrices, is built no more)
        n, p = 6, 3
        for eta in (0, 1):
            a_b, gamma = augmented_matrices(cw_model, cw_gains, eta)
            bk = cw_model.b @ cw_gains.k
            np.testing.assert_allclose(a_b[:n, :n], cw_model.a + eta * bk)
            np.testing.assert_allclose(a_b[:n, n:], -eta * bk)
            np.testing.assert_allclose(a_b[n:, :n], np.zeros((n, n)))
            np.testing.assert_allclose(
                a_b[n:, n:], cw_model.a + (1 - eta) * cw_gains.l @ cw_model.c
            )
            np.testing.assert_allclose(gamma[:n, :p], np.zeros((n, p)))
            np.testing.assert_allclose(gamma[:n, p:], np.eye(n))
            np.testing.assert_allclose(gamma[n:, :p], (1 - eta) * cw_gains.l)
            np.testing.assert_allclose(gamma[n:, p:], np.eye(n))

    def test_joint_steps_are_the_oracle(self, cw_model, cw_gains, cw_mm):
        # bit for bit (+0 and -0 compare equal: -eta BK is -0 at eta = 0)
        a, w = _joint_steps(cw_mm)
        aug = build_augmented(cw_model, cw_gains)
        assert a.shape == w.shape == (2, 12, 12)
        for eta in (0, 1):
            assert np.array_equal(a[eta], aug.a_modes[eta])
            assert np.array_equal(w[eta], aug.step_noise(eta))

    def test_spectrum_is_union_of_blocks(self, cw_model, cw_gains):
        for eta in (0, 1):
            a_b, _ = augmented_matrices(cw_model, cw_gains, eta)
            eигs = np.sort_complex(np.linalg.eigvals(a_b))
            blocks = np.concatenate([
                np.linalg.eigvals(a_b[:6, :6]), np.linalg.eigvals(a_b[6:, 6:])
            ])
            np.testing.assert_allclose(
                np.sort_complex(eигs), np.sort_complex(blocks), atol=1e-8
            )

    def test_noiseless_steady_is_zero(self, cw_model, cw_gains):
        quiet = SystemModel(a=cw_model.a, b=cw_model.b, c=cw_model.c,
                            sigma_w=np.zeros((6, 6)), sigma_v=np.zeros((3, 3)),
                            ts=cw_model.ts)
        joint, state = steady_augmented_cov("0011", mode_matrices(quiet, cw_gains))
        for p in joint:
            assert np.max(np.abs(p)) < 1e-12

    def test_error_block_matches_error_solution(self, cw_model, cw_gains, cw_mm):
        joint, _ = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        err = steady_error_cov("0011", cw_mm)
        for k in range(4):
            np.testing.assert_allclose(joint[k][6:, 6:], err[k], atol=1e-8)

    def test_inadmissible_rejected(self, cw_model, cw_gains):
        with pytest.raises(StabilityError):
            steady_augmented_cov("1", mode_matrices(cw_model, cw_gains))

    def test_monotone_in_process_noise(self, cw_model, cw_gains):
        _, state_lo = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        bumped = SystemModel(a=cw_model.a, b=cw_model.b, c=cw_model.c,
                             sigma_w=cw_model.sigma_w + 5e-5 * np.eye(6),
                             sigma_v=cw_model.sigma_v, ts=cw_model.ts)
        _, state_hi = steady_augmented_cov("0011", mode_matrices(bumped, cw_gains))
        for k in range(4):
            diff = state_hi[k] - state_lo[k]
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-9 * (1 + np.trace(diff))

    def test_joint_fixed_point(self, cw_model, cw_gains):
        joint, _ = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        aug = build_augmented(cw_model, cw_gains)
        bits = (0, 0, 1, 1)
        for k in range(4):
            a = aug.a_modes[bits[k]]
            succ = a @ joint[k] @ a.T + aug.step_noise(bits[k])
            assert np.max(np.abs(succ - joint[(k + 1) % 4])) < 1e-8


def test_contraction_band_is_unstable_everywhere():
    # radius 1 - 5e-10 sits between 1 - CONTRACTION_MARGIN and 1: the
    # word is inadmissible, so no routine may return a bounded answer
    model = SystemModel(a=[[1.0 - 5e-10]], b=[[1.0]], c=[[1.0]],
                        sigma_w=[[1.0]], sigma_v=[[1.0]])
    gains = GainSet(k=np.array([[-0.5]]), l=np.array([[-0.5]]))
    mm = mode_matrices(model, gains)
    assert not admissibility("1", mm).admissible
    assert not admissibility("0", mm).admissible
    with pytest.raises(StabilityError):
        steady_error_cov("1", mm)
    with pytest.raises(StabilityError):
        contraction_certificate("1", mm)
    with pytest.raises(StabilityError):
        steady_mean_phases(mm, "0", TargetSpec.origin(1, 1))
    with pytest.raises(StabilityError):
        steady_augmented_cov("1", mode_matrices(model, gains))


# admissible irreducible CW words: actuation runs broken by short sensing
# runs. Long all-actuation runs grow the monodromy norm until the
# Kronecker reference itself loses more than 1e-9, so they are left out.
LONG_CW_WORDS = (
    "1111100110011100",
    "111111010011111001111100",
    "11111001111001101100111111001110",
    "111111110011101111111001111001111101111100110111",
)


def _rel_fro(x, ref):
    return np.linalg.norm(x - ref, "fro") / np.linalg.norm(ref, "fro")


class TestSinglePeriodSolve:
    """The steady phases come from one Lyapunov solve per call and match
    the per-phase reference solve at every phase."""

    @pytest.fixture
    def solve_count(self, monkeypatch):
        # the unguarded solve behind solve_discrete_lyapunov, which the
        # steady phases call directly, so every solve is counted
        calls = []
        solve = linalg._solve_lyapunov

        def counting(f, w):
            calls.append(f.shape)
            return solve(f, w)

        monkeypatch.setattr(linalg, "_solve_lyapunov", counting)
        return calls

    @staticmethod
    def _check_phases(steady, a_seq, w_seq):
        ref = periodic_dlyap_phases(a_seq, w_seq)
        assert len(steady) == len(ref)
        for p, r in zip(steady, ref):
            assert _rel_fro(p, r) <= 1e-9
        closure = a_seq[-1] @ steady[-1] @ a_seq[-1].T + w_seq[-1]
        assert _rel_fro(closure, steady[0]) <= 1e-10

    @pytest.mark.parametrize("word", LONG_CW_WORDS)
    def test_error_phases(self, word, cw_model, cw_gains, cw_mm, solve_count):
        bits = tuple(int(ch) for ch in word)
        steady = steady_error_cov(bits, cw_mm)
        assert len(solve_count) == 1
        a_seq = [cw_mm.atilde(eta) for eta in bits]
        w_seq = [error_noise_term(eta, cw_gains.l, cw_model.sigma_v, cw_model.sigma_w)
                 for eta in bits]
        self._check_phases(steady, a_seq, w_seq)

    @pytest.mark.parametrize("word", LONG_CW_WORDS)
    def test_joint_phases(self, word, cw_model, cw_gains, solve_count):
        bits = tuple(int(ch) for ch in word)
        joint, _ = steady_augmented_cov(bits, mode_matrices(cw_model, cw_gains))
        assert len(solve_count) == 1
        aug = build_augmented(cw_model, cw_gains)
        a_seq = [aug.a_modes[eta] for eta in bits]
        w_seq = [aug.step_noise(eta) for eta in bits]
        self._check_phases(joint, a_seq, w_seq)


def phase_rel_err(phases, ref) -> float:
    """The largest max|P_k - R_k| / max|R_k| over the phases."""
    return max(float(np.max(np.abs(p - r)) / np.max(np.abs(r))) for p, r in zip(phases, ref))


def cw_word(period, mm, joint):
    """The first word of the seeded stream of this period that the system
    can hold: both sides contract for the joint system, the observer side
    for the error system."""
    rng = np.random.default_rng(period)
    while True:
        bits = tuple(int(b) for b in rng.integers(0, 2, period))
        report = admissibility(bits, mm)
        if report.admissible if joint else report.qtilde < 1.0 - CONTRACTION_MARGIN:
            return bits


class TestPrefixScan:
    """Every phase of one prefix scan against the step-by-step recursion,
    at every CW period from 1 to 64."""

    @pytest.mark.parametrize("period", range(1, 65))
    def test_error_phases_are_the_recursion(self, period, cw_model, cw_gains, cw_mm):
        bits = cw_word(period, cw_mm, joint=False)
        steady = steady_error_cov(bits, cw_mm)
        a_seq = [cw_mm.atilde(eta) for eta in bits]
        w_seq = [error_noise_term(eta, cw_gains.l, cw_model.sigma_v, cw_model.sigma_w)
                 for eta in bits]
        assert steady.shape == (period, 6, 6)
        assert phase_rel_err(steady, recursive_steady_phases(a_seq, w_seq)) <= 1e-10

    @pytest.mark.parametrize("period", range(1, 65))
    def test_joint_phases_are_the_recursion(self, period, cw_model, cw_gains, cw_mm):
        if period < 4:  # no CW word shorter than 4 is admissible
            assert not any(admissibility(w, cw_mm).admissible
                           for w in np.ndindex((2,) * period))
            return
        bits = cw_word(period, cw_mm, joint=True)
        joint, state = steady_augmented_cov(bits, mode_matrices(cw_model, cw_gains))
        aug = build_augmented(cw_model, cw_gains)
        a_seq = [aug.a_modes[eta] for eta in bits]
        w_seq = [aug.step_noise(eta) for eta in bits]
        assert phase_rel_err(joint, recursive_steady_phases(a_seq, w_seq)) <= 1e-10
        # the state phases are the state blocks of the joint phases
        assert np.array_equal(state, joint[:, :6, :6])

    @pytest.mark.parametrize("period", [1, 2, 3, 4, 5, 8, 9, 17, 33, 64])
    def test_levels_are_ceil_log2_period(self, period, cw_model, cw_mm, monkeypatch):
        calls = []
        compose = covariance_module._compose
        monkeypatch.setattr(covariance_module, "_compose",
                            lambda later, earlier: calls.append(len(later[0]))
                            or compose(later, earlier))
        bits = cw_word(period, cw_mm, joint=False)
        steady_error_cov(bits, cw_mm)
        assert len(calls) == math.ceil(math.log2(period))
        # level d composes the items from d on, each stacked in one product
        assert calls == [period - 2**j for j in range(len(calls))]

    def test_certificate_reads_the_last_prefix(self, cw_model, cw_gains, cw_mm):
        bits = cw_word(13, cw_mm, joint=False)
        cert = contraction_certificate(bits, cw_mm)
        big_m, big_w = np.eye(6), np.zeros((6, 6))
        for eta in bits:
            a = cw_mm.atilde(eta)
            big_m = a @ big_m
            big_w = a @ big_w @ a.T + error_noise_term(eta, cw_gains.l, cw_model.sigma_v,
                                                        cw_model.sigma_w)
        assert cert.gamma == pytest.approx(np.linalg.norm(big_w, 2), rel=1e-12)
        assert cert.monodromy_norm_sq == pytest.approx(np.linalg.norm(big_m, 2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("a, error", [
        # the monodromy itself overflows, and its eigenvalue step refuses it
        ([[1e200]], NumericsError),
        # it contracts, but the noise grows past range
        ([[0.5, 1e160], [0.0, 0.5]], NumericsError),
    ], ids=["monodromy", "noise"])
    def test_overflow_raises_without_warnings(self, a, error):
        n = len(a)
        model = SystemModel(a=a, b=np.eye(n), c=np.eye(n),
                            sigma_w=np.eye(n), sigma_v=np.eye(n))
        mm = mode_matrices(model, GainSet(k=-0.5 * np.eye(n), l=-0.5 * np.eye(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                steady_error_cov("1111", mm)

