import numpy as np
import pytest

from sensact.chance import BoxConstraint, chebyshev_alpha
from sensact.covariance import steady_augmented_cov, steady_error_cov
from sensact.exceptions import DomainError
from sensact.plant import TargetSpec, mode_matrices, synthesize_gains
from sensact.sim import (
    SimConfig,
    ellipsoid_exceedance,
    empirical_violation,
    run_ensemble,
    simulate_run,
    step_closed_loop,
)


@pytest.fixture(scope="module")
def base_cfg():
    return SimConfig(
        steps=240,
        runs=200,
        seed=1234567,
        x0_mean=np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        x0_cov=1e-2 * np.eye(6),
    )


class TestStepClosedLoop:
    def test_equilibrium_preserved(self):
        from sensact.plant import SystemModel

        model = SystemModel(a=[[0.5]], b=[[1.0]], c=[[1.0]],
                            sigma_w=[[0.0]], sigma_v=[[0.0]])
        gains = synthesize_gains(model, np.eye(1), np.eye(1))
        target = TargetSpec([2.0], [1.0])
        x, xh, u, y = step_closed_loop([2.0], [2.0], 1, np.zeros(1), np.zeros(1),
                                       model, gains, target)
        assert x[0] == pytest.approx(2.0)
        assert xh[0] == pytest.approx(2.0)
        assert y is None

    def test_coast_ignores_estimate(self, cw_model, cw_gains):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        w = rng.standard_normal(6) * 0.01
        v = rng.standard_normal(3) * 0.01
        target = TargetSpec.origin(6, 3)
        x1, _, u, y = step_closed_loop(x, rng.standard_normal(6), 0, w, v,
                                       cw_model, cw_gains, target)
        np.testing.assert_allclose(x1, cw_model.a @ x + w, rtol=1e-12)
        assert u is None and y is not None

    def test_perfect_estimate_closed_loop(self, cw_model, cw_gains):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        w = rng.standard_normal(6) * 0.01
        target = TargetSpec.origin(6, 3)
        x1, _, u, _ = step_closed_loop(x, x, 1, w, np.zeros(3),
                                       cw_model, cw_gains, target)
        bar1 = cw_model.a + cw_model.b @ cw_gains.k
        np.testing.assert_allclose(x1, bar1 @ x + w, rtol=1e-10, atol=1e-12)

    def test_rejects_bad_eta(self, cw_model, cw_gains):
        with pytest.raises(DomainError):
            step_closed_loop(np.zeros(6), np.zeros(6), 2, np.zeros(6), np.zeros(3),
                             cw_model, cw_gains, TargetSpec.origin(6, 3))


class TestErrorRecursionIdentity:
    def test_error_matches_analysis_recursion(self, cw_model, cw_gains, cw_mm):
        # propagate the primitive loop and the error recursion with the
        # same noise draws; they must agree to rounding
        rng = np.random.default_rng(42)
        bits = (0, 0, 1, 1)
        target = TargetSpec.origin(6, 3)
        x = rng.standard_normal(6)
        xh = rng.standard_normal(6)
        e = x - xh
        for k in range(40):
            eta = bits[k % 4]
            w = rng.standard_normal(6) * 0.01
            v = rng.standard_normal(3) * 0.1
            x, xh, _, _ = step_closed_loop(x, xh, eta, w, v, cw_model, cw_gains, target)
            e = cw_mm.atilde(eta) @ e + w + (1 - eta) * (cw_gains.l @ v)
            np.testing.assert_allclose(x - xh, e, atol=1e-10 * (1 + np.linalg.norm(e)))


class TestReproducibility:
    def test_bit_identical_reruns(self, cw_model, cw_gains, base_cfg):
        cfg = SimConfig(steps=40, runs=8, seed=base_cfg.seed,
                        x0_mean=base_cfg.x0_mean, x0_cov=base_cfg.x0_cov)
        s1, t1 = run_ensemble(cw_model, cw_gains, "0011", cfg, return_trajectories=True)
        s2, t2 = run_ensemble(cw_model, cw_gains, "0011", cfg, return_trajectories=True)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.xhat, b.xhat)
        assert np.array_equal(s1.mean, s2.mean)

    def test_runs_differ_from_each_other(self, cw_model, cw_gains, base_cfg):
        cfg = SimConfig(steps=10, runs=3, seed=5,
                        x0_mean=base_cfg.x0_mean, x0_cov=base_cfg.x0_cov)
        _, trajectories = run_ensemble(cw_model, cw_gains, "0011", cfg,
                                       return_trajectories=True)
        assert not np.array_equal(trajectories[0].x, trajectories[1].x)

    def test_simulate_run_composition(self, cw_model, cw_gains, base_cfg):
        # simulate_run must equal the manual composition of step_closed_loop
        # with the documented draw order (x0 block, w block, v block)
        from sensact.linalg import psd_sqrt

        cfg = SimConfig(steps=12, runs=1, seed=321,
                        x0_mean=base_cfg.x0_mean, x0_cov=base_cfg.x0_cov)
        traj = simulate_run(cw_model, cw_gains, (0, 0, 1, 1), cfg, 0,
                            TargetSpec.origin(6, 3))
        rng = np.random.default_rng((321, 0))
        x = cfg.x0_mean + psd_sqrt(cfg.x0_cov) @ rng.standard_normal(6)
        w = rng.standard_normal((12, 6)) @ psd_sqrt(cw_model.sigma_w).T
        v = rng.standard_normal((12, 3)) @ psd_sqrt(cw_model.sigma_v).T
        xh = cfg.x0_mean.copy()
        np.testing.assert_array_equal(traj.x[0], x)
        for k in range(12):
            x, xh, _, _ = step_closed_loop(x, xh, (0, 0, 1, 1)[k % 4], w[k], v[k],
                                           cw_model, cw_gains, TargetSpec.origin(6, 3))
            np.testing.assert_array_equal(traj.x[k + 1], x)
            np.testing.assert_array_equal(traj.xhat[k + 1], xh)


class TestBatching:
    def test_ensemble_matches_single_runs(self, cw_model, cw_gains, base_cfg):
        # each run stepped inside the batch equals the same run simulated
        # alone, up to rounding of the batched matrix products: within
        # 1e-12 relative, or absolute where a value is below 1 and
        # cancellation leaves no relative precision
        cfg = SimConfig(steps=60, runs=5, seed=2024,
                        x0_mean=base_cfg.x0_mean, x0_cov=base_cfg.x0_cov)
        target = TargetSpec.origin(6, 3)
        _, trajectories = run_ensemble(cw_model, cw_gains, "0001100011", cfg,
                                       return_trajectories=True)
        bits = (0, 0, 0, 1, 1, 0, 0, 0, 1, 1)
        for r, batched in enumerate(trajectories):
            single = simulate_run(cw_model, cw_gains, bits, cfg, r, target)
            np.testing.assert_array_equal(batched.eta, single.eta)
            for name in ("x", "xhat", "u"):
                a, b = getattr(batched, name), getattr(single, name)
                np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_one_kernel_call_per_step(self, cw_model, cw_gains, base_cfg, monkeypatch):
        import sensact.sim as sim_module
        from sensact import linalg

        counts = {"step": 0, "sqrt": 0}
        real_step, real_sqrt = sim_module.step_closed_loop, linalg.psd_sqrt

        def step(*args, **kwargs):
            counts["step"] += 1
            return real_step(*args, **kwargs)

        def sqrt(*args, **kwargs):
            counts["sqrt"] += 1
            return real_sqrt(*args, **kwargs)

        monkeypatch.setattr(sim_module, "step_closed_loop", step)
        monkeypatch.setattr(linalg, "psd_sqrt", sqrt)
        run_ensemble(cw_model, cw_gains, "0011", base_cfg)
        assert counts == {"step": base_cfg.steps, "sqrt": 3}


class TestDeterministicLimit:
    def test_noiseless_ensemble_collapses(self, cw_model, cw_gains):
        from sensact.plant import SystemModel

        quiet = SystemModel(a=cw_model.a, b=cw_model.b, c=cw_model.c,
                            sigma_w=np.zeros((6, 6)), sigma_v=np.zeros((3, 3)),
                            ts=cw_model.ts)
        cfg = SimConfig(steps=80, runs=5, seed=7,
                        x0_mean=np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                        x0_cov=np.zeros((6, 6)))
        stats, trajectories = run_ensemble(quiet, cw_gains, "0011", cfg,
                                           return_trajectories=True)
        for t in trajectories[1:]:
            assert np.array_equal(t.x, trajectories[0].x)
        assert np.max(np.abs(stats.cov)) < 1e-20
        # admissible schedule drives the state to the origin target
        assert np.linalg.norm(stats.mean[-1]) < 1e-3 * np.linalg.norm(stats.mean[0])


class TestEnsembleStatistics:
    def test_matches_steady_state_covariance(self, cw_model, cw_gains, base_cfg):
        # empirical per-step covariance in the steady window against the
        # analytic phase covariance, elementwise within five standard
        # errors of the sample covariance estimator
        _, state = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        stats = run_ensemble(cw_model, cw_gains, "0011", base_cfg)
        runs = base_cfg.runs
        for k in (200, 201, 202, 203):
            p = state[k % 4]
            se = np.sqrt((np.outer(np.diag(p), np.diag(p)) + p**2) / runs)
            assert np.all(np.abs(stats.cov[k] - p) <= 5.0 * se)

    def test_error_mean_vanishes(self, cw_model, cw_gains, base_cfg):
        stats = run_ensemble(cw_model, cw_gains, "0011", base_cfg)
        err = steady_error_cov("0011", mode_matrices(cw_model, cw_gains))
        for k in range(200, 240):
            se = np.sqrt(np.trace(err[k % 4]) / base_cfg.runs)
            assert np.linalg.norm(stats.error_mean[k]) <= 3.0 * se

    def test_cyclostationarity(self, cw_model, cw_gains, base_cfg):
        stats = run_ensemble(cw_model, cw_gains, "0011", base_cfg)
        # same-phase covariance traces one period apart agree within
        # sampling scatter (10 percent is generous at 200 runs)
        for k in (220, 221, 222, 223):
            t1 = np.trace(stats.cov[k])
            t2 = np.trace(stats.cov[k + 4])
            assert abs(t1 - t2) <= 0.35 * max(t1, t2)

    def test_boundedness_of_constructed_schedule(self, cw_model, cw_gains, base_cfg):
        # the dwell-screen-built 8-step schedule keeps the ensemble bounded
        stats = run_ensemble(cw_model, cw_gains, "00011111", base_cfg)
        traces = [np.trace(stats.cov[k]) for k in range(120, 241)]
        assert max(traces) < 1e3
        assert np.linalg.norm(stats.mean[-1]) < np.linalg.norm(stats.mean[0])


class TestViolations:
    def test_infinite_box_never_violated(self, cw_model, cw_gains, base_cfg):
        cfg = SimConfig(steps=20, runs=10, seed=3,
                        x0_mean=base_cfg.x0_mean, x0_cov=base_cfg.x0_cov)
        _, trajectories = run_ensemble(cw_model, cw_gains, "0011", cfg,
                                       return_trajectories=True)
        frac = empirical_violation(np.stack([t.x for t in trajectories]),
                                   BoxConstraint(1e12, components=(0, 1, 2)))
        assert np.all(frac == 0.0)

    def test_tiny_box_always_violated_under_noise(self, cw_model, cw_gains, base_cfg):
        cfg = SimConfig(steps=20, runs=10, seed=3,
                        x0_mean=base_cfg.x0_mean, x0_cov=base_cfg.x0_cov)
        _, trajectories = run_ensemble(cw_model, cw_gains, "0011", cfg,
                                       return_trajectories=True)
        frac = empirical_violation(np.stack([t.x for t in trajectories]),
                                   BoxConstraint(1e-9, components=(0, 1, 2)))
        assert np.all(frac[1:] == 1.0)

    def test_violation_from_run_ensemble_matches_helper(self, cw_model, cw_gains, base_cfg):
        box = BoxConstraint(2.5, components=(0, 1, 2))
        stats, trajectories = run_ensemble(cw_model, cw_gains, "0011", base_cfg,
                                           box=box, return_trajectories=True)
        xs = np.stack([t.x for t in trajectories])
        np.testing.assert_array_equal(stats.violation, empirical_violation(xs, box))

    def test_chebyshev_exceedance_within_budget(self, cw_model, cw_gains, base_cfg):
        # Gaussian tails sit far inside the distribution-free bound
        _, state = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        alpha = chebyshev_alpha(3, 0.05)
        stats, trajectories = run_ensemble(
            cw_model, cw_gains, "0011", base_cfg,
            ellipsoid=(state, np.zeros((4, 6)), alpha, (0, 1, 2)),
            return_trajectories=True,
        )
        # steady window only; the transient phases are not cyclostationary
        assert np.max(stats.exceedance[120:]) <= 0.05
        xs = np.stack([t.x for t in trajectories])[:, 120:, :]
        frac = ellipsoid_exceedance(xs, state, np.zeros((4, 6)), alpha,
                                    components=(0, 1, 2))
        # phase alignment: step 120 is phase 0 of the 4-periodic schedule
        np.testing.assert_array_equal(stats.exceedance[120:], frac)
