"""Acceptance suite for the rendezvous case study.

One test per criterion; each prints a single PASS/FAIL line (run with
pytest -s or read the captured output) listing every sub-comparison at
its stated tolerance. Reference values are asserted exactly as given,
including those the exact arithmetic provably cannot reproduce; the
mismatch detail in the printed line records the computed truth.
"""

import itertools

import numpy as np
import pytest

from oracles import (
    confidence_radius,
    error_noise_term,
    kron_dlyap,
    make_psd,
    make_stable,
)

from sensact import linalg
from sensact.chance import chebyshev_alpha
from sensact.covariance import (
    contraction_certificate,
    propagate_error_cov,
    steady_augmented_cov,
    steady_error_cov,
)
from sensact.search import CostWeights, search_fixed_length, search_up_to
from sensact.sequence import admissibility, dwell_feasible, growth_constant, irreducible_core
from sensact.sim import SimConfig, run_ensemble

from test_covariance import random_admissible_pairs


class Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.checks = []

    def check(self, label, value, expected, tol):
        ok = abs(value - expected) <= tol
        self.checks.append((label, value, expected, tol, ok))
        return ok

    def require(self, label, ok):
        self.checks.append((label, None, None, None, bool(ok)))
        return ok

    def conclude(self):
        passed = all(ok for *_, ok in self.checks)
        details = []
        for label, value, expected, tol, ok in self.checks:
            if value is None:
                details.append(f"{label}[{'ok' if ok else 'MISMATCH'}]")
            else:
                details.append(
                    f"{label}={value:.6g} vs {expected:g}+-{tol:g}"
                    f"[{'ok' if ok else 'MISMATCH'}]"
                )
        line = (f"ACCEPTANCE {self.number}: {'PASS' if passed else 'FAIL'} "
                f"({self.title}) " + "; ".join(details))
        print(line)
        if not passed:
            pytest.fail(line, pytrace=False)


def test_criterion_1_spectral_radius_chain(cw_mm):
    c = Criterion(1, "spectral radii of the four mode matrices")
    rb0, rb1, rt0, rt1 = cw_mm.spectral_radii
    c.check("rho_coast", rb0, 1.0063, 1e-3)
    c.check("rho_feedback", rb1, 0.2016, 1e-3)
    c.check("rho_observer", rt0, 0.0332, 1e-3)
    c.check("rho_actuate", rt1, 1.0063, 1e-3)
    c.conclude()


def test_criterion_2_growth_constant(cw_mm):
    c = Criterion(2, "feedback norm and growth constant")
    c.check("fro_feedback", cw_mm.fro_norms[1], 10.4716, 0.01)
    c.check("c", growth_constant(cw_mm), 51.950, 0.1)
    c.conclude()


def test_criterion_3_dwell_values(cw_mm):
    c = Criterion(3, "dwell-time screen values")
    gc = growth_constant(cw_mm)
    pair = dwell_feasible("01", cw_mm.spectral_radii, gc)
    eight = dwell_feasible("00011111", cw_mm.spectral_radii, gc)
    c.check("s2_ctrl", pair.lhs_ctrl, 6.3054, 0.01)
    c.check("s2_obs", pair.lhs_obs, 4.5016, 0.01)
    c.check("s8_ctrl", eight.lhs_ctrl, -0.0879, 0.01)
    c.check("s8_obs", eight.lhs_obs, -2.2837, 0.01)
    c.conclude()


def test_criterion_4_admissibility(cw_mm):
    c = Criterion(4, "monodromy spectral radii of S4 and S7")
    s4 = admissibility("0011", cw_mm)
    s7 = admissibility("0011100", cw_mm)
    c.check("s4_qbar", s4.qbar, 0.5879, 1e-3)
    c.check("s4_qtilde", s4.qtilde, 0.0130, 1e-3)
    c.check("s7_qbar", s7.qbar, 0.07594, 1e-3)
    c.check("s7_qtilde", s7.qtilde, 3.796e-5, 1e-6)
    c.require("both admissible", s4.admissible and s7.admissible)
    c.conclude()


def test_criterion_5_search(cw_model, cw_gains):
    c = Criterion(5, "exhaustive schedule search")
    weights = CostWeights.estimation(6)
    first = search_up_to(8, cw_model, cw_gains, weights)
    c.require("first feasible length is 4", first.feasible and first.length == 4)
    res4 = search_fixed_length(4, cw_model, cw_gains, weights)
    c.require("N=4 tie class contains 0011",
              "0011" in {str(s) for s in res4.tied})
    res7 = search_fixed_length(7, cw_model, cw_gains, weights)
    c.require("N=7 tie class contains 0011100",
              "0011100" in {str(s) for s in res7.tied})
    res8 = search_fixed_length(8, cw_model, cw_gains, weights)
    c.require("N=8 core is 0011", str(res8.core) == "0011")
    c.require("N=8 cost equals N=4 cost",
              abs(res8.cost - res4.cost) <= 1e-9 * abs(res4.cost))
    c.conclude()


def test_criterion_6_chebyshev_radii(cw_model, cw_gains, cw_mm):
    c = Criterion(6, "confidence sphere radii over the S4 steady phases")
    alpha = chebyshev_alpha(3, 0.05)
    _, state = steady_augmented_cov("0011", cw_mm)
    radii = [confidence_radius(p[:3, :3], alpha) for p in state]
    c.check("min_radius", min(radii), 2.79, 0.05)
    c.check("max_radius", max(radii), 9.54, 0.1)
    # diagnostic: the estimation-error phases land near the reference
    # values, the state phases do not
    err = steady_error_cov("0011", cw_mm)
    err_radii = [confidence_radius(p[:3, :3], alpha) for p in err]
    print(f"  [diagnostic] state-block radii: {[round(r, 3) for r in radii]}; "
          f"error-block radii: {[round(r, 3) for r in err_radii]}")
    c.conclude()


def test_criterion_7_monte_carlo_violations(cw_model, cw_gains):
    c = Criterion(7, "empirical box violations under S4")
    cfg = SimConfig(steps=240, runs=200, seed=1234567,
                    x0_mean=np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                    x0_cov=1e-2 * np.eye(6))
    from sensact.chance import BoxConstraint
    from sensact.sim import empirical_violation

    box = BoxConstraint(2.5, components=(0, 1, 2))
    stats = run_ensemble(cw_model, cw_gains, "0011", cfg, box=box)
    worst = float(stats.violation[120:].max())
    # the estimation-error process is printed alongside for comparison
    err_worst = float(empirical_violation(stats.x - stats.xhat, box)[120:].max())
    print(f"  [diagnostic] state-process max steady violation {worst:.3f}; "
          f"error-process max steady violation {err_worst:.3f}")
    c.require(f"max steady violation {worst:.3f} <= 0.06", worst <= 0.06)
    c.conclude()


def test_criterion_8_property_suites(cw_model, cw_gains, cw_mm):
    c = Criterion(8, "property suites")

    # Lyapunov / DARE oracle equivalence on 100 random instances each
    worst_lyap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        f = make_stable(rng, n, rng.uniform(0.1, 0.95))
        w = make_psd(rng, n)
        x = linalg.solve_discrete_lyapunov(f, w)
        ref = kron_dlyap(f, w)
        worst_lyap = max(worst_lyap, np.max(np.abs(x - ref)) / (1 + np.max(np.abs(ref))))
    c.require(f"lyapunov oracle (worst {worst_lyap:.2e})", worst_lyap <= 1e-8)

    worst_dare = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        a, b, q, r = rng.uniform(0.2, 2.0, size=4)
        p = linalg.solve_dare([[a]], [[b]], [[q]], [[r]])[0, 0]
        # scalar closed form: stabilizing root of the Riccati quadratic
        coef = b * b
        quad = np.roots([coef, -(coef * q + r * (a * a - 1.0)), -q * r])
        ref = max(quad)
        worst_dare = max(worst_dare, abs(p - ref) / (1 + abs(ref)))
    c.require(f"dare scalar closed form (worst {worst_dare:.2e})", worst_dare <= 1e-8)

    # periodic fixed point on 50 random admissible pairs
    worst_fix = 0.0
    for idx, (model, gains, mm, bits) in enumerate(
            random_admissible_pairs(50, start_seed=0)):
        steady = steady_error_cov(bits, mm)
        for k in range(len(bits)):
            eta = bits[k]
            a = mm.atilde(eta)
            r = error_noise_term(eta, gains.l, model.sigma_v, model.sigma_w)
            succ = a @ steady[k] @ a.T + r
            gap = np.max(np.abs(succ - steady[(k + 1) % len(bits)]))
            worst_fix = max(worst_fix, gap / (1 + np.max(np.abs(steady[k]))))
    c.require(f"periodic fixed point (worst {worst_fix:.2e})", worst_fix <= 1e-8)

    # reducibility against brute force, all words of length <= 10
    from oracles import brute_force_core

    red_ok = all(
        irreducible_core(word).bits == brute_force_core(word)
        for length in range(1, 11)
        for word in itertools.product((0, 1), repeat=length)
    )
    c.require("reducibility exhaustive <= 10", red_ok)

    # core vs word admissibility agreement, exhaustive N <= 6
    prop4_ok = True
    for length in range(1, 7):
        for word in itertools.product((0, 1), repeat=length):
            core = irreducible_core(word)
            if admissibility(word, cw_mm).admissible != admissibility(core, cw_mm).admissible:
                prop4_ok = False
    c.require("core/word verdict agreement N <= 6", prop4_ok)

    # contraction inequality along propagated norms, 20 random instances
    contraction_ok = True
    for idx, (model, gains, mm, bits) in enumerate(
            random_admissible_pairs(20, start_seed=5_000)):
        cert = contraction_certificate(bits, mm)
        rng = np.random.default_rng(idx)
        traj = propagate_error_cov(make_psd(rng, model.n, 4.0), bits, mm, 6 * len(bits))
        norms = [np.linalg.norm(traj[i * len(bits)], 2) for i in range(7)]
        for i in range(6):
            bound = cert.monodromy_norm_sq * norms[i] + cert.gamma
            if norms[i + 1] > bound * (1 + 1e-10) + 1e-12:
                contraction_ok = False
    c.require("norm contraction inequality", contraction_ok)

    # determinism of seeded ensembles
    cfg = SimConfig(steps=30, runs=6, seed=2024, x0_mean=np.ones(6),
                    x0_cov=1e-2 * np.eye(6))
    s1 = run_ensemble(cw_model, cw_gains, "0011", cfg)
    s2 = run_ensemble(cw_model, cw_gains, "0011", cfg)
    det_ok = np.array_equal(s1.x, s2.x) and np.array_equal(s1.xhat, s2.xhat)
    c.require("seeded ensemble determinism", det_ok)

    c.conclude()
