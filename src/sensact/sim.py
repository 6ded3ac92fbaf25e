"""Seeded Monte-Carlo simulation of the switched sensing/actuation loop.

Each run draws from its own random stream, derived from the ensemble seed
and the run index, so every run is reproducible on its own. Noise is
Gaussian: standard-normal draws mapped through symmetric PSD square roots
of the configured covariances (the sampling method is recorded in
exported metadata).

The observer uses the same L convention as the analysis modules (A + LC
stable), so the measurement update enters as -(1 - eta) L (y - C xhat);
the simulated estimation error then satisfies the analysis recursion
e+ = Atil e + w + (1 - eta) L v exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError
from .plant import GainSet, SystemModel, TargetSpec, check_equilibrium
from .sequence import _as_bits

__all__ = [
    "SimConfig",
    "Trajectory",
    "EnsembleStats",
    "step_closed_loop",
    "simulate_run",
    "run_ensemble",
    "empirical_violation",
]


@dataclass(frozen=True)
class SimConfig:
    """Ensemble description: horizon, run count, seed, initial-state
    distribution (Gaussian), initial estimate (defaults to the mean) and
    target equilibrium."""

    steps: int
    runs: int
    seed: int
    x0_mean: np.ndarray
    x0_cov: np.ndarray
    xhat0: np.ndarray = None
    target: TargetSpec = None

    def __post_init__(self):
        if self.steps < 1 or self.runs < 1:
            raise DomainError("steps and runs must both be at least 1")
        mean = np.asarray(self.x0_mean, dtype=float).ravel()
        cov = linalg.check_psd(self.x0_cov, "x0_cov")
        if cov.shape != (mean.size, mean.size):
            raise DimensionError("x0_cov shape does not match x0_mean")
        object.__setattr__(self, "x0_mean", mean)
        object.__setattr__(self, "x0_cov", cov)
        if self.xhat0 is not None:
            xh = np.asarray(self.xhat0, dtype=float).ravel()
            if xh.shape != mean.shape:
                raise DimensionError("xhat0 shape does not match x0_mean")
            object.__setattr__(self, "xhat0", xh)

    def resolve_target(self, model: SystemModel) -> TargetSpec:
        target = self.target or TargetSpec.origin(model.n, model.m)
        check_equilibrium(model, target)
        return target


@dataclass(frozen=True)
class Trajectory:
    """One run's records; u rows are NaN on sensing steps and y rows NaN
    on actuation steps (those signals do not exist there)."""

    eta: np.ndarray    # (steps,)
    x: np.ndarray      # (steps + 1, n)
    xhat: np.ndarray   # (steps + 1, n)
    u: np.ndarray      # (steps, m)
    y: np.ndarray      # (steps, p)

    @property
    def error(self) -> np.ndarray:
        return self.x - self.xhat


@dataclass(frozen=True)
class EnsembleStats:
    """Per-step ensemble statistics across runs."""

    mean: np.ndarray          # (steps + 1, n)
    cov: np.ndarray           # (steps + 1, n, n)
    error_mean: np.ndarray    # (steps + 1, n)
    runs: int = 0
    violation: np.ndarray = None    # (steps + 1,), set when a box is supplied
    exceedance: np.ndarray = None   # (steps + 1,), Chebyshev ellipsoid overflow
    meta: dict = field(default_factory=dict)


def step_closed_loop(x, xhat, eta, w, v, model: SystemModel, gains: GainSet,
                     target: TargetSpec):
    """One step of the primitive closed loop.

    Actuation (eta = 1): u = u_T + K (xhat - x_T) drives both plant and
    observer; nothing is sensed. Sensing (eta = 0): the plant coasts
    (u = 0), y = C x + v is measured and injected through -L.

    Returns (x_next, xhat_next, u_or_None, y_or_None).
    """
    x = np.asarray(x, dtype=float).ravel()
    xhat = np.asarray(xhat, dtype=float).ravel()
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    a, b, c = model.a, model.b, model.c
    if eta:
        u = target.u_target + gains.k @ (xhat - target.x_target)
        x_next = a @ x + b @ u + w
        xhat_next = a @ xhat + b @ u
        return x_next, xhat_next, u, None
    y = c @ x + v
    x_next = a @ x + w
    xhat_next = a @ xhat - gains.l @ (y - c @ xhat)
    return x_next, xhat_next, None, y


def _run_stream(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(run_index)))


def simulate_run(model: SystemModel, gains: GainSet, bits, cfg: SimConfig,
                 run_index: int, target: TargetSpec) -> Trajectory:
    """Simulate one seeded run; the draw order (x0, all w, all v) is fixed
    so trajectories are reproducible regardless of scheduling."""
    rng = _run_stream(cfg.seed, run_index)
    n, m, p = model.n, model.m, model.p
    steps = cfg.steps
    sqrt_x0 = linalg.psd_sqrt(cfg.x0_cov, "x0_cov")
    sqrt_w = linalg.psd_sqrt(model.sigma_w, "sigma_w")
    sqrt_v = linalg.psd_sqrt(model.sigma_v, "sigma_v")
    x0 = cfg.x0_mean + sqrt_x0 @ rng.standard_normal(n)
    w_draws = rng.standard_normal((steps, n)) @ sqrt_w.T
    v_draws = rng.standard_normal((steps, p)) @ sqrt_v.T

    xs = np.empty((steps + 1, n))
    xhs = np.empty((steps + 1, n))
    us = np.full((steps, m), np.nan)
    ys = np.full((steps, p), np.nan)
    etas = np.empty(steps, dtype=int)
    xs[0] = x0
    xhs[0] = cfg.x0_mean if cfg.xhat0 is None else cfg.xhat0
    for k in range(steps):
        eta = bits[k % len(bits)]
        etas[k] = eta
        x_next, xh_next, u, y = step_closed_loop(
            xs[k], xhs[k], eta, w_draws[k], v_draws[k], model, gains, target
        )
        xs[k + 1] = x_next
        xhs[k + 1] = xh_next
        if u is not None:
            us[k] = u
        if y is not None:
            ys[k] = y
    return Trajectory(eta=etas, x=xs, xhat=xhs, u=us, y=ys)


def run_ensemble(model: SystemModel, gains: GainSet, s, cfg: SimConfig,
                 box=None, ellipsoid=None, threads: int = 1,
                 return_trajectories: bool = False):
    """Simulate cfg.runs independent trajectories and aggregate per-step
    statistics (mean, covariance, error mean, plus box-violation fraction
    when a box is given and Chebyshev exceedance when ellipsoid =
    (phase_covs, phase_means, alpha, components) is given). Runs are
    simulated serially in run-index order; threads is accepted for
    compatibility and does not change the evaluation.

    Returns EnsembleStats, or (EnsembleStats, list[Trajectory]) when
    return_trajectories is set.
    """
    bits = _as_bits(s)
    target = cfg.resolve_target(model)
    trajectories = [simulate_run(model, gains, bits, cfg, i, target) for i in range(cfg.runs)]

    xs = np.stack([t.x for t in trajectories])        # (runs, steps + 1, n)
    errs = np.stack([t.error for t in trajectories])
    mean = xs.mean(axis=0)
    err_mean = errs.mean(axis=0)
    centered = xs - mean[None, :, :]
    denom = max(cfg.runs - 1, 1)
    cov = np.einsum("rki,rkj->kij", centered, centered) / denom

    violation = None
    if box is not None:
        idx, widths = box.resolve(model.n)
        sel = np.abs(xs[:, :, list(idx)]) > widths[None, None, :]
        violation = sel.any(axis=2).mean(axis=0)

    exceedance = None
    if ellipsoid is not None:
        phase_covs, phase_means, alpha, components = ellipsoid
        exceedance = ellipsoid_exceedance(xs, phase_covs, phase_means, alpha,
                                          components=components)

    stats = EnsembleStats(
        mean=mean,
        cov=cov,
        error_mean=err_mean,
        runs=cfg.runs,
        violation=violation,
        exceedance=exceedance,
        meta={
            "seed": int(cfg.seed),
            "runs": int(cfg.runs),
            "steps": int(cfg.steps),
            "sequence": "".join(str(b) for b in bits),
            "sampling": "standard_normal + PSD square root, per-run stream default_rng((seed, run))",
        },
    )
    if return_trajectories:
        return stats, trajectories
    return stats


def empirical_violation(trajectories, box) -> np.ndarray:
    """Per-step fraction of runs whose constrained components leave the
    box. Accepts a list of Trajectory or a stacked (runs, steps+1, n)
    array."""
    if isinstance(trajectories, np.ndarray):
        xs = trajectories
    else:
        xs = np.stack([t.x for t in trajectories])
    n = xs.shape[2]
    idx, widths = box.resolve(n)
    outside = np.abs(xs[:, :, list(idx)]) > widths[None, None, :]
    return outside.any(axis=2).mean(axis=0)


def ellipsoid_exceedance(trajectories, phase_covs, phase_means, alpha: float,
                         components=None) -> np.ndarray:
    """Per-step fraction of runs outside the phase Chebyshev ellipsoid
    (x - mu)' P^-1 (x - mu) > alpha^2, on the selected components."""
    if isinstance(trajectories, np.ndarray):
        xs = trajectories
    else:
        xs = np.stack([t.x for t in trajectories])
    runs, horizon, n = xs.shape
    idx = tuple(range(n)) if components is None else tuple(components)
    sel = np.ix_(idx, idx)
    period = phase_covs.period
    out = np.empty(horizon)
    for k in range(horizon):
        p_c = phase_covs[k % period][sel]
        mu_c = np.asarray(phase_means)[k % period][list(idx)]
        diff = xs[:, k, list(idx)] - mu_c
        q = np.einsum("ri,ij,rj->r", diff, np.linalg.pinv(p_c), diff)
        out[k] = np.mean(q > alpha**2)
    return out
