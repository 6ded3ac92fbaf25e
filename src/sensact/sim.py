"""Seeded Monte-Carlo simulation of the switched sensing/actuation loop.

All runs of an ensemble are stepped together as one batch. Each run draws
from its own random stream, derived from the ensemble seed and the run
index, in the fixed order x0, all w, all v, so every run is reproducible
on its own; simulate_run is the batch of one. Noise is
Gaussian: standard-normal draws mapped through symmetric PSD square roots
of the configured covariances (the sampling method is recorded in
exported metadata).

The observer uses the same L convention as the analysis modules (A + LC
stable), so the measurement update enters as -(1 - eta) L (y - C xhat);
the simulated estimation error then satisfies the analysis recursion
e+ = Atil e + w + (1 - eta) L v exactly.
"""

import os
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

    x, xhat, w and v may carry leading batch axes; the whole batch takes
    the same eta, and a 1-D call returns 1-D results.

    Returns (x_next, xhat_next, u_or_None, y_or_None).
    """
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    a, b, c = model.a, model.b, model.c
    if eta:
        u = target.u_target + (xhat - target.x_target) @ gains.k.T
        x_next = x @ a.T + u @ b.T + w
        xhat_next = xhat @ a.T + u @ b.T
        return x_next, xhat_next, u, None
    y = x @ c.T + v
    x_next = x @ a.T + w
    xhat_next = xhat @ a.T - (y - xhat @ c.T) @ gains.l.T
    return x_next, xhat_next, None, y


def _check_memory(model: SystemModel, runs: int, steps: int, constrained=None):
    """Refuse a batch, before anything is allocated, whose arrays alive at
    once would exceed physical memory (the overcommit policy decides
    whether np.empty fails or a later write does). _simulate holds xs,
    xhs, us, ys and the w and v draws; run_ensemble then drops the draws
    and forms xs - xhs, then centered, each the size of xs, the
    (steps + 1, n, n) covariance, two means and, for a box of constrained
    components, a copy of those columns of xs and its absolute value.
    constrained is None for simulate_run, which forms no statistics."""
    n, m, p = model.n, model.m, model.p
    rows = runs * (steps + 1)
    peak = runs * steps * (n + p)
    if constrained is not None:
        peak = max(peak, rows * n + (steps + 1) * n * (n + 2) + 2 * rows * constrained)
    size = 8 * (2 * rows * n + runs * steps * (m + p) + peak)
    if size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise DomainError(f"an ensemble of {runs} runs x {steps} steps needs "
                          f"{size / 2**30:,.1f} GiB, more than this machine's memory")


def _simulate(model: SystemModel, gains: GainSet, bits, cfg: SimConfig,
              run_indices, target: TargetSpec):
    """Step the runs in run_indices together, one kernel call per step,
    each run drawing from default_rng((seed, run)) in the order x0, all w,
    all v. Returns the (runs, steps + 1, n) state and estimate arrays and
    one Trajectory of row views per run."""
    n, m, p = model.n, model.m, model.p
    steps = cfg.steps
    runs = len(run_indices)
    sqrt_x0 = linalg.psd_sqrt(cfg.x0_cov, "x0_cov")
    sqrt_w = linalg.psd_sqrt(model.sigma_w, "sigma_w")
    sqrt_v = linalg.psd_sqrt(model.sigma_v, "sigma_v")
    xs = np.empty((runs, steps + 1, n))
    xhs = np.empty((runs, steps + 1, n))
    us = np.empty((runs, steps, m))
    ys = np.empty((runs, steps, p))
    w_draws = np.empty((runs, steps, n))
    v_draws = np.empty((runs, steps, p))
    for r, run in enumerate(run_indices):
        rng = np.random.default_rng((int(cfg.seed), int(run)))
        xs[r, 0] = cfg.x0_mean + sqrt_x0 @ rng.standard_normal(n)
        w_draws[r] = rng.standard_normal((steps, n)) @ sqrt_w.T
        v_draws[r] = rng.standard_normal((steps, p)) @ sqrt_v.T
    xhs[:, 0] = cfg.x0_mean if cfg.xhat0 is None else cfg.xhat0

    etas = np.resize(np.array(bits, dtype=int), steps)
    for k, eta in enumerate(etas.tolist()):
        xs[:, k + 1], xhs[:, k + 1], u, y = step_closed_loop(
            xs[:, k], xhs[:, k], eta, w_draws[:, k], v_draws[:, k], model, gains, target)
        us[:, k] = np.nan if u is None else u
        ys[:, k] = np.nan if y is None else y
    trajectories = [Trajectory(eta=etas, x=xs[r], xhat=xhs[r], u=us[r], y=ys[r])
                    for r in range(runs)]
    return xs, xhs, trajectories


def simulate_run(model: SystemModel, gains: GainSet, bits, cfg: SimConfig,
                 run_index: int, target: TargetSpec) -> Trajectory:
    """Simulate one seeded run: the batch of one. Its trajectory is the
    same whether it is simulated alone or inside an ensemble (to rounding
    of the batched matrix products)."""
    _check_memory(model, 1, cfg.steps)
    return _simulate(model, gains, bits, cfg, [run_index], target)[2][0]


def run_ensemble(model: SystemModel, gains: GainSet, s, cfg: SimConfig,
                 box=None, ellipsoid=None, return_trajectories: bool = False):
    """Simulate cfg.runs independent trajectories and aggregate per-step
    statistics (mean, covariance, error mean, plus box-violation fraction
    when a box is given and Chebyshev exceedance when ellipsoid =
    (phase_covs, phase_means, alpha, components) is given). All runs are
    stepped together as one batch, each on its own random stream.

    Returns EnsembleStats, or (EnsembleStats, list[Trajectory]) when
    return_trajectories is set; the trajectories are row views of the
    ensemble arrays.
    """
    bits = _as_bits(s)
    target = cfg.resolve_target(model)
    _check_memory(model, cfg.runs, cfg.steps, 0 if box is None else len(box.resolve(model.n)[0]))
    xs, xhs, trajectories = _simulate(model, gains, bits, cfg, range(cfg.runs), target)

    mean = xs.mean(axis=0)
    err_mean = (xs - xhs).mean(axis=0)
    centered = xs - mean[None, :, :]
    denom = max(cfg.runs - 1, 1)
    cov = np.einsum("rki,rkj->kij", centered, centered) / denom

    violation = None if box is None else empirical_violation(xs, box)
    exceedance = None if ellipsoid is None else ellipsoid_exceedance(xs, *ellipsoid)

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
    inverses = [np.linalg.pinv(phase_covs[j][sel]) for j in range(period)]
    out = np.empty(horizon)
    for k in range(horizon):
        mu_c = np.asarray(phase_means)[k % period][list(idx)]
        diff = xs[:, k, list(idx)] - mu_c
        q = np.einsum("ri,ij,rj->r", diff, inverses[k % period], diff)
        out[k] = np.mean(q > alpha**2)
    return out
