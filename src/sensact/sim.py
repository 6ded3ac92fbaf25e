"""Seeded Monte-Carlo simulation of the switched sensing/actuation loop.

All runs of an ensemble are stepped together as one batch. Each run draws
from its own random stream, derived from the ensemble seed and the run
index, in the fixed order x0, all w, all v, so run r of an ensemble does
not depend on how many runs it has. Noise is
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
from .exceptions import DimensionError, DomainError, check_memory
from .plant import GainSet, SystemModel, TargetSpec, check_equilibrium
from .sequence import _as_bits

__all__ = [
    "SimConfig",
    "EnsembleStats",
    "step_closed_loop",
    "run_ensemble",
    "empirical_violation",
]


def _finite_vector(value, name) -> np.ndarray:
    """value as a 1-D float array; DomainError naming it unless finite."""
    vector = np.asarray(value, dtype=float).ravel()
    if not np.isfinite(vector).all():
        raise DomainError(f"{name} has non-finite entries")
    return vector


@dataclass(frozen=True)
class SimConfig:
    """Ensemble description: horizon, run count, seed, initial-state
    distribution (Gaussian), initial estimate (defaults to the mean) and
    target equilibrium. steps and runs are positive integers, seed a
    non-negative one, and the means finite."""

    steps: int
    runs: int
    seed: int
    x0_mean: np.ndarray
    x0_cov: np.ndarray
    xhat0: np.ndarray = None
    target: TargetSpec = None

    def __post_init__(self):
        for name in ("steps", "runs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.steps < 1 or self.runs < 1:
            raise DomainError("steps and runs must both be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        mean = _finite_vector(self.x0_mean, "x0_mean")
        cov = linalg.check_psd(self.x0_cov, "x0_cov")
        if cov.shape != (mean.size, mean.size):
            raise DimensionError("x0_cov shape does not match x0_mean")
        object.__setattr__(self, "x0_mean", mean)
        object.__setattr__(self, "x0_cov", cov)
        if self.xhat0 is not None:
            xh = _finite_vector(self.xhat0, "xhat0")
            if xh.shape != mean.shape:
                raise DimensionError("xhat0 shape does not match x0_mean")
            object.__setattr__(self, "xhat0", xh)

    def resolve_target(self, model: SystemModel) -> TargetSpec:
        target = self.target or TargetSpec.origin(model.n, model.m)
        check_equilibrium(model, target)
        return target


@dataclass(frozen=True)
class EnsembleStats:
    """Per-step ensemble statistics across runs, with the ensemble itself:
    eta, x, xhat and u are the arrays its runs were stepped in, not
    copies (the run count is x.shape[0]). u rows are NaN on sensing steps
    (no control exists there)."""

    mean: np.ndarray          # (steps + 1, n)
    eta: np.ndarray           # (steps,)
    x: np.ndarray             # (runs, steps + 1, n)
    xhat: np.ndarray          # (runs, steps + 1, n)
    u: np.ndarray             # (runs, steps, m)
    violation: np.ndarray = None    # (steps + 1,), set when a box is supplied
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


def _check_memory(model: SystemModel, runs: int, steps: int, constrained: int):
    """Refuse a batch, before anything is allocated, whose arrays alive at
    once would exceed physical memory (the overcommit policy decides
    whether np.empty fails or a later write does). _simulate holds xs,
    xhs, us and the w and v draws; run_ensemble then drops the draws and
    forms the mean and, for a box of constrained components, a copy of
    those columns of xs and its absolute value."""
    n, m, p = model.n, model.m, model.p
    rows = runs * (steps + 1)
    peak = max(runs * steps * (n + p), (steps + 1) * n + 2 * rows * constrained)
    check_memory(8 * (2 * rows * n + runs * steps * m + peak),
                 f"an ensemble of {runs} runs x {steps} steps")


def _simulate(model: SystemModel, gains: GainSet, bits, cfg: SimConfig,
              target: TargetSpec):
    """Step the cfg.runs runs together, one kernel call per step, run r
    drawing from default_rng((seed, r)) in the order x0, all w, all v.
    Returns the (steps,) modes, the (runs, steps + 1, n) states and
    estimates, and the (runs, steps, m) controls, NaN on sensing steps."""
    n, m, p = model.n, model.m, model.p
    steps, runs = cfg.steps, cfg.runs
    sqrt_x0 = linalg.psd_sqrt(cfg.x0_cov, "x0_cov")
    sqrt_w = linalg.psd_sqrt(model.sigma_w, "sigma_w")
    sqrt_v = linalg.psd_sqrt(model.sigma_v, "sigma_v")
    xs = np.empty((runs, steps + 1, n))
    xhs = np.empty((runs, steps + 1, n))
    us = np.empty((runs, steps, m))
    w_draws = np.empty((runs, steps, n))
    v_draws = np.empty((runs, steps, p))
    for r in range(runs):
        rng = np.random.default_rng((int(cfg.seed), r))
        xs[r, 0] = cfg.x0_mean + sqrt_x0 @ rng.standard_normal(n)
        w_draws[r] = rng.standard_normal((steps, n)) @ sqrt_w.T
        v_draws[r] = rng.standard_normal((steps, p)) @ sqrt_v.T
    xhs[:, 0] = cfg.x0_mean if cfg.xhat0 is None else cfg.xhat0

    etas = np.resize(np.array(bits, dtype=int), steps)
    for k, eta in enumerate(etas.tolist()):
        xs[:, k + 1], xhs[:, k + 1], u, _ = step_closed_loop(
            xs[:, k], xhs[:, k], eta, w_draws[:, k], v_draws[:, k], model, gains, target)
        us[:, k] = np.nan if u is None else u
    return etas, xs, xhs, us


def run_ensemble(model: SystemModel, gains: GainSet, s, cfg: SimConfig,
                 box=None) -> EnsembleStats:
    """Simulate cfg.runs independent trajectories, stepped together as one
    batch, each on its own random stream, and aggregate per-step
    statistics: the mean and, when a box is given, the box-violation
    fraction. The returned record carries the ensemble arrays as well."""
    bits = _as_bits(s)
    target = cfg.resolve_target(model)
    _check_memory(model, cfg.runs, cfg.steps, 0 if box is None else len(box.resolve(model.n)[0]))
    etas, xs, xhs, us = _simulate(model, gains, bits, cfg, target)

    return EnsembleStats(
        mean=xs.mean(axis=0),
        eta=etas,
        x=xs,
        xhat=xhs,
        u=us,
        violation=None if box is None else empirical_violation(xs, box),
        meta={
            "seed": int(cfg.seed),
            "runs": int(cfg.runs),
            "steps": int(cfg.steps),
            "sequence": "".join(str(b) for b in bits),
            "sampling": "standard_normal + PSD square root, per-run stream default_rng((seed, run))",
        },
    )


def empirical_violation(xs, box) -> np.ndarray:
    """Per-step fraction of runs whose constrained components leave the
    box, from a stacked (runs, steps+1, n) array."""
    n = xs.shape[2]
    idx, widths = box.resolve(n)
    outside = np.abs(xs[:, :, list(idx)]) > widths[None, None, :]
    return outside.any(axis=2).mean(axis=0)

