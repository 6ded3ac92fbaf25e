"""Distribution-free chance-constraint machinery.

The multivariate Chebyshev inequality bounds the probability mass outside
the ellipsoid {x : (x - mu)' P^-1 (x - mu) <= alpha^2} by n_x / alpha^2,
so alpha = sqrt(n_x / delta) guarantees violation probability at most
delta. Box constraints are shrunk by the ellipsoid exactly (per-face
support functions realize the Pontryagin difference for boxes); the
bounding-sphere radius is reported as the conservative variant.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError
from .covariance import steady_augmented_cov
from .plant import ModeMatrices

__all__ = [
    "BoxConstraint",
    "PhaseVerdict",
    "ChanceReport",
    "chebyshev_alpha",
    "verify_chance",
]


def chebyshev_alpha(n_x: int, delta: float) -> float:
    """Confidence scale alpha = sqrt(n_x / delta)."""
    if n_x < 1:
        raise DomainError("constrained dimension must be at least 1")
    if not 0.0 < delta < 1.0:
        raise DomainError("violation budget delta must lie in (0, 1)")
    return float(np.sqrt(n_x / delta))


@dataclass(frozen=True)
class BoxConstraint:
    """Axis-aligned box |x_i| <= half_width on the selected state
    components; components lists the distinct state indices the box
    constrains (None means all of them).
    """

    half_width: float
    components: tuple = None

    def __post_init__(self):
        if self.half_width <= 0:
            raise DomainError("box half-width must be positive")
        if self.components is not None:
            comps = tuple(self.components)
            if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       for i in comps):
                raise DomainError("box components must be integer state indices")
            if len(set(comps)) != len(comps):
                raise DomainError("box components must be distinct")
            object.__setattr__(self, "components", tuple(int(i) for i in comps))

    def resolve(self, n: int):
        """Return (indices, half-widths) for an n-dimensional state."""
        idx = tuple(range(n)) if self.components is None else self.components
        if any(i < 0 or i >= n for i in idx):
            raise DimensionError("box component index out of range")
        return idx, np.full(len(idx), float(self.half_width))


@dataclass(frozen=True)
class PhaseVerdict:
    phase: int
    radius: float            # bounding-sphere radius of the phase ellipsoid
    margins: tuple           # per-face slack b_i - |mu_i| - support_i
    face_pass: bool          # exact per-face (Pontryagin) test
    sphere_pass: bool        # conservative bounding-sphere test


@dataclass(frozen=True)
class ChanceReport:
    delta: float
    alpha: float
    phases: tuple

    @property
    def passes(self) -> bool:
        return all(ph.face_pass for ph in self.phases)

    @property
    def sphere_passes(self) -> bool:
        return all(ph.sphere_pass for ph in self.phases)

    @property
    def min_radius(self) -> float:
        return min(ph.radius for ph in self.phases)

    @property
    def max_radius(self) -> float:
        return max(ph.radius for ph in self.phases)

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "alpha": self.alpha,
            "passes": self.passes,
            "sphere_passes": self.sphere_passes,
            "phases": [
                {
                    "phase": ph.phase,
                    "radius": ph.radius,
                    "margins": list(ph.margins),
                    "face_pass": ph.face_pass,
                    "sphere_pass": ph.sphere_pass,
                }
                for ph in self.phases
            ],
        }


def verify_chance(s, mm: ModeMatrices, box: BoxConstraint, delta: float,
                  mean_phases=None) -> ChanceReport:
    """Steady-state chance-constraint verification for a schedule.

    For every phase k and every box face +-e_i the exact test requires

        |mu_i| + alpha * sqrt(P_ii) <= b_i

    on the constrained components of the steady state covariance; passing
    every face at every phase certifies the chance constraint in steady
    state. The bounding-sphere verdict (radius + |mu|_inf <= min b_i) is
    recorded alongside as the conservative variant.

    mean_phases defaults to zero: the steady periodic mean for an origin
    target with no feedforward, which is unique once the schedule is
    admissible (the control monodromy contracts).
    """
    _, state_covs = steady_augmented_cov(s, mm)  # validates admissibility
    n = mm.n
    period = state_covs.period
    idx, widths = box.resolve(n)
    alpha = chebyshev_alpha(len(idx), delta)

    if mean_phases is None:
        mean_phases = np.zeros((period, n))
    mean_phases = np.asarray(mean_phases, dtype=float)
    if mean_phases.shape != (period, n):
        raise DimensionError(f"mean_phases must have shape {(period, n)}")

    # all phases at once: batched LAPACK runs the one-matrix routine on each
    # phase, so radii, margins and verdicts equal the per-phase formulas
    cols = list(idx)
    covs = linalg.check_psd(state_covs.phases[:, cols][:, :, cols], "P",
                            stacked=True)
    radii = alpha * np.sqrt(np.max(np.linalg.eigvalsh(covs), axis=-1))
    supports = alpha * np.sqrt(np.clip(np.diagonal(covs, axis1=-2, axis2=-1), 0.0, None))
    mus = np.abs(mean_phases[:, cols])
    margins = widths - mus - supports
    sphere_ok = radii + np.max(mus, axis=-1, initial=0.0) <= np.min(widths)
    face_ok = np.all(margins >= 0.0, axis=-1)
    verdicts = tuple(
        PhaseVerdict(phase=k, radius=radius, margins=tuple(row),
                     face_pass=face, sphere_pass=sphere)
        for k, (radius, row, face, sphere) in enumerate(
            zip(radii.tolist(), margins.tolist(), face_ok.tolist(), sphere_ok.tolist())))
    return ChanceReport(delta=float(delta), alpha=alpha, phases=verdicts)
