"""Plant and gain construction.

Holds the discrete-time system data consumed everywhere else, the
Clohessy-Wiltshire relative-motion model, zero-order-hold discretization,
LQR / observer gain synthesis, and assembly of the four switched-mode
closed-loop matrices.

Sign conventions: the feedback and injection gains are defined so that the
closed-loop matrices are written as sums,

    actuation step (eta = 1):  A + B K   stable by construction,
    sensing step   (eta = 0):  A + L C   stable by construction,

i.e. K and L absorb the minus sign of the textbook LQR/observer formulas.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError

__all__ = [
    "SystemModel",
    "GainSet",
    "ModeMatrices",
    "TargetSpec",
    "CwParams",
    "build_cw_continuous",
    "discretize_zoh",
    "synthesize_lqr_gain",
    "synthesize_observer_gain",
    "mode_matrices",
    "check_equilibrium",
]


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time plant x+ = A x + B u + w, y = C x + v."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma_w: np.ndarray
    sigma_v: np.ndarray
    ts: float = 1.0  # sampling period, metadata only

    def __post_init__(self):
        a = linalg.as_square(self.a, "A")
        b = linalg.as_matrix(self.b, "B")
        c = linalg.as_matrix(self.c, "C")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionError(f"B has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionError(f"C has {c.shape[1]} columns, expected {n}")
        sw = linalg.check_psd(self.sigma_w, "sigma_w")
        sv = linalg.check_psd(self.sigma_v, "sigma_v")
        if sw.shape != (n, n):
            raise DimensionError(f"sigma_w has shape {sw.shape}, expected {(n, n)}")
        if sv.shape != (c.shape[0],) * 2:
            raise DimensionError(
                f"sigma_v has shape {sv.shape}, expected square of size {c.shape[0]}"
            )
        if self.ts <= 0:
            raise DomainError("sampling period must be positive")
        for name, val in (("a", a), ("b", b), ("c", c), ("sigma_w", sw), ("sigma_v", sv)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class GainSet:
    """Feedback gain K (m x n) and observer injection gain L (n x p). The
    radii of A + BK and A + LC are ModeMatrices.spectral_radii[1:3]."""

    k: np.ndarray
    l: np.ndarray


@dataclass(frozen=True)
class TargetSpec:
    """Target equilibrium x_T with feedforward u_T supporting it."""

    x_target: np.ndarray
    u_target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_target", np.asarray(self.x_target, dtype=float).ravel())
        object.__setattr__(self, "u_target", np.asarray(self.u_target, dtype=float).ravel())

    @classmethod
    def origin(cls, n: int, m: int) -> "TargetSpec":
        return cls(np.zeros(n), np.zeros(m))


def check_equilibrium(model: SystemModel, target: TargetSpec) -> None:
    """Raise unless x_T = A x_T + B u_T holds to relative tolerance."""
    x, u = target.x_target, target.u_target
    if x.shape != (model.n,) or u.shape != (model.m,):
        raise DimensionError("target dimensions do not match the model")
    resid = np.linalg.norm(x - model.a @ x - model.b @ u)
    if resid > 1e-8 * (1.0 + np.linalg.norm(x)):
        raise DomainError(f"target is not an equilibrium (residual {resid:.3g})")


@dataclass(frozen=True)
class ModeMatrices:
    """The four switched closed-loop matrices.

    Control side:   omega_bar[eta]   = A + eta * BK
    Observer side:  omega_tilde[eta] = A + (1 - eta) * LC

    so omega_bar[0] = omega_tilde[1] = A exactly. Their spectral radii,
    Frobenius norms and nilpotency flags, each a 4-tuple in that order,
    are taken on first read, once per instance, over the distinct
    matrices only: A, which mode_matrices passes as both omega_bar0 and
    omega_tilde1, counts once.
    """

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    l: np.ndarray
    omega_bar0: np.ndarray
    omega_bar1: np.ndarray
    omega_tilde0: np.ndarray
    omega_tilde1: np.ndarray

    def abar(self, eta: int) -> np.ndarray:
        return self.omega_bar1 if eta else self.omega_bar0

    def atilde(self, eta: int) -> np.ndarray:
        return self.omega_tilde1 if eta else self.omega_tilde0

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def _per_mode(self, measure) -> tuple:
        """measure of the stack of distinct matrices (omega_bar0,
        omega_bar1, omega_tilde0[, omega_tilde1]), as a list, spread over
        the four modes."""
        mats = (self.omega_bar0, self.omega_bar1, self.omega_tilde0)
        if self.omega_tilde1 is self.omega_bar0:
            values = measure(np.stack(mats))
            return (*values, values[0])
        return tuple(measure(np.stack(mats + (self.omega_tilde1,))))

    @cached_property
    def spectral_radii(self) -> tuple:
        """Spectral radii of the four matrices, one batched eigvals call."""
        return self._per_mode(lambda stack: linalg.spectral_radii(stack).tolist())

    @cached_property
    def fro_norms(self) -> tuple:
        """Frobenius norms of the four matrices."""
        return self._per_mode(lambda stack: [float(np.linalg.norm(m, "fro")) for m in stack])

    @cached_property
    def nilpotent(self) -> tuple:
        """Numerical nilpotency of the four matrices, one stacked test."""
        return self._per_mode(lambda stack: linalg.is_nilpotent(stack).tolist())

    @cached_property
    def side_steps(self) -> np.ndarray:
        """The one-step matrices of both sides stacked per step as
        (3, 2, n, n): [eta] is (omega_bar[eta], omega_tilde[eta]), and [2]
        the identity step (I, I) that pads a bit row past its period.
        Read-only, since a one-step product is a view of it."""
        eye = np.eye(self.n)
        steps = np.array(((self.omega_bar0, self.omega_tilde0),
                          (self.omega_bar1, self.omega_tilde1), (eye, eye)))
        steps.flags.writeable = False
        return steps


def mode_matrices(model: SystemModel, gains: GainSet) -> ModeMatrices:
    """Assemble the four mode matrices from the plant and gains, checking
    the gain shapes; nothing is decomposed here (see ModeMatrices)."""
    a, b, c = model.a, model.b, model.c
    k = linalg.as_matrix(gains.k, "K")
    l = linalg.as_matrix(gains.l, "L")
    if k.shape != (model.m, model.n):
        raise DimensionError(f"K has shape {k.shape}, expected {(model.m, model.n)}")
    if l.shape != (model.n, model.p):
        raise DimensionError(f"L has shape {l.shape}, expected {(model.n, model.p)}")
    return ModeMatrices(a=a, b=b, k=k, l=l, omega_bar0=a, omega_bar1=a + b @ k,
                        omega_tilde0=a + l @ c, omega_tilde1=a)


@dataclass(frozen=True)
class CwParams:
    """Clohessy-Wiltshire relative-motion parameters: chaser mass [kg],
    target orbital mean motion [rad/s], sampling period [s]."""

    mass: float
    mean_motion: float
    ts: float

    def __post_init__(self):
        if self.mass <= 0 or self.mean_motion <= 0 or self.ts <= 0:
            raise DomainError("CW parameters must be strictly positive")


def build_cw_continuous(params: CwParams):
    """Continuous-time Clohessy-Wiltshire dynamics in first-order form.

    State ordering is positions then velocities,
    [x1, x2, x3, dx1, dx2, dx3], with

        ddx1 = 3 w^2 x1 + 2 w dx2 + u1 / m
        ddx2 = -2 w dx1 + u2 / m
        ddx3 = -w^2 x3 + u3 / m

    Returns (A_c, B_c) with shapes (6, 6) and (6, 3).
    """
    w = params.mean_motion
    m = params.mass
    a = np.zeros((6, 6))
    a[0, 3] = a[1, 4] = a[2, 5] = 1.0
    a[3, 0] = 3.0 * w**2
    a[3, 4] = 2.0 * w
    a[4, 3] = -2.0 * w
    a[5, 2] = -(w**2)
    b = np.zeros((6, 3))
    b[3:, :] = np.eye(3) / m
    return a, b


def discretize_zoh(a_c, b_c, ts: float):
    """Zero-order-hold discretization via the augmented matrix exponential,

        exp([[Ac, Bc], [0, 0]] * Ts) = [[A, B], [0, I]],

    which is exact for linear dynamics (no Euler truncation).
    """
    a_c = linalg.as_square(a_c, "A_c")
    b_c = linalg.as_matrix(b_c, "B_c")
    if ts <= 0:
        raise DomainError("sampling period must be positive")
    n, m = b_c.shape
    if a_c.shape[0] != n:
        raise DimensionError("A_c and B_c row counts differ")
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a_c
    block[:n, n:] = b_c
    e = linalg.matrix_exponential(block * ts)
    return e[:n, :n], e[:n, n:]


def synthesize_lqr_gain(a, b, q, r) -> np.ndarray:
    """LQR feedback gain K = -(R + B'PB)^-1 B'PA, signed so that A + BK
    is the stable closed loop."""
    a = linalg.as_square(a, "A")
    b = linalg.as_matrix(b, "B")
    p = linalg.solve_dare(a, b, q, r)
    k = -np.linalg.solve(np.asarray(r, dtype=float) + b.T @ p @ b, b.T @ p @ a)
    return k


def synthesize_observer_gain(a, c, q, r) -> np.ndarray:
    """Observer injection gain from the dual Riccati equation,
    L = -A P C' (C P C' + R)^-1, signed so that A + LC is stable."""
    a = linalg.as_square(a, "A")
    c = linalg.as_matrix(c, "C")
    if not c.size or np.any(~c.any(axis=1)):
        raise DomainError("output map C has a zero row (undetectable channel)")
    p = linalg.solve_dare(a.T, c.T, q, r)
    l = -a @ p @ c.T @ np.linalg.inv(c @ p @ c.T + np.asarray(r, dtype=float))
    return l


def synthesize_gains(model: SystemModel, q_ctrl, r_ctrl, q_obs=None, r_obs=None) -> GainSet:
    """Convenience wrapper producing the GainSet of both syntheses."""
    if q_obs is None:
        q_obs = q_ctrl
    if r_obs is None:
        r_obs = r_ctrl
    k = synthesize_lqr_gain(model.a, model.b, q_ctrl, r_ctrl)
    l = synthesize_observer_gain(model.a, model.c, q_obs, r_obs)
    return GainSet(k=k, l=l)
