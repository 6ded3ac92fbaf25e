"""Covariance and mean analysis under a periodic switching schedule.

The estimation-error covariance obeys the N-periodic recursion

    P_{k+1} = Atil_k P_k Atil_k' + R_k,
    R_k     = (1 - eta_k) L Sigma_v L' + Sigma_w,

and the joint z = [x; e] covariance the analogous recursion of the
block-triangular augmented system, whose error block is the first. One
step is the pair (A_k, W_k); _error_steps and _joint_steps build the
pairs of both modes of each system from a ModeMatrices, which carries the
noise covariances, and every periodic computation reads them. Pairs
compose associatively (_compose, which also carries the weighted sums G
and c of the search's cost segments),

    (Phi2, W2) o (Phi1, W1) = (Phi2 Phi1, Phi2 W1 Phi2' + W2),

so one inclusive prefix scan over the stacked steps (Hillis-Steele: each
of ceil(log2 N) levels composes every item with the one d before it, for
d = 1, 2, 4, ...; Blelloch, Prefix sums and their applications, 1990)
gives the transition Phi_k and accumulated noise V_k from phase 0 through
step k, for every k at once. The last prefix is the one-period monodromy
and noise: one discrete Lyapunov solve gives P_0, and every other phase
is P_{k+1} = sym(Phi_k P_0 Phi_k' + V_k), formed in one stacked product
(the periodic Lyapunov method, Bittanti & Colaneri, Periodic Systems,
2009). Every boundedness question goes through the contraction contract
of sequence.is_contractive, the one that admissibility uses.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionError, NumericsError, StabilityError
from .plant import ModeMatrices, TargetSpec
from .sequence import CONTRACTION_MARGIN, _as_bits, admissibility, is_contractive, monodromy

__all__ = [
    "PeriodicCovariance",
    "ContractionCertificate",
    "propagate_error_cov",
    "steady_error_cov",
    "mean_propagate",
    "steady_mean_phases",
    "contraction_certificate",
    "steady_augmented_cov",
]


@dataclass(frozen=True)
class PeriodicCovariance:
    """Steady per-phase covariances P_0 ... P_{N-1} of an N-periodic
    recursion (phase k holds the covariance at steps k, k+N, ...), as one
    (N, n, n) array; a sequence of N matrices is stacked into one."""

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 3:
            raise DimensionError("phases must be an (N, n, n) stack, N the period")
        object.__setattr__(self, "phases", phases)

    @property
    def period(self) -> int:
        return len(self.phases)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.phases[k % self.period]

    def __iter__(self):
        return iter(self.phases)

    def block(self, index: slice) -> "PeriodicCovariance":
        """The diagonal block [index, index] of every phase, as a view."""
        return PeriodicCovariance(phases=self.phases[:, index, index])


@dataclass(frozen=True)
class ContractionCertificate:
    """Per-period contraction data for the error covariance norm sequence.

    gamma is the spectral norm of the noise accumulated over one period
    (the minimal admissible constant) and qtilde_sq the squared monodromy
    spectral radius. The squared monodromy spectral *norm* is kept
    alongside because the per-period inequality is a norm bound, not a
    spectral-radius bound.
    """

    gamma: float
    qtilde_sq: float
    monodromy_norm_sq: float


def _error_steps(mm: ModeMatrices) -> tuple:
    """(Atil, R) of both modes, each stacked on axis 0, with
    R_eta = (1 - eta) L Sigma_v L' + Sigma_w."""
    return (np.stack((mm.omega_tilde0, mm.omega_tilde1)),
            np.stack((linalg.sym_part(mm.l @ mm.sigma_v @ mm.l.T + mm.sigma_w), mm.sigma_w)))


def _joint_steps(mm: ModeMatrices) -> tuple:
    """(Abreve, W) of both modes of the joint z = [x; e] system, each a
    (2, 2n, 2n) stack:

        Abreve = [Abar_eta  -eta BK  ]    W = [Sigma_w  Sigma_w]
                 [0         Atil_eta ]        [Sigma_w  R_eta  ]

    W is Gbreve diag(Sigma_v, Sigma_w) Gbreve' with Gbreve = [0, I;
    (1 - eta) L, I]; the error blocks are the steps of _error_steps."""
    atil, noise = _error_steps(mm)
    n = mm.n
    a = np.zeros((2, 2 * n, 2 * n))
    a[:, :n, :n] = mm.omega_bar0, mm.omega_bar1
    a[1, :n, n:] = -(mm.b @ mm.k)
    a[:, n:, n:] = atil
    w = np.empty_like(a)
    w[:, :n, :n] = w[:, :n, n:] = w[:, n:, :n] = mm.sigma_w
    w[:, n:, n:] = noise
    return a, w


def propagate_error_cov(p0, s, mm: ModeMatrices, steps: int):
    """Trajectory P_0 ... P_steps of the error covariance under the
    periodic extension of the sequence."""
    p = linalg.check_psd(p0, "P0")
    bits = _as_bits(s)
    atil, noise = _error_steps(mm)
    out = [p]
    for k in range(steps):
        eta = bits[k % len(bits)]
        p = linalg.sym_part(atil[eta] @ p @ atil[eta].T + noise[eta])
        out.append(p)
    return out


def _compose(later, earlier) -> tuple:
    """Segment composition, item by item of two stacks of segments: the
    steps of earlier, then those of later. A segment of m steps is
    (Phi, V), its transition and accumulated noise, or (Phi, V, G, c)
    under a weight Q, with

        G = sum_{j<m} Phi_j' Q Phi_j,   c = sum_{j<m} tr(Q V_j),

    Phi_j and V_j those of its first j steps (Phi_0 = I, V_0 = 0). The
    associative law is

        (Phi2, V2, G2, c2) o (Phi1, V1, G1, c1)
            = (Phi2 Phi1, Phi2 V1 Phi2' + V2, G1 + Phi1' G2 Phi1, c1 + c2 + tr(G2 V1)),

    of which (Phi, V) pairs compose the first two components."""
    (phi2, v2, *weighed2), (phi1, v1, *weighed1) = later, earlier
    pair = phi2 @ phi1, phi2 @ v1 @ phi2.transpose(0, 2, 1) + v2
    if not weighed1:
        return pair
    (g2, c2), (g1, c1) = weighed2, weighed1
    return (*pair, g1 + phi1.transpose(0, 2, 1) @ g2 @ phi1,
            c1 + c2 + np.einsum("kij,kji->k", g2, v1))


def _prefix_scan(modes, noise, bits) -> tuple:
    """(Phi, V) with Phi[k] = A_k ... A_0 and V[k] the noise accumulated
    over steps 0 ... k, so P_{k+1} = Phi[k] P_0 Phi[k]' + V[k]; the step
    matrices of each mode are stacked on axis 0. Hillis-Steele inclusive
    scan: level d composes every item from d on with the item d before
    it, for d = 1, 2, 4, ... < N. An overflow is left non-finite without
    a warning, for the caller's checks to refuse."""
    bits = np.asarray(bits)
    phi, acc = modes[bits], noise[bits]
    d = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while d < len(bits):
            phi[d:], acc[d:] = _compose((phi[d:], acc[d:]), (phi[:-d], acc[:-d]))
            d *= 2
    return phi, acc


def _contraction_radius(big_m, side: str) -> float:
    """Spectral radius of a one-period monodromy; raises StabilityError
    unless it meets the admissibility contract, and NumericsError when
    the monodromy is not finite."""
    rho = float(linalg.spectral_radii(big_m))
    if not is_contractive(rho):
        raise StabilityError(f"{side} monodromy spectral radius {rho:.6g} "
                             f"is not below 1 - {CONTRACTION_MARGIN:g}")
    return rho


def _steady_phases(modes, noise, bits, side) -> PeriodicCovariance:
    """Steady phases P_0 ... P_{N-1} from one prefix scan; side names the
    monodromy whose radius is checked, None when the caller has decided
    that it contracts."""
    phi, acc = _prefix_scan(modes, noise, bits)
    if side is not None:
        _contraction_radius(phi[-1], side)
    p0 = linalg._solve_lyapunov(phi[-1], linalg.sym_part(acc[-1]))
    phases = np.empty_like(phi)
    phases[0] = p0
    head = phi[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        phases[1:] = linalg.sym_part(head @ p0 @ head.transpose(0, 2, 1) + acc[:-1])
    if not np.isfinite(phases).all():
        raise NumericsError("steady phase covariance is not finite")
    return PeriodicCovariance(phases=phases)


def steady_error_cov(s, mm: ModeMatrices) -> PeriodicCovariance:
    """Unique N-periodic steady solution of the error-covariance recursion.

    Requires the observer-side monodromy to be contractive; raises
    StabilityError otherwise (no bounded solution exists).
    """
    return _steady_phases(*_error_steps(mm), _as_bits(s), "observer")


def mean_propagate(mm: ModeMatrices, mu_x0, mu_e0, s, target: TargetSpec, steps: int):
    """Propagate the state and error means,

        mu_x+ = Abar_k mu_x - eta_k B K mu_e + eta_k B (u_T - K x_T),
        mu_e+ = Atil_k mu_e,

    returning arrays of shape (steps + 1, n). The BK cross term uses the
    full gain product (required dimensionally whenever m != n), and the
    actuation feedforward accounts for the feedback's target offset.
    """
    bits = _as_bits(s)
    mu_x = np.asarray(mu_x0, dtype=float).ravel().copy()
    mu_e = np.asarray(mu_e0, dtype=float).ravel().copy()
    n = mm.n
    if mu_x.shape != (n,) or mu_e.shape != (n,):
        raise DimensionError("mean vectors must match the state dimension")
    bk = mm.b @ mm.k
    feed = mm.b @ (target.u_target - mm.k @ target.x_target)
    xs = np.empty((steps + 1, n))
    es = np.empty((steps + 1, n))
    xs[0], es[0] = mu_x, mu_e
    for k in range(steps):
        eta = bits[k % len(bits)]
        mu_x = mm.abar(eta) @ mu_x - eta * (bk @ mu_e) + eta * feed
        mu_e = mm.atilde(eta) @ mu_e
        xs[k + 1], es[k + 1] = mu_x, mu_e
    return xs, es


def steady_mean_phases(mm: ModeMatrices, s, target: TargetSpec) -> np.ndarray:
    """N-periodic steady state-mean phases (with mu_e = 0): the unique
    periodic solution of the affine recursion mu+ = Abar_k mu + d_k:
    mu_0 = (I - M)^-1 drift, M the monodromy and drift one period of
    mean_propagate from zero. Zero when the target is the origin."""
    bits = _as_bits(s)
    big_m, _ = monodromy(bits, mm)
    _contraction_radius(big_m, "control")
    zero = np.zeros(mm.n)
    drift = mean_propagate(mm, zero, zero, bits, target, len(bits))[0][-1]
    mu0 = np.linalg.solve(np.eye(mm.n) - big_m, drift)
    return mean_propagate(mm, mu0, zero, bits, target, len(bits) - 1)[0]


def contraction_certificate(s, mm: ModeMatrices) -> ContractionCertificate:
    """Certificate for the geometric decay of ||P_{Nn}||: gamma is the
    (spectral-norm) size of one period's accumulated noise, so that

        ||P_{N(k+1)}|| <= monodromy_norm_sq ||P_{Nk}|| + gamma.
    """
    phi, acc = _prefix_scan(*_error_steps(mm), _as_bits(s))
    big_m, big_w = phi[-1], linalg.sym_part(acc[-1])
    qtilde = _contraction_radius(big_m, "observer")
    return ContractionCertificate(
        gamma=float(np.linalg.norm(big_w, 2)),
        qtilde_sq=qtilde**2,
        monodromy_norm_sq=float(np.linalg.norm(big_m, 2)) ** 2,
    )


def steady_augmented_cov(s, mm: ModeMatrices):
    """Steady per-phase covariances of the joint (state, error) system.

    Returns (joint, state) where joint holds the 2n x 2n phase
    covariances and state their upper-left n x n state blocks. Requires
    full admissibility; the augmented monodromy is block-triangular and
    inherits its spectrum from the two diagonal blocks, so the
    admissibility verdict on both decides it.
    """
    bits = _as_bits(s)
    report = admissibility(bits, mm)
    if not report.admissible:
        raise StabilityError(
            "sequence is not admissible "
            f"(qbar={report.qbar:.6g}, qtilde={report.qtilde:.6g})"
        )
    joint = _steady_phases(*_joint_steps(mm), bits, None)
    return joint, joint.block(slice(None, mm.n))
