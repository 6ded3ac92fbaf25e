"""Covariance and mean analysis under a periodic switching schedule.

The estimation-error covariance obeys the N-periodic recursion

    P_{k+1} = Atil_k P_k Atil_k' + R_k,
    R_k     = (1 - eta_k) L Sigma_v L' + Sigma_w,

and the joint z = [x; e] covariance the analogous recursion of the
block-triangular augmented system, whose error block is the first. One
step is the pair (A_k, W_k); _error_steps and _joint_steps build the
pairs of both modes of each system, and every periodic computation reads
them. Pairs compose associatively (_compose, which also carries the
weighted sums G and c of the search's cost segments),

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
from .plant import GainSet, ModeMatrices, SystemModel, TargetSpec, mode_matrices
from .sequence import CONTRACTION_MARGIN, _as_bits, admissibility, is_contractive

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
    period: int

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 3 or len(phases) != self.period:
            raise DimensionError("phases must be an (N, n, n) stack, N the period")
        object.__setattr__(self, "phases", phases)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.phases[k % self.period]

    def __iter__(self):
        return iter(self.phases)

    def block(self, index: slice) -> "PeriodicCovariance":
        """The diagonal block [index, index] of every phase, as a view."""
        return PeriodicCovariance(phases=self.phases[:, index, index], period=self.period)


@dataclass(frozen=True)
class ContractionCertificate:
    """Per-period contraction data for the error covariance norm sequence.

    gamma is the spectral norm of the noise accumulated over one period
    (the minimal admissible constant), qtilde_sq the squared monodromy
    spectral radius, and limsup_bound = gamma / (1 - qtilde_sq). The
    squared monodromy spectral *norm* is kept alongside because the
    per-step inequality is a norm bound, not a spectral-radius bound.
    """

    gamma: float
    qtilde_sq: float
    limsup_bound: float
    monodromy_norm_sq: float


def _check_noise(l, sigma_v, sigma_w) -> tuple:
    """(L, sigma_v, sigma_w) of a public entry point's caller, validated."""
    l = linalg.as_matrix(l, "L")
    sigma_v = linalg.check_psd(sigma_v, "sigma_v")
    sigma_w = linalg.check_psd(sigma_w, "sigma_w")
    if l.shape[1] != sigma_v.shape[0]:
        raise DimensionError("L and sigma_v dimensions are inconsistent")
    if sigma_w.shape[0] != l.shape[0]:
        raise DimensionError("L and sigma_w dimensions are inconsistent")
    return l, sigma_v, sigma_w


def _noise_terms(l, sigma_v, sigma_w) -> tuple:
    """The one-step error-covariance noise of both modes, (R_0, R_1), of
    valid arrays: a SystemModel's noise covariances with the L of its
    ModeMatrices, or what _check_noise returned. Nothing is checked."""
    return linalg.sym_part(l @ sigma_v @ l.T + sigma_w), sigma_w


def _error_steps(mm: ModeMatrices, sigma_v, sigma_w) -> tuple:
    """(Atil, R) of both modes, each stacked on axis 0, of valid noise
    covariances."""
    return (np.stack((mm.omega_tilde0, mm.omega_tilde1)),
            np.stack(_noise_terms(mm.l, sigma_v, sigma_w)))


def _joint_steps(mm: ModeMatrices, sigma_v, sigma_w) -> tuple:
    """(Abreve, W) of both modes of the joint z = [x; e] system, each a
    (2, 2n, 2n) stack, of valid noise covariances:

        Abreve = [Abar_eta  -eta BK  ]    W = [Sigma_w  Sigma_w]
                 [0         Atil_eta ]        [Sigma_w  R_eta  ]

    W is Gbreve diag(Sigma_v, Sigma_w) Gbreve' with Gbreve = [0, I;
    (1 - eta) L, I]; the error blocks are the steps of _error_steps."""
    atil, noise = _error_steps(mm, sigma_v, sigma_w)
    n = mm.n
    a = np.zeros((2, 2 * n, 2 * n))
    a[:, :n, :n] = mm.omega_bar0, mm.omega_bar1
    a[1, :n, n:] = -(mm.b @ mm.k)
    a[:, n:, n:] = atil
    w = np.empty_like(a)
    w[:, :n, :n] = w[:, :n, n:] = w[:, n:, :n] = sigma_w
    w[:, n:, n:] = noise
    return a, w


def propagate_error_cov(p0, s, mm: ModeMatrices, sigma_v, sigma_w, steps: int):
    """Trajectory P_0 ... P_steps of the error covariance under the
    periodic extension of the sequence."""
    p = linalg.check_psd(p0, "P0")
    _, sigma_v, sigma_w = _check_noise(mm.l, sigma_v, sigma_w)
    bits = _as_bits(s)
    noise = _noise_terms(mm.l, sigma_v, sigma_w)
    out = [p]
    for k in range(steps):
        eta = bits[k % len(bits)]
        a = mm.atilde(eta)
        p = linalg.sym_part(a @ p @ a.T + noise[eta])
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
    return PeriodicCovariance(phases=phases, period=len(phases))


def steady_error_cov(s, mm: ModeMatrices, sigma_v, sigma_w) -> PeriodicCovariance:
    """Unique N-periodic steady solution of the error-covariance recursion.

    Requires the observer-side monodromy to be contractive; raises
    StabilityError otherwise (no bounded solution exists).
    """
    return _steady_error_cov(s, mm, *_check_noise(mm.l, sigma_v, sigma_w)[1:])


def _steady_error_cov(s, mm: ModeMatrices, sigma_v, sigma_w) -> PeriodicCovariance:
    """steady_error_cov of noise covariances valid already, such as a
    SystemModel's own with the caller's ModeMatrices of that model."""
    return _steady_phases(*_error_steps(mm, sigma_v, sigma_w), _as_bits(s), "observer")


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
    periodic solution of the affine recursion mu+ = Abar_k mu + d_k.
    Zero whenever the target is the origin with no feedforward."""
    bits = _as_bits(s)
    n = mm.n
    feed = mm.b @ (target.u_target - mm.k @ target.x_target)
    big_m = np.eye(n)
    drift = np.zeros(n)
    for eta in bits:
        a = mm.abar(eta)
        drift = a @ drift + feed * eta
        big_m = a @ big_m
    _contraction_radius(big_m, "control")
    mu0 = np.linalg.solve(np.eye(n) - big_m, drift)
    phases = np.empty((len(bits), n))
    mu = mu0
    for k, eta in enumerate(bits):
        phases[k] = mu
        mu = mm.abar(eta) @ mu + feed * eta
    return phases


def contraction_certificate(s, mm: ModeMatrices, sigma_v, sigma_w) -> ContractionCertificate:
    """Certificate for the geometric decay of ||P_{Nn}||: gamma is the
    (spectral-norm) size of one period's accumulated noise, and

        limsup ||P_{Nk}|| <= gamma / (1 - qtilde^2).
    """
    _, sigma_v, sigma_w = _check_noise(mm.l, sigma_v, sigma_w)
    phi, acc = _prefix_scan(*_error_steps(mm, sigma_v, sigma_w), _as_bits(s))
    big_m, big_w = phi[-1], linalg.sym_part(acc[-1])
    qtilde = _contraction_radius(big_m, "observer")
    gamma = linalg.spectral_norm(big_w)
    q2 = qtilde**2
    return ContractionCertificate(
        gamma=gamma,
        qtilde_sq=q2,
        limsup_bound=gamma / (1.0 - q2),
        monodromy_norm_sq=linalg.spectral_norm(big_m) ** 2,
    )


def steady_augmented_cov(s, model: SystemModel, gains: GainSet):
    """Steady per-phase covariances of the joint (state, error) system.

    Returns (joint, state) where joint holds the 2n x 2n phase
    covariances and state their upper-left n x n state blocks. Requires
    full admissibility; the augmented monodromy is block-triangular and
    inherits its spectrum from the two diagonal blocks, so the
    admissibility verdict on both decides it.
    """
    return _steady_augmented_cov(s, mode_matrices(model, gains), model.sigma_v, model.sigma_w)


def _steady_augmented_cov(s, mm: ModeMatrices, sigma_v, sigma_w):
    """steady_augmented_cov of the caller's ModeMatrices and noise
    covariances valid already, as _steady_error_cov takes them."""
    bits = _as_bits(s)
    report = admissibility(bits, mm)
    if not report.admissible:
        raise StabilityError(
            "sequence is not admissible "
            f"(qbar={report.qbar:.6g}, qtilde={report.qtilde:.6g})"
        )
    joint = _steady_phases(*_joint_steps(mm, sigma_v, sigma_w), bits, None)
    return joint, joint.block(slice(None, mm.n))
