"""Covariance and mean analysis under a periodic switching schedule.

The estimation-error covariance obeys the N-periodic recursion

    P_{k+1} = Atil_k P_k Atil_k' + R_k,
    R_k     = (1 - eta_k) L Sigma_v L' + Sigma_w,

and the joint (state, error) covariance the analogous recursion of the
block-triangular augmented system. The steady periodic solution takes one
discrete Lyapunov solve per period: P_0 against the one-period monodromy
from phase 0, then the recursion itself for P_1 ... P_{N-1} (the standard
periodic Lyapunov method, Bittanti & Colaneri, Periodic Systems, 2009).
Every boundedness question goes through the contraction contract of
sequence.is_contractive, the one that admissibility uses.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError, StabilityError
from .plant import GainSet, ModeMatrices, SystemModel, TargetSpec, mode_matrices
from .sequence import CONTRACTION_MARGIN, _as_bits, admissibility, is_contractive

__all__ = [
    "PeriodicCovariance",
    "AugmentedModel",
    "ContractionCertificate",
    "error_noise_term",
    "propagate_error_cov",
    "steady_error_cov",
    "mean_propagate",
    "steady_mean_phases",
    "contraction_certificate",
    "augmented_matrices",
    "build_augmented",
    "steady_augmented_cov",
]


@dataclass(frozen=True)
class PeriodicCovariance:
    """Steady per-phase covariances P_0 ... P_{N-1} of an N-periodic
    recursion (phase k holds the covariance at steps k, k+N, ...)."""

    phases: tuple
    period: int

    def __post_init__(self):
        if len(self.phases) != self.period:
            raise DimensionError("phase count must equal the period")

    def __getitem__(self, k: int) -> np.ndarray:
        return self.phases[k % self.period]

    def __iter__(self):
        return iter(self.phases)


@dataclass(frozen=True)
class AugmentedModel:
    """Per-mode matrices of the joint z = [x; e] system,
    z+ = Abreve z + Gbreve [v; w] + Gu uT."""

    a_modes: tuple      # Abreve for eta = 0, 1; each 2n x 2n
    gamma_modes: tuple  # Gbreve for eta = 0, 1; each 2n x (p + n)
    g_modes: tuple      # Gu for eta = 0, 1; each 2n x m
    noise_cov: np.ndarray  # diag(Sigma_v, Sigma_w), (p + n) square

    def entry(self, eta: int):
        return self.a_modes[eta], self.gamma_modes[eta], self.g_modes[eta]

    def step_noise(self, eta: int) -> np.ndarray:
        g = self.gamma_modes[eta]
        return linalg.sym_part(g @ self.noise_cov @ g.T)


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


def _noise_terms(l, sigma_v, sigma_w) -> tuple:
    """The one-step error-covariance noise of both modes, (R_0, R_1),
    validating L and the two noise covariances once."""
    l = linalg.as_matrix(l, "L")
    sigma_v = linalg.check_psd(sigma_v, "sigma_v")
    sigma_w = linalg.check_psd(sigma_w, "sigma_w")
    if l.shape[1] != sigma_v.shape[0]:
        raise DimensionError("L and sigma_v dimensions are inconsistent")
    if sigma_w.shape[0] != l.shape[0]:
        raise DimensionError("L and sigma_w dimensions are inconsistent")
    return linalg.sym_part(l @ sigma_v @ l.T + sigma_w), sigma_w


def error_noise_term(eta: int, l, sigma_v, sigma_w) -> np.ndarray:
    """One-step error-covariance noise R = (1 - eta) L Sigma_v L' + Sigma_w."""
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    return _noise_terms(l, sigma_v, sigma_w)[eta]


def _error_noise_seq(mm: ModeMatrices, sigma_v, sigma_w, bits):
    noise = _noise_terms(mm.l, sigma_v, sigma_w)
    return [noise[eta] for eta in bits]


def propagate_error_cov(p0, s, mm: ModeMatrices, sigma_v, sigma_w, steps: int):
    """Trajectory P_0 ... P_steps of the error covariance under the
    periodic extension of the sequence."""
    p = linalg.check_psd(p0, "P0")
    bits = _as_bits(s)
    noise = _error_noise_seq(mm, sigma_v, sigma_w, bits)
    out = [p]
    for k in range(steps):
        j = k % len(bits)
        a = mm.atilde(bits[j])
        p = linalg.sym_part(a @ p @ a.T + noise[j])
        out.append(p)
    return out


def _phase_monodromy(a_seq, w_seq):
    """One-period transition M and accumulated noise W from phase 0:
    P_N = M P_0 M' + W."""
    n = a_seq[0].shape[0]
    big_m = np.eye(n)
    big_w = np.zeros((n, n))
    for a, w in zip(a_seq, w_seq):
        big_m = a @ big_m
        big_w = a @ big_w @ a.T + w
    return big_m, linalg.sym_part(big_w)


def _contraction_radius(big_m, side: str) -> float:
    """Spectral radius of a one-period monodromy; raises StabilityError
    unless it meets the admissibility contract."""
    rho = linalg.spectral_radius(big_m)
    if not is_contractive(rho):
        raise StabilityError(f"{side} monodromy spectral radius {rho:.6g} "
                             f"is not below 1 - {CONTRACTION_MARGIN:g}")
    return rho


def _steady_phases(a_seq, w_seq, side: str) -> PeriodicCovariance:
    big_m, big_w = _phase_monodromy(a_seq, w_seq)
    _contraction_radius(big_m, side)
    p = linalg.solve_discrete_lyapunov(big_m, big_w)
    phases = [p]
    for a, w in zip(a_seq[:-1], w_seq[:-1]):
        p = linalg.sym_part(a @ p @ a.T + w)
        phases.append(p)
    return PeriodicCovariance(phases=tuple(phases), period=len(a_seq))


def steady_error_cov(s, mm: ModeMatrices, sigma_v, sigma_w) -> PeriodicCovariance:
    """Unique N-periodic steady solution of the error-covariance recursion.

    Requires the observer-side monodromy to be contractive; raises
    StabilityError otherwise (no bounded solution exists).
    """
    bits = _as_bits(s)
    a_seq = [mm.atilde(eta) for eta in bits]
    return _steady_phases(a_seq, _error_noise_seq(mm, sigma_v, sigma_w, bits), "observer")


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
    bits = _as_bits(s)
    a_seq = [mm.atilde(eta) for eta in bits]
    big_m, big_w = _phase_monodromy(a_seq, _error_noise_seq(mm, sigma_v, sigma_w, bits))
    qtilde = _contraction_radius(big_m, "observer")
    gamma = linalg.spectral_norm(big_w)
    q2 = qtilde**2
    return ContractionCertificate(
        gamma=gamma,
        qtilde_sq=q2,
        limsup_bound=gamma / (1.0 - q2),
        monodromy_norm_sq=linalg.spectral_norm(big_m) ** 2,
    )


def augmented_matrices(model: SystemModel, gains: GainSet, eta: int):
    """Blocks of the joint z = [x; e] step for one mode:

        Abreve = [A + eta BK,  -eta BK ]    Gbreve = [0,            I]
                 [0,           Atil_eta]             [(1 - eta) L,  I]

        Gu = [eta B; 0]   (feedforward enters the state block only).
    """
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    n, m, p = model.n, model.m, model.p
    bk = model.b @ gains.k
    abar = model.a + eta * bk
    atil = model.a + (1 - eta) * gains.l @ model.c
    a_breve = np.zeros((2 * n, 2 * n))
    a_breve[:n, :n] = abar
    a_breve[:n, n:] = -eta * bk
    a_breve[n:, n:] = atil
    gamma = np.zeros((2 * n, p + n))
    gamma[:n, p:] = np.eye(n)
    gamma[n:, :p] = (1 - eta) * gains.l
    gamma[n:, p:] = np.eye(n)
    g_u = np.zeros((2 * n, m))
    g_u[:n, :] = eta * model.b
    return a_breve, gamma, g_u


def build_augmented(model: SystemModel, gains: GainSet) -> AugmentedModel:
    mode0 = augmented_matrices(model, gains, 0)
    mode1 = augmented_matrices(model, gains, 1)
    p, n = model.p, model.n
    noise = np.zeros((p + n, p + n))
    noise[:p, :p] = model.sigma_v
    noise[p:, p:] = model.sigma_w
    return AugmentedModel(
        a_modes=(mode0[0], mode1[0]),
        gamma_modes=(mode0[1], mode1[1]),
        g_modes=(mode0[2], mode1[2]),
        noise_cov=noise,
    )


def steady_augmented_cov(s, model: SystemModel, gains: GainSet):
    """Steady per-phase covariances of the joint (state, error) system.

    Returns (joint, state) where joint holds the 2n x 2n phase
    covariances and state their upper-left n x n state blocks. Requires
    full admissibility; the augmented monodromy inherits its spectrum
    from the two diagonal blocks, so both must contract.
    """
    return _steady_augmented_cov(s, model, gains, mode_matrices(model, gains))


def _steady_augmented_cov(s, model: SystemModel, gains: GainSet, mm: ModeMatrices):
    """steady_augmented_cov on the caller's ModeMatrices of (model, gains),
    so a command that already built them builds them once."""
    bits = _as_bits(s)
    report = admissibility(bits, mm)
    if not report.admissible:
        raise StabilityError(
            "sequence is not admissible "
            f"(qbar={report.qbar:.6g}, qtilde={report.qtilde:.6g})"
        )
    aug = build_augmented(model, gains)
    noise = [aug.step_noise(eta) for eta in (0, 1)]
    a_seq = [aug.a_modes[eta] for eta in bits]
    joint = _steady_phases(a_seq, [noise[eta] for eta in bits], "joint")
    n = model.n
    state = PeriodicCovariance(
        phases=tuple(p[:n, :n].copy() for p in joint), period=joint.period
    )
    return joint, state
