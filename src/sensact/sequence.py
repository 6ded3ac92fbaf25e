"""Binary switching sequences: reducibility, dwell-time screening and the
exact spectral-radius admissibility test.

A sequence is a finite word over {0, 1} read left to right and repeated
periodically; bit k selects the mode at step k (1 = actuate, 0 = sense).
Admissibility asks that both one-period matrix products contract:

    rho(Abar_{N-1} ... Abar_0) < 1   and   rho(Atil_{N-1} ... Atil_0) < 1.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DomainError, NilpotencyError
from .plant import ModeMatrices

__all__ = [
    "SwitchSequence",
    "DwellSummary",
    "AdmissibilityReport",
    "DwellFeasibility",
    "proper_divisors",
    "irreducible_core",
    "dwell_counts",
    "growth_constant",
    "uniform_growth_constant",
    "dwell_feasible",
    "admissibility",
    "is_contractive",
    "monodromy",
]

# sequences whose monodromy spectral radius is within this margin of 1 are
# treated as non-contractive; keeps verdicts platform-stable when the true
# radius sits exactly on the unit circle (e.g. ZOH orbital dynamics)
CONTRACTION_MARGIN = 1e-9


@dataclass(frozen=True)
class SwitchSequence:
    """An N-periodic binary schedule; bit k is the mode at step k."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise DomainError("switching sequence must be nonempty")
        if any(b not in (0, 1) for b in bits):
            raise DomainError("switching sequence bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "SwitchSequence":
        text = text.strip()
        if not text or any(ch not in "01" for ch in text):
            raise DomainError(f"invalid sequence string {text!r} (use e.g. '0011')")
        return cls(tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, k: int) -> int:
        return self.bits[k % len(self.bits)]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _as_bits(s) -> tuple:
    if isinstance(s, SwitchSequence):
        return s.bits
    if isinstance(s, str):
        return SwitchSequence.from_string(s).bits
    return SwitchSequence(tuple(s)).bits


@dataclass(frozen=True)
class DwellSummary:
    """Mode occupancy of one written period: n0 sensing steps, n1 actuation
    steps, ns maximal constant blocks (switch count + 1, no wrap-around)."""

    n0: int
    n1: int
    ns: int

    @property
    def period(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True)
class AdmissibilityReport:
    qbar: float
    qtilde: float
    admissible: bool
    nilpotency_flags: tuple = (False, False, False, False)


@dataclass(frozen=True)
class DwellFeasibility:
    """Left-hand sides of the two logarithmic dwell-time conditions; the
    screen passes when both are negative. lhs_obs uses the sensing count
    n0 on the corrected observer matrix; the literal typeset variant (n1
    on it) is kept for reporting."""

    lhs_ctrl: float
    lhs_obs: float
    passes: bool
    lhs_obs_typeset: float = float("nan")


def proper_divisors(n: int) -> set:
    """All d with d | n and d < n (empty for n = 1)."""
    if n < 1:
        raise DomainError("length must be a positive integer")
    return {d for d in range(1, n) if n % d == 0}


def irreducible_core(s) -> SwitchSequence:
    """Shortest prefix whose periodic repetition reproduces the sequence.

    Checks each proper divisor d in increasing order for s[i] == s[i + d];
    the first match is the minimal period. Returns the sequence itself
    when it is already irreducible.
    """
    bits = _as_bits(s)
    n = len(bits)
    for d in sorted(proper_divisors(n)):
        if all(bits[i] == bits[i % d] for i in range(n)):
            return SwitchSequence(bits[:d])
    return SwitchSequence(bits)


def dwell_counts(s) -> DwellSummary:
    bits = _as_bits(s)
    n1 = sum(bits)
    ns = 1 + sum(1 for i in range(1, len(bits)) if bits[i] != bits[i - 1])
    return DwellSummary(n0=len(bits) - n1, n1=n1, ns=ns)


_FAMILIES = {
    "control": lambda mm: (mm.omega_bar0, mm.omega_bar1),
    "observer": lambda mm: (mm.omega_tilde0, mm.omega_tilde1),
    "all": lambda mm: (mm.omega_bar0, mm.omega_bar1, mm.omega_tilde0, mm.omega_tilde1),
}


def growth_constant(mm: ModeMatrices, kstar: int = 1, family: str = "control",
                    search_kstar: bool = False, max_kstar: int = 20) -> float:
    """Norm-to-spectral-radius growth constant

        c = max_i ||Omega_i^kstar||_F^(1/kstar) / rho(Omega_i)

    over the selected matrix family. The default (kstar=1, control pair)
    matches the case-study computation; search_kstar instead scans
    kstar <= max_kstar and keeps the minimizing c.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {sorted(_FAMILIES)}")
    if kstar < 1:
        raise DomainError("kstar must be a positive integer")
    mats = _FAMILIES[family](mm)
    radii = [linalg.spectral_radius(m) for m in mats]
    if min(radii) < 1e-12:
        raise DomainError("growth constant undefined: a mode matrix has zero spectral radius")

    def c_for(k: int) -> float:
        return max(
            linalg.frobenius_norm(np.linalg.matrix_power(m, k)) ** (1.0 / k) / r
            for m, r in zip(mats, radii)
        )

    if search_kstar:
        return min(c_for(k) for k in range(1, max_kstar + 1))
    return c_for(kstar)


def uniform_growth_constant(mats, max_power: int) -> float:
    """Rigorous per-block constant: the smallest c with
    ||Omega^m|| <= c * rho(Omega)^m for every family member and every
    block length m up to max_power. With this c, a passing dwell screen
    is a genuine admissibility certificate for periods <= max_power."""
    c = 1.0
    for m in mats:
        m = linalg.as_square(m)
        r = linalg.spectral_radius(m)
        if r < 1e-12:
            raise DomainError("uniform growth constant undefined for nilpotent matrix")
        power = np.eye(m.shape[0])
        for j in range(1, max_power + 1):
            power = power @ m
            c = max(c, linalg.frobenius_norm(power) / r**j)
    return c


def dwell_feasible(s, rates, c: float) -> DwellFeasibility:
    """Evaluate the two logarithmic dwell-time screens for a sequence.

    rates is (rho_bar0, rho_bar1, rho_tilde0, rho_tilde1). The control
    side charges n0 steps at rho_bar0 and n1 at rho_bar1; the observer
    side charges the n0 sensing steps at rho_tilde0 (the corrected
    matrix) and the n1 actuation steps at rho_tilde1.
    """
    rb0, rb1, rt0, rt1 = (float(r) for r in rates)
    if min(rb0, rb1, rt0, rt1) <= 0.0:
        raise DomainError("dwell screen requires strictly positive spectral radii")
    if c <= 0.0:
        raise DomainError("growth constant must be positive")
    d = dwell_counts(s)
    lc = d.ns * np.log(c)
    lhs_ctrl = float(lc + d.n0 * np.log(rb0) + d.n1 * np.log(rb1))
    lhs_obs = float(lc + d.n0 * np.log(rt0) + d.n1 * np.log(rt1))
    lhs_obs_typeset = float(lc + d.n1 * np.log(rt0) + d.n0 * np.log(rt1))
    return DwellFeasibility(
        lhs_ctrl=lhs_ctrl,
        lhs_obs=lhs_obs,
        passes=bool(lhs_ctrl < 0.0 and lhs_obs < 0.0),
        lhs_obs_typeset=lhs_obs_typeset,
    )


def monodromy(s, mm: ModeMatrices):
    """Ordered one-period products (control, observer); index 0 applied first."""
    bits = _as_bits(s)
    n = mm.n
    prod_bar = np.eye(n)
    prod_til = np.eye(n)
    for eta in bits:
        prod_bar = mm.abar(eta) @ prod_bar
        prod_til = mm.atilde(eta) @ prod_til
    return prod_bar, prod_til


def is_contractive(rho: float) -> bool:
    """The one stability contract: a one-period product with spectral
    radius rho contracts when rho < 1 - CONTRACTION_MARGIN."""
    return bool(rho < 1.0 - CONTRACTION_MARGIN)


def admissibility(s, mm: ModeMatrices) -> AdmissibilityReport:
    """Exact admissibility verdict from the two monodromy spectral radii.

    Raises NilpotencyError when a mode matrix actually used by the
    sequence is numerically nilpotent (the contraction argument needs
    eigenvalues that approach zero rather than jump there).
    """
    bits = _as_bits(s)
    used = set(bits)
    flags = []
    for eta, mat in ((0, mm.omega_bar0), (1, mm.omega_bar1),
                     (0, mm.omega_tilde0), (1, mm.omega_tilde1)):
        flagged = eta in used and linalg.is_nilpotent(mat)
        flags.append(flagged)
    if any(flags):
        raise NilpotencyError("a mode matrix used by this sequence is nilpotent")
    prod_bar, prod_til = monodromy(bits, mm)
    qbar = linalg.spectral_radius(prod_bar)
    qtilde = linalg.spectral_radius(prod_til)
    return AdmissibilityReport(
        qbar=qbar,
        qtilde=qtilde,
        admissible=is_contractive(qbar) and is_contractive(qtilde),
        nilpotency_flags=tuple(flags),
    )
