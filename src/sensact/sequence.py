"""Binary switching sequences: reducibility, dwell-time screening and the
exact spectral-radius admissibility test.

A sequence is a finite word over {0, 1} read left to right and repeated
periodically; bit k selects the mode at step k (1 = actuate, 0 = sense).
Admissibility asks that both one-period matrix products contract:

    rho(Abar_{N-1} ... Abar_0) < 1   and   rho(Atil_{N-1} ... Atil_0) < 1.
"""

import itertools
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
    "contractive_stacked",
    "is_contractive",
    "monodromy",
]

# sequences whose monodromy spectral radius is within this margin of 1 are
# treated as non-contractive; keeps verdicts platform-stable when the true
# radius sits exactly on the unit circle (e.g. ZOH orbital dynamics)
CONTRACTION_MARGIN = 1e-9

#: squarings behind contractive_stacked's radius bounds, which decide a side
#: only when they clear the threshold by a slack far above their rounding
_SQUARINGS = 4
_CERTIFICATE_SLACK = 1e-6


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


#: indices of each family into (omega_bar0, omega_bar1, omega_tilde0,
#: omega_tilde1), the order of ModeMatrices.spectral_radii and fro_norms
_FAMILIES = {"control": (0, 1), "observer": (2, 3), "all": (0, 1, 2, 3)}


def growth_constant(mm: ModeMatrices, kstar: int = 1, family: str = "control",
                    search_kstar: bool = False, max_kstar: int = 20) -> float:
    """Norm-to-spectral-radius growth constant

        c = max_i ||Omega_i^kstar||_F^(1/kstar) / rho(Omega_i)

    over the selected matrix family. The default (kstar=1, control pair)
    matches the case-study computation; search_kstar instead scans
    kstar <= max_kstar and keeps the minimizing c. The radii, and at
    kstar=1 the norms, are those of ModeMatrices, taken once per instance.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {sorted(_FAMILIES)}")
    if kstar < 1:
        raise DomainError("kstar must be a positive integer")
    index = _FAMILIES[family]
    modes = (mm.omega_bar0, mm.omega_bar1, mm.omega_tilde0, mm.omega_tilde1)
    radii = [mm.spectral_radii[i] for i in index]
    if min(radii) < 1e-12:
        raise DomainError("growth constant undefined: a mode matrix has zero spectral radius")

    def c_for(k: int) -> float:
        if k == 1:
            return max(mm.fro_norms[i] / r for i, r in zip(index, radii))
        return max(
            linalg.frobenius_norm(np.linalg.matrix_power(modes[i], k)) ** (1.0 / k) / r
            for i, r in zip(index, radii)
        )

    if search_kstar:
        return min(c_for(k) for k in range(1, max_kstar + 1))
    return c_for(kstar)


def uniform_growth_constant(mats, max_power: int) -> float:
    """Rigorous per-block constant: the smallest c with
    ||Omega^m|| <= c * rho(Omega)^m for every family member and every
    block length m up to max_power. With this c, a passing dwell screen
    is a genuine admissibility certificate for periods <= max_power.
    The ratios are compared in logs, and the running power is divided by
    its norm each step, as in _radius_bounds, so neither it nor r^m
    underflows or overflows."""
    log_c = 0.0
    for m in mats:
        m = linalg.as_square(m)
        r = linalg.spectral_radius(m)
        if r < 1e-12:
            raise DomainError("uniform growth constant undefined for nilpotent matrix")
        power, log_norm = np.eye(m.shape[0]), 0.0
        for j in range(1, max_power + 1):
            power = power @ m
            norm = linalg.frobenius_norm(power)
            power /= norm
            log_norm += np.log(norm)
            log_c = max(log_c, log_norm - j * np.log(r))
    return float(np.exp(log_c))


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


#: the step that pads a bit row past its period: the identity on both sides
#: (ModeMatrices.side_steps[_PAD])
_PAD = 2


def monodromy(s, mm: ModeMatrices):
    """Ordered one-period products (control, observer); index 0 applied first."""
    bits = _as_bits(s)
    prod_bar, prod_til = _stacked_products(mm.side_steps, np.array([bits]))[0]
    return prod_bar, prod_til


def is_contractive(rho):
    """The one stability contract: a one-period product with spectral
    radius rho (or each of an array) contracts when rho < 1 - CONTRACTION_MARGIN."""
    verdict = np.less(rho, 1.0 - CONTRACTION_MARGIN)
    return verdict if verdict.ndim else bool(verdict)


def _refuse_nilpotent(used, mm: ModeMatrices):
    """Raise NilpotencyError if any of (omega_bar0, omega_bar1,
    omega_tilde0, omega_tilde1) is nilpotent and used, given whether modes
    0 and 1 are used (the contraction argument needs eigenvalues that
    approach zero rather than jump there)."""
    if any(u and nil for u, nil in zip(tuple(used) * 2, mm.nilpotent)):
        raise NilpotencyError("a mode matrix used by this sequence is nilpotent")


def admissibility(s, mm: ModeMatrices) -> AdmissibilityReport:
    """Exact admissibility verdict from the two monodromy spectral radii.

    Both monodromies are built together by _stacked_products on one row,
    one (2, n, n) product per step, and their radii come from one
    batched eigvals call. The product order is that of each side
    multiplied out on its own, so the radii are bit for bit those of
    spectral_radius on the two separate products, as contractive_stacked's
    verdicts are.
    Raises NilpotencyError when a mode matrix actually used by the
    sequence is numerically nilpotent.
    """
    bits = _as_bits(s)
    _refuse_nilpotent((0 in bits, 1 in bits), mm)
    prods = _stacked_products(mm.side_steps, np.array([bits]))[0]
    qbar, qtilde = linalg.spectral_radii(prods).tolist()
    return AdmissibilityReport(
        qbar=qbar,
        qtilde=qtilde,
        admissible=is_contractive(qbar) and is_contractive(qtilde),
    )


def _padded(rows) -> tuple:
    """(periods, bits) of bit rows of any lengths, in input order: their
    lengths, and the (K, p_max) array of the rows, each padded past its
    period with the identity step _PAD."""
    periods = np.fromiter(map(len, rows), np.intp, len(rows))
    bits = np.full((len(rows), periods.max()), _PAD, dtype=np.intp)
    bits[np.arange(bits.shape[1]) < periods[:, None]] = np.fromiter(
        itertools.chain.from_iterable(rows), np.intp, periods.sum())
    return periods, bits


def _stacked_products(steps, bits) -> np.ndarray:
    """One-period products steps[eta_{p-1}] ... steps[eta_0] of each row of
    padded bits (see _padded), given the per-step matrices stacked on axis
    0: a left fold, one batched product per step, index 0 applied first. A
    padded step multiplies by the identity, which is exact; a single row
    is folded over views of steps. A product that overflows is left
    non-finite, without a floating-point warning, for the eigenvalue step
    to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(bits) == 1:
            first, *rest = bits[0].tolist()
            prod = steps[first]
            for eta in rest:
                prod = steps[eta] @ prod
            return prod[None]
        prod = steps.take(bits[:, 0], axis=0)
        for column in bits.T[1:]:
            prod = steps.take(column, axis=0) @ prod
    return prod


def _radius_bounds(prods):
    """(|tr M^k| / n)^(1/k) <= rho(M) <= ||M^k||_F^(1/k), k = 2^_SQUARINGS,
    for each M of a (..., n, n) stack (Horn & Johnson, Matrix Analysis,
    Cor. 5.6.14). Each square is divided by its Frobenius norm, whose log
    is carried, so no power overflows; a zero or non-finite norm gives NaN."""
    with np.errstate(all="ignore"):
        norm = linalg._fro(prods)
        power, log_scale = prods / norm[..., None, None], np.log(norm)
        for _ in range(_SQUARINGS):
            power = power @ power
            norm = linalg._fro(power)
            power /= norm[..., None, None]
            log_scale = 2.0 * log_scale + np.log(norm)
        upper = np.exp(log_scale / 2**_SQUARINGS)
        trace = np.abs(np.trace(power, axis1=-2, axis2=-1)) / prods.shape[-1]
        return upper * trace ** (1.0 / 2**_SQUARINGS), upper


def contractive_stacked(rows, mm: ModeMatrices) -> np.ndarray:
    """admissibility's verdict on each bit row, in input order, rows of any
    lengths. Both sides are multiplied as one stacked (K, 2, n, n) product
    per step, each row padded past its period with the identity. A side is
    decided by its _radius_bounds where one clears the threshold by
    _CERTIFICATE_SLACK, else (NaN bounds too) by one batched eigvals call,
    which raises NumericsError on a non-finite product.
    Raises NilpotencyError when any row uses a nilpotent mode matrix."""
    _, bits = _padded(rows)
    _refuse_nilpotent((bool(np.any(bits == 0)), bool(np.any(bits == 1))), mm)
    prods = _stacked_products(mm.side_steps, bits)
    lower, upper = _radius_bounds(prods)
    sides = upper < 1.0 - CONTRACTION_MARGIN - _CERTIFICATE_SLACK
    undecided = ~(sides | (lower > 1.0 - CONTRACTION_MARGIN + _CERTIFICATE_SLACK))
    if undecided.any():
        sides[undecided] = is_contractive(linalg.spectral_radii(prods[undecided]))
    return sides.all(axis=1)
