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


def _side_modes(mm: ModeMatrices) -> np.ndarray:
    """The mode matrices of both sides stacked per mode as (2, 2, n, n):
    [eta] is (control, observer) of mode eta."""
    return np.array(((mm.omega_bar0, mm.omega_tilde0), (mm.omega_bar1, mm.omega_tilde1)))


def _side_products(bits, mm: ModeMatrices) -> np.ndarray:
    """Both one-period products as one (2, n, n) stack, (control,
    observer): the mode matrices of both sides are stacked per mode, so
    each step is one batched product, index 0 applied first. A product
    that overflows is left non-finite, without a floating-point warning,
    for the eigenvalue step to refuse."""
    modes = _side_modes(mm)
    prod = modes[bits[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for eta in bits[1:]:
            prod = modes[eta] @ prod
    return prod


def monodromy(s, mm: ModeMatrices):
    """Ordered one-period products (control, observer); index 0 applied first."""
    prod_bar, prod_til = _side_products(_as_bits(s), mm)
    return prod_bar, prod_til


def is_contractive(rho):
    """The one stability contract: a one-period product with spectral
    radius rho (or each of an array) contracts when rho < 1 - CONTRACTION_MARGIN."""
    verdict = np.less(rho, 1.0 - CONTRACTION_MARGIN)
    return verdict if verdict.ndim else bool(verdict)


def _nilpotency_flags(used, mm: ModeMatrices) -> tuple:
    """Which of (omega_bar0, omega_bar1, omega_tilde0, omega_tilde1) are
    nilpotent and used, given whether modes 0 and 1 are used; raises
    NilpotencyError if any (the contraction argument needs eigenvalues
    that approach zero rather than jump there)."""
    flags = tuple(bool(u and nil) for u, nil in zip(tuple(used) * 2, mm.nilpotent))
    if any(flags):
        raise NilpotencyError("a mode matrix used by this sequence is nilpotent")
    return flags


def admissibility(s, mm: ModeMatrices) -> AdmissibilityReport:
    """Exact admissibility verdict from the two monodromy spectral radii.

    Both monodromies are built together, one stacked (2, n, n) product per
    step, and their radii come from one batched eigvals call. The product
    order is that of each side multiplied out on its own, so the radii are
    bit for bit those of spectral_radius on the two separate products, as
    contractive_stacked's verdicts are.
    Raises NilpotencyError when a mode matrix actually used by the
    sequence is numerically nilpotent.
    """
    bits = _as_bits(s)
    flags = _nilpotency_flags((0 in bits, 1 in bits), mm)
    qbar, qtilde = linalg.spectral_radii(_side_products(bits, mm)).tolist()
    return AdmissibilityReport(
        qbar=qbar,
        qtilde=qtilde,
        admissible=is_contractive(qbar) and is_contractive(qtilde),
        nilpotency_flags=flags,
    )


def _by_period(rows):
    """Bit rows of any lengths, longest first: (order, periods, bits, live).
    order is the stable period-descending permutation of the rows, periods
    their lengths in that order, bits the (K, p_max) array of the rows in
    that order, zero-padded, and live[k] the number of rows longer than k,
    so that the rows that still take step k are the prefix bits[:live[k]]."""
    periods = np.fromiter(map(len, rows), np.intp, len(rows))
    order = np.argsort(-periods, kind="stable")
    rows = [rows[i] for i in order.tolist()]
    periods = periods[order]
    live = np.searchsorted(-periods, -np.arange(periods[0] + 1), side="left").tolist()
    bits = np.zeros((len(rows), periods[0]), dtype=np.intp)
    for p in range(1, periods[0] + 1):  # the rows of period p are [live[p], live[p - 1])
        if live[p] < live[p - 1]:
            bits[live[p]:live[p - 1], :p] = rows[live[p]:live[p - 1]]
    return order, periods, bits, live


def _retire(n, stacks, done: list):
    """The stacks narrowed to their first n rows (views). The rows past n
    have taken their last step and are written to done once; done stays
    empty until rows first retire, and then holds one full-length array
    per stack."""
    if n == len(stacks[0]):
        return stacks
    if not done:
        done.extend(np.empty_like(stack) for stack in stacks)
    for stack, out in zip(stacks, done):
        out[n:len(stack)] = stack[n:]
    return tuple(stack[:n] for stack in stacks)


def _collect(stacks, done: list) -> tuple:
    """Every row of the stacks after the last step: the stacks themselves
    when no row retired early, else done with the last rows written in."""
    if not done:
        return tuple(stacks)
    _retire(0, stacks, done)
    return tuple(done)


def _stacked_products(modes, bits, live) -> np.ndarray:
    """One-period products modes[eta_{p-1}] ... modes[eta_0] of each row of
    period-descending padded bits (see _by_period), given the per-mode
    matrices stacked on axis 0: one batched product per step over the rows
    still live, in the order monodromy multiplies. As in _side_products,
    an overflow is left non-finite without a warning."""
    prod, done = modes[bits[:, 0]], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, bits.shape[1]):
            prod, = _retire(live[k], (prod,), done)
            prod = modes[bits[:live[k], k]] @ prod
    return _collect((prod,), done)[0]


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
    per step, the rows longest first so that the rows still live are a
    prefix. A side is decided by its _radius_bounds where one clears the
    threshold by _CERTIFICATE_SLACK, else (NaN bounds too) by one batched
    eigvals call, which raises NumericsError on a non-finite product.
    Raises NilpotencyError when any row uses a nilpotent mode matrix."""
    order, periods, bits, live = _by_period(rows)
    ones = bits.sum(axis=1)
    _nilpotency_flags((bool(np.any(ones < periods)), bool(np.any(ones > 0))), mm)
    prods = _stacked_products(_side_modes(mm), bits, live)
    lower, upper = _radius_bounds(prods)
    sides = upper < 1.0 - CONTRACTION_MARGIN - _CERTIFICATE_SLACK
    undecided = ~(sides | (lower > 1.0 - CONTRACTION_MARGIN + _CERTIFICATE_SLACK))
    if undecided.any():
        sides[undecided] = is_contractive(linalg.spectral_radii(prods[undecided]))
    return sides.all(axis=1)[np.argsort(order)]
