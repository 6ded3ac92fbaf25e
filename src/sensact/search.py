"""Exhaustive search for the cheapest admissible switching schedule.

A word shares its admissibility verdict and normalized cost with its
irreducible core and with every rotation (rho(XY) = rho(YX), and the cost
is the mean over the phases). So each length is searched one binary
necklace at a time (Fredricksen-Kessler-Maiorana): each is evaluated once,
memoized under its least rotation and shared across lengths, and expanded
into words only for tie classes and tables. The necklaces of a length
that are not cached yet are evaluated in one stacked pass per period:
batched monodromies and eigenvalues for the verdicts, and for the
admissible ones a batched steady solve at phase 0 with the cost from the
trace identity, so no per-phase covariance is formed (SequenceEvaluator).
The dwell-time screen can optionally fast-accept cores it certifies (the
screen is sufficient only, so by default nothing is rejected on its
account; an explicit heuristic mode does reject). The screen counts blocks
without wrap-around (0011 has two, 0110 three), so it judges every
rotation's core on its own.
"""

from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError
from .covariance import build_augmented, error_noise_term
# the scalar steady solves that the batched costs reproduce (sequence_cost
# on their phases), kept importable from here next to sequence_cost
from .covariance import steady_augmented_cov, steady_error_cov  # noqa: F401
from .plant import GainSet, ModeMatrices, SystemModel, mode_matrices
from .sequence import (
    SwitchSequence,
    _as_bits,
    admissibility,
    admissibility_stacked,
    dwell_feasible,
    uniform_growth_constant,
)

__all__ = [
    "CostWeights",
    "SearchOptions",
    "SearchResult",
    "SequenceEvaluator",
    "sequence_cost",
    "search_fixed_length",
    "search_up_to",
]

#: costs within this relative tolerance are treated as tied
COST_RTOL = 1e-9

#: necklaces evaluated in one stacked pass; bounds the stacked arrays at
#: about a megabyte each on the 12 x 12 joint system of the CW model
_BATCH = 1024

#: cache entry of a rotation the heuristic screen drops
_REJECTED = (None, float("inf"))


@dataclass(frozen=True)
class CostWeights:
    """Weights of the blended schedule cost
    J = (1/N) sum_k tr(R_e P_k) + tr(R_x P_xk) + r_eta * eta_k."""

    r_err: np.ndarray = None
    r_state: np.ndarray = None
    r_eta: float = 0.0

    def __post_init__(self):
        if self.r_err is not None:
            object.__setattr__(self, "r_err", linalg.check_psd(self.r_err, "r_err"))
        if self.r_state is not None:
            object.__setattr__(self, "r_state", linalg.check_psd(self.r_state, "r_state"))
        if self.r_eta < 0:
            raise DomainError("actuation penalty must be nonnegative")

    @classmethod
    def estimation(cls, n: int) -> "CostWeights":
        """Pure estimation-accuracy cost (identity weight on the error)."""
        return cls(r_err=np.eye(n), r_state=None, r_eta=0.0)

    @property
    def needs_error_cov(self) -> bool:
        return self.r_err is not None and bool(np.any(self.r_err))

    @property
    def needs_state_cov(self) -> bool:
        return self.r_state is not None and bool(np.any(self.r_state))


def sequence_cost(s, steady_err, steady_state, weights: CostWeights) -> float:
    """Normalized blended cost of a sequence given its steady phase
    covariances. Either covariance family may be omitted when its weight
    is zero or absent."""
    bits = _as_bits(s)
    n_period = len(bits)
    total = weights.r_eta * sum(bits)
    if weights.needs_error_cov:
        if steady_err is None or steady_err.period != n_period:
            raise DimensionError("error covariance phases do not match the sequence period")
        total += sum(float(np.trace(weights.r_err @ p)) for p in steady_err)
    if weights.needs_state_cov:
        if steady_state is None or steady_state.period != n_period:
            raise DimensionError("state covariance phases do not match the sequence period")
        total += sum(float(np.trace(weights.r_state @ p)) for p in steady_state)
    return total / n_period


@dataclass(frozen=True)
class SearchOptions:
    """prefilter: 'off' checks every core exactly; 'screen' lets a passing
    dwell screen certify admissibility (never rejects); 'heuristic'
    additionally rejects cores failing the screen without an exact check
    (may miss admissible schedules; opt-in only). threads is accepted
    for compatibility; evaluation is serial."""

    prefilter: str = "off"
    all_lengths: bool = False
    include_table: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.prefilter not in ("off", "screen", "heuristic"):
            raise DomainError("prefilter must be 'off', 'screen' or 'heuristic'")
        if self.threads < 1:
            raise DomainError("thread count must be at least 1")


@dataclass(frozen=True)
class SearchCounts:
    enumerated: int = 0
    cores_evaluated: int = 0
    memo_hits: int = 0
    screen_accepts: int = 0
    screen_rejects: int = 0
    necklaces: int = 0  # exact evaluations; the other counts are per core


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a schedule search. sequence is None when no admissible
    word exists in the searched range; ties (within COST_RTOL, same
    length) are listed and broken toward the shortest core, then the
    lexicographically smallest word."""

    sequence: object          # SwitchSequence or None
    cost: float
    report: object            # AdmissibilityReport of the winning word
    core: object              # irreducible core of the winning word
    length: int
    tied: tuple = ()
    counts: SearchCounts = field(default_factory=SearchCounts)
    table: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.sequence is not None


class SequenceEvaluator:
    """Memoized, batched per-necklace evaluation shared across search calls.

    The cache maps a necklace's least rotation to one (report, cost) per
    rotation least[i:] + least[:i]: the exact result, computed once on the
    least rotation, or (None, inf) for a rotation the heuristic screen
    rejects. counts are per core (a necklace of period p adds p), except
    necklaces, the number of exact evaluations.

    The necklaces of one call that are not cached yet and survive the
    screen are evaluated together, stacked per period into (K, p) bit
    arrays of at most _BATCH rows: the verdicts by admissibility_stacked,
    and for the admissible rows the cost from one batched steady solve at
    phase 0 through the trace identity

        sum_k tr(Q P_k) = tr(S P_0) + sum_k tr(Q V_k),
        S = sum_k Phi_k' Q Phi_k,

    where Phi_k and V_k are the transition and the accumulated noise from
    phase 0 to phase k, built along the word, so no other phase is
    formed. The estimation cost runs on the n-dimensional error system
    with Q = r_err. A state weight runs on the 2n-dimensional joint
    system with Q = blockdiag(r_state, r_err), whose error block is the
    error covariance. The solve is linalg.solve_discrete_lyapunov_stacked;
    fallbacks counts the items it handed to the scalar solver.
    """

    def __init__(self, model: SystemModel, gains: GainSet, weights: CostWeights,
                 options: SearchOptions = SearchOptions()):
        self.model = model
        self.gains = gains
        self.weights = weights
        self.options = options
        self.mm: ModeMatrices = mode_matrices(model, gains)
        self._system = self._cost_system()
        self._cache = {}
        self._screen_c = None
        self.fallbacks = 0
        self.counts = dict.fromkeys(("cores_evaluated", "memo_hits", "screen_accepts",
                                     "screen_rejects", "necklaces"), 0)

    def _cost_system(self):
        """(per-mode transitions, per-mode noise, weight Q), each mode
        stacked on axis 0, of the system whose steady covariance the cost
        weighs; None when the cost is the actuation penalty alone."""
        w = self.weights
        if w.needs_state_cov:
            aug = build_augmented(self.model, self.gains)
            n = self.model.n
            q = np.zeros((2 * n, 2 * n))
            q[:n, :n] = w.r_state
            if w.r_err is not None:
                q[n:, n:] = w.r_err
            return (np.stack(aug.a_modes),
                    np.stack([aug.step_noise(eta) for eta in (0, 1)]), q)
        if w.needs_error_cov:
            noise = [error_noise_term(eta, self.mm.l, self.model.sigma_v, self.model.sigma_w)
                     for eta in (0, 1)]
            return (np.stack((self.mm.omega_tilde0, self.mm.omega_tilde1)),
                    np.stack(noise), w.r_err)
        return None

    def _screen_constant(self, period: int) -> float:
        # rigorous uniform constant over both families, valid for block
        # lengths up to the period actually being screened
        if self._screen_c is None or self._screen_c[0] < period:
            mats = (self.mm.omega_bar0, self.mm.omega_bar1,
                    self.mm.omega_tilde0, self.mm.omega_tilde1)
            self._screen_c = (period, uniform_growth_constant(mats, period))
        return self._screen_c[1]

    def _screen_rejects(self, core: tuple) -> bool:
        """Dwell-screen one core and count the verdict; True when the
        heuristic mode drops the core without an exact check."""
        try:
            c = self._screen_constant(len(core))
            passes = dwell_feasible(core, self.mm.spectral_radii, c).passes
        except DomainError:
            return False  # zero spectral radius etc.: fall back to exact
        if passes:
            self.counts["screen_accepts"] += 1
        elif self.options.prefilter == "heuristic":
            self.counts["screen_rejects"] += 1
            return True
        return False

    def _costs(self, bits: np.ndarray) -> np.ndarray:
        """Normalized cost of each admissible row of a (K, p) bit array."""
        period = bits.shape[1]
        total = self.weights.r_eta * bits.sum(axis=1)
        if self._system is None:
            return total / period
        modes, noise, q = self._system
        phi, acc = modes[bits[:, 0]], noise[bits[:, 0]]  # Phi_1, V_1
        s = np.broadcast_to(q, phi.shape).copy()  # Phi_0 = I; V_0 = 0 adds nothing
        for column in bits.T[1:]:
            s += phi.transpose(0, 2, 1) @ q @ phi
            total += np.einsum("ij,kji->k", q, acc)
            a = modes[column]
            phi = a @ phi
            acc = a @ acc @ a.transpose(0, 2, 1) + noise[column]
        p0, fallbacks = linalg.solve_discrete_lyapunov_stacked(
            phi, 0.5 * (acc + acc.transpose(0, 2, 1)))
        self.fallbacks += fallbacks
        return (total + np.einsum("kij,kji->k", s, p0)) / period

    def _evaluate(self, bits: np.ndarray) -> list:
        """(report, cost) of the necklace in each row of a (K, p) bit array."""
        self.counts["necklaces"] += len(bits)
        reports = admissibility_stacked(bits, self.mm)
        costs = np.full(len(bits), np.inf)
        rows = [i for i, report in enumerate(reports) if report.admissible]
        if rows:
            costs[rows] = self._costs(bits[rows])
        return list(zip(reports, costs.tolist()))

    def resolve(self, necklaces) -> list:
        """(report, cost) of each rotation least[i:] + least[:i], for each
        necklace given by its least rotation; the uncached ones are
        evaluated in stacked batches. (Any other rotation given is
        evaluated from its own phase 0 and cached under itself.)"""
        fresh = {}  # period -> [(least, rejected rotations)]
        for least in necklaces:
            period = len(least)
            if least in self._cache:
                self.counts["memo_hits"] += period
                continue
            self.counts["cores_evaluated"] += period
            rejected = [False] * period
            if self.options.prefilter != "off":
                rejected = [self._screen_rejects(least[i:] + least[:i]) for i in range(period)]
            if all(rejected):
                self._cache[least] = (_REJECTED,) * period
            else:
                fresh.setdefault(period, []).append((least, rejected))
        for group in fresh.values():
            for start in range(0, len(group), _BATCH):
                chunk = group[start:start + _BATCH]
                exact = self._evaluate(np.array([least for least, _ in chunk], dtype=np.intp))
                for (least, rejected), value in zip(chunk, exact):
                    self._cache[least] = (tuple(_REJECTED if r else value for r in rejected)
                                          if any(rejected) else (value,) * len(least))
        return [self._cache[least] for least in necklaces]

    def evaluate(self, core_bits: tuple):
        """(report, cost) of any core, served through its necklace."""
        least, shift = min((core_bits[i:] + core_bits[:i], i) for i in range(len(core_bits)))
        return self.resolve([least])[0][-shift]  # core_bits is least rotated by -shift


def _necklaces(length: int):
    """Each binary necklace of the given length once, as the least rotation
    of its irreducible core (a Lyndon word), in lexicographic order: the
    Fredricksen-Kessler-Maiorana algorithm."""
    a = [0] * length
    yield (0,)
    while True:
        i = length - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            return
        a[i] = 1
        for j in range(i + 1, length):
            a[j] = a[j - i - 1]
        if length % (i + 1) == 0:
            yield tuple(a[:i + 1])


def search_fixed_length(length: int, model: SystemModel, gains: GainSet,
                        weights: CostWeights, options: SearchOptions = SearchOptions(),
                        evaluator: SequenceEvaluator = None) -> SearchResult:
    """Return the cheapest admissible one of all 2^N words of one length
    (deterministic tie-breaking). Each necklace is evaluated once, and its
    rotations are expanded into words only for ties and the table."""
    if length < 1:
        raise DomainError("sequence length must be positive")
    if evaluator is None:
        evaluator = SequenceEvaluator(model, gains, weights, options)
    counts_before = dict(evaluator.counts)
    necklaces = list(_necklaces(length))
    rotations = evaluator.resolve(necklaces)
    lowest = [min(map(itemgetter(1), values)) for values in rotations]
    best = min(lowest)
    bound = best * (1.0 + COST_RTOL) if best < np.inf else -np.inf  # ties within COST_RTOL
    candidates = []  # (word, core, cost)
    table = []
    for least, values, low in zip(necklaces, rotations, lowest):
        if not (options.include_table or low <= bound):
            continue
        for i, (_, cost) in enumerate(values):
            core = least[i:] + least[:i]
            word = core * (length // len(least))
            if options.include_table:
                table.append((word, core, cost if np.isfinite(cost) else None))
            if cost <= bound:
                candidates.append((word, core, cost))
    table.sort(key=lambda row: row[0])

    counts = SearchCounts(enumerated=2**length,
                          **{k: evaluator.counts[k] - counts_before[k] for k in counts_before})
    if not candidates:
        return SearchResult(sequence=None, cost=float("inf"), report=None, core=None,
                            length=length, counts=counts, table=tuple(table))
    # ties: shortest core first, then lexicographic word order
    winner = min(candidates, key=lambda c: (len(c[1]), c[0]))
    word = SwitchSequence(winner[0])
    return SearchResult(
        sequence=word,
        cost=winner[2],
        report=admissibility(word, evaluator.mm),
        core=SwitchSequence(winner[1]),
        length=length,
        tied=tuple(SwitchSequence(c[0]) for c in sorted(candidates, key=lambda c: c[0])),
        counts=counts,
        table=tuple(table),
    )


def search_up_to(n_max: int, model: SystemModel, gains: GainSet,
                 weights: CostWeights, options: SearchOptions = SearchOptions()) -> SearchResult:
    """Search lengths 1, 2, ... until one admits an admissible schedule
    (returning that length's optimum), or exhaust n_max and report
    infeasibility. With all_lengths set, every length up to n_max is
    searched and the global optimum returned. The necklace cache is shared
    across lengths, and the counts cover every length searched."""
    if n_max < 1:
        raise DomainError("maximum length must be positive")
    evaluator = SequenceEvaluator(model, gains, weights, options)
    best = None
    enumerated = 0
    for length in range(1, n_max + 1):
        result = search_fixed_length(length, model, gains, weights, options, evaluator)
        enumerated += 2**length
        if result.feasible:
            if best is None or result.cost < best.cost * (1.0 - COST_RTOL):
                best = result
            if not options.all_lengths:
                break
    if best is None:
        best = SearchResult(sequence=None, cost=float("inf"), report=None, core=None,
                            length=n_max)
    return replace(best, counts=SearchCounts(enumerated=enumerated, **evaluator.counts))
