"""Exhaustive search for the cheapest admissible switching schedule.

Every binary word of a given length maps to its irreducible core, and a
word is admissible exactly when its core is, with identical normalized
cost; so cores are evaluated once, memoized, and shared across lengths.
The dwell-time screen can optionally fast-accept cores it certifies (the
screen is sufficient only, so by default nothing is rejected on its
account; an explicit heuristic mode does reject).
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError
from .covariance import steady_augmented_cov, steady_error_cov
from .plant import GainSet, ModeMatrices, SystemModel, mode_matrices
from .sequence import (
    SwitchSequence,
    _as_bits,
    admissibility,
    dwell_feasible,
    irreducible_core,
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
    """Memoized per-core evaluation shared across search calls.

    The cache maps core bits to (report, cost).
    """

    def __init__(self, model: SystemModel, gains: GainSet, weights: CostWeights,
                 options: SearchOptions = SearchOptions()):
        self.model = model
        self.gains = gains
        self.weights = weights
        self.options = options
        self.mm: ModeMatrices = mode_matrices(model, gains)
        self._cache = {}
        self._screen_c = None
        self.counts = {"cores": 0, "hits": 0, "screen_accept": 0, "screen_reject": 0}

    def _screen_constant(self, period: int) -> float:
        # rigorous uniform constant over both families, valid for block
        # lengths up to the period actually being screened
        if self._screen_c is None or self._screen_c[0] < period:
            mats = (self.mm.omega_bar0, self.mm.omega_bar1,
                    self.mm.omega_tilde0, self.mm.omega_tilde1)
            self._screen_c = (period, uniform_growth_constant(mats, period))
        return self._screen_c[1]

    def _evaluate_core(self, core_bits: tuple):
        mode = self.options.prefilter
        screened = None
        if mode in ("screen", "heuristic"):
            try:
                c = self._screen_constant(len(core_bits))
                screened = dwell_feasible(core_bits, self.mm.spectral_radii, c)
            except DomainError:
                screened = None  # zero spectral radius etc.: fall back to exact
        if screened is not None and screened.passes:
            self.counts["screen_accept"] += 1
            report = admissibility(core_bits, self.mm)  # radii for the report
        elif screened is not None and mode == "heuristic":
            self.counts["screen_reject"] += 1
            return None, float("inf")
        else:
            report = admissibility(core_bits, self.mm)
        if not report.admissible:
            return report, float("inf")
        err = state = None
        if self.weights.needs_error_cov:
            err = steady_error_cov(core_bits, self.mm, self.model.sigma_v, self.model.sigma_w)
        if self.weights.needs_state_cov:
            _, state = steady_augmented_cov(core_bits, self.model, self.gains)
        cost = sequence_cost(core_bits, err, state, self.weights)
        return report, cost

    def evaluate(self, core_bits: tuple):
        if core_bits in self._cache:
            self.counts["hits"] += 1
            return self._cache[core_bits]
        value = self._cache[core_bits] = self._evaluate_core(core_bits)
        self.counts["cores"] += 1
        return value


def _enumerate_words(length: int):
    """All binary words of the given length, MSB-first: integer i maps to
    bits (eta_0, ..., eta_{N-1}) with eta_0 the most significant bit."""
    for i in range(2**length):
        yield tuple((i >> (length - 1 - j)) & 1 for j in range(length))


def search_fixed_length(length: int, model: SystemModel, gains: GainSet,
                        weights: CostWeights, options: SearchOptions = SearchOptions(),
                        evaluator: SequenceEvaluator = None) -> SearchResult:
    """Enumerate all 2^N words of one length and return the cheapest
    admissible one (deterministic tie-breaking)."""
    if length < 1:
        raise DomainError("sequence length must be positive")
    if evaluator is None:
        evaluator = SequenceEvaluator(model, gains, weights, options)
    counts_before = dict(evaluator.counts)
    words = list(_enumerate_words(length))
    cores = [irreducible_core(word).bits for word in words]
    evaluated = {core: evaluator.evaluate(core) for core in dict.fromkeys(cores)}

    best_cost = float("inf")
    candidates = []  # (word, core, cost)
    table = []
    enumerated = 0
    for word, core in zip(words, cores):
        enumerated += 1
        report, cost = evaluated[core]
        if options.include_table:
            table.append((word, core, cost if np.isfinite(cost) else None))
        if not np.isfinite(cost):
            continue
        if cost < best_cost * (1.0 - COST_RTOL):
            best_cost = cost
            candidates = [(word, core, cost)]
        elif cost <= best_cost * (1.0 + COST_RTOL):
            candidates.append((word, core, cost))
            best_cost = min(best_cost, cost)

    counts = SearchCounts(
        enumerated=enumerated,
        cores_evaluated=evaluator.counts["cores"] - counts_before["cores"],
        memo_hits=evaluator.counts["hits"] - counts_before["hits"],
        screen_accepts=evaluator.counts["screen_accept"] - counts_before["screen_accept"],
        screen_rejects=evaluator.counts["screen_reject"] - counts_before["screen_reject"],
    )
    if not candidates:
        return SearchResult(sequence=None, cost=float("inf"), report=None, core=None,
                            length=length, counts=counts, table=tuple(table))
    # ties: shortest core first, then lexicographic word order
    candidates = [c for c in candidates if c[2] <= best_cost * (1.0 + COST_RTOL)]
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
    searched and the global optimum returned. The core cache is shared
    across lengths."""
    if n_max < 1:
        raise DomainError("maximum length must be positive")
    evaluator = SequenceEvaluator(model, gains, weights, options)
    best = None
    for length in range(1, n_max + 1):
        result = search_fixed_length(length, model, gains, weights, options, evaluator)
        if result.feasible:
            if not options.all_lengths:
                return result
            if best is None or result.cost < best.cost * (1.0 - COST_RTOL):
                best = result
    if best is not None:
        return best
    return SearchResult(sequence=None, cost=float("inf"), report=None, core=None,
                        length=n_max,
                        counts=SearchCounts(
                            enumerated=sum(2**k for k in range(1, n_max + 1)),
                            cores_evaluated=evaluator.counts["cores"],
                            memo_hits=evaluator.counts["hits"],
                            screen_accepts=evaluator.counts["screen_accept"],
                            screen_rejects=evaluator.counts["screen_reject"],
                        ))
