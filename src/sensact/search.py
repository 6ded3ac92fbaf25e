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
The exact check decides every necklace. The search does not use the
dwell-time screen: it is sufficient only, and it cannot spare the steady
solve that the cost needs.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .exceptions import DimensionError, DomainError
from .covariance import _noise_terms, build_augmented
from .plant import GainSet, ModeMatrices, SystemModel, mode_matrices
from .sequence import SwitchSequence, _as_bits, admissibility, admissibility_stacked

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
    """prefilter ('off' or 'screen') and threads are accepted for
    compatibility and change nothing: every necklace is checked exactly,
    and evaluation is serial."""

    prefilter: str = "off"
    all_lengths: bool = False
    include_table: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.prefilter == "heuristic":
            raise DomainError("prefilter 'heuristic' is no longer available: the dwell "
                              "screen is sufficient only, so it dropped admissible "
                              "schedules; use 'off'")
        if self.prefilter not in ("off", "screen"):
            raise DomainError("prefilter must be 'off' or 'screen'")
        if self.threads < 1:
            raise DomainError("thread count must be at least 1")


@dataclass(frozen=True)
class SearchCounts:
    enumerated: int = 0
    cores_evaluated: int = 0
    memo_hits: int = 0
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

    The cache maps a necklace's least rotation to its exact (report,
    cost), which every rotation shares. counts are per core (a necklace of
    period p adds p), except necklaces, the number of exact evaluations.

    The necklaces of one call that are not cached yet are evaluated
    together, stacked per period into (K, p) bit
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

    def __init__(self, model: SystemModel, gains: GainSet, weights: CostWeights):
        self.model = model
        self.gains = gains
        self.weights = weights
        self.mm: ModeMatrices = mode_matrices(model, gains)
        self._system = self._cost_system()
        self._cache = {}
        self.fallbacks = 0
        self.counts = dict.fromkeys(("cores_evaluated", "memo_hits", "necklaces"), 0)

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
            noise = _noise_terms(self.mm.l, self.model.sigma_v, self.model.sigma_w)
            return (np.stack((self.mm.omega_tilde0, self.mm.omega_tilde1)),
                    np.stack(noise), w.r_err)
        return None

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
        """(report, cost) of each necklace, given by its least rotation; the
        uncached ones are evaluated in stacked batches. (Any other rotation
        given is evaluated from its own phase 0 and cached under itself.)"""
        fresh = {}  # period -> [least]
        for least in necklaces:
            if least in self._cache:
                self.counts["memo_hits"] += len(least)
                continue
            self.counts["cores_evaluated"] += len(least)
            fresh.setdefault(len(least), []).append(least)
        for group in fresh.values():
            for start in range(0, len(group), _BATCH):
                chunk = group[start:start + _BATCH]
                self._cache.update(zip(chunk, self._evaluate(np.array(chunk, dtype=np.intp))))
        return [self._cache[least] for least in necklaces]

    def evaluate(self, core_bits: tuple):
        """(report, cost) of any core, served through its necklace."""
        return self.resolve([min(core_bits[i:] + core_bits[:i]
                                 for i in range(len(core_bits)))])[0]


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
        evaluator = SequenceEvaluator(model, gains, weights)
    counts_before = dict(evaluator.counts)
    necklaces = list(_necklaces(length))
    costs = [cost for _, cost in evaluator.resolve(necklaces)]
    best = min(costs)
    bound = best * (1.0 + COST_RTOL) if best < np.inf else -np.inf  # ties within COST_RTOL
    candidates = []  # (word, core, cost)
    table = []
    for least, cost in zip(necklaces, costs):
        if not (options.include_table or cost <= bound):
            continue
        for i in range(len(least)):
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
    evaluator = SequenceEvaluator(model, gains, weights)
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
