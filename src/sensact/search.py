"""Exhaustive search for the cheapest admissible switching schedule.

A word shares its admissibility verdict and normalized cost with its
irreducible core and with every rotation (rho(XY) = rho(YX), and the cost
is the mean over the phases). So each length is searched one binary
necklace at a time (Fredricksen-Kessler-Maiorana): each is evaluated once,
memoized under its least rotation as one cost (inf when inadmissible),
and expanded into words only for tie classes and tables. The uncached
necklaces of a call, of any periods, are evaluated in one stacked pass
per chunk, each row padded past its period with an identity step:
batched monodromies, verdicts from radius bounds of their powers with
eigenvalues only for the sides those leave open, and for the admissible
ones one fold of (Phi, V, G, c) segments and a batched steady solve at
phase 0, so no per-phase covariance is formed (SequenceEvaluator).
The exact check decides every necklace. The search does not use the
dwell-time screen: it is sufficient only, and it cannot spare the steady
solve that the cost needs.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .exceptions import DomainError, check_memory
from .covariance import _compose, _error_steps, _joint_steps
from .plant import GainSet, ModeMatrices, SystemModel, mode_matrices
from .sequence import SwitchSequence, _padded, admissibility, contractive_stacked

__all__ = [
    "CostWeights",
    "SearchOptions",
    "SearchResult",
    "SequenceEvaluator",
    "search_fixed_length",
    "search_up_to",
]

#: costs within this relative tolerance are treated as tied
COST_RTOL = 1e-9

#: necklaces evaluated in one stacked pass, rows of any period. At 512
#: rows a step's operands stay in a 2 MiB L2 cache: the stacked (K, 2, 6, 6)
#: side products of the CW model are 295 kB, its 12 x 12 joint-system
#: stacks 590 kB; at 1024 rows the product loop of a period-16 chunk took
#: 1.7 times as long per row (Xeon VM, 2 MiB L2 per core)
_BATCH = 512

#: bytes a necklace holds during a search besides its 8 bytes per bit: its
#: tuple, list slots, cache entry and cost. tracemalloc peaks of
#: search_fixed_length on the CW model were 8 n + 161 bytes per necklace
#: at n = 20 and 22 (Python 3.11, x86_64)
_NECKLACE_BYTES = 200

#: bytes a table row holds besides 24 bytes per bit, for each of the 2^n
#: words of length n: its row and word tuples, the CLI's dict of two
#: strings and a cost, and the row's share of the JSON text. tracemalloc
#: peaks of seq search --n n --table --json, less those of seq search
#: --n n, were 766, 857 and 907 bytes per word at n = 14, 16 and 18
#: (Python 3.11, x86_64)
_TABLE_ROW_BYTES = 480

#: the longest length counted: past it a length has over 2^58 necklaces
_MAX_LENGTH = 64


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


@dataclass(frozen=True)
class SearchOptions:
    """all_lengths: search_up_to searches every length up to n_max;
    include_table: the result lists every word's cost."""

    all_lengths: bool = False
    include_table: bool = False


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

    The cache maps a necklace's least rotation to its exact cost (inf when
    not admissible), which every rotation shares. counts are per core (a
    necklace of period p adds p), except necklaces, the number of exact
    evaluations.

    The necklaces of one call that are not cached yet are evaluated
    together, whatever their periods, longest first in chunks of at most
    _BATCH rows, each row padded past its period with the identity step
    (sequence._padded), so that every row of a chunk takes every step.
    Each chunk gets one contractive_stacked pass for the verdicts (eigvals
    only for the sides its radius bounds leave open), and its admissible
    rows one left fold of covariance._compose over their step segments
    (Phi, V, G, c): (A_eta, W_eta, Q, 0) for a step of mode eta, and the
    identity (I, 0, 0, 0) for a padded step, which leaves a segment as it
    is. A row of period p folds to its monodromy Phi, accumulated noise V,

        G = sum_{k<p} Phi_k' Q Phi_k   and   c = sum_{k<p} tr(Q V_k),

    where Phi_k and V_k are the transition and the accumulated noise from
    phase 0 to phase k, so that with P_0 from one batched steady solve the
    trace identity sum_k tr(Q P_k) = tr(G P_0) + c gives its cost
    (c + tr(G P_0)) / p, and no other phase is formed. The fold starts
    from a first segment whose c is the row's actuation penalty, r_eta
    times its number of 1s. A necklace met twice in one call is evaluated
    once, and the repeat counts as a memo hit, as in a later call. The
    estimation cost runs on the n-dimensional error system with
    Q = r_err. A state weight runs on the 2n-dimensional joint system with
    Q = blockdiag(r_state, r_err), whose error block is the error
    covariance. The solve is linalg.solve_discrete_lyapunov_stacked;
    fallbacks counts the items it handed to the scalar solver.
    """

    def __init__(self, model: SystemModel, gains: GainSet, weights: CostWeights):
        self.weights = weights
        self.mm: ModeMatrices = mode_matrices(model, gains)
        self._segments = self._cost_segments()
        self._cache = {}
        self.fallbacks = 0
        self.counts = dict.fromkeys(("cores_evaluated", "memo_hits", "necklaces"), 0)

    def _cost_segments(self):
        """The one-step segments (Phi, V, G) of the system whose steady
        covariance the cost weighs, each stacked per step as _padded
        numbers them: [eta] is (A_eta, W_eta, Q) of mode eta and [2] the
        identity (I, 0, 0); every step's c is 0. None when the cost is the
        actuation penalty alone."""
        w = self.weights
        if w.needs_state_cov:
            n = self.mm.n
            q = np.zeros((2 * n, 2 * n))
            q[:n, :n] = w.r_state
            if w.r_err is not None:
                q[n:, n:] = w.r_err
            a, v = _joint_steps(self.mm)
        elif w.needs_error_cov:
            q = w.r_err
            a, v = _error_steps(self.mm)
        else:
            return None
        zero = np.zeros_like(q)
        return (np.concatenate((a, np.eye(len(q))[None])), np.concatenate((v, zero[None])),
                np.stack((q, q, zero)))

    def _costs(self, rows) -> np.ndarray:
        """Normalized cost of each bit row, admissible rows of any lengths,
        in input order: one left fold of _compose over the step segments
        of the padded rows, from a first segment whose c is the row's
        actuation penalty."""
        periods, bits = _padded(rows)
        c = self.weights.r_eta * (bits == 1).sum(axis=1)
        if self._segments is not None:
            segment = (*(stack[bits[:, 0]] for stack in self._segments), c)
            for column in bits.T[1:]:
                segment = _compose((*(stack[column] for stack in self._segments), 0.0), segment)
            phi, v, g, c = segment
            p0, fallbacks = linalg.solve_discrete_lyapunov_stacked(phi, linalg.sym_part(v))
            self.fallbacks += fallbacks
            c = c + np.einsum("kij,kji->k", g, p0)
        return c / periods

    def _evaluate(self, rows) -> np.ndarray:
        """Cost of the necklace in each bit row (inf if not admissible)."""
        self.counts["necklaces"] += len(rows)
        admissible = np.flatnonzero(contractive_stacked(rows, self.mm)).tolist()
        costs = np.full(len(rows), np.inf)
        if admissible:
            costs[admissible] = self._costs([rows[i] for i in admissible])
        return costs

    def resolve(self, necklaces) -> list:
        """Cost of each necklace, given by its least rotation, inf where it
        is not admissible; the uncached ones are evaluated in stacked
        chunks of any periods. (Any other rotation given is evaluated from
        its own phase 0 and cached under itself.)"""
        fresh = {}  # insertion-ordered set of the necklaces to evaluate
        for least in necklaces:
            if least in self._cache or least in fresh:
                self.counts["memo_hits"] += len(least)
                continue
            self.counts["cores_evaluated"] += len(least)
            fresh[least] = None
        fresh = sorted(fresh, key=len, reverse=True)
        for start in range(0, len(fresh), _BATCH):
            chunk = fresh[start:start + _BATCH]
            self._cache.update(zip(chunk, self._evaluate(chunk).tolist()))
        return [self._cache[least] for least in necklaces]


@functools.cache
def _necklace_count(n: int) -> int:
    """Number of binary necklaces of length n: (1/n) sum_{d | n} phi(d) 2^(n/d)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    phi = [sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in divisors]
    return sum(f << (n // d) for d, f in zip(divisors, phi)) // n


def _check_memory(lengths, table_length: int = None) -> None:
    """Refuse a search, before it enumerates a necklace, whose necklaces of
    the given lengths would not fit in physical memory at once, as the
    cache keeps them, together with the table of table_length when one is
    given (a search keeps one table, its winning length's). Each necklace
    of length n is taken as _NECKLACE_BYTES + 8 n bytes, and each of the
    2^n table rows of length n as _TABLE_ROW_BYTES + 24 n; a length past
    _MAX_LENGTH is refused without counting."""
    length = max(lengths)
    if length > _MAX_LENGTH:
        raise DomainError(f"a search of length {length} has more than 2^{_MAX_LENGTH - 6} "
                          "necklaces, more than any machine's memory")
    size = sum(_necklace_count(n) * (_NECKLACE_BYTES + 8 * n) for n in lengths)
    held = " for its necklaces"
    if table_length is not None:
        size += (_TABLE_ROW_BYTES + 24 * table_length) << table_length
        held = " for its necklaces and table"
    check_memory(size, f"a search of length {length}", held)


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


def _words(length: int, least: tuple):
    """(word, core) of each rotation of a necklace given by its least
    rotation: the rotated core, repeated to the given length."""
    for i in range(len(least)):
        core = least[i:] + least[:i]
        yield core * (length // len(least)), core


def _select(length: int, necklaces: list, costs: list) -> SearchResult:
    """The cheapest word of one length from the cost of each of its
    necklaces: ties within COST_RTOL go to the shortest core, then the
    lexicographically smallest word. The winner's report, the counts and
    the table are left to the caller."""
    best = min(costs)
    bound = best * (1.0 + COST_RTOL) if best < np.inf else -np.inf  # ties within COST_RTOL
    candidates = [(word, core, cost) for least, cost in zip(necklaces, costs)
                  if cost <= bound for word, core in _words(length, least)]
    if not candidates:
        return SearchResult(sequence=None, cost=float("inf"), report=None, core=None,
                            length=length)
    winner = min(candidates, key=lambda c: (len(c[1]), c[0]))
    return SearchResult(
        sequence=SwitchSequence(winner[0]),
        cost=winner[2],
        report=None,
        core=SwitchSequence(winner[1]),
        length=length,
        tied=tuple(SwitchSequence(c[0]) for c in sorted(candidates, key=lambda c: c[0])),
    )


def _table(length: int, necklaces: list, costs: list) -> tuple:
    """Every word of one length as (word, core, cost), from the cost of
    each of its necklaces, cost None where inadmissible, in lexicographic
    order of the words."""
    table = [(word, core, cost if np.isfinite(cost) else None)
             for least, cost in zip(necklaces, costs) for word, core in _words(length, least)]
    table.sort(key=lambda row: row[0])
    return tuple(table)


def _finish(result: SearchResult, counts: SearchCounts, mm: ModeMatrices) -> SearchResult:
    """The result with its counts and, when feasible, the winning word's
    own admissibility report."""
    if result.feasible:
        result = replace(result, report=admissibility(result.sequence, mm))
    return replace(result, counts=counts)


def search_fixed_length(length: int, model: SystemModel, gains: GainSet,
                        weights: CostWeights, options: SearchOptions = SearchOptions(),
                        evaluator: SequenceEvaluator = None) -> SearchResult:
    """Return the cheapest admissible one of all 2^N words of one length
    (deterministic tie-breaking). Each necklace is evaluated once, and its
    rotations are expanded into words only for ties and the table."""
    if length < 1:
        raise DomainError("sequence length must be positive")
    _check_memory([length], length if options.include_table else None)
    if evaluator is None:
        evaluator = SequenceEvaluator(model, gains, weights)
    counts_before = dict(evaluator.counts)
    necklaces = list(_necklaces(length))
    costs = evaluator.resolve(necklaces)
    result = _select(length, necklaces, costs)
    if options.include_table:
        result = replace(result, table=_table(length, necklaces, costs))
    counts = SearchCounts(enumerated=2**length,
                          **{k: evaluator.counts[k] - counts_before[k] for k in counts_before})
    return _finish(result, counts, evaluator.mm)


def search_up_to(n_max: int, model: SystemModel, gains: GainSet,
                 weights: CostWeights, options: SearchOptions = SearchOptions()) -> SearchResult:
    """Search lengths 1, 2, ... until one admits an admissible schedule
    (returning that length's optimum), or exhaust n_max and report
    infeasibility. With all_lengths set, every length up to n_max is
    searched, the necklaces of all of them in one resolve call, and the
    global optimum returned (the shortest length on ties within
    COST_RTOL). The necklace cache is shared across lengths, and the
    counts cover every length searched. Only the winning length's table
    is built; an infeasible search has none."""
    if n_max < 1:
        raise DomainError("maximum length must be positive")
    evaluator = SequenceEvaluator(model, gains, weights)
    searched = []  # (necklaces, costs) of each length searched
    results = []
    if options.all_lengths:
        # the kept table is the winner's, at most the longest length's
        _check_memory(range(1, n_max + 1), n_max if options.include_table else None)
        groups = [list(_necklaces(length)) for length in range(1, n_max + 1)]
        costs = evaluator.resolve([least for group in groups for least in group])
        start = 0
        for length, group in enumerate(groups, 1):
            searched.append((group, costs[start:start + len(group)]))
            results.append(_select(length, *searched[-1]))
            start += len(group)
    else:
        for length in range(1, n_max + 1):
            # the cache keeps the shorter ones; the table kept is this length's
            _check_memory(range(1, length + 1), length if options.include_table else None)
            necklaces = list(_necklaces(length))
            searched.append((necklaces, evaluator.resolve(necklaces)))
            results.append(_select(length, *searched[-1]))
            if results[-1].feasible:
                break
    best = None
    for result in results:
        if result.feasible and (best is None or result.cost < best.cost * (1.0 - COST_RTOL)):
            best = result
    if best is None:
        best = SearchResult(sequence=None, cost=float("inf"), report=None, core=None,
                            length=n_max)
    elif options.include_table:
        best = replace(best, table=_table(best.length, *searched[best.length - 1]))
    counts = SearchCounts(enumerated=sum(2**r.length for r in results), **evaluator.counts)
    return _finish(best, counts, evaluator.mm)
