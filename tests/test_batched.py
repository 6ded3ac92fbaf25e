"""The batched necklace evaluation against the scalar routines.

Property suite on random stabilisable plants (B = C = I, so the three
distinct mode matrices are drawn directly), with mode radii close to the
contraction threshold 1 - CONTRACTION_MARGIN and rank-deficient mode
matrices among the draws, plus deterministic checks of the solver
fallback, nilpotency and the absence of scalar solves in a search. The
radii of admissibility are held bit for bit to the two-product oracle of
tests/oracles.py, which does not stack the sides, and the verdicts of
contractive_stacked, whose radius bounds decide most sides without
eigenvalues, to the eigvals verdicts of admissibility, also on defective
mode matrices within 1e-5 of the threshold.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    build_augmented,
    error_noise_term,
    kron_dlyap,
    loop_cov_propagate,
    loop_mean_propagate,
    loop_steady_mean_phases,
    make_psd,
    make_stable,
    recursive_steady_phases,
    sequence_cost,
    two_product_radii,
)

import sensact.covariance as covariance_module
from sensact import linalg
from sensact.covariance import (
    _error_steps,
    _joint_steps,
    propagate_error_cov,
    steady_augmented_cov,
    steady_error_cov,
    steady_mean_phases,
    transient,
)
from sensact.exceptions import NilpotencyError, NumericsError, StabilityError
from sensact.plant import GainSet, SystemModel, TargetSpec, mode_matrices
from sensact.search import (
    COST_RTOL,
    CostWeights,
    SearchOptions,
    SequenceEvaluator,
    _necklaces,
    search_fixed_length,
)
from sensact.sequence import (
    CONTRACTION_MARGIN,
    _padded,
    _stacked_products,
    admissibility,
    contractive_stacked,
    is_contractive,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

#: spectral radii of the drawn mode matrices: anywhere in a wide range, or
#: on either side of the contraction threshold
RADII = st.one_of(
    st.floats(0.05, 1.2),
    st.sampled_from([1.0 - CONTRACTION_MARGIN * f for f in (0.5, 0.99, 1.01, 2.0, 10.0)]),
)

WEIGHTS = st.sampled_from(["estimation", "blended", "state", "penalty"])


#: radii of the defective draws: 1e-7, 2e-6 and 1e-5 to either side of the
#: threshold, inside and outside the slack of the certificate's bounds
DEFECTIVE_RADII = st.sampled_from([1.0 - CONTRACTION_MARGIN + sign * gap
                                   for sign in (-1.0, 1.0) for gap in (1e-7, 2e-6, 1e-5)])


def jordan_draw(rng, n, size, rho):
    """S J S^-1 for a random S, where J holds a Jordan block of the given
    size at rho and, below it, random eigenvalues of modulus under rho."""
    j = np.diag(np.concatenate([np.full(size, rho), rng.uniform(-rho, rho, n - size) / 2]))
    j[np.arange(size - 1), np.arange(1, size)] = 1.0
    s = rng.standard_normal((n, n)) + n * np.eye(n)
    return s @ j @ np.linalg.inv(s)


@st.composite
def plants(draw, defective=False):
    """A plant whose coast (A), feedback (A + BK) and observer (A + LC)
    matrices are drawn with the given radii; some are rank-deficient, and
    a rank-deficient draw with no spectral radius stays nilpotent. With
    defective set, each matrix may instead hold a Jordan block of size 2
    or 3 at a radius near the contraction threshold."""
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(3):
        if defective and draw(st.booleans()):
            mats.append(jordan_draw(rng, n, draw(st.integers(2, n)), draw(DEFECTIVE_RADII)))
            continue
        m = rng.standard_normal((n, n))
        if draw(st.booleans()):
            m[:, 0] = m[:, 1:] @ rng.standard_normal(n - 1)
        rho = max(abs(np.linalg.eigvals(m)))
        if rho > 1e-6:
            m *= draw(RADII) / rho
        mats.append(m)
    a, feedback, observer = mats
    model = SystemModel(a=a, b=np.eye(n), c=np.eye(n),
                        sigma_w=make_psd(rng, n, 0.1), sigma_v=make_psd(rng, n, 0.1))
    return model, GainSet(k=feedback - a, l=observer - a)


def make_weights(kind, n, rng):
    if kind == "estimation":
        return CostWeights.estimation(n)
    if kind == "blended":
        return CostWeights(r_err=np.eye(n), r_state=np.eye(n), r_eta=0.1)
    if kind == "state":
        return CostWeights(r_state=make_psd(rng, n))
    return CostWeights(r_eta=1.0)


#: costs are compared where the monodromy radius is at least this far
#: below 1. Closer in, the steady covariance is ill-conditioned (the
#: inverse of I - M (x) M grows like 1 / margin, more for non-normal M), and
#: two solvers that both meet the residual contract can differ by more
#: than 1e-9; verdicts are still compared there.
COST_MARGIN = 1e-6

#: the scan phases are compared where the one-period product M of the
#: steps is Schur stable with ||X||_2 <= STEIN_BOUND for X - M'XM = I.
#: ||X|| is at least 1 / (1 - rho(M)^2), and it also grows with the
#: transient gain of a non-normal M, which a radius margin does not see.
STEIN_BOUND = 1e4

#: radii and costs of a plant and of its image under a similarity of
#: condition number at most 20 agree to this relative tolerance, and its
#: steady phases to the next, each at least 40 times the largest seen
#: over 1500 draws of test_similarity_invariance (7.8e-11 on radii,
#: 1.7e-10 on costs, 2.4e-9 on phases, on words COST_MARGIN from the
#: threshold)
SIMILARITY_RTOL = 1e-8
SIMILARITY_PHASE_RTOL = 1e-7


def well_conditioned(steps) -> bool:
    """Whether the product M = steps[-1] ... steps[0] is Schur stable and
    the solution of X - M'XM = I has 2-norm at most STEIN_BOUND."""
    m = np.eye(len(steps[0]))
    for step in steps:
        m = step @ m
    if linalg.spectral_radius(m) >= 1.0:
        return False
    try:
        x = kron_dlyap(m.T, np.eye(len(m)))
    except np.linalg.LinAlgError:  # numerically singular, far past the bound
        return False
    return bool(np.linalg.norm(x, 2) <= STEIN_BOUND)


def scalar_cost(word, model, gains, weights):
    """The cost from the scalar steady phases, or None when the word is
    not admissible; rejects the example when the word is within
    COST_MARGIN of the unit circle or a scalar solve misses its own
    contract (the batched path then has no oracle)."""
    report = admissibility(word, mode_matrices(model, gains))
    if not report.admissible:
        return None
    assume(max(report.qbar, report.qtilde) < 1.0 - COST_MARGIN)
    try:
        err = state = None
        if weights.needs_error_cov:
            err = steady_error_cov(word, mode_matrices(model, gains))
        if weights.needs_state_cov:
            _, state = steady_augmented_cov(word, mode_matrices(model, gains))
    except (NumericsError, StabilityError):
        assume(False)
    return sequence_cost(word, err, state, weights)


class TestProperties:
    @PROPERTY
    @given(plants(), st.integers(1, 7), st.lists(st.integers(0, 2**7 - 1), min_size=1,
                                                 max_size=8))
    def test_stacked_verdict_is_scalar_verdict(self, plant, period, codes):
        model, gains = plant
        mm = mode_matrices(model, gains)
        words = [tuple((code >> i) & 1 for i in range(period)) for code in codes]
        try:
            scalar = [admissibility(word, mm) for word in words]
        except NilpotencyError:
            with pytest.raises(NilpotencyError):
                contractive_stacked(np.array(words), mm)
            return
        assert [(r.qbar, r.qtilde) for r in scalar] == [two_product_radii(w, mm) for w in words]
        assert contractive_stacked(np.array(words), mm).tolist() == \
            [r.admissible for r in scalar]

    @PROPERTY
    @given(plants(), st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=9),
                              min_size=1, max_size=10))
    def test_ragged_verdict_is_scalar_verdict(self, plant, words):
        # rows of mixed lengths in any order come back in input order
        model, gains = plant
        mm = mode_matrices(model, gains)
        words = [tuple(word) for word in words]
        try:
            scalar = [admissibility(word, mm) for word in words]
        except NilpotencyError:
            with pytest.raises(NilpotencyError):
                contractive_stacked(words, mm)
            return
        assert contractive_stacked(words, mm).tolist() == [r.admissible for r in scalar]

    @PROPERTY
    @given(plants(defective=True), st.lists(st.lists(st.integers(0, 1), min_size=1,
                                                     max_size=6), min_size=1, max_size=10))
    def test_certificate_verdict_is_eigvals_verdict(self, plant, words):
        # defective mode matrices within 1e-5 of the threshold, where the
        # eigenvalues of a Jordan block of size 3 move by about 1e-5
        model, gains = plant
        mm = mode_matrices(model, gains)
        words = [tuple(word) for word in words]
        try:
            scalar = [admissibility(word, mm).admissible for word in words]
        except NilpotencyError:
            return
        assert contractive_stacked(words, mm).tolist() == scalar

    @PROPERTY
    @given(st.one_of(plants(), plants(defective=True)))
    def test_spectral_radius_is_the_one_matrix_stack(self, plant):
        # one eigvals wrapper: a matrix's radius is its one-matrix stack's,
        # and the two-dimensional eigvals radius, bit for bit
        model, gains = plant
        for m in (model.a, model.a + gains.k, model.a + gains.l):
            rho = linalg.spectral_radius(m)
            assert rho == linalg.spectral_radii(m[None])[0]
            assert rho == np.max(np.abs(np.linalg.eigvals(m)))

    @PROPERTY
    @given(plants(defective=True))
    def test_joint_steps_are_the_oracle(self, plant):
        # to rounding: the oracle multiplies the noise out through Gbreve,
        # and _joint_steps writes its blocks down
        model, gains = plant
        a, w = _joint_steps(mode_matrices(model, gains))
        aug = build_augmented(model, gains)
        for eta in (0, 1):
            for got, ref in ((a[eta], aug.a_modes[eta]), (w[eta], aug.step_noise(eta))):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @PROPERTY
    @given(plants(defective=True), st.lists(st.integers(0, 1), min_size=1, max_size=9))
    def test_scan_phases_are_the_recursion(self, plant, word):
        # every phase of the prefix scan, on the error and joint systems,
        # against the step-by-step recursion, where the steady solve is
        # well conditioned (see STEIN_BOUND)
        model, gains = plant
        mm = mode_matrices(model, gains)
        word = tuple(word)
        try:
            admissibility(word, mm)
        except NilpotencyError:
            return
        aug = build_augmented(model, gains)
        error_steps = [mm.atilde(eta) for eta in word]
        assume(well_conditioned(error_steps))
        systems = [(lambda: steady_error_cov(word, mm),
                    error_steps,
                    [error_noise_term(eta, gains.l, model.sigma_v, model.sigma_w)
                     for eta in word])]
        joint_steps = [aug.a_modes[eta] for eta in word]
        if well_conditioned(joint_steps):
            systems.append((lambda: steady_augmented_cov(word, mm)[0],
                            joint_steps, [aug.step_noise(eta) for eta in word]))
        for solve, a_seq, w_seq in systems:
            try:
                steady = solve()
                ref = recursive_steady_phases(a_seq, w_seq)
            except NumericsError:
                assume(False)
            for p, r in zip(steady, ref):
                assert np.max(np.abs(p - r)) <= 1e-10 * np.max(np.abs(r))

    @PROPERTY
    @given(plants(defective=True), st.lists(st.integers(0, 1), min_size=1, max_size=9),
           st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_transient_is_the_step_loops(self, plant, word, steps, seed):
        # every step of the scan-and-period transient, horizons inside a
        # period included, against the step-by-step loops, under the
        # precondition of test_scan_phases_are_the_recursion on both the
        # error and the joint system; each step within 1e-12 of its largest
        # entry (1.4e-13 the largest over 1000 draws). The steady mean
        # phases are within 1e-12 of the loop oracle (4.5e-14 the largest)
        # and close the recursion.
        model, gains = plant
        mm = mode_matrices(model, gains)
        word = tuple(word)
        try:
            admissibility(word, mm)
        except NilpotencyError:
            return
        aug = build_augmented(model, gains)
        assume(well_conditioned([mm.atilde(eta) for eta in word]))
        assume(well_conditioned([aug.a_modes[eta] for eta in word]))
        rng = np.random.default_rng(seed)
        n = model.n
        x_t = rng.standard_normal(n)
        target = TargetSpec(x_t, (np.eye(n) - model.a) @ x_t)  # B = I
        mu0, cov0 = rng.standard_normal(2 * n), make_psd(rng, 2 * n)
        means, covs = transient(word, mm, target, mu0, cov0, steps)
        xs, es = loop_mean_propagate(mm, mu0[:n], mu0[n:], word, target, steps)
        joint = loop_cov_propagate(aug.a_modes, [aug.step_noise(eta) for eta in (0, 1)],
                                   cov0, word, steps)
        error = loop_cov_propagate(*_error_steps(mm), cov0[n:, n:], word, steps)
        for got, ref in ((means, np.hstack((xs, es))), (covs, joint),
                         (propagate_error_cov(cov0[n:, n:], word, mm, steps), error)):
            for g, r in zip(got, ref):
                assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))
        phases = steady_mean_phases(mm, word, target)
        ref = loop_steady_mean_phases(mm, word, target)
        assert np.max(np.abs(phases - ref)) <= 1e-12 * np.max(np.abs(ref))
        feed = target.u_target - gains.k @ x_t
        for k, eta in enumerate(word):
            nxt = phases[(k + 1) % len(word)]
            resid = np.linalg.norm(mm.abar(eta) @ phases[k] + eta * feed - nxt)
            assert resid <= 1e-12 * np.linalg.norm(nxt)

    @PROPERTY
    @given(plants(), WEIGHTS, st.lists(st.integers(0, 1), min_size=1, max_size=7))
    def test_batched_cost_is_scalar_cost(self, plant, kind, word):
        model, gains = plant
        word = tuple(word)
        weights = make_weights(kind, model.n, np.random.default_rng(len(word)))
        try:
            expected = scalar_cost(word, model, gains, weights)
        except NilpotencyError:
            with pytest.raises(NilpotencyError):
                SequenceEvaluator(model, gains, weights).resolve([word])
            return
        # the word itself is the row evaluated, so a fallback sees the
        # same monodromy as the scalar solve; inf is the inadmissible verdict
        cost, = SequenceEvaluator(model, gains, weights).resolve([word])
        if expected is None:
            assert cost == np.inf
        else:
            assert cost == pytest.approx(expected, rel=1e-9)

    @PROPERTY
    @given(plants(), WEIGHTS, st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=7),
                                       min_size=1, max_size=10))
    def test_mixed_period_resolve_is_per_necklace(self, plant, kind, words):
        model, gains = plant
        words = [tuple(word) for word in words]
        weights = make_weights(kind, model.n, np.random.default_rng(len(words)))
        try:
            together = SequenceEvaluator(model, gains, weights).resolve(words)
        except NilpotencyError:
            # some word uses a nilpotent mode, and its own evaluation says so
            with pytest.raises(NilpotencyError):
                for word in words:
                    SequenceEvaluator(model, gains, weights).resolve([word])
            return
        except NumericsError:
            assume(False)
        # rows of every period in one stacked pass, bit for bit the values
        # of evaluating each row alone
        assert together == [SequenceEvaluator(model, gains, weights).resolve([word])[0]
                            for word in words]

    @PROPERTY
    @given(plants(), WEIGHTS, st.lists(st.integers(0, 1), min_size=2, max_size=7))
    def test_rotation_invariance(self, plant, kind, word):
        model, gains = plant
        weights = make_weights(kind, model.n, np.random.default_rng(len(word)))
        rotations = sorted({tuple(word[i:] + word[:i]) for i in range(len(word))})
        mm = mode_matrices(model, gains)
        try:
            reports = [admissibility(rotation, mm) for rotation in rotations]
        except NilpotencyError:
            return
        radii = [max(r.qbar, r.qtilde) for r in reports]
        # equal in exact arithmetic; only a radius within rounding of the
        # threshold may land on different sides of it
        assume(all(abs(rho - (1.0 - CONTRACTION_MARGIN)) > 1e-12 for rho in radii))
        assert len({r.admissible for r in reports}) == 1
        verdicts = contractive_stacked(np.array(rotations), mm)
        assert verdicts.tolist() == [reports[0].admissible] * len(rotations)
        for rho, other in zip(radii, radii[1:]):
            assert other == pytest.approx(rho, rel=1e-6, abs=1e-12)
        assume(not reports[0].admissible or radii[0] < 1.0 - COST_MARGIN)
        try:
            # each rotation is its own row, evaluated from its own phase 0
            costs = SequenceEvaluator(model, gains, weights).resolve(rotations)
        except NumericsError:
            assume(False)
        if not reports[0].admissible:
            assert all(cost == np.inf for cost in costs)
            return
        for cost in costs[1:]:
            assert cost == pytest.approx(costs[0], rel=1e-9)

    @PROPERTY
    @given(plants(), WEIGHTS, st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_similarity_invariance(self, plant, kind, length, seed):
        # the coordinates x -> T x, cond(T) <= 20, take (A, B, C) to
        # (T A T^-1, T B, C T^-1), (K, L) to (K T^-1, T L), Sigma_w to
        # T Sigma_w T' and each cost weight R to T^-T R T^-1: every
        # monodromy is similar and every phase congruent. On each word of
        # the length whose radii are COST_MARGIN from the threshold, the
        # verdicts are equal, the radii and costs within SIMILARITY_RTOL;
        # where every word is, each winner is in the other's tie class
        # widened by that tolerance, and its steady error and joint phases
        # are T P T' within SIMILARITY_PHASE_RTOL
        model, gains = plant
        n = model.n
        rng = np.random.default_rng(seed)
        (q1, _), (q2, _) = (np.linalg.qr(rng.standard_normal((n, n))) for _ in range(2))
        t = q1 @ np.diag(rng.uniform(1.0, 20.0, n)) @ q2
        ti = np.linalg.inv(t)
        weights = make_weights(kind, n, rng)
        moved_weights = CostWeights(*(None if r is None else ti.T @ r @ ti
                                      for r in (weights.r_err, weights.r_state)),
                                    r_eta=weights.r_eta)
        moved = SystemModel(a=t @ model.a @ ti, b=t @ model.b, c=model.c @ ti,
                            sigma_w=t @ model.sigma_w @ t.T, sigma_v=model.sigma_v)
        moved_gains = GainSet(k=gains.k @ ti, l=t @ gains.l)
        mm, moved_mm = mode_matrices(model, gains), mode_matrices(moved, moved_gains)
        words = list(itertools.product((0, 1), repeat=length))
        try:
            reports = [admissibility(word, mm) for word in words]
        except NilpotencyError:
            return
        options = SearchOptions(include_table=True)
        try:
            result = search_fixed_length(length, model, gains, weights, options)
            moved_result = search_fixed_length(length, moved, moved_gains, moved_weights,
                                               options)
        except NumericsError:
            assume(False)
        clear = [all(abs(rho - (1.0 - CONTRACTION_MARGIN)) >= COST_MARGIN
                     for rho in (r.qbar, r.qtilde)) for r in reports]
        for word, report, row, moved_row, ok in zip(words, reports, result.table,
                                                    moved_result.table, clear):
            if not ok:
                continue
            moved_report = admissibility(word, moved_mm)
            assert moved_report.admissible == report.admissible
            for rho, moved_rho in ((report.qbar, moved_report.qbar),
                                   (report.qtilde, moved_report.qtilde)):
                assert moved_rho == pytest.approx(rho, rel=SIMILARITY_RTOL, abs=1e-12)
            assert row[0] == moved_row[0] == word and (row[2] is None) == (moved_row[2] is None)
            if row[2] is not None:
                assert moved_row[2] == pytest.approx(row[2], rel=SIMILARITY_RTOL)
        if not all(clear) or not result.feasible:
            return
        band = (1.0 + COST_RTOL) * (1.0 + SIMILARITY_RTOL) ** 2
        for res, other in ((result, moved_result), (moved_result, result)):
            costs = {word: cost for word, _, cost in other.table}
            assert costs[res.sequence.bits] <= other.cost * band
        word = result.sequence.bits
        big_t = np.kron(np.eye(2), t)
        for got, ref, big in ((steady_error_cov(word, moved_mm), steady_error_cov(word, mm), t),
                              (steady_augmented_cov(word, moved_mm)[0],
                               steady_augmented_cov(word, mm)[0], big_t)):
            ref = big @ ref.phases @ big.T
            assert np.max(np.abs(got.phases - ref)) <= SIMILARITY_PHASE_RTOL * np.max(np.abs(ref))

    @PROPERTY
    @given(plants(), st.sampled_from(["estimation", "blended", "state"]),
           st.lists(st.integers(0, 1), min_size=3, max_size=9), st.data())
    def test_segment_law_is_associative_and_splits_the_cost(self, plant, kind, word, data):
        # three pieces of the word, each folded step by step, compose to
        # the same segment in either association: each entry within 1e-12
        # of the same fold on the entries' moduli, which bounds the
        # rounding of both. Split in two, the word's cost is the fold's
        # and sequence_cost's.
        model, gains = plant
        word = tuple(word)
        weights = make_weights(kind, model.n, np.random.default_rng(len(word)))
        try:
            expected = scalar_cost(word, model, gains, weights)
        except NilpotencyError:
            return
        evaluator = SequenceEvaluator(model, gains, weights)
        steps = evaluator._segments
        compose = covariance_module._compose

        def fold(stacks, bits):
            segment = (*(stack[[bits[0]]] for stack in stacks), np.zeros(1))
            for eta in bits[1:]:
                segment = compose((*(stack[[eta]] for stack in stacks), 0.0), segment)
            return segment

        i, j = sorted(data.draw(st.lists(st.integers(1, len(word) - 1), min_size=2,
                                         max_size=2, unique=True)))
        first, middle, last = (fold(steps, piece) for piece in (word[:i], word[i:j], word[j:]))
        left = compose(compose(last, middle), first)
        right = compose(last, compose(middle, first))
        moduli = fold(tuple(np.abs(stack) for stack in steps), word)
        for x, y, scale in zip(left, right, moduli):
            assert np.all(np.abs(x - y) <= 1e-12 * scale)
        if expected is None:
            return
        phi, v, g, c = compose(fold(steps, word[i:]), fold(steps, word[:i]))
        try:
            p0 = linalg.solve_discrete_lyapunov(phi[0], linalg.sym_part(v[0]))
        except NumericsError:
            assume(False)
        split = (weights.r_eta * sum(word) + c[0] + np.trace(g[0] @ p0)) / len(word)
        assert split == pytest.approx(evaluator.resolve([word])[0], rel=1e-9)
        assert split == pytest.approx(expected, rel=1e-9)


def cw_words():
    """Every word of period 1 to 8, and four seeded words of each period
    from 9 to 64."""
    rng = np.random.default_rng(14)
    words = [w for p in range(1, 9) for w in itertools.product((0, 1), repeat=p)]
    return words + [tuple(rng.integers(0, 2, p).tolist()) for p in range(9, 65) for _ in range(4)]


def test_cw_radii_are_two_product_radii(cw_mm):
    for word in cw_words():
        report = admissibility(word, cw_mm)
        assert (report.qbar, report.qtilde) == two_product_radii(word, cw_mm), word


def test_cw_certificate_verdict_is_eigvals_verdict(cw_mm):
    # every binary necklace of length up to 18 (31042 cores), each side
    # decided by eigvals alone against contractive_stacked
    cores = sorted({least for length in range(1, 19) for least in _necklaces(length)})
    radii = linalg.spectral_radii(_stacked_products(cw_mm.side_steps, _padded(cores)[1]))
    expected = is_contractive(radii).all(axis=1)
    assert np.array_equal(contractive_stacked(cores, cw_mm), expected)


class TestCertificateEdges:
    @staticmethod
    def diagonal_plant(a, feedback):
        """B = C = I, L = 0: control modes a and feedback, observer modes a."""
        n = len(a)
        model = SystemModel(a=np.diag(a), b=np.eye(n), c=np.eye(n), sigma_w=np.eye(n),
                            sigma_v=np.eye(n))
        return mode_matrices(model, GainSet(k=np.diag(feedback) - np.diag(a),
                                            l=np.zeros((n, n))))

    def test_zero_product_is_contractive(self, monkeypatch):
        mm = self.diagonal_plant([0.5, 0.0], [0.0, 0.5])
        report = admissibility((0, 1), mm)
        assert report.qbar == 0.0 and report.admissible
        # the zero control product has no norm to bound, so eigvals decides it
        rows = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or real(a))
        assert contractive_stacked([(0, 1)], mm).tolist() == [True]
        assert rows == [1]

    @pytest.mark.parametrize("diagonal, verdict, rows", [
        ((-2e-6, None), True, 0), ((-5e-7, None), True, 2),
        ((5e-7, 5e-7), False, 2), ((2e-6, 2e-6), False, 0),
    ])
    def test_bounds_decide_outside_the_slack(self, monkeypatch, diagonal, verdict, rows):
        # diag(r, 0) has upper bound r, diag(r, r) lower bound r, up to
        # rounding; within the slack of the threshold eigvals decides both
        # sides, and outside it neither
        threshold = 1.0 - CONTRACTION_MARGIN
        a = [0.0 if gap is None else threshold + gap for gap in diagonal]
        mm = self.diagonal_plant(a, [0.5, 0.5])
        calls = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(len(m)) or real(m))
        assert contractive_stacked([(0,)], mm).tolist() == [verdict]
        assert sum(calls) == rows

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("word", [(0,) * 6, (0, 1) * 3])
    def test_non_finite_product_raises(self, word):
        # mode matrices of norm 1e60 overflow in six steps; the stacked and
        # the scalar verdict both refuse the product, with no warning
        mm = self.diagonal_plant([1e60, 0.5], [0.5, 1e60])
        with pytest.raises(NumericsError):
            contractive_stacked([word], mm)
        with pytest.raises(NumericsError):
            admissibility(word, mm)


#: a sheared rotation at radius 1 - 3e-5: its powers grow before they
#: decay, and doubling, which squares them, loses about 30 times the
#: residual contract's digits, where the scalar solver keeps it with a
#: factor of 5 to spare
NEAR_UNIT = (1.0 - 3e-5) * (np.array([[1.0, 10.0], [0.0, 1.0]])
                            @ np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
                            @ np.array([[1.0, -10.0], [0.0, 1.0]]))
NEAR_UNIT_NOISE = np.diag([1e-3, 5e-4])


class TestSolverContract:
    def test_near_unit_circle_falls_back(self):
        model = SystemModel(a=NEAR_UNIT, b=np.eye(2), c=np.eye(2), sigma_w=NEAR_UNIT_NOISE,
                            sigma_v=np.eye(2))
        gains = GainSet(k=np.zeros((2, 2)), l=np.zeros((2, 2)))  # every mode is A
        weights = CostWeights.estimation(2)
        evaluator = SequenceEvaluator(model, gains, weights)
        report, (cost,) = admissibility((0,), evaluator.mm), evaluator.resolve([(0,)])
        assert report.admissible and evaluator.fallbacks == 1
        err = steady_error_cov("0", evaluator.mm)
        assert cost == pytest.approx(sequence_cost("0", err, None, weights), rel=1e-9)
        evaluator.resolve([(0,)])  # served from the cache
        assert evaluator.fallbacks == 1

    def test_no_fallback_on_case_study(self, cw_model, cw_gains):
        evaluator = SequenceEvaluator(cw_model, cw_gains, CostWeights.estimation(6))
        search_fixed_length(10, cw_model, cw_gains, evaluator.weights, evaluator=evaluator)
        # the long-actuation word of the covariance tests is far from the
        # unit circle on the observer side (qtilde 0.29)
        word = (1,) * 46 + (0, 0)
        report = admissibility(word, evaluator.mm)
        evaluator.resolve([(0, 0) + (1,) * 46])  # its least rotation
        assert report.admissible and evaluator.fallbacks == 0

    def test_stacked_solve_mixed_batch(self):
        rng = np.random.default_rng(5)
        f = np.stack([make_stable(rng, 2, rho) for rho in (0.2, 0.9, 0.99)] + [NEAR_UNIT])
        w = np.stack([make_psd(rng, 2) for _ in range(3)] + [NEAR_UNIT_NOISE])
        x, fallbacks = linalg.solve_discrete_lyapunov_stacked(f, w)
        assert fallbacks == 1
        for fi, wi, xi in zip(f, w, x):
            resid = np.linalg.norm(xi - fi @ xi @ fi.T - wi)
            assert resid <= linalg.LYAPUNOV_RTOL * (1.0 + np.linalg.norm(wi))
            expected = kron_dlyap(fi, wi)
            np.testing.assert_allclose(xi, expected, rtol=0, atol=1e-8 * np.abs(expected).max())

    def test_nilpotent_mode_raises_from_search(self):
        a = np.array([[0.5, 1.0], [0.0, 0.8]])
        model = SystemModel(a=a, b=np.eye(2), c=np.eye(2), sigma_w=np.eye(2),
                            sigma_v=np.eye(2))
        # L = -A makes the sensing-step observer matrix A + LC zero
        gains = GainSet(k=np.zeros((2, 2)), l=-a)
        with pytest.raises(NilpotencyError):
            search_fixed_length(3, model, gains, CostWeights.estimation(2))

    def test_search_makes_no_scalar_solve(self, cw_model, cw_gains, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("scalar solve called")

        for module, name in ((covariance_module, "steady_error_cov"),
                             (linalg, "solve_discrete_lyapunov")):
            monkeypatch.setattr(module, name, refuse)
        res = search_fixed_length(10, cw_model, cw_gains, CostWeights.estimation(6))
        assert str(res.sequence) == "0001100011"
        assert calls == []
