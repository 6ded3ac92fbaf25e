import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    build_augmented,
    check_psd_reference,
    decimal_expm,
    error_noise_term,
    kron_dlyap,
    make_psd,
    make_stable,
    scipy_dare,
    scipy_dlyap,
    scipy_expm,
)

from sensact import linalg
from sensact.exceptions import DimensionError, DomainError, NumericsError, StabilityError
from sensact.plant import CwParams, build_cw_continuous


class TestSpectralRadius:
    def test_identity(self):
        assert linalg.spectral_radius(np.eye(6)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert linalg.spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0)

    def test_diagonal(self):
        assert linalg.spectral_radius(np.diag([2.0, 0.5])) == pytest.approx(2.0)

    def test_complex_pair(self):
        # rotation by 90 degrees scaled by 3: eigenvalues +-3i
        assert linalg.spectral_radius([[0.0, -3.0], [3.0, 0.0]]) == pytest.approx(3.0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.spectral_radius(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            linalg.spectral_radius([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5))
        c = rng.uniform(-3.0, 3.0)
        assert linalg.spectral_radius(c * m) == pytest.approx(
            abs(c) * linalg.spectral_radius(m), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_bounded_by_frobenius(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = rng.standard_normal((6, 6))
        assert linalg.spectral_radius(m) <= np.linalg.norm(m, "fro") + 1e-12


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(linalg.matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        out = linalg.matrix_exponential(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-12)

    def test_nilpotent_exact(self):
        t = 3.7
        out = linalg.matrix_exponential([[0.0, t], [0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, t], [0.0, 1.0]], rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_identity(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = rng.standard_normal((5, 5))
        m *= 5.0 / np.linalg.norm(m, "fro")
        prod = linalg.matrix_exponential(m) @ linalg.matrix_exponential(-m)
        np.testing.assert_allclose(prod, np.eye(5), atol=1e-8)


class TestDiscreteLyapunov:
    def test_zero_f_returns_w(self):
        w = make_psd(np.random.default_rng(1), 4)
        np.testing.assert_allclose(
            linalg.solve_discrete_lyapunov(np.zeros((4, 4)), w), w, atol=1e-12
        )

    def test_scalar_closed_form(self):
        x = linalg.solve_discrete_lyapunov([[0.5]], [[1.0]])
        assert x[0, 0] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_kronecker_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        f = make_stable(rng, n, rng.uniform(0.1, 0.95))
        w = make_psd(rng, n)
        x = linalg.solve_discrete_lyapunov(f, w)
        expected = kron_dlyap(f, w)
        np.testing.assert_allclose(x, expected, atol=1e-8 * (1 + np.abs(expected).max()))

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError):
            linalg.solve_discrete_lyapunov([[1.01]], [[1.0]])

    def test_result_psd(self):
        rng = np.random.default_rng(77)
        f = make_stable(rng, 6, 0.9)
        w = make_psd(rng, 6)
        x = linalg.solve_discrete_lyapunov(f, w)
        assert np.min(np.linalg.eigvalsh(x)) >= -1e-10 * (1 + np.trace(x))


class TestDare:
    def test_scalar_golden_ratio(self):
        # p^2 - p - 1 = 0 for a = b = q = r = 1, stabilizing root
        p = linalg.solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert p[0, 0] == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-10)

    def test_zero_b_reduces_to_lyapunov(self):
        rng = np.random.default_rng(3)
        a = make_stable(rng, 4, 0.8)
        q = make_psd(rng, 4)
        p = linalg.solve_dare(a, np.zeros((4, 2)), q, np.eye(2))
        expected = linalg.solve_discrete_lyapunov(a.T, q)
        np.testing.assert_allclose(p, expected, atol=1e-9 * (1 + np.abs(expected).max()))

    def test_zero_b_unstable_a_rejected(self):
        with pytest.raises(StabilityError):
            linalg.solve_dare([[1.5]], [[0.0]], [[1.0]], [[1.0]])

    def test_rejects_indefinite_r(self):
        with pytest.raises(DomainError):
            linalg.solve_dare([[1.0]], [[1.0]], [[1.0]], [[-1.0]])

    @pytest.mark.parametrize("seed", range(100))
    def test_residual_and_stabilizing(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n)) * rng.uniform(0.3, 1.4)
        b = rng.standard_normal((n, m))
        q = make_psd(rng, n)
        r = make_psd(rng, m) + np.eye(m)
        p = linalg.solve_dare(a, b, q, r)
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        resid = np.linalg.norm(p - (a.T @ p @ a - a.T @ p @ b @ gain + q), "fro")
        assert resid <= 1e-8 * (1 + np.linalg.norm(p, "fro"))
        assert linalg.spectral_radius(a - b @ gain) < 1.0


class TestNilpotency:
    def test_strict_triangular(self):
        assert linalg.is_nilpotent(np.diag(np.ones(4), 1))

    def test_rotated_jordan_chain(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        j = np.diag(np.ones(5), 1) * 30.0
        assert linalg.is_nilpotent(q @ j @ q.T)

    def test_zero_matrix(self):
        assert linalg.is_nilpotent(np.zeros((3, 3)))

    def test_contractive_not_flagged(self):
        rng = np.random.default_rng(5)
        assert not linalg.is_nilpotent(make_stable(rng, 6, 0.03))

    def test_identity_not_flagged(self):
        assert not linalg.is_nilpotent(np.eye(5))

    def test_stacks_of_the_cases_above(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        chain = q @ (np.diag(np.ones(5), 1) * 30.0) @ q.T
        contractive = make_stable(np.random.default_rng(5), 6, 0.03)
        for stack, expected in (([np.diag(np.ones(4), 1), np.eye(5)], [True, False]),
                                ([contractive, chain, contractive], [False, True, False]),
                                ([np.zeros((3, 3))], [True])):
            verdicts = linalg.is_nilpotent(np.stack(stack))
            assert verdicts.dtype == bool and verdicts.tolist() == expected
            assert [linalg.is_nilpotent(m) for m in stack] == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from(["random", "upper", "chain", "zero"]),
                              st.integers(-20, 20)), min_size=1, max_size=5))
    def test_stack_verdict_is_per_matrix_verdict(self, n, seed, kinds):
        # random matrices are not nilpotent; strictly upper-triangular ones,
        # rotated Jordan chains and zero matrices are, at any scale
        rng = np.random.default_rng(seed)
        mats = []
        for kind, exponent in kinds:
            m = rng.standard_normal((n, n))
            if kind == "upper":
                m = np.triu(m, 1)
            elif kind == "chain":
                q, _ = np.linalg.qr(m)
                m = q @ np.diag(rng.uniform(0.5, 2.0, n - 1), 1) @ q.T
            elif kind == "zero":
                m = np.zeros((n, n))
            mats.append(m * 10.0**exponent)
        verdicts = linalg.is_nilpotent(np.stack(mats)).tolist()
        assert verdicts == [linalg.is_nilpotent(m) for m in mats]
        assert verdicts == [kind != "random" for kind, _ in kinds]


def _edge_ratios(m):
    """The reference check's symmetry and semi-definite statistics of a
    finite square matrix, each over its bound: ||skew(M/s)||_F and
    -lambda_min(sym(M/s)), over SYM_RTOL (1/s + ||M/s||_F)."""
    s = max(np.abs(m).max(initial=0.0), np.finfo(float).tiny)
    unit = m / s
    bound = linalg.SYM_RTOL * (1.0 / s + np.linalg.norm(unit))
    ratios = [np.linalg.norm(unit - unit.T) / bound]
    if m.size:
        ratios.append(-np.linalg.eigvalsh(0.5 * unit + 0.5 * unit.T)[0] / bound)
    return ratios


@st.composite
def check_inputs(draw):
    """One input of the one-matrix checks: PSD, indefinite and asymmetric
    matrices scaled by 10^-300 to 10^300; matrices at a drawn relative
    distance of 1e-9 to 0.5 from the symmetry edge, the semi-definite edge
    or both, on either side; zero, empty and 1 x 1 matrices; non-finite
    entries; non-square, 1-D and 3-D inputs; each as an array or as nested
    lists."""
    kind = draw(st.sampled_from(["psd", "indefinite", "asymmetric", "symmetry edge",
                                 "psd edge", "both edges", "zero", "non-finite",
                                 "non-square", "1-D", "3-D"]))
    n = draw(st.integers(0 if kind == "zero" else 1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.standard_normal((n, n))
    m = root @ root.T / n
    if kind == "indefinite":
        m -= np.trace(m) / n * np.eye(n)
    elif kind == "asymmetric":
        m = root
    elif kind == "zero":
        m = np.zeros((n, n))
    elif kind == "non-square":
        m = rng.standard_normal((n, n + 1))
    elif kind == "1-D":
        m = root[0]
    elif kind == "3-D":
        m = np.stack([m, m])
    # the 1/s term of the bound swamps every entry of M/s below 1e-8
    m = m * 10.0 ** draw(st.integers(-8 if "edge" in kind else -300, 300))
    if kind == "non-finite":
        m[rng.integers(n), rng.integers(n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))

    def at_ratio(target, build, statistic):
        # the statistic is close to linear in t: two rescalings land near
        # the target, within the rounding of an eigenvalue
        t = target
        for _ in range(2):
            t *= target / statistic(build(t))
        return build(t)

    # both statistics over their bounds are close to x / bound, x the skew
    # norm of M or minus its smallest eigenvalue, with bound formed so that
    # it does not overflow
    if "edge" in kind:
        s = np.abs(m).max()
        bound = linalg.SYM_RTOL * (1.0 / s + np.linalg.norm(m / s)) * s
    sides = st.sampled_from([-1.0, 1.0])
    if kind in ("psd edge", "both edges"):
        target = 1.0 + draw(sides) * 10.0 ** draw(st.floats(-9.0, -0.3))
        w, v = np.linalg.eigh(m)
        m = at_ratio(target, lambda t: (v * np.concatenate([[-t * bound], w[1:]])) @ v.T,
                     lambda x: _edge_ratios(x)[1])
    if kind in ("symmetry edge", "both edges") and n > 1:
        # inside the symmetry bound with the semi-definite edge, so that
        # the eigenvalue test runs on a matrix that is not quite symmetric
        target = (draw(st.floats(0.3, 0.99)) if kind == "both edges"
                  else 1.0 + draw(sides) * 10.0 ** draw(st.floats(-9.0, -0.3)))
        k = np.triu(rng.standard_normal((n, n)), 1)
        k = (k - k.T) / np.linalg.norm(k - k.T)
        base = m
        m = at_ratio(target, lambda t: base + t * bound / 2.0 * k, lambda x: _edge_ratios(x)[0])
    if m.ndim == 2 and m.shape[0] == m.shape[1] and np.isfinite(m).all():
        assume(all(abs(r - 1.0) >= 1e-9 for r in _edge_ratios(m)))
    return m.tolist() if draw(st.booleans()) else m


def _outcome(check, m, **kwargs):
    """(dtype, shape, bytes) of what check returns, or (type, message) of
    what it raises."""
    try:
        out = check(m, "M", **kwargs)
    except (DimensionError, DomainError) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


class TestCheckKernel:
    """The one-matrix kernel of check_symmetric and check_psd gives the
    verdict, message and returned bytes of the broadcasting code it
    replaced, kept in tests/oracles.py."""

    @settings(max_examples=400, deadline=None)
    @given(check_inputs())
    def test_same_outcome_as_reference(self, m):
        assert _outcome(linalg.check_psd, m) == _outcome(check_psd_reference, m)
        assert _outcome(linalg.check_symmetric, m) == \
            _outcome(check_psd_reference, m, psd=False)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestTypedFailures:
    """Solver failures are NumericsError, never a NaN result or a warning."""

    def test_uncontrollable_unstable_mode_raises(self):
        # the 1.5 mode is unstable and B cannot reach it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                linalg.solve_dare(np.diag([1.5, 0.5]), [[0.0], [1.0]], np.eye(2), [[1.0]])

    def test_unit_circle_mode_without_weight_raises(self):
        # Q = 0 leaves the uncontrollable unit-circle mode of A = I unweighted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                linalg.solve_dare(np.eye(2), [[0.0], [1.0]], np.zeros((2, 2)), [[1.0]])

    def test_zero_q_returns_stabilizing_solution(self):
        # Q = 0 also admits P = 0, which leaves the 1.5 mode unstable; the
        # stabilizing solution mirrors it to 1/1.5 at cost p11 = 1.5^2 - 1
        a = np.diag([1.5, 0.5])
        b = np.array([[1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = linalg.solve_dare(a, b, np.zeros((2, 2)), [[1.0]])
        np.testing.assert_allclose(p, [[1.25, 0.0], [0.0, 0.0]], atol=1e-12)
        gain = np.linalg.solve(1.0 + b.T @ p @ b, b.T @ p @ a)
        assert linalg.spectral_radius(a - b @ gain) == pytest.approx(1.0 / 1.5)

    def test_exponential_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                linalg.matrix_exponential([[1000.0]])


class TestAgainstScipy:
    """The numpy-only kernels against scipy's independent algorithms."""

    @pytest.mark.parametrize("seed", range(60))
    def test_exponential_random(self, seed):
        # one-norms spread log-uniformly over 1e-3 .. 1e2; scipy is allowed
        # its own distance from a 40-digit reference (1.3e-12 for seed 54)
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n))
        m *= 10.0 ** rng.uniform(-3.0, 2.0) / np.abs(m).sum(axis=0).max()
        out, exact, ref = linalg.matrix_exponential(m), decimal_expm(m), scipy_expm(m)
        assert _rel(out, exact) <= 1e-13
        assert _rel(out, ref) <= 1e-12 + _rel(ref, exact)

    @pytest.mark.parametrize("lam", [0.0, -1.0, 0.5, 2.0])
    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_exponential_jordan_block(self, lam, size):
        # exp(lam I + t N) = e^lam sum_k (t N)^k / k!, exactly
        nil = 3.0 * np.eye(size, k=1)
        m = lam * np.eye(size) + nil
        exact = np.exp(lam) * sum(np.linalg.matrix_power(nil, k) / np.prod(range(1, k + 1))
                                  for k in range(size))
        out = linalg.matrix_exponential(m)
        assert _rel(out, exact) <= 1e-13
        assert _rel(out, scipy_expm(m)) <= 1e-12

    def test_exponential_cw_zoh_block(self):
        a_c, b_c = build_cw_continuous(CwParams(mass=140.0, mean_motion=0.001, ts=30.0))
        block = np.zeros((9, 9))
        block[:6, :6] = a_c
        block[:6, 6:] = b_c
        block *= 30.0
        assert _rel(linalg.matrix_exponential(block), scipy_expm(block)) <= 1e-12

    def test_dare_random(self):
        # 240 plants with spectral radius 0.2 .. 2 and Q = C'C of every rank
        # from 0 (Q = 0) to n; tolerance relative to ||P||, plus 1e-12 for
        # the P = 0 of a stable A with Q = 0
        for seed in range(240):
            rng = np.random.default_rng(4000 + seed)
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.2, 2.0) / linalg.spectral_radius(a)
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((int(rng.integers(0, n + 1)), n))
            r = make_psd(rng, m) + np.eye(m)
            ref = scipy_dare(a, b, c.T @ c, r)
            err = np.linalg.norm(linalg.solve_dare(a, b, c.T @ c, r) - ref)
            assert err <= 1e-8 * np.linalg.norm(ref) + 1e-12, seed

    @pytest.mark.parametrize("word", ["1" * 46 + "00", "1" * 60 + "0000", "0" * 40 + "111"])
    @pytest.mark.parametrize("side", ["error", "joint"])
    def test_lyapunov_stiff_cw_monodromy(self, cw_model, cw_gains, cw_mm, word, side):
        bits = [int(ch) for ch in word]
        if side == "error":
            mats = [cw_mm.atilde(eta) for eta in bits]
            noise = [error_noise_term(eta, cw_gains.l, cw_model.sigma_v, cw_model.sigma_w)
                     for eta in bits]
        else:
            aug = build_augmented(cw_model, cw_gains)
            mats = [aug.a_modes[eta] for eta in bits]
            noise = [aug.step_noise(eta) for eta in bits]
        f = np.eye(mats[0].shape[0])
        w = np.zeros_like(f)
        for a, q in zip(mats, noise):
            f = a @ f
            w = a @ w @ a.T + q
        w = linalg.sym_part(w)
        x = linalg.solve_discrete_lyapunov(f, w)
        resid = np.linalg.norm(x - f @ x @ f.T - w)
        assert resid <= linalg.LYAPUNOV_RTOL * (1.0 + np.linalg.norm(w))
        # the joint operators are ill-conditioned (cond(I - F (x) F) up to
        # 3e14); a last-bit change of the gains has moved the unrefined
        # bilinear oracle's relative residual there to 5e-11
        assert _rel(x, scipy_dlyap(f, w)) <= 1e-9
