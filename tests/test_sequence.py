import itertools
import math

import numpy as np
import pytest

from oracles import brute_force_core, exact_log_fro_power, make_stable

from sensact import linalg
from sensact.exceptions import DomainError, NilpotencyError
from sensact.modelio import build_from_config, validate_config
from sensact.plant import ModeMatrices, mode_matrices
from sensact.sequence import (
    _MAX_KSTAR,
    _MAX_POWERS,
    SwitchSequence,
    _stacked_products,
    admissibility,
    dwell_counts,
    dwell_feasible,
    growth_constant,
    irreducible_core,
    proper_divisors,
    uniform_growth_constant,
)


def make_mode_matrices(rng, n=3, rho0=1.1, rho1=0.5, rho_t0=0.4):
    """Random mode-matrix family with prescribed per-mode spectral radii;
    coast matrix shared between the control and observer sides."""
    a = make_stable(rng, n, rho0)
    bar1 = make_stable(rng, n, rho1)
    til0 = make_stable(rng, n, rho_t0)
    return ModeMatrices(
        a=a, b=np.zeros((n, 1)), k=np.zeros((1, n)), l=np.zeros((n, 1)),
        sigma_w=np.zeros((n, n)), sigma_v=np.zeros((1, 1)),
        omega_bar0=a, omega_bar1=bar1, omega_tilde0=til0, omega_tilde1=a,
    )


class TestSwitchSequence:
    def test_from_string_roundtrip(self):
        s = SwitchSequence.from_string("00110")
        assert s.bits == (0, 0, 1, 1, 0)
        assert str(s) == "00110"

    def test_periodic_indexing(self):
        s = SwitchSequence((0, 1))
        assert [s[k] for k in range(5)] == [0, 1, 0, 1, 0]

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            SwitchSequence(())

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            SwitchSequence((0, 2))
        with pytest.raises(DomainError):
            SwitchSequence.from_string("01x")

    @pytest.mark.parametrize("bits", [(0.5, 1.7), np.array([0.9, 1.2]), ("1",), (0, "0"),
                                      (1, float("nan"))])
    def test_rejects_bits_that_int_would_truncate(self, bits):
        # each raw bit is tested against 0 and 1 before it is made an int
        with pytest.raises(DomainError, match="bits must be 0 or 1"):
            SwitchSequence(bits)

    @pytest.mark.parametrize("bits", [(0, 1), (False, True), np.array([0, 1]),
                                      (np.int8(0), np.uint64(1)), (0.0, 1.0),
                                      np.array([0.0, 1.0])])
    def test_accepts_every_form_of_a_bit(self, bits):
        s = SwitchSequence(bits)
        assert s.bits == (0, 1) and all(type(b) is int for b in s.bits)


class TestProperDivisors:
    def test_prime(self):
        assert proper_divisors(7) == {1}

    def test_eight(self):
        assert proper_divisors(8) == {1, 2, 4}

    def test_one(self):
        assert proper_divisors(1) == set()

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            proper_divisors(0)


class TestIrreducibleCore:
    def test_period_two(self):
        assert irreducible_core("0101").bits == (0, 1)

    def test_case_study_reducible(self):
        assert irreducible_core("00110011").bits == (0, 0, 1, 1)

    def test_prime_length_irreducible(self):
        assert irreducible_core("001").bits == (0, 0, 1)

    def test_all_equal(self):
        assert irreducible_core("1111").bits == (1,)
        assert irreducible_core("000").bits == (0,)

    @pytest.mark.parametrize("length", range(1, 11))
    def test_exhaustive_against_brute_force(self, length):
        for word in itertools.product((0, 1), repeat=length):
            assert irreducible_core(word).bits == brute_force_core(word)

    def test_idempotent(self):
        for word in itertools.product((0, 1), repeat=6):
            core = irreducible_core(word)
            assert irreducible_core(core).bits == core.bits


class TestDwellCounts:
    def test_alternating_pair(self):
        d = dwell_counts("01")
        assert (d.n0, d.n1, d.ns) == (1, 1, 2)

    def test_three_five(self):
        d = dwell_counts("00011111")
        assert (d.n0, d.n1, d.ns) == (3, 5, 2)

    def test_single_block(self):
        d = dwell_counts("111")
        assert (d.n0, d.n1, d.ns) == (0, 3, 1)

    def test_no_wraparound(self):
        # periodic extension of 10 switches at the seam, but ns counts
        # blocks inside the written window only
        d = dwell_counts("10")
        assert d.ns == 2
        d = dwell_counts("101")
        assert d.ns == 3

    def test_counts_sum_to_period(self):
        for word in itertools.product((0, 1), repeat=5):
            d = dwell_counts(word)
            assert d.n0 + d.n1 == 5
            assert 1 <= d.ns <= 5


class TestGrowthConstant:
    def test_identity_family(self):
        n = 4
        eye = np.eye(n)
        mm = ModeMatrices(
            a=eye, b=np.zeros((n, 1)), k=np.zeros((1, n)), l=np.zeros((n, 1)),
            sigma_w=np.zeros((n, n)), sigma_v=np.zeros((1, 1)),
            omega_bar0=eye, omega_bar1=eye, omega_tilde0=eye, omega_tilde1=eye,
        )
        assert growth_constant(mm) == pytest.approx(np.sqrt(n))

    def test_diagonal_single(self):
        d = np.diag([0.5, 0.25])
        mm = ModeMatrices(
            a=d, b=np.zeros((2, 1)), k=np.zeros((1, 2)), l=np.zeros((2, 1)),
            sigma_w=np.zeros((2, 2)), sigma_v=np.zeros((1, 1)),
            omega_bar0=d, omega_bar1=d, omega_tilde0=d, omega_tilde1=d,
        )
        expected = np.linalg.norm(d, "fro") / 0.5
        assert growth_constant(mm) == pytest.approx(expected)

    def test_case_study_value(self, cw_mm):
        # the coast matrix attains the family max here: ||A||_F / 1.0;
        # the reported 51.95 remains within the acceptance band
        c = growth_constant(cw_mm)
        assert c == pytest.approx(52.019, abs=0.01)
        assert c == pytest.approx(51.950, abs=0.1)

    def test_kstar_search_not_larger(self, cw_mm):
        assert growth_constant(cw_mm, search_kstar=True) <= growth_constant(cw_mm) + 1e-12

    def test_at_least_one(self, cw_mm):
        for family in ("control", "observer", "all"):
            assert growth_constant(cw_mm, family=family) >= 1.0

    @pytest.mark.parametrize("family", ["control", "observer", "all"])
    @pytest.mark.parametrize("kwargs", [{"kstar": 1}, {"kstar": 3}, {"search_kstar": True}],
                             ids=["kstar-1", "kstar-3", "search-kstar"])
    def test_recorded_radii_and_norms_are_per_matrix_values(self, cw_mm, family, kwargs):
        # the radii mode_matrices takes in one batched eigvals call, and its
        # Frobenius norms, give bit for bit the per-matrix computation at
        # kstar=1; a larger kstar reads the log-scaled power walk, held to
        # exact integer powers of the same matrices
        mats = {"control": (cw_mm.omega_bar0, cw_mm.omega_bar1),
                "observer": (cw_mm.omega_tilde0, cw_mm.omega_tilde1),
                "all": (cw_mm.omega_bar0, cw_mm.omega_bar1,
                        cw_mm.omega_tilde0, cw_mm.omega_tilde1)}[family]
        radii = [linalg.spectral_radius(m) for m in mats]

        def c_for(k):
            if k == 1:
                return max(float(np.linalg.norm(m, "fro")) / r for m, r in zip(mats, radii))
            return max(math.exp(exact_log_fro_power(m, k) / k) / r for m, r in zip(mats, radii))

        c = growth_constant(cw_mm, family=family, **kwargs)
        if kwargs.get("kstar") == 1:
            assert c == c_for(1)
        elif kwargs.get("search_kstar"):
            assert c == pytest.approx(min(c_for(k) for k in range(1, 21)), rel=1e-13)
        else:
            assert c == pytest.approx(c_for(kwargs["kstar"]), rel=1e-13)

    @pytest.mark.parametrize("a", [-0.5, 0.4], ids=["stable", "unstable"])
    @pytest.mark.parametrize("kstar", [1500, 2000])
    @pytest.mark.filterwarnings("error")
    def test_one_state_constant_is_one_at_any_kstar(self, a, kstar):
        # ||M^k||^(1/k) / rho(M) is 1 for every 1 x 1 matrix; matrix_power
        # underflows to 0 (a = -0.5) or overflows (a = 0.4) at these kstar
        cfg = {"plant": {"continuous": {"a": [[a]], "b": [[1.0]]}, "c": [[1.0]], "ts": 1.0},
               "noise": {"sigma_w": [[0.1]], "sigma_v": [[0.1]]},
               "gains": {"q": [[1.0]], "r": [[1.0]]}}
        validate_config(cfg)
        mm = mode_matrices(*build_from_config(cfg))
        assert growth_constant(mm, kstar=kstar, family="all") == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("family", ["control", "observer", "all"])
    def test_search_is_the_least_fixed_kstar(self, cw_mm, family):
        assert growth_constant(cw_mm, family=family, search_kstar=True) == min(
            growth_constant(cw_mm, kstar=k, family=family) for k in range(1, 21))

    def test_power_walk_is_capped(self, cw_mm):
        # the walk's time and memory grow linearly in its powers: one past
        # the cap is refused before it starts; every documented use (kstar
        # 1500 in CI, 2000 above, the search's _MAX_KSTAR) is below it
        assert _MAX_POWERS >= max(1500, 2000, _MAX_KSTAR)
        message = f"at most {_MAX_POWERS} matrix powers, not {_MAX_POWERS + 1}"
        with pytest.raises(DomainError, match=message):
            growth_constant(cw_mm, kstar=_MAX_POWERS + 1, family="all")
        with pytest.raises(DomainError, match=message):
            uniform_growth_constant((cw_mm.a, cw_mm.omega_bar1), _MAX_POWERS + 1)

    def test_max_kstar_is_not_a_parameter(self, cw_mm):
        with pytest.raises(TypeError):
            growth_constant(cw_mm, search_kstar=True, max_kstar=5)

    def test_nilpotent_guard(self):
        z = np.zeros((2, 2))
        mm = ModeMatrices(
            a=z, b=np.zeros((2, 1)), k=np.zeros((1, 2)), l=np.zeros((2, 1)),
            sigma_w=np.zeros((2, 2)), sigma_v=np.zeros((1, 1)),
            omega_bar0=z, omega_bar1=z, omega_tilde0=z, omega_tilde1=z,
        )
        with pytest.raises(DomainError):
            growth_constant(mm)

    def test_uniform_constant_has_no_underflow(self, cw_mm):
        # rho(A + BK) ~ 0.2016, so rho^m is 0.0 in floating point long
        # before m = 512; the ratios are compared in logs instead
        mats = (cw_mm.a, cw_mm.a + cw_mm.b @ cw_mm.k)
        assert uniform_growth_constant(mats, 512) == pytest.approx(45054.17, rel=1e-6)
        assert uniform_growth_constant(mats, 64) == pytest.approx(4492.499807140088,
                                                                  rel=1e-12)


class TestDwellFeasible:
    def test_case_study_pair(self, cw_mm):
        c = growth_constant(cw_mm)
        feas = dwell_feasible("01", cw_mm.spectral_radii, c)
        assert feas.lhs_ctrl == pytest.approx(6.3054, abs=0.01)
        assert feas.lhs_obs == pytest.approx(4.5016, abs=0.01)
        assert not feas.passes

    def test_case_study_eight(self, cw_mm):
        # computed with the exact coast radius 1.0 (the reported -0.0879
        # and -2.2837 used an inexact rho(A) of 1.0063)
        c = growth_constant(cw_mm)
        feas = dwell_feasible("00011111", cw_mm.spectral_radii, c)
        assert feas.lhs_ctrl == pytest.approx(-0.105, abs=0.01)
        assert feas.lhs_obs == pytest.approx(-2.312, abs=0.01)
        assert feas.passes
        # the typeset exponent order would report a far smaller value
        assert feas.lhs_obs_typeset == pytest.approx(-9.12, abs=0.02)

    def test_all_contractive_passes(self):
        feas = dwell_feasible("0011", (0.9, 0.5, 0.8, 0.9), 1.0)
        assert feas.passes

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            dwell_feasible("01", (0.0, 0.5, 0.5, 0.5), 2.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_pass_implies_admissible(self, seed):
        # with the rigorous uniform constant the screen is sufficient
        rng = np.random.default_rng(4000 + seed)
        mm = make_mode_matrices(
            rng, n=int(rng.integers(2, 5)),
            rho0=rng.uniform(0.8, 1.3), rho1=rng.uniform(0.2, 0.9),
            rho_t0=rng.uniform(0.2, 0.9),
        )
        length = int(rng.integers(2, 7))
        bits = tuple(int(b) for b in rng.integers(0, 2, length))
        if len(set(bits)) < 2:
            return
        c = uniform_growth_constant(
            (mm.omega_bar0, mm.omega_bar1, mm.omega_tilde0, mm.omega_tilde1), length
        )
        feas = dwell_feasible(bits, mm.spectral_radii, c)
        if feas.passes:
            assert admissibility(bits, mm).admissible

    def test_sufficiency_witness_not_necessary(self, cw_mm):
        # S4 fails the screen yet is admissible: the screen is one-sided
        c = growth_constant(cw_mm)
        feas = dwell_feasible("0011", cw_mm.spectral_radii, c)
        assert not feas.passes
        assert admissibility("0011", cw_mm).admissible


class TestAdmissibility:
    def test_case_study_s4(self, cw_mm):
        rep = admissibility("0011", cw_mm)
        assert rep.qbar == pytest.approx(0.5879, abs=1e-3)
        assert rep.qtilde == pytest.approx(0.0130, abs=1e-3)
        assert rep.admissible

    def test_case_study_s7(self, cw_mm):
        rep = admissibility("0011100", cw_mm)
        assert rep.qbar == pytest.approx(0.07594, abs=1e-3)
        assert rep.qtilde == pytest.approx(3.796e-5, abs=1e-6)
        assert rep.admissible

    def test_all_ones_inadmissible(self, cw_mm):
        # observer side coasts at the unit circle, so {1} cannot contract
        rep = admissibility("1", cw_mm)
        assert rep.qbar == pytest.approx(0.2016, abs=1e-3)
        assert rep.qtilde == pytest.approx(1.0, abs=1e-6)
        assert not rep.admissible

    def test_order_of_factors(self, cw_mm):
        prod_bar, _ = _stacked_products(cw_mm.side_steps, np.array([(0, 0, 1, 1)]))[0]
        expected = (cw_mm.abar(1) @ cw_mm.abar(1) @ cw_mm.abar(0) @ cw_mm.abar(0))
        np.testing.assert_allclose(prod_bar, expected)

    @pytest.mark.parametrize("seed", range(15))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        mm = make_mode_matrices(rng)
        bits = tuple(int(b) for b in rng.integers(0, 2, 5))
        base = admissibility(bits, mm)
        for r in range(1, len(bits)):
            rot = bits[r:] + bits[:r]
            rep = admissibility(rot, mm)
            assert rep.qbar == pytest.approx(base.qbar, rel=1e-8, abs=1e-12)
            assert rep.qtilde == pytest.approx(base.qtilde, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_equal_reduces_to_powers(self, seed):
        rng = np.random.default_rng(600 + seed)
        mm = make_mode_matrices(rng, rho0=rng.uniform(0.5, 1.2))
        n = int(rng.integers(1, 5))
        rep0 = admissibility((0,) * n, mm)
        rep1 = admissibility((1,) * n, mm)
        rb0, rb1, rt0, rt1 = mm.spectral_radii
        assert rep0.qbar == pytest.approx(rb0**n, rel=1e-7)
        assert rep0.qtilde == pytest.approx(rt0**n, rel=1e-7)
        assert rep1.qbar == pytest.approx(rb1**n, rel=1e-7)
        assert rep1.qtilde == pytest.approx(rt1**n, rel=1e-7)

    @pytest.mark.parametrize("length", range(1, 7))
    def test_core_verdict_matches_word_verdict(self, length, cw_mm):
        # periodic-repetition identity: q(word) = q(core)^(N / n)
        for word in itertools.product((0, 1), repeat=length):
            core = irreducible_core(word)
            rep_word = admissibility(word, cw_mm)
            rep_core = admissibility(core, cw_mm)
            assert rep_word.admissible == rep_core.admissible
            r = length // len(core)
            assert rep_word.qbar == pytest.approx(rep_core.qbar**r, rel=1e-6, abs=1e-12)
            assert rep_word.qtilde == pytest.approx(rep_core.qtilde**r, rel=1e-6, abs=1e-9)

    def test_nilpotent_mode_guard(self):
        n = 3
        nil = np.diag(np.ones(n - 1), 1)
        good = np.eye(n) * 0.5
        mm = ModeMatrices(
            a=good, b=np.zeros((n, 1)), k=np.zeros((1, n)), l=np.zeros((n, 1)),
            sigma_w=np.zeros((n, n)), sigma_v=np.zeros((1, 1)),
            omega_bar0=good, omega_bar1=nil, omega_tilde0=good, omega_tilde1=good,
        )
        with pytest.raises(NilpotencyError):
            admissibility("01", mm)
        # sequences that never use the nilpotent mode are unaffected
        assert admissibility("0", mm).admissible

    def test_nilpotency_tested_once_per_model(self, monkeypatch):
        # the four mode matrices are fixed per model, so admissibility reads
        # cached flags instead of re-testing them for every word
        calls = []
        real = linalg.is_nilpotent
        monkeypatch.setattr(linalg, "is_nilpotent", lambda m: calls.append(1) or real(m))
        mm = make_mode_matrices(np.random.default_rng(7))
        for word in itertools.product((0, 1), repeat=6):
            admissibility(word, mm)
        assert len(calls) <= 4
