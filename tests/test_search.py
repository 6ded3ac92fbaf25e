import collections
import itertools
import os
from dataclasses import replace

import numpy as np
import pytest

from oracles import brute_force_core, make_psd, make_stable, sequence_cost

import sensact.search as search_module
from sensact import linalg
from sensact.covariance import steady_augmented_cov, steady_error_cov
from sensact.exceptions import DimensionError, DomainError
from sensact.plant import SystemModel, mode_matrices, synthesize_gains
from sensact.search import (
    COST_RTOL,
    CostWeights,
    SearchOptions,
    SequenceEvaluator,
    search_fixed_length,
    search_up_to,
)
from sensact.sequence import admissibility, irreducible_core


@pytest.fixture(scope="module")
def est_weights():
    return CostWeights.estimation(6)


class TestSequenceCost:
    def test_error_weight_is_mean_trace(self, cw_model, cw_mm, est_weights):
        err = steady_error_cov("0011", cw_mm)
        j = sequence_cost("0011", err, None, est_weights)
        assert j == pytest.approx(np.mean([np.trace(p) for p in err]), rel=1e-12)

    def test_duty_cycle_cost(self):
        w = CostWeights(r_eta=1.0)
        assert sequence_cost("00111", None, None, w) == pytest.approx(3.0 / 5.0)

    def test_repetition_invariance(self, cw_model, cw_mm, est_weights):
        err1 = steady_error_cov("0011", cw_mm)
        err2 = steady_error_cov("00110011", cw_mm)
        j1 = sequence_cost("0011", err1, None, est_weights)
        j2 = sequence_cost("00110011", err2, None, est_weights)
        assert j2 == pytest.approx(j1, rel=1e-10)

    def test_phase_count_mismatch(self, cw_model, cw_mm, est_weights):
        err = steady_error_cov("0011", cw_mm)
        with pytest.raises(DimensionError):
            sequence_cost("001", err, None, est_weights)

    def test_state_weight_uses_state_phases(self, cw_model, cw_gains):
        _, state = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        w = CostWeights(r_state=np.eye(6))
        j = sequence_cost("0011", None, state, w)
        assert j == pytest.approx(np.mean([np.trace(p) for p in state]), rel=1e-12)


class TestFixedLengthSearch:
    def test_n4_optimum_class(self, cw_model, cw_gains, est_weights):
        res = search_fixed_length(4, cw_model, cw_gains, est_weights)
        assert res.feasible
        tied = {str(s) for s in res.tied}
        assert tied == {"0011", "0110", "1001", "1100"}
        assert str(res.sequence) == "0011"  # lexicographic representative
        assert res.report.admissible

    def test_n7_optimum_class_contains_reported(self, cw_model, cw_gains, est_weights):
        res = search_fixed_length(7, cw_model, cw_gains, est_weights)
        tied = {str(s) for s in res.tied}
        assert "0011100" in tied
        assert len(tied) == 7  # full rotation class
        assert str(res.sequence) == min(tied)

    def test_n8_reducible_winner(self, cw_model, cw_gains, est_weights):
        res4 = search_fixed_length(4, cw_model, cw_gains, est_weights)
        res8 = search_fixed_length(8, cw_model, cw_gains, est_weights)
        assert str(res8.core) == "0011"
        assert str(res8.sequence) == "00110011"
        assert res8.cost == pytest.approx(res4.cost, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_lengths_infeasible(self, n, cw_model, cw_gains, est_weights):
        res = search_fixed_length(n, cw_model, cw_gains, est_weights)
        assert not res.feasible
        assert res.sequence is None

    def test_extremes_never_returned(self, cw_model, cw_gains, est_weights):
        # all-zeros and all-ones are inadmissible here (coast at rho = 1)
        for n in (4, 5, 6):
            res = search_fixed_length(n, cw_model, cw_gains, est_weights)
            assert str(res.sequence) not in ("0" * n, "1" * n)
            assert len(set(res.sequence.bits)) == 2

    def test_deterministic(self, cw_model, cw_gains, est_weights):
        a = search_fixed_length(6, cw_model, cw_gains, est_weights)
        b = search_fixed_length(6, cw_model, cw_gains, est_weights)
        assert str(a.sequence) == str(b.sequence)
        assert a.cost == b.cost
        assert [str(s) for s in a.tied] == [str(s) for s in b.tied]

    @pytest.mark.parametrize("length", range(1, 7))
    def test_dedup_matches_direct_evaluation(self, length, cw_model, cw_gains,
                                             cw_mm, est_weights):
        # cost and verdict computed through the core must equal direct
        # evaluation of the full word
        evaluator = SequenceEvaluator(cw_model, cw_gains, est_weights)
        for word in itertools.product((0, 1), repeat=length):
            core = irreducible_core(word).bits
            least = min(core[i:] + core[:i] for i in range(len(core)))
            core_cost = evaluator.resolve([least])[0]
            direct_report = admissibility(word, cw_mm)
            if not direct_report.admissible:
                assert not np.isfinite(core_cost)
                continue
            err = steady_error_cov(word, cw_mm)
            direct_cost = sequence_cost(word, err, None, est_weights)
            assert core_cost == pytest.approx(direct_cost, rel=1e-9)

    def test_memoization_across_calls(self, cw_model, cw_gains, est_weights):
        # within one length the word -> core map is a bijection, so the
        # cache pays off only when an evaluator is shared across lengths
        evaluator = SequenceEvaluator(cw_model, cw_gains, est_weights)
        res4 = search_fixed_length(4, cw_model, cw_gains, est_weights,
                                   evaluator=evaluator)
        assert res4.counts.cores_evaluated == 16
        assert res4.counts.memo_hits == 0
        res8 = search_fixed_length(8, cw_model, cw_gains, est_weights,
                                   evaluator=evaluator)
        # all 16 cores of lengths dividing 4 come back from the cache
        assert res8.counts.memo_hits == 16
        assert res8.counts.cores_evaluated == 256 - 16

    def test_table_option(self, cw_model, cw_gains, est_weights):
        res = search_fixed_length(3, cw_model, cw_gains, est_weights,
                                  SearchOptions(include_table=True))
        assert len(res.table) == 8
        assert all(cost is None for _, _, cost in res.table)  # nothing admissible


class TestSearchUpTo:
    def test_first_feasible_length_is_four(self, cw_model, cw_gains, est_weights):
        res = search_up_to(8, cw_model, cw_gains, est_weights)
        assert res.feasible
        assert res.length == 4
        assert str(res.sequence) == "0011"
        # the winner, ties and report are those of the length-4 search alone
        expected = search_fixed_length(4, cw_model, cw_gains, est_weights)
        assert res == replace(expected, counts=res.counts)

    def test_infeasible_up_to_three(self, cw_model, cw_gains, est_weights):
        res = search_up_to(3, cw_model, cw_gains, est_weights)
        assert not res.feasible
        assert res.cost == float("inf")
        assert res.counts.enumerated == 2 + 4 + 8

    def test_single_mode_feasibility(self):
        # both single-mode schedules work when every closed loop is stable
        rng = np.random.default_rng(11)
        model = SystemModel(
            a=make_stable(rng, 3, 0.8),
            b=rng.standard_normal((3, 1)),
            c=rng.standard_normal((1, 3)),
            sigma_w=make_psd(rng, 3, 0.1),
            sigma_v=make_psd(rng, 1, 0.1),
        )
        gains = synthesize_gains(model, np.eye(3), np.eye(1))
        mm = mode_matrices(model, gains)
        assert admissibility("0", mm).admissible
        assert admissibility("1", mm).admissible
        res = search_up_to(4, model, gains, CostWeights.estimation(3))
        assert res.feasible and res.length == 1

    def test_memo_shared_across_lengths(self, cw_model, cw_gains, est_weights):
        res = search_up_to(4, cw_model, cw_gains, est_weights)
        # lengths 1, 2 and 4 share the all-zero / all-one cores
        assert res.counts.memo_hits > 0

    @pytest.mark.parametrize("all_lengths, words", [(False, 2 + 4 + 8 + 16),
                                                     (True, 2**9 - 2)])
    def test_counts_cover_every_length_searched(self, all_lengths, words, cw_model,
                                                cw_gains, est_weights):
        res = search_up_to(8, cw_model, cw_gains, est_weights,
                           SearchOptions(all_lengths=all_lengths))
        assert res.feasible
        assert res.counts.enumerated == words
        # every word's core is either evaluated or served from the cache
        assert res.counts.cores_evaluated + res.counts.memo_hits == words

    def test_all_lengths_option(self, cw_model, cw_gains, est_weights):
        first = search_up_to(8, cw_model, cw_gains, est_weights)
        best = search_up_to(8, cw_model, cw_gains, est_weights,
                            SearchOptions(all_lengths=True))
        # the estimation-only cost rewards extra sensing, so the global
        # optimum over all lengths beats the first-feasible length-4 one
        assert best.cost < first.cost
        assert best.length == 5
        assert str(best.sequence) == "00011"
        assert best.cost == pytest.approx(1.84090, abs=1e-4)


def _word_costs(length, model, gains, mm, weights):
    """Per-word oracle: admissibility and the steady covariances computed
    directly on every word of one length; None marks an inadmissible word."""
    costs = {}
    for word in itertools.product((0, 1), repeat=length):
        if not admissibility(word, mm).admissible:
            costs[word] = None
            continue
        err = state = None
        if weights.needs_error_cov:
            err = steady_error_cov(word, mm)
        if weights.needs_state_cov:
            _, state = steady_augmented_cov(word, mode_matrices(model, gains))
        costs[word] = sequence_cost(word, err, state, weights)
    return costs


def _assert_matches_brute_force(res, costs):
    words = sorted(costs)
    assert [(w, c) for w, c, _ in res.table] == [(w, brute_force_core(w)) for w in words]
    assert [cost is None for _, _, cost in res.table] == [costs[w] is None for w in words]
    for (word, _, cost) in res.table:
        if cost is not None:
            assert cost == pytest.approx(costs[word], rel=1e-9)
    finite = {w: cost for w, cost in costs.items() if cost is not None}
    assert res.feasible == bool(finite)
    if not finite:
        return
    best = min(finite.values())
    tied = sorted(w for w, cost in finite.items() if cost <= best * (1.0 + COST_RTOL))
    winner = min(tied, key=lambda w: (len(brute_force_core(w)), w))
    assert [s.bits for s in res.tied] == tied
    assert res.sequence.bits == winner
    assert res.core.bits == brute_force_core(winner)
    assert res.cost == pytest.approx(finite[winner], rel=1e-9)


@pytest.fixture(scope="module")
def second_plant():
    """A stable random two-state plant, a second input besides the CW model."""
    rng = np.random.default_rng(11)
    model = SystemModel(
        a=make_stable(rng, 2, 0.9),
        b=rng.standard_normal((2, 1)),
        c=rng.standard_normal((1, 2)),
        sigma_w=make_psd(rng, 2, 0.1),
        sigma_v=make_psd(rng, 1, 0.1),
    )
    gains = synthesize_gains(model, np.eye(2), np.eye(1))
    return model, gains, mode_matrices(model, gains)


class TestNecklaceSearch:
    """The necklace search against a brute-force search over every word."""

    @pytest.mark.parametrize("length", range(1, 11))
    def test_estimation_cost(self, length, cw_model, cw_gains, cw_mm, est_weights):
        res = search_fixed_length(length, cw_model, cw_gains, est_weights,
                                  SearchOptions(include_table=True))
        _assert_matches_brute_force(
            res, _word_costs(length, cw_model, cw_gains, cw_mm, est_weights))

    @pytest.mark.parametrize("length", range(1, 8))
    def test_blended_cost(self, length, cw_model, cw_gains, cw_mm):
        weights = CostWeights(r_err=np.eye(6), r_state=np.eye(6), r_eta=0.1)
        res = search_fixed_length(length, cw_model, cw_gains, weights,
                                  SearchOptions(include_table=True))
        _assert_matches_brute_force(res, _word_costs(length, cw_model, cw_gains, cw_mm,
                                                     weights))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_second_plant(self, length, second_plant):
        model, gains, mm = second_plant
        weights = CostWeights.estimation(2)
        res = search_fixed_length(length, model, gains, weights,
                                  SearchOptions(include_table=True))
        _assert_matches_brute_force(res, _word_costs(length, model, gains, mm, weights))

    def test_one_exact_evaluation_per_necklace(self, cw_model, cw_gains, est_weights,
                                               monkeypatch):
        calls = {"admissibility": 0, "contractive_stacked": 0, "stacked_solve": 0}
        rows = {"contractive_stacked": 0, "stacked_solve": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name in rows:
                    rows[name] += len(args[0])
                return real(*args, **kwargs)
            return wrapper

        for name in ("admissibility", "contractive_stacked"):
            monkeypatch.setattr(search_module, name,
                                counted(name, getattr(search_module, name)))
        monkeypatch.setattr(linalg, "solve_discrete_lyapunov_stacked",
                            counted("stacked_solve", linalg.solve_discrete_lyapunov_stacked))
        res = search_fixed_length(10, cw_model, cw_gains, est_weights)
        # the 108 binary necklaces of length 10 have periods 1, 2, 5 and 10:
        # one stacked verdict pass over all of them, one stacked steady
        # solve over the 58 admissible ones, and a scalar report for the
        # winner only
        assert (calls["contractive_stacked"], rows["contractive_stacked"]) == (1, 108)
        assert (calls["stacked_solve"], rows["stacked_solve"]) == (1, 58)
        assert calls["admissibility"] == 1
        assert res.counts.necklaces == 108
        assert res.counts.cores_evaluated == 2**10

    def test_eigvals_only_for_open_sides(self, cw_model, cw_gains, est_weights,
                                         monkeypatch):
        # of the 216 sides of the 108 necklaces of length 10, the radius
        # bounds leave 4 open: one batched eigvals call for those, and one
        # for the winner's two sides in its scalar report
        evaluator = SequenceEvaluator(cw_model, cw_gains, est_weights)
        rows = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or real(a))
        res = search_fixed_length(10, cw_model, cw_gains, est_weights, evaluator=evaluator)
        assert rows == [4, 2]
        assert str(res.sequence) == "0001100011"

    @pytest.mark.parametrize("batch", [1, 7])
    def test_batch_boundaries(self, batch, cw_model, cw_gains, est_weights, monkeypatch):
        # necklaces split into chunks of _BATCH rows give the same search
        opts = SearchOptions(include_table=True)
        expected = search_fixed_length(10, cw_model, cw_gains, est_weights, opts)
        monkeypatch.setattr(search_module, "_BATCH", batch)
        res = search_fixed_length(10, cw_model, cw_gains, est_weights, opts)
        assert res.sequence.bits == expected.sequence.bits
        assert res.cost.hex() == expected.cost.hex()
        assert [s.bits for s in res.tied] == [s.bits for s in expected.tied]
        assert res.table == expected.table
        assert res.counts == expected.counts

    @pytest.mark.parametrize("weights", [CostWeights.estimation(6),
                                         CostWeights(r_err=np.eye(6), r_state=np.eye(6),
                                                     r_eta=0.1)],
                             ids=["estimation", "blended"])
    def test_batch_cuts_a_period_boundary(self, weights, cw_model, cw_gains, monkeypatch):
        # the 108 necklaces of length 10, longest first, are 99 of period
        # 10, 6 of period 5, 1 of period 2 and 2 of period 1; 100-row chunks
        # end one row into period 5, so both chunks mix periods
        opts = SearchOptions(include_table=True)
        expected = search_fixed_length(10, cw_model, cw_gains, weights, opts)
        chunks = []
        real = search_module.contractive_stacked

        def recorded(rows, mm):
            chunks.append(sorted(collections.Counter(map(len, rows)).items(), reverse=True))
            return real(rows, mm)

        monkeypatch.setattr(search_module, "contractive_stacked", recorded)
        monkeypatch.setattr(search_module, "_BATCH", 100)
        res = search_fixed_length(10, cw_model, cw_gains, weights, opts)
        assert chunks == [[(10, 99), (5, 1)], [(5, 5), (2, 1), (1, 2)]]
        assert res == expected
        assert res.cost.hex() == expected.cost.hex()


class TestOneResolvePerSearch:
    """search_up_to with all_lengths resolves the necklaces of every length
    in one call; each length's winner and ties, the counts, and the
    winning length's table are those of one search_fixed_length call per
    length on a shared evaluator. No other length's table is built."""

    @pytest.mark.parametrize("n_max", [1, 4, 7, 10])
    def test_all_lengths_is_sequential_search(self, n_max, cw_model, cw_gains, est_weights,
                                              monkeypatch):
        opts = SearchOptions(all_lengths=True, include_table=True)
        evaluator = SequenceEvaluator(cw_model, cw_gains, est_weights)
        sequential = [search_fixed_length(length, cw_model, cw_gains, est_weights, opts,
                                          evaluator)
                      for length in range(1, n_max + 1)]
        resolves = []
        selected = []
        real_resolve, real_select = SequenceEvaluator.resolve, search_module._select

        def resolve(self, necklaces):
            resolves.append(len(necklaces))
            return real_resolve(self, necklaces)

        def select(*args):
            selected.append(real_select(*args))
            return selected[-1]

        monkeypatch.setattr(SequenceEvaluator, "resolve", resolve)
        monkeypatch.setattr(search_module, "_select", select)
        res = search_up_to(n_max, cw_model, cw_gains, est_weights, opts)
        assert len(resolves) == 1
        assert [r.length for r in selected] == list(range(1, n_max + 1))
        for one, seq in zip(selected, sequential):
            assert (one.sequence, one.core, one.tied, one.table) == \
                (seq.sequence, seq.core, seq.tied, ())
            assert one.cost.hex() == seq.cost.hex()
        best = None
        for seq in sequential:
            if seq.feasible and (best is None or seq.cost < best.cost * (1.0 - COST_RTOL)):
                best = seq
        assert res.counts == search_module.SearchCounts(enumerated=2**(n_max + 1) - 2,
                                                        **evaluator.counts)
        if best is None:
            assert not res.feasible and res.length == n_max
            return
        assert res == replace(best, counts=res.counts)


class TestSearchMemoryBound:
    """A search length whose necklaces would not fit in physical memory is
    refused before any necklace is enumerated."""

    def test_necklace_count_is_exact(self):
        for length in range(1, 17):
            assert search_module._necklace_count(length) == \
                len(list(search_module._necklaces(length)))
        # binary necklaces of length 24 (OEIS A000031)
        assert search_module._necklace_count(24) == 699252

    def test_each_length_counted_once(self, monkeypatch):
        search_module._check_memory(range(1, 9))
        gcds = []
        real_gcd = search_module.math.gcd
        monkeypatch.setattr(search_module.math, "gcd", lambda *a: gcds.append(a) or real_gcd(*a))
        # a search up to length 8 checks lengths 1..k at every length k
        for length in range(1, 9):
            search_module._check_memory(range(1, length + 1))
        assert gcds == []

    def test_roadmap_lengths_fit(self):
        # the window-bound search targets lengths up to 24, all lengths at once
        search_module._check_memory(range(1, 25))

    @pytest.fixture()
    def memory_for(self, monkeypatch):
        """Set this machine's memory to the bytes that _check_memory counts
        for the given lengths and table length, plus spare bytes."""
        real = os.sysconf

        def patch(lengths, table_length=None, spare=0):
            size = sum(search_module._necklace_count(n) * (search_module._NECKLACE_BYTES + 8 * n)
                       for n in lengths) + spare
            if table_length is not None:
                size += (search_module._TABLE_ROW_BYTES + 24 * table_length) << table_length
            memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": size}
            monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or real(name))

        return patch

    def test_length_past_memory_refused_before_enumeration(self, cw_model, cw_gains,
                                                           est_weights, memory_for,
                                                           monkeypatch):
        memory_for([11])
        search_module._check_memory([11])

        def refuse(length):
            raise AssertionError("necklaces were enumerated")

        monkeypatch.setattr(search_module, "_necklaces", refuse)
        with pytest.raises(DomainError, match="^a search of length 12 needs "):
            search_fixed_length(12, cw_model, cw_gains, est_weights)
        with pytest.raises(DomainError, match="^a search of length 11 needs "):
            search_up_to(11, cw_model, cw_gains, est_weights, SearchOptions(all_lengths=True))

    def test_up_to_refuses_only_the_length_it_reaches(self, cw_model, cw_gains, est_weights,
                                                      memory_for):
        # the CW model has its first admissible word at length 4; the
        # lengths after it are never enumerated, so never refused
        memory_for(range(1, 5))
        assert search_up_to(40, cw_model, cw_gains, est_weights).length == 4
        memory_for(range(1, 3))
        with pytest.raises(DomainError, match="^a search of length 3 needs "):
            search_up_to(40, cw_model, cw_gains, est_weights)

    @pytest.mark.parametrize("all_lengths, n_max, length", [(True, 12, 11), (False, 40, 4)])
    def test_table_refused_only_past_the_kept_table(self, cw_model, cw_gains, est_weights,
                                                    memory_for, all_lengths, n_max, length):
        # a search keeps one table, its winner's: all lengths count the
        # longest length's table, the largest that can win, and a search
        # stopping at its first feasible length counts that length's only
        last = n_max if all_lengths else length
        opts = SearchOptions(all_lengths=all_lengths, include_table=True)
        memory_for(range(1, last + 1), table_length=last)
        result = search_up_to(n_max, cw_model, cw_gains, est_weights, opts)
        assert result.length == length and len(result.table) == 2**length
        memory_for(range(1, last + 1), table_length=last, spare=-1)
        with pytest.raises(DomainError, match=f"^a search of length {last} needs .* "
                                              "for its necklaces and table, "):
            search_up_to(n_max, cw_model, cw_gains, est_weights, opts)

    def test_all_lengths_table_leaves_the_peak(self, cw_model, cw_gains, est_weights):
        # lengths 1..12 have 8190 words, and only the 2048 of the winning
        # length 11 are tabled, once the evaluation's temporaries are
        # freed: the table leaves the search's tracemalloc peak within 5%
        # (holding every length's table raised it by 59%)
        import tracemalloc

        search_up_to(12, cw_model, cw_gains, est_weights, SearchOptions(all_lengths=True))
        peaks = []
        for table in (False, True):
            tracemalloc.start()
            result = search_up_to(12, cw_model, cw_gains, est_weights,
                                  SearchOptions(all_lengths=True, include_table=table))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert result.length == 11 and len(result.table) == 2048
        assert peaks[1] <= 1.05 * peaks[0]

    def test_length_past_counting_refused(self, cw_model, cw_gains, est_weights):
        with pytest.raises(DomainError, match="^a search of length 65 has more than 2"):
            search_fixed_length(65, cw_model, cw_gains, est_weights)
