import math
import warnings

import numpy as np
import pytest

from conftest import CW_CONFIG
from oracles import (
    ChanceSpec,
    confidence_radius,
    ellipsoid_support,
    make_psd,
    sampled_ellipsoid_support,
)

import sensact.chance as chance_module
from sensact import linalg
from sensact.chance import (
    BoxConstraint,
    chebyshev_alpha,
    verify_chance,
)
from sensact.cli import main
from sensact.covariance import PeriodicCovariance, steady_augmented_cov
from sensact.exceptions import DimensionError, DomainError, StabilityError
from sensact.plant import SystemModel, mode_matrices, synthesize_gains
from sensact.sequence import admissibility


class TestChebyshevAlpha:
    def test_case_study_value(self):
        assert chebyshev_alpha(3, 0.05) == pytest.approx(np.sqrt(60.0))

    def test_limiting_delta(self):
        assert chebyshev_alpha(1, 1.0 - 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_six_states(self):
        assert chebyshev_alpha(6, 0.05) == pytest.approx(np.sqrt(120.0))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(DomainError):
            chebyshev_alpha(3, delta)

    def test_spec_dataclass_validates(self):
        with pytest.raises(DomainError):
            ChanceSpec(delta=2.0, n_x=3)
        assert ChanceSpec(delta=0.05, n_x=3).alpha == pytest.approx(np.sqrt(60.0))


class TestConfidenceRadius:
    def test_identity(self):
        assert confidence_radius(np.eye(3), 2.0) == pytest.approx(2.0)

    def test_axis_aligned(self):
        assert confidence_radius(np.diag([4.0, 1.0]), 1.0) == pytest.approx(2.0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(0)
        p = make_psd(rng, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert confidence_radius(q @ p @ q.T, 3.0) == pytest.approx(
            confidence_radius(p, 3.0), rel=1e-10
        )

    def test_case_study_phase_radii(self, cw_model, cw_gains):
        # computed truths for the S4 steady phases (position block):
        # the state-block spheres span about 10.1 to 21.4
        _, state = steady_augmented_cov("0011", mode_matrices(cw_model, cw_gains))
        alpha = chebyshev_alpha(3, 0.05)
        radii = sorted(confidence_radius(p[:3, :3], alpha) for p in state)
        assert radii[0] == pytest.approx(10.141, abs=0.01)
        assert radii[-1] == pytest.approx(21.403, abs=0.01)

    def test_rejects_non_psd(self):
        with pytest.raises(DomainError):
            confidence_radius([[-1.0]], 1.0)


class TestEllipsoidSupport:
    def test_unit_sphere(self):
        assert ellipsoid_support(np.eye(3), 3.0, [1.0, 0.0, 0.0]) == pytest.approx(3.0)

    def test_diagonal_coordinate_direction(self):
        p = np.diag([4.0, 0.25])
        assert ellipsoid_support(p, 2.0, [0.0, 1.0]) == pytest.approx(2.0 * 0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sampling_oracle(self, seed):
        rng = np.random.default_rng(700 + seed)
        p = make_psd(rng, 3)
        a = rng.standard_normal(3)
        alpha = rng.uniform(0.5, 5.0)
        exact = ellipsoid_support(p, alpha, a)
        sampled = sampled_ellipsoid_support(p, alpha, a, samples=100_000, seed=seed)
        assert sampled <= exact * (1 + 1e-12)
        assert sampled >= exact * 0.99

    def test_singular_covariance_ok(self):
        p = np.diag([1.0, 0.0])
        assert ellipsoid_support(p, 1.0, [0.0, 1.0]) == pytest.approx(0.0)

    def test_rejects_zero_direction(self):
        with pytest.raises(DomainError):
            ellipsoid_support(np.eye(2), 1.0, [0.0, 0.0])


class TestBoxConstraint:
    def test_resolve_defaults_to_all(self):
        idx, widths = BoxConstraint(2.0).resolve(4)
        assert idx == (0, 1, 2, 3)
        np.testing.assert_allclose(widths, 2.0)

    def test_component_selection(self):
        idx, widths = BoxConstraint(2.5, components=(0, 1, 2)).resolve(6)
        assert idx == (0, 1, 2)

    @pytest.mark.parametrize("components", [(0, 0, 1), (True, False), (0, 1.0)],
                             ids=["repeated", "booleans", "float"])
    def test_rejects_components_that_are_not_distinct_indices(self, components):
        with pytest.raises(DomainError):
            BoxConstraint(2.5, components=components)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            BoxConstraint(0.0)


class TestVerifyChance:
    def test_large_box_passes(self, cw_model, cw_gains):
        # above the largest phase sphere (about 21.4) everything passes
        box = BoxConstraint(22.0, components=(0, 1, 2))
        report = verify_chance("0011", mode_matrices(cw_model, cw_gains), box, 0.05)
        assert report.passes and report.sphere_passes
        assert report.max_radius == pytest.approx(21.403, abs=0.01)
        assert report.min_radius == pytest.approx(10.141, abs=0.01)

    def test_tight_box_fails(self, cw_model, cw_gains):
        box = BoxConstraint(2.5, components=(0, 1, 2))
        report = verify_chance("0011", mode_matrices(cw_model, cw_gains), box, 0.05)
        assert not report.passes and not report.sphere_passes

    def test_zero_covariance_reduces_to_mean_check(self):
        model = SystemModel(a=[[0.5]], b=[[1.0]], c=[[1.0]],
                            sigma_w=[[0.0]], sigma_v=[[0.0]])
        gains = synthesize_gains(model, np.eye(1), np.eye(1))
        means = np.array([[0.5], [0.5]])
        ok = verify_chance("01", mode_matrices(model, gains), BoxConstraint(1.0), 0.05,
                           mean_phases=means)
        assert ok.passes
        bad = verify_chance("01", mode_matrices(model, gains), BoxConstraint(0.4), 0.05,
                            mean_phases=means)
        assert not bad.passes

    def test_monotone_in_delta(self, cw_model, cw_gains):
        box = BoxConstraint(15.0, components=(0, 1, 2))
        loose = verify_chance("0011", mode_matrices(cw_model, cw_gains), box, 0.2)
        tight = verify_chance("0011", mode_matrices(cw_model, cw_gains), box, 0.01)
        for ph_loose, ph_tight in zip(loose.phases, tight.phases):
            # shrinking delta can only lose faces, never gain them
            if ph_tight.face_pass:
                assert ph_loose.face_pass
            assert ph_tight.radius >= ph_loose.radius

    def test_sphere_implies_faces(self, cw_model, cw_gains):
        for b in (11.0, 15.0, 22.0, 30.0):
            report = verify_chance("0011", mode_matrices(cw_model, cw_gains),
                                   BoxConstraint(b, components=(0, 1, 2)), 0.05)
            for ph in report.phases:
                if ph.sphere_pass:
                    assert ph.face_pass

    def test_inadmissible_sequence_rejected(self, cw_model, cw_gains):
        with pytest.raises(StabilityError):
            verify_chance("1", mode_matrices(cw_model, cw_gains), BoxConstraint(5.0), 0.05)

    def test_mean_phase_shape_checked(self, cw_model, cw_gains):
        with pytest.raises(DimensionError):
            verify_chance("0011", mode_matrices(cw_model, cw_gains), BoxConstraint(5.0), 0.05,
                          mean_phases=np.zeros((2, 6)))

    def test_report_serializes(self, cw_model, cw_gains):
        import json

        report = verify_chance("0011", mode_matrices(cw_model, cw_gains),
                               BoxConstraint(22.0, components=(0, 1, 2)), 0.05)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["passes"] is True
        assert len(doc["phases"]) == 4


def admissible_word(mm, period, seed):
    """A seeded random admissible word of the given period."""
    rng = np.random.default_rng(seed)
    for _ in range(10000):
        bits = rng.integers(0, 2, period)
        if admissibility(bits, mm).admissible:
            return "".join(map(str, bits))
    raise AssertionError(f"no admissible word of period {period}")


def outcome(check, a, stacked=False):
    """The matrix a check returns, or the type and message it raises."""
    try:
        return check(a, "P", stacked)
    except (DimensionError, DomainError) as exc:
        return type(exc), str(exc)


class TestStackedChance:
    """verify_chance checks all phases as one stack; every phase must
    carry the values of the one-matrix routines, bit for bit."""

    BOX = BoxConstraint(22.0, components=(0, 1, 2))

    @pytest.mark.parametrize("period, seed", [(4, 0), (9, 1), (17, 2), (33, 3), (64, 4)])
    def test_phases_equal_the_scalar_formulas(self, cw_model, cw_gains, period, seed):
        word = admissible_word(mode_matrices(cw_model, cw_gains), period, seed)
        _, state = steady_augmented_cov(word, mode_matrices(cw_model, cw_gains))
        # a nonzero mean exercises the margins' |mu| term
        means = np.random.default_rng(seed).normal(0.0, 5.0, (period, cw_model.n))
        report = verify_chance(word, mode_matrices(cw_model, cw_gains), self.BOX, 0.05,
                               mean_phases=means)
        idx, widths = self.BOX.resolve(cw_model.n)
        alpha = chebyshev_alpha(len(idx), 0.05)
        assert len(report.phases) == period
        for k, ph in enumerate(report.phases):
            p_c = state[k][np.ix_(idx, idx)]
            assert ph.phase == k
            assert ph.radius == confidence_radius(p_c, alpha)
            margins = tuple(
                float(b) - abs(float(means[k, i])) - alpha * math.sqrt(max(p_c[j, j], 0.0))
                for j, (i, b) in enumerate(zip(idx, widths)))
            assert ph.margins == margins
            assert ph.face_pass == all(m >= 0.0 for m in margins)
            sphere = ph.radius + max(abs(float(means[k, i])) for i in idx) <= min(widths)
            assert ph.sphere_pass == sphere

    @pytest.fixture()
    def one_bad_phase(self, cw_model, cw_gains, monkeypatch):
        """Negate phase 2 of the state covariances that verify_chance
        receives, so that one phase of the stack is not PSD; returns the
        constrained block of that phase."""
        real = steady_augmented_cov

        def patched(s, mm):
            joint, state = real(s, mm)
            phases = list(state.phases)
            phases[2] = -phases[2]
            return joint, PeriodicCovariance(phases=tuple(phases))

        monkeypatch.setattr(chance_module, "steady_augmented_cov", patched)
        _, state = real("0011", mode_matrices(cw_model, cw_gains))
        return -state[2][np.ix_((0, 1, 2), (0, 1, 2))]

    def test_non_psd_phase_raises_the_scalar_error(self, cw_model, cw_gains, one_bad_phase):
        with pytest.raises(DomainError) as scalar:
            confidence_radius(one_bad_phase, chebyshev_alpha(3, 0.05))
        with pytest.raises(DomainError) as stacked:
            verify_chance("0011", mode_matrices(cw_model, cw_gains), self.BOX, 0.05)
        assert str(stacked.value) == str(scalar.value) == "P is not positive semi-definite"

    def test_non_psd_phase_exits_2(self, tmp_path, one_bad_phase, capsys):
        model = str(tmp_path / "model.json")
        assert main(["model", "build", str(CW_CONFIG), "-o", model]) == 0
        assert main(["chance", "verify", model, "0011", "--bound", "22", "--delta", "0.05"]) == 2
        assert "P is not positive semi-definite" in capsys.readouterr().err

    def test_checks_agree_item_by_item(self):
        rng = np.random.default_rng(11)
        good = [make_psd(rng, 4) for _ in range(3)]
        scale = 1.0 + np.linalg.norm(good[0], "fro")
        tol = linalg.SYM_RTOL * scale
        w, v = np.linalg.eigh(good[0])
        skew = np.triu(np.ones((4, 4)), 1)
        skew = (skew - skew.T) / np.linalg.norm(skew - skew.T, "fro")

        def with_min_eig(value):
            return (v * np.concatenate([[value], w[1:]])) @ v.T

        items = good + [
            np.zeros((4, 4)),
            good[0] + 0.3 * tol * skew,          # asymmetric within tolerance
            good[0] + 3.0 * tol * skew,          # asymmetric beyond it
            with_min_eig(-0.3 * tol),            # negative eigenvalue within tolerance
            with_min_eig(-3.0 * tol),            # beyond it
            -good[1],
        ]
        expected = {
            linalg.check_symmetric: [True] * 5 + [False, True, True, True],
            linalg.check_psd: [True] * 5 + [False, True, False, False],
        }
        for check, accepts in expected.items():
            for item, accepted in zip(items, accepts):
                single = outcome(check, item)
                stacked = outcome(check, np.stack([good[2], item, good[1]]), stacked=True)
                assert isinstance(single, np.ndarray) == accepted
                if accepted:
                    assert np.array_equal(stacked[1], single)
                else:
                    assert stacked == single
        accepted = np.stack(items[:5] + [items[6]])
        assert np.array_equal(linalg.check_psd(accepted.reshape(2, 3, 4, 4), stacked=True),
                              linalg.check_psd(accepted, stacked=True).reshape(2, 3, 4, 4))

    @pytest.mark.parametrize("a, message", [
        ([[1e300, 0.0], [0.0, -1e300]], "not positive semi-definite"),
        ([[1e300, 1e300], [0.0, 1e300]], "not symmetric"),
    ], ids=["indefinite", "asymmetric"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_huge_entries_checked_without_overflow(self, a, message, stacked):
        # ||M||_F overflows here; a tolerance scale taken from it was inf
        # and let both matrices through
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                linalg.check_psd(np.stack([np.eye(2), a]) if stacked else a, stacked=stacked)

    def test_huge_symmetric_entries_stay_finite(self):
        # the symmetric part halves each term before the sum, so entries
        # near the largest float stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = linalg.check_psd([[1e308, 1e308], [1e308, 1e308]])
        assert np.array_equal(p, np.full((2, 2), 1e308))

    def test_stack_shape_and_entries_checked(self):
        for shape in ((3, 4, 5), (4, 4)):
            with pytest.raises(DimensionError, match="stack of square matrices"):
                linalg.check_psd(np.zeros(shape), "P", stacked=True)
        bad = np.zeros((3, 2, 2))
        bad[1, 0, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            linalg.check_psd(bad, "P", stacked=True)

    def test_one_matrix_checks_reject_stacks(self):
        # a stack passed where one matrix is expected must not broadcast
        stack = np.stack([np.eye(2), 4.0 * np.eye(2)])
        for check in (linalg.check_symmetric, linalg.check_psd):
            with pytest.raises(DimensionError, match="must be 2-D"):
                check(stack, "P")
        with pytest.raises(DimensionError):
            confidence_radius(stack, 1.0)
        with pytest.raises(DimensionError):
            ellipsoid_support(stack, 1.0, [1.0, 0.0])
