"""Exact ensemble oracles and Monte Carlo estimators."""

import math

import numpy as np
import pytest

from oneshot import (
    EnsembleSpec,
    Joint,
    exact_conditional_miss_prob,
    exact_miss_prob,
    exact_miss_prob_bruteforce,
    exact_packing_prob,
    mc_miss_prob,
    mc_resolvability_excess,
    resolvability_excess_exact,
)
from oneshot.bounds import event_from_points, full_event
from oneshot.errors import EnumerationCapError, InputFormatError
from oneshot.oracle import mc_conditional_miss_prob, multiset_count

from conftest import random_event, random_joint

JOINT = Joint([[0.4, 0.1], [0.2, 0.3]])
DIAG = event_from_points((2, 2), [(0, 0), (1, 1)])
JOINT3 = Joint([[[0.05, 0.10], [0.15, 0.05]], [[0.20, 0.05], [0.10, 0.30]]])
EVENT3 = event_from_points((2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])


class TestExactMissProb:
    def test_full_event_is_sure_covering(self):
        spec = EnsembleSpec(JOINT, full_event((2, 2)), 3, 2)
        assert exact_miss_prob(spec) == 0.0

    def test_single_pair_reduces_to_product_miss(self):
        # the ensemble draws the single pair from the product of marginals
        spec = EnsembleSpec(JOINT, DIAG, 1, 1)
        pu = JOINT.probs.sum(axis=1)
        pv = JOINT.probs.sum(axis=0)
        want = 1.0 - (np.outer(pu, pv)[DIAG]).sum()
        assert exact_miss_prob(spec) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.5, abs=1e-15)

    def test_hand_value(self):
        spec = EnsembleSpec(JOINT, DIAG, 2, 2)
        assert exact_miss_prob(spec) == pytest.approx(0.13, abs=1e-12)

    def test_empty_event_gives_one(self):
        spec = EnsembleSpec(JOINT, np.zeros((2, 2), dtype=bool), 3, 4)
        assert exact_miss_prob(spec) == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one_for_large_codebooks(self):
        # with an empty event every multiset contributes its bare weight
        spec = EnsembleSpec(JOINT, np.zeros((2, 2), dtype=bool), 60, 2)
        assert exact_miss_prob(spec) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_codebook_sizes(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            j = random_joint(rng, (3, 2), allow_zero=True)
            ev = random_event(rng, (3, 2))
            vals = {
                (M, L): exact_miss_prob(EnsembleSpec(j, ev, M, L))
                for M in range(1, 5)
                for L in range(1, 5)
            }
            for M in range(1, 5):
                for L in range(1, 4):
                    assert vals[(M, L + 1)] <= vals[(M, L)] + 1e-12
            for L in range(1, 5):
                for M in range(1, 4):
                    assert vals[(M + 1, L)] <= vals[(M, L)] + 1e-12

    def test_multiset_equals_bruteforce(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            j = random_joint(rng, shape, allow_zero=True)
            ev = random_event(rng, shape)
            M, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            spec = EnsembleSpec(j, ev, M, L)
            assert exact_miss_prob(spec) == pytest.approx(
                exact_miss_prob_bruteforce(spec), abs=1e-12
            )

    def test_cap_raises(self):
        j = random_joint(np.random.default_rng(0), (40, 2))
        assert multiset_count(50, 40) > 10**6
        with pytest.raises(EnumerationCapError):
            exact_miss_prob(EnsembleSpec(j, full_event((40, 2)), 50, 2))

    def test_spec_validation(self):
        with pytest.raises(InputFormatError):
            EnsembleSpec(JOINT, DIAG, 0, 1)


class TestLogWeights:
    @pytest.mark.parametrize("k,M", [(2, 1), (2, 300), (3, 60), (5, 120), (8, 17), (8, 300)])
    def test_matches_exact_integer_multinomial(self, k, M):
        # unit probabilities leave only the log multinomial coefficient, so
        # the log-factorial table is checked far past the brute-force cap
        from oneshot.oracle import _log_weights

        rng = np.random.default_rng(1000 * k + M)
        rows = [rng.multinomial(M, rng.dirichlet(np.full(k, a)))
                for a in (0.05, 0.3, 1.0, 5.0) for _ in range(25)]
        rows += [np.eye(k, dtype=np.int64)[0] * M, np.bincount(np.arange(M) % k, minlength=k)]
        counts = np.array(rows, dtype=np.int64)
        logw, valid = _log_weights(counts, np.ones(k))
        assert valid.all()
        for row, got in zip(counts, logw):
            coeff = math.factorial(M)
            for c in row:
                coeff //= math.factorial(int(c))
            assert got == pytest.approx(math.log(coeff), rel=1e-13, abs=0.0)

    def test_zero_probability_symbol_flagged_invalid(self):
        from oneshot.oracle import _log_weights

        counts = np.array([[3, 0, 2], [2, 3, 0], [0, 1, 4]], dtype=np.int64)
        logw, valid = _log_weights(counts, np.array([1.0, 0.0, 1.0]))
        assert valid.tolist() == [True, False, False]
        assert logw[0] == pytest.approx(math.log(10), rel=1e-13)


class TestMcMissProb:
    def test_sure_covering_gives_zero(self):
        spec = EnsembleSpec(JOINT, full_event((2, 2)), 2, 2)
        est = mc_miss_prob(spec, 500, seed=1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_empty_event_gives_one(self):
        spec = EnsembleSpec(JOINT, np.zeros((2, 2), dtype=bool), 2, 2)
        est = mc_miss_prob(spec, 500, seed=1)
        assert est.mean == 1.0

    def test_against_exact(self):
        spec = EnsembleSpec(JOINT, DIAG, 2, 2)
        est = mc_miss_prob(spec, 100_000, seed=42)
        assert abs(est.mean - 0.13) <= 4 * est.stderr

    def test_deterministic_and_thread_invariant(self):
        spec = EnsembleSpec(JOINT, DIAG, 3, 2)
        a = mc_miss_prob(spec, 20_000, seed=9)
        b = mc_miss_prob(spec, 20_000, seed=9)
        c = mc_miss_prob(spec, 20_000, seed=9, threads=8)
        assert a == b == c

    def test_stderr_formula(self):
        spec = EnsembleSpec(JOINT, DIAG, 2, 2)
        est = mc_miss_prob(spec, 1000, seed=5)
        assert est.stderr == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.trials), abs=1e-15
        )


class TestConditional:
    def test_vacuous_conditioning_matches_plain(self):
        j3 = Joint(JOINT.probs[None, :, :])
        ev3 = DIAG[None, :, :]
        want = exact_miss_prob(EnsembleSpec(JOINT, DIAG, 2, 3))
        assert exact_conditional_miss_prob(j3, ev3, 2, 3) == pytest.approx(want, abs=1e-12)

    def test_full_event_zero(self):
        assert exact_conditional_miss_prob(JOINT3, full_event((2, 2, 2)), 2, 2) == 0.0

    def test_hand_values(self):
        assert exact_conditional_miss_prob(JOINT3, EVENT3, 2, 2) == pytest.approx(
            0.1409778906035397, abs=1e-12
        )
        assert exact_conditional_miss_prob(JOINT3, EVENT3, 1, 3) == pytest.approx(
            0.13615312956576095, abs=1e-12
        )

    def test_against_direct_sampling(self):
        exact = exact_conditional_miss_prob(JOINT3, EVENT3, 2, 2)
        est = mc_conditional_miss_prob(JOINT3, EVENT3, 2, 2, 100_000, seed=3)
        assert abs(est.mean - exact) <= 4 * est.stderr


class TestPacking:
    def test_product_joint_zero(self):
        j = Joint(np.outer([0.3, 0.7], [0.25, 0.75]))
        assert exact_packing_prob(j, 3, 2, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_noiseless_hand_case(self):
        j = Joint([[0.5, 0.0], [0.0, 0.5]])
        assert exact_packing_prob(j, 1, 1, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_bounded_by_exp_gamma(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            j = random_joint(rng, shape, allow_zero=True)
            M, N = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            gamma = float(rng.uniform(0.1, 2.5))
            assert exact_packing_prob(j, M, N, gamma) <= math.exp(-gamma) + 1e-12


class TestResolvability:
    def test_single_codeword_independent_channel(self):
        j = Joint(np.outer([0.3, 0.7], [0.25, 0.75]))
        assert resolvability_excess_exact(j, 1, 2.5) == 0.0

    def test_hand_values(self):
        assert resolvability_excess_exact(JOINT, 2, 1.1) == pytest.approx(0.35, abs=1e-12)
        assert resolvability_excess_exact(JOINT, 2, 2.5) == 0.0
        assert resolvability_excess_exact(JOINT, 3, 1.05) == pytest.approx(0.6, abs=1e-12)

    def test_zero_target_mass_counts_as_excess(self):
        # points where the synthesized law has mass but the target has none
        # exceed every threshold; drawn codebooks never produce them, so the
        # convention is pinned at the formula level
        from oneshot.oracle import _excess_mass

        phat = np.array([[0.5, 0.5]])
        pv = np.array([1.0, 0.0])
        assert _excess_mass(phat, pv, 1e9)[0] == pytest.approx(0.5)

    def test_synthesized_law_absolutely_continuous(self):
        # a consistent ensemble keeps the synthesized law inside the target
        # support, so enormous thresholds give zero excess
        j = Joint([[0.5, 0.0], [0.25, 0.25]])
        assert resolvability_excess_exact(j, 3, 1e9) == 0.0

    def test_mc_against_exact(self):
        exact = resolvability_excess_exact(JOINT, 2, 1.1)
        est = mc_resolvability_excess(JOINT, 2, 1.1, 100_000, seed=8)
        assert abs(est.mean - exact) <= 4 * max(est.stderr, 1e-12)

    def test_mc_deterministic(self):
        a = mc_resolvability_excess(JOINT, 3, 1.2, 30_000, seed=4)
        b = mc_resolvability_excess(JOINT, 3, 1.2, 30_000, seed=4, threads=4)
        assert a == b
