"""Exact ensemble oracles and Monte Carlo estimators."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oneshot import rng as rngmod
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
from oneshot.broadcast import SchemeSizes, mc_event_union
from oneshot.errors import EnumerationCapError, InputFormatError
from oneshot.oracle import (
    _hits,
    _multisets_exceed,
    _pack,
    mc_conditional_miss_prob,
)

from conftest import noiseless_broadcast_system, random_event, random_joint
from reference import multiset_count

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
        # 40 distinct event rows over 24 columns: the covered sets
        # reachable in 1000 draws times 40 classes times 1000 draws
        # exceed the DP cap
        rng = np.random.default_rng(0)
        j = random_joint(rng, (40, 24))
        event = rng.random((40, 24)) < 0.3
        assert len(np.unique(event, axis=0)) == 40
        with pytest.raises(EnumerationCapError):
            exact_miss_prob(EnsembleSpec(j, event, 1000, 2))
        with pytest.raises(EnumerationCapError):
            exact_conditional_miss_prob(Joint(j.probs[None]), event[None], 1000, 2)

    def test_cap_checked_after_a_closure_that_stops_early(self):
        # no pair reaches the packing threshold, so the closure ends at the
        # empty set at once; the 10^6 draws are still over the cap
        with pytest.raises(EnumerationCapError):
            exact_packing_prob(JOINT, 10**6, 3, 1.0)

    def test_spec_validation(self):
        with pytest.raises(InputFormatError):
            EnsembleSpec(JOINT, DIAG, 0, 1)


def _varied_instance(rng: np.random.Generator):
    """A small covering instance with the corner cases the covered-set DP
    merges or drops: zero-probability rows and columns, repeated event
    rows, empty and full events."""
    ku, kv = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    p = rng.dirichlet(np.ones(ku * kv)).reshape(ku, kv)
    if ku > 1 and rng.random() < 0.3:
        p[rng.integers(ku)] = 0.0
    if kv > 1 and rng.random() < 0.2:
        p[:, rng.integers(kv)] = 0.0
    kind = rng.integers(6)
    if kind == 0:
        ev = np.zeros((ku, kv), dtype=bool)
    elif kind == 1:
        ev = np.ones((ku, kv), dtype=bool)
    else:
        ev = random_event(rng, (ku, kv))
        if kind == 2 and ku > 1:
            ev[1:] = ev[0]
    return Joint(p / p.sum()), ev


class TestCoveredSetDp:
    def test_matches_bruteforce_on_varied_instances(self):
        rng = np.random.default_rng(2024)
        seen = set()
        n = 0
        while n < 240:
            j, ev = _varied_instance(rng)
            M, L = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            if j.shape[0] ** M > 10**4:
                continue
            spec = EnsembleSpec(j, ev, M, L)
            assert exact_miss_prob(spec) == pytest.approx(
                exact_miss_prob_bruteforce(spec), abs=1e-12
            ), (j.probs, ev, M, L)
            pu, pv = j.probs.sum(axis=1), j.probs.sum(axis=0)
            seen.update({("M", M), ("L", L)})
            seen.update(name for name, hit in (
                ("zero symbol", (pu == 0).any()),
                ("zero column", (pv == 0).any()),
                ("repeated rows", len(np.unique(ev, axis=0)) < len(ev)),
                ("empty", not ev.any()),
                ("full", ev.all()),
            ) if hit)
            n += 1
        assert seen >= {("M", m) for m in range(1, 7)} | {("L", m) for m in range(1, 7)}
        assert seen >= {"zero symbol", "zero column", "repeated rows", "empty", "full"}

    def test_conditional_matches_bruteforce_composition(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            shape = (int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            j3 = random_joint(rng, shape, allow_zero=True)
            ev3 = random_event(rng, shape)
            M, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            want = 0.0
            for u, mass in enumerate(j3.probs.sum(axis=(1, 2))):
                if mass > 0:
                    spec = EnsembleSpec(Joint(j3.probs[u] / mass), ev3[u], M, L)
                    want += mass * exact_miss_prob_bruteforce(spec)
            assert exact_conditional_miss_prob(j3, ev3, M, L) == pytest.approx(want, abs=1e-12)

    def test_packing_matches_bruteforce_composition(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            shape = (int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            j = random_joint(rng, shape, allow_zero=True)
            M, N = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            gamma = float(rng.uniform(0.01, 1.0))
            # the packing event: some pair's density reaches ln(MN) + gamma
            with np.errstate(divide="ignore", invalid="ignore"):
                dens = np.log(j.probs) - np.log(np.outer(j.probs.sum(axis=1), j.probs.sum(axis=0)))
            above = (j.probs > 0) & (dens >= math.log(M * N) + gamma)
            want = 1.0 - exact_miss_prob_bruteforce(EnsembleSpec(j, above, M, N))
            assert exact_packing_prob(j, M, N, gamma) == pytest.approx(want, abs=1e-12)

    def test_many_classes_small_codebook_under_cap(self):
        # the closure stops at the sets reachable in M draws, so 40 distinct
        # rows over 24 columns stay cheap at M = 2
        rng = np.random.default_rng(0)
        j = random_joint(rng, (40, 24))
        event = rng.random((40, 24)) < 0.3
        spec = EnsembleSpec(j, event, 2, 3)
        assert exact_miss_prob(spec) == pytest.approx(exact_miss_prob_bruteforce(spec), abs=1e-12)

    def test_large_codebook_agrees_with_mc(self):
        # |U| = 8, M = 200: about 2.9e12 multisets, a handful of covered sets.
        # Symbol 7 alone covers column 7, which holds half of V's mass, and
        # is drawn with probability 0.005, so the miss stays far from 0
        assert multiset_count(200, 8) > 2 * 10**12
        pu = np.append(np.full(7, 0.995 / 7), 0.005)
        pv = np.append(np.full(7, 0.5 / 7), 0.5)
        event = np.eye(8, dtype=bool)
        event[:7, :7] = True
        spec = EnsembleSpec(Joint(np.outer(pu, pv)), event, 200, 2)
        exact = exact_miss_prob(spec)
        assert exact == pytest.approx(0.25 * 0.995**200, rel=1e-12)
        est = mc_miss_prob(spec, 20_000, seed=8)
        assert abs(est.mean - exact) <= 5 * est.stderr


def indices_bruteforce(spec: EnsembleSpec) -> float:
    """The brute force as it was first written: an explicit |U|^M x M matrix
    of codebooks from ``np.indices``, in the same lexicographic order."""
    pu = spec.joint.probs.sum(axis=1)
    pv = spec.joint.probs.sum(axis=0)
    books = np.indices((len(pu),) * spec.M).reshape(spec.M, -1).T
    weights = pu[books].prod(axis=1)
    covered = spec.event[books].any(axis=1)
    mass = covered @ pv
    return float((weights * np.clip(1.0 - mass, 0.0, 1.0) ** spec.L).sum())


class TestBruteForce:
    def test_equals_the_book_matrix_formula(self):
        # extending codebooks one codeword at a time keeps the product order
        # and the summed array, so the value is the same double
        rng = np.random.default_rng(4099)
        n = 0
        while n < 200:
            j, ev = _varied_instance(rng)
            M, L = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            if j.shape[0] ** M > 10**4:
                continue
            spec = EnsembleSpec(j, ev, M, L)
            assert exact_miss_prob_bruteforce(spec) == indices_bruteforce(spec), (j.probs, ev, M)
            n += 1

    def test_cap_counts_codebooks_and_draws(self):
        j = random_joint(np.random.default_rng(3), (10, 2))
        ev = np.eye(10, 2, dtype=bool)
        assert 0.0 < exact_miss_prob_bruteforce(EnsembleSpec(j, ev, 5, 2)) < 1.0  # 10^5 books
        for k, M in [(10, 6), (2, 17), (1, 17)]:
            spec = EnsembleSpec(Joint(np.full((k, 2), 0.5 / k)), np.ones((k, 2), dtype=bool), M, 2)
            with pytest.raises(EnumerationCapError, match="brute-force caps"):
                exact_miss_prob_bruteforce(spec)


class TestHugeCounts:
    def test_multiset_cap_agrees_with_the_count(self):
        for M in range(1, 30):
            for k in range(1, 30):
                for cap in (1, 7, 10**3, 10**6):
                    assert _multisets_exceed(M, k, cap) == (multiset_count(M, k) > cap)

    @pytest.mark.parametrize("refuse", [
        lambda: exact_miss_prob_bruteforce(
            EnsembleSpec(Joint(np.full((3, 2), 1 / 6)), np.ones((3, 2), dtype=bool), 10**7, 2)),
        lambda: resolvability_excess_exact(Joint(np.full((2000, 2), 1 / 4000)), 10**7, 3.0),
        lambda: resolvability_excess_exact(JOINT, 10**7, 3.0),
    ], ids=["bruteforce", "multisets-wide", "multisets"])
    def test_huge_counts_are_refused_without_building_them(self, refuse):
        # 3^(10^7) and C(10^7 + 1999, 1999) have far more digits than Python
        # prints; the caps are decided and reported without them
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="exceed the"):
            refuse()
        assert time.perf_counter() - start < 0.5


class TestPackedHits:
    """``_hits`` against the boolean reference it replaced."""

    @staticmethod
    def reference(event_rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        covered = event_rows.any(axis=1)
        return np.take_along_axis(covered, cols.astype(np.intp), axis=1).any(axis=1)

    @pytest.mark.parametrize("kv", [1, 7, 8, 9, 64, 65])
    def test_matches_boolean_reference(self, kv):
        gen = np.random.default_rng(kv)
        event = gen.random((6, kv)) < 0.1
        event[0], event[1] = False, True  # an empty row and an all-true row
        for M, L in [(1, 1), (3, 5), (20, 2)]:
            us = gen.integers(0, 6, (400, M)).astype(np.uint8)
            vs = gen.integers(0, kv, (400, L)).astype(np.uint8)
            got = _hits(_pack(event).take(us, axis=0), vs, kv)
            want = self.reference(event[us], vs)
            np.testing.assert_array_equal(got, want)
            assert 0 < want.sum() < len(want) or kv == 1

    @pytest.mark.parametrize("kt", [1, 9, 65])
    def test_conditional_rows(self, kt):
        # rows of a 3-axis event, picked by (conditioning symbol, codeword)
        gen = np.random.default_rng(100 + kt)
        event3 = gen.random((3, 4, kt)) < 0.05
        event3[0, 0], event3[1, 2] = False, True
        us = gen.integers(0, 3, 500).astype(np.uint8)
        ss = gen.integers(0, 4, (500, 6)).astype(np.uint8)
        ts = gen.integers(0, kt, (500, 4)).astype(np.uint8)
        got = _hits(_pack(event3)[us[:, None], ss], ts, kt)
        np.testing.assert_array_equal(got, self.reference(event3[us[:, None], ss], ts))


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


class TestMcChunkCap:
    """The Monte Carlo estimators size their chunks by ``rng.chunk_trials``."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        """The chunk size of every ``rng.run_trials`` call."""
        seen = []
        run_trials = rngmod.run_trials

        def recording(trials, worker, chunk, threads):
            seen.append(chunk)
            return run_trials(trials, worker, chunk=chunk, threads=threads)

        monkeypatch.setattr(rngmod, "run_trials", recording)
        return seen

    @pytest.fixture
    def reserved(self, monkeypatch):
        """The bytes every ``rng.chunk_trials`` call reserves for one chunk."""
        seen = []
        chunk_trials = rngmod.chunk_trials

        def recording(row_bytes, max_trials, group, fixed_bytes=0):
            chunk = chunk_trials(row_bytes, max_trials, group, fixed_bytes)
            seen.append(fixed_bytes + chunk * row_bytes)
            return chunk

        monkeypatch.setattr(rngmod, "chunk_trials", recording)
        return seen

    @pytest.mark.parametrize("estimate", [
        lambda: mc_miss_prob(EnsembleSpec(JOINT, DIAG, 5, 3), 3000, seed=2),
        lambda: mc_conditional_miss_prob(JOINT3, EVENT3, 4, 3, 3000, seed=2),
        lambda: mc_resolvability_excess(JOINT, 3, 1.1, 3000, seed=2),
        lambda: mc_event_union(noiseless_broadcast_system(), SchemeSizes(1, 1, 1, 1, 1, 2, 2),
                               0.5, 3000, seed=2),
    ], ids=["miss", "conditional", "resolvability", "event-union"])
    def test_counts_do_not_depend_on_the_byte_cap(self, estimate, chunks, monkeypatch):
        # a cap of 2000 bytes forces chunks of a handful of trials; integer
        # miss and union counts add up the same in any chunking, and so does
        # the excess sum, rounded once over all trials
        want = estimate()
        monkeypatch.setattr(rngmod, "CHUNK_BYTES", 2000)
        assert estimate() == want
        assert chunks[0] == rngmod.CHUNK_TRIALS and 0 < chunks[1] < 20

    def test_small_instances_keep_full_chunks(self, chunks, reserved):
        # up to 512 bytes a trial, CHUNK_TRIALS trials fit the target
        mc_miss_prob(EnsembleSpec(JOINT, DIAG, 12, 12), 10, seed=1)
        mc_conditional_miss_prob(JOINT3, EVENT3, 16, 16, 10, seed=1)
        mc_resolvability_excess(JOINT, 16, 3.0, 10, seed=1)
        assert chunks == [rngmod.CHUNK_TRIALS] * 3
        assert all(0.75 * rngmod.CHUNK_TARGET < r <= rngmod.CHUNK_TARGET for r in reserved)

    @pytest.mark.parametrize("estimate,trials", [
        (lambda t: mc_miss_prob(EnsembleSpec(random_joint(np.random.default_rng(1), (4, 65)),
                                             np.eye(4, 65, dtype=bool), 2000, 2000), t, seed=3),
         100),
        (lambda t: mc_conditional_miss_prob(random_joint(np.random.default_rng(2), (3, 4, 65)),
                                            np.eye(4, 65, dtype=bool)[None].repeat(3, axis=0),
                                            2000, 2000, t, seed=3), 100),
        (lambda t: mc_resolvability_excess(random_joint(np.random.default_rng(3), (2000, 2)), 10,
                                           3.0, t, seed=3), 700),
    ], ids=["miss", "conditional", "resolvability"])
    def test_chunk_peaks_within_the_byte_cap(self, estimate, trials, chunks, reserved):
        # 4,000 draws per trial over 65 columns, or counts over 2,000
        # symbols: the byte target, not CHUNK_TRIALS, cuts the chunks, and
        # what one allocates is measured rather than estimated.  It must also
        # use what it reserved: a chunk peaking well below that reserved
        # bytes it never used, and ran more chunks than it needed
        tracemalloc.start()
        try:
            estimate(trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) == 1 and trials / 3 < chunks[0] < trials
        assert 0.95 * rngmod.CHUNK_TARGET < reserved[0] <= rngmod.CHUNK_TARGET
        assert 0.9 * reserved[0] <= peak <= 1.1 * reserved[0], peak / reserved[0]

    @pytest.mark.parametrize("estimate", [
        lambda: mc_miss_prob(EnsembleSpec(JOINT, DIAG, 10**8, 2), 5, seed=1),
        lambda: mc_conditional_miss_prob(JOINT3, EVENT3, 10**8, 2, 5, seed=1),
        lambda: mc_resolvability_excess(JOINT, 10**8, 3.0, 5, seed=1),
    ], ids=["miss", "conditional", "resolvability"])
    def test_a_trial_over_the_cap_raises_before_drawing(self, estimate, monkeypatch):
        def no_uniforms(*args):
            raise AssertionError("uniforms drawn past the chunk cap")

        monkeypatch.setattr(rngmod, "trial_uniforms", no_uniforms)
        with pytest.raises(EnumerationCapError, match="above the chunk cap"):
            estimate()


_CAPPED_RUN = """
import resource, subprocess, sys
limit = 1536 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(subprocess.run([sys.executable, "-m", "oneshot", *sys.argv[1:]]).returncode)
"""


@pytest.mark.parametrize("argv", [
    ["verify", "covering", "--dist", "configs/joint_2x2.json"],
    ["verify", "covering5", "--dist", "configs/joint_2x2x2.json"],
    ["verify", "resolvability", "--dist", "configs/joint_2x2.json", "--lam", "3"],
], ids=["covering", "covering5", "resolvability"])
def test_verify_with_huge_codebooks_exits_1_under_a_memory_limit(argv):
    # 10^8 codewords: one trial's uniforms alone take 800 MB, so before the
    # chunk cap this input allocated gigabytes and was killed; the address
    # space limit makes any such allocation fail fast instead
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv, "--M", "100000000",
                          "--L", "2", "--gamma", "1", "--trials", "5"],
                         capture_output=True, text=True, cwd=root, env=env, timeout=120)
    assert res.returncode == 1, res.stderr
    lines = res.stderr.strip().splitlines()
    assert lines[0].startswith("warning: exact value skipped")
    assert len(lines) == 2 and lines[1].startswith("error: one trial needs")
    assert "above the chunk cap" in lines[1] and res.stdout == ""
