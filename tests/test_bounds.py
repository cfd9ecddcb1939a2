"""Closed-form bound evaluators, parameter resolution, and optimizers."""

import json
import math

import numpy as np
import pytest

from oneshot import (
    BoundParams,
    Joint,
    conditional_covering_bound,
    exact_packing_prob,
    mutual_covering_bound,
    optimal_delta,
    optimize_gamma,
    packing_bound,
    resolvability_covering_bound,
    resolvability_excess_bound,
    simple_covering_bound,
)
from oneshot import probability
from oneshot.bounds import (BoundReport, _bound_parts, _density_ratio, _raw_sum, _unimodal_argmin, bound_at,
                            covering_ratio, event_from_points, full_event, ratio_gap)
from oneshot.errors import InputFormatError

from oneshot.broadcast import SchemeSizes

import reference
from conftest import dense_minimum, random_design, random_event, random_joint

JOINT = Joint([[0.4, 0.1], [0.2, 0.3]])
DIAG = event_from_points((2, 2), [(0, 0), (1, 1)])
JOINT3 = Joint([[[0.05, 0.10], [0.15, 0.05]], [[0.20, 0.05], [0.10, 0.30]]])
EVENT3 = event_from_points((2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])


class TestOptimalDelta:
    def test_degenerate_min_size_falls_back(self):
        g = 0.8
        want = 1 * 5 * (math.exp(-g) - math.exp(-2 * g))
        assert optimal_delta(1, 5, g) == pytest.approx(want, abs=1e-15)

    def test_closed_form_value(self):
        assert optimal_delta(2, 4, 1.0) == pytest.approx(4.050586498464144, abs=1e-12)

    def test_symmetric_in_sizes(self):
        assert optimal_delta(4, 2, 1.0) == optimal_delta(2, 4, 1.0)

    def test_grid_search_confirms_minimum(self):
        # the closed form minimizes the ratio and double-exponential terms
        # along the manifold where the excess threshold is held constant
        # (gamma adjusts as delta moves)
        M, L, g_star = 2, 4, 1.0
        d_star = optimal_delta(M, L, g_star)
        lam = M * L * math.exp(-g_star) - d_star

        def tail_terms(delta: float) -> float:
            gamma = math.log(M * L / (lam + delta))
            return (min(M, L) - 1) / delta + math.exp(-math.exp(gamma))

        grid = np.linspace(0.6 * d_star, 1.4 * d_star, 2001)
        vals = [tail_terms(float(d)) for d in grid]
        argmin = float(grid[int(np.argmin(vals))])
        assert abs(argmin - d_star) <= float(grid[1] - grid[0])
        assert tail_terms(d_star) <= min(vals) + 1e-12


class TestHugeSizes:
    # sizes up to the largest double evaluate as plain arithmetic on them;
    # a size or a product of sizes past it is bad input, not an OverflowError
    @pytest.mark.parametrize("M", [10**20, 10**150, 2**1000])
    def test_evaluate_as_plain_arithmetic(self, M):
        g = 1.0
        assert covering_ratio(M, 3)(g) == (3 - 1) / (M * 3 * ratio_gap(g))
        assert optimal_delta(M, 3, g) == math.sqrt(2 * 3 * M) * math.exp(-g) * math.exp(0.5 * math.exp(g))
        above = probability.info_density_table(JOINT) >= math.log(M * 3.0 / 2.0)
        assert resolvability_excess_bound(JOINT, M, 3.0).term("excess") == float(JOINT.probs[above].sum())

    def test_past_the_largest_double_are_refused(self):
        big = 10**200
        for evaluate in (lambda: covering_ratio(big, big)(1.0),
                         lambda: optimal_delta(big, big, 1.0),
                         lambda: optimal_delta(1, big**2, 1.0),
                         lambda: mutual_covering_bound(JOINT, DIAG, BoundParams(big, big, 1.0, 0.5)),
                         lambda: resolvability_covering_bound(JOINT, DIAG, big**2, 2, 1.0),
                         lambda: resolvability_excess_bound(JOINT, big**2, 3.0),
                         lambda: exact_packing_prob(JOINT, 2, big**2, 1.0)):
            with pytest.raises(InputFormatError, match="codebook sizes"):
                evaluate()


class TestMutualCoveringBound:
    def test_frozen_terms(self):
        rep = mutual_covering_bound(JOINT, DIAG, BoundParams(2, 4, 1.0, "auto"))
        names = rep.term_names()
        assert names == ("miss", "excess", "ratio", "doubleexp")
        assert rep.term("miss") == pytest.approx(0.3, abs=1e-12)
        assert rep.term("excess") == 1.0  # nonpositive threshold
        assert rep.term("ratio") == pytest.approx(0.2468778287734798, abs=1e-12)
        assert rep.term("doubleexp") == pytest.approx(0.06598803584531254, abs=1e-15)
        assert rep.raw_value == pytest.approx(1.6128658646187923, abs=1e-12)
        assert rep.clamped_value == 1.0

    def test_min_size_one_kills_ratio_term(self):
        rep = mutual_covering_bound(JOINT, DIAG, BoundParams(1, 6, 0.7, "auto"))
        assert rep.term("ratio") == 0.0

    def test_full_event_has_zero_miss(self):
        rep = mutual_covering_bound(JOINT, full_event((2, 2)), BoundParams(2, 2, 1.0, 0.5))
        assert rep.term("miss") == 0.0

    def test_explicit_delta_wins(self):
        rep = mutual_covering_bound(JOINT, DIAG, BoundParams(2, 4, 1.0, 0.75))
        assert rep.params["delta"] == 0.75
        assert rep.term("ratio") == pytest.approx(1 / 0.75)

    def test_union_form_has_three_terms_and_is_tighter(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            j = random_joint(rng, (3, 3), allow_zero=True)
            ev = random_event(rng, (3, 3))
            p = BoundParams(3, 2, 0.8, "auto", union_form=True)
            union = mutual_covering_bound(j, ev, p)
            plain = mutual_covering_bound(j, ev, BoundParams(3, 2, 0.8, "auto"))
            assert union.term_names() == ("miss_or_excess", "ratio", "doubleexp")
            assert union.term("miss_or_excess") <= (
                plain.term("miss") + plain.term("excess") + 1e-12
            )
            assert union.raw_value <= plain.raw_value + 1e-12

    def test_nonpositive_threshold_marks_only_the_support(self):
        # the density ratio is -inf off the support, so even a threshold
        # <= 0 (here delta = 100 > ML e^-gamma) leaves zero-mass points out
        p = np.array([[0.5, 0.0, 0.2], [0.0, 0.0, 0.0], [0.1, 0.0, 0.2]])
        ratio = _density_ratio(Joint(p))
        for thr in (0.0, -1.0, -math.inf):
            assert np.array_equal(ratio > thr, p > 0)
        rep = mutual_covering_bound(Joint(p), full_event(p.shape), BoundParams(2, 2, 1.0, 100.0))
        assert rep.term("excess") == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(InputFormatError):
            mutual_covering_bound(JOINT, full_event((3, 2)), BoundParams(2, 2, 1.0, 1.0))

    def test_bad_params(self):
        with pytest.raises(InputFormatError):
            BoundParams(2, 2, -1.0, "auto")
        with pytest.raises(InputFormatError):
            BoundParams(2, 2, 1.0, 0.0)
        with pytest.raises(InputFormatError):
            BoundParams(2, 2, 1.0, "magic")


class TestSimpleCoveringBound:
    def test_matches_substituted_delta(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            j = random_joint(rng, shape, allow_zero=True)
            ev = random_event(rng, shape)
            M, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = float(rng.uniform(0.3, 2.0))
            delta = M * L * (math.exp(-g) - math.exp(-2 * g))
            a = mutual_covering_bound(j, ev, BoundParams(M, L, g, delta))
            b = simple_covering_bound(j, ev, M, L, g)
            for (_, va), (_, vb) in zip(a.terms, b.terms):
                assert va == pytest.approx(vb, abs=1e-12)

    def test_frozen_terms(self):
        rep = simple_covering_bound(JOINT, DIAG, 2, 2, 0.5)
        assert [v for _, v in rep.terms] == pytest.approx(
            [0.3, 0.3, 1.0475538383092318, 0.1922956455479649], abs=1e-12
        )
        assert rep.raw_value == pytest.approx(1.8398494838571968, abs=1e-12)

    def test_union_frozen(self):
        rep = simple_covering_bound(JOINT, DIAG, 2, 2, 0.5, union_form=True)
        assert rep.term("miss_or_excess") == pytest.approx(0.6, abs=1e-12)

    def test_union_form_never_looser(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            j = random_joint(rng, (2, 3), allow_zero=True)
            ev = random_event(rng, (2, 3))
            M, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = float(rng.uniform(0.2, 2.0))
            union = simple_covering_bound(j, ev, M, L, g, union_form=True)
            plain = simple_covering_bound(j, ev, M, L, g)
            assert union.term("miss_or_excess") <= (
                plain.term("miss") + plain.term("excess") + 1e-12
            )
            assert union.raw_value <= plain.raw_value + 1e-12

    def test_independent_joint_zero_excess(self):
        j = Joint(np.outer([0.4, 0.6], [0.5, 0.5]))
        # density identically zero; threshold ln(ML) - 2g > 0 when ML e^{-2g} > 1
        rep = simple_covering_bound(j, full_event((2, 2)), 4, 4, 0.5)
        assert math.log(16) - 1.0 > 0
        assert rep.term("excess") == 0.0


class TestConditionalCoveringBound:
    def test_vacuous_conditioning_matches_union_simple(self):
        j3 = Joint(JOINT.probs[None, :, :])
        ev3 = DIAG[None, :, :]
        a = conditional_covering_bound(j3, ev3, 2, 2, 0.5)
        b = simple_covering_bound(JOINT, DIAG, 2, 2, 0.5, union_form=True)
        for (_, va), (_, vb) in zip(a.terms, b.terms):
            assert va == pytest.approx(vb, abs=1e-12)

    def test_full_event_conditionally_independent(self):
        pu = np.array([0.4, 0.6])
        ps = np.array([[0.3, 0.7], [0.5, 0.5]])
        pt = np.array([[0.2, 0.8], [0.9, 0.1]])
        j = Joint(pu[:, None, None] * ps[:, :, None] * pt[:, None, :])
        rep = conditional_covering_bound(j, full_event((2, 2, 2)), 3, 3, 0.6)
        assert math.log(9) - 1.2 > 0
        assert rep.term("miss_or_excess") == 0.0

    def test_frozen_value(self):
        rep = conditional_covering_bound(JOINT3, EVENT3, 2, 2, 1.0)
        assert rep.term("miss_or_excess") == pytest.approx(0.95, abs=1e-12)
        assert rep.raw_value == pytest.approx(2.0910526696774054, abs=1e-12)


class TestResolvabilityBound:
    def test_requires_lam_above_two(self):
        with pytest.raises(InputFormatError):
            resolvability_excess_bound(JOINT, 2, 2.0)

    def test_large_lam_limit(self):
        lam = 1e6
        # all densities are finite here, so the tail term vanishes
        rhs = resolvability_excess_bound(JOINT, 2, lam).raw_value
        assert rhs == pytest.approx(2 / lam, abs=1e-18)

    def test_independent_joint(self):
        j = Joint(np.outer([0.3, 0.7], [0.25, 0.75]))
        assert resolvability_excess_bound(j, 4, 3.0).raw_value == pytest.approx(2 / 3, abs=1e-15)

    def test_frozen_value(self):
        rhs = resolvability_excess_bound(JOINT, 4, 3.0).raw_value
        assert rhs == pytest.approx(2 / 3, abs=1e-15)


class TestResolvabilityCoveringBound:
    def test_easy_instance_zero_probability_terms(self):
        j = Joint(np.outer([0.4, 0.6], [0.5, 0.5]))
        rep = resolvability_covering_bound(j, full_event((2, 2)), 4, 4, 1.0)
        assert rep.term("miss") == 0.0 and rep.term("excess") == 0.0

    def test_vacuous_sizes_clamp(self):
        rep = resolvability_covering_bound(JOINT, DIAG, 1, 1, 1.0)
        assert rep.term("ratio") == pytest.approx(math.e)
        assert rep.clamped_value == 1.0

    def test_frozen_terms(self):
        rep = resolvability_covering_bound(JOINT, DIAG, 2, 4, 1.0)
        assert [v for _, v in rep.terms] == pytest.approx(
            [0.3, 0.0, 0.6795704571147613, 0.2568813653134702], abs=1e-12
        )

    def test_threshold_is_inclusive(self):
        # a density value exactly at the threshold is counted
        j = Joint([[0.25, 0.25], [0.25, 0.25]])
        # densities are 0; pick sizes/gamma with ln(ML) - gamma = 0
        rep = resolvability_covering_bound(j, full_event((2, 2)), 2, 2, math.log(4))
        assert rep.term("excess") == pytest.approx(1.0)


class TestPacking:
    def test_bound_value(self):
        assert packing_bound(0.3) == pytest.approx(math.exp(-0.3))

    def test_lhs_delegates_to_oracle(self):
        j = Joint([[0.5, 0.0], [0.0, 0.5]])
        assert exact_packing_prob(j, 1, 1, 0.1) == pytest.approx(0.5)

    def test_lhs_below_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            j = random_joint(rng, (3, 2), allow_zero=True)
            g = float(rng.uniform(0.2, 2.0))
            M, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            assert exact_packing_prob(j, M, N, g) <= packing_bound(g) + 1e-12


class TestOptimizeGamma:
    @staticmethod
    def optimum(kind, instance, search_range=(0.05, 6.0)):
        """The optimizer's result, checked against the dense reference."""
        lo, hi = search_range
        gamma, report = optimize_gamma(kind, instance, search_range)
        assert lo <= gamma <= hi
        evaluate = bound_at(kind, instance)
        assert json.dumps(report.to_json()) == json.dumps(evaluate(gamma).to_json())
        breakpoints = _bound_parts(kind, instance)[1].breakpoints
        assert report.raw_value <= dense_minimum(evaluate, breakpoints, lo, hi) * (1 + 1e-12)
        return gamma, report

    @staticmethod
    def remainder_argmin(kind, instance, search_range=(0.05, 6.0)):
        terms = _bound_parts(kind, instance)[2]
        return _unimodal_argmin(lambda g: BoundReport(terms(g, 0.0)).raw_value, *search_range)

    @pytest.mark.parametrize("kind", ["covering4", "covering4-union", "covering5", "covering7"])
    def test_never_above_dense_reference(self, kind):
        union_form = kind.endswith("-union")
        kind = kind.removesuffix("-union")
        rng = np.random.default_rng(41)
        for _ in range(20):
            shape = (2, 3, 2) if kind == "covering5" else (3, 4)
            instance = {"joint": random_joint(rng, shape, allow_zero=True),
                        "event": random_event(rng, shape), "M": int(rng.integers(2, 40)),
                        "L": int(rng.integers(2, 40)), "union_form": union_form}
            self.optimum(kind, instance)

    @pytest.mark.parametrize("kind", ["covering4", "covering4-union", "covering5", "covering7",
                                      "broadcast"])
    def test_matches_the_walk_over_whole_reports(self, kind):
        # the search compares raw values read through the step table; the
        # reference builds a report at every point it walks.  Small codebooks
        # put the covering optima below a breakpoint in many instances; the
        # broadcast optima stay at the remainder's minimizer, but the walk
        # still compares the steps left of it
        union_form = kind.endswith("-union")
        kind = kind.removesuffix("-union")
        moved = compared = 0
        for seed in range(40):
            def instance():
                rng = np.random.default_rng(seed)
                if kind == "broadcast":
                    text = ("1,1,1,1,1,2,2", "2,1,1,2,2,2,2", "1,2,2,1,1,4,4")[seed % 3]
                    return {"system": random_design(rng), "sizes": SchemeSizes.from_string(text)}
                shape = (2, 3, 2) if kind == "covering5" else (3, 4)
                return {"joint": random_joint(rng, shape, allow_zero=True),
                        "event": random_event(rng, shape), "M": int(rng.integers(1, 5)),
                        "L": int(rng.integers(1, 5)), "union_form": union_form}

            inst = instance()
            gamma, report = optimize_gamma(kind, inst, (0.05, 6.0))
            want_gamma, want = reference.optimize_gamma(kind, instance(), (0.05, 6.0))
            assert gamma == want_gamma
            assert json.dumps(report.to_json()) == json.dumps(want.to_json())
            moved += gamma != self.remainder_argmin(kind, inst)
            if kind == "broadcast":
                compared += len(inst["system"].tables.union_steps(inst["sizes"]).cache)
        if kind == "broadcast":
            assert compared >= 40, compared
        else:
            assert moved >= (1 if kind == "covering7" else 10), moved

    @pytest.mark.parametrize("kind", ["covering4", "covering5", "covering7"])
    def test_unit_codebook(self, kind):
        # min(M, L) = 1: the covering ratio vanishes, so without a miss term the
        # covering4/5 remainder is the slack alone and falls to the top of the
        # range; a miss term absorbs the slack once it drops below a half ulp
        rng = np.random.default_rng(43)
        shape = (2, 2, 3) if kind == "covering5" else (3, 3)
        for M, L in ((1, 1), (1, 5), (7, 1)):
            joint = random_joint(rng, shape)
            for event in (full_event(shape), random_event(rng, shape)):
                instance = {"joint": joint, "event": event, "M": M, "L": L}
                if kind != "covering7" and event.all():
                    assert self.remainder_argmin(kind, instance) == 6.0
                self.optimum(kind, instance)

    def test_covering7_small_codebooks_put_the_remainder_minimum_at_lo(self):
        # max(M, L) <= 2: e^gamma / max(M, L) outgrows the slack's decay
        rng = np.random.default_rng(47)
        for M, L in ((1, 2), (2, 1), (2, 2)):
            instance = {"joint": random_joint(rng, (3, 3)), "event": random_event(rng, (3, 3)),
                        "M": M, "L": L}
            assert self.remainder_argmin("covering7", instance) == 0.05
            self.optimum("covering7", instance)

    def test_dominates_random_probes(self):
        instance = {"joint": JOINT, "event": DIAG, "M": 3, "L": 2}
        g_star, rep = optimize_gamma("covering4", instance, (0.05, 5.0))
        rng = np.random.default_rng(19)
        for g in rng.uniform(0.05, 5.0, size=64):
            probe = simple_covering_bound(JOINT, DIAG, 3, 2, float(g))
            assert rep.raw_value <= probe.raw_value

    @pytest.mark.parametrize("kind", ["covering1", "resolvability", "packing"])
    def test_kinds_without_a_step_table_are_refused(self, kind):
        with pytest.raises(InputFormatError):
            optimize_gamma(kind, {"joint": JOINT, "event": DIAG, "M": 3, "L": 2}, (0.05, 5.0))

    @pytest.mark.parametrize("search_range", [(2.0, 1.0), (0.0, 1.0), (1.0, 1.0), (1.0, math.inf)])
    def test_bad_range_is_refused(self, search_range):
        with pytest.raises(InputFormatError):
            optimize_gamma("covering4", {"joint": JOINT, "event": DIAG, "M": 3, "L": 2}, search_range)


def stepped_instances(kind: str, seed: int) -> list[dict]:
    """Instances of a stepped kind (``covering4-union`` is covering4 in its
    union form), with unit codebooks among them."""
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        return [{"system": random_design(rng), "sizes": SchemeSizes.from_string(text)}
                for text in ("1,1,1,1,1,1,1", "1,1,1,1,1,2,2", "2,1,3,2,2,4,3", "1,1,1,1,1,1,5")]
    shape = (2, 3, 2) if kind == "covering5" else (3, 4)
    return [{"joint": random_joint(rng, shape, allow_zero=True), "event": random_event(rng, shape),
             "M": M, "L": L, "union_form": kind.endswith("-union")}
            for M, L in ((1, 1), (1, 6), (2, 2), (5, 3), (40, 17))]


STEPPED = ["covering4", "covering4-union", "covering5", "covering7", "broadcast"]


class TestRemainder:
    """``optimize_gamma`` searches ``remainder(gamma)``, a plain sum of the
    values ``terms(gamma, 0.0)`` names."""

    @staticmethod
    def outcome(f, g):
        try:
            return "value", f(g).hex()
        except InputFormatError as e:
            return "raises", str(e)

    @pytest.mark.parametrize("kind", STEPPED)
    def test_is_the_raw_sum_of_the_terms_bit_for_bit(self, kind):
        grid = [0.05, 6.0, *np.geomspace(0.05, 6.0, 61).tolist(), math.nextafter(6.0, 0.0)]
        for instance in stepped_instances(kind, 67):
            _, _, terms, remainder = _bound_parts(kind.removesuffix("-union"), instance)
            for g in grid:
                assert remainder(g).hex() == _raw_sum(terms(g, 0.0)).hex(), g

    @pytest.mark.parametrize("kind", STEPPED)
    def test_raises_where_the_terms_raise(self, kind):
        raised = set()
        for instance in stepped_instances(kind, 71):
            _, _, terms, remainder = _bound_parts(kind.removesuffix("-union"), instance)
            for g in (1e-17, 710.0, 746.0):
                got = self.outcome(remainder, g)
                assert got == self.outcome(lambda g: _raw_sum(terms(g, 0.0)), g)
                if got[0] == "raises":
                    raised.add(g)
        assert raised == ({710.0, 746.0} if kind == "covering7" else {1e-17, 746.0})


class TestNoRevalidation:
    @pytest.mark.parametrize("kind", STEPPED)
    def test_optimize_gamma_validates_no_mass_array(self, kind, monkeypatch):
        # prebuilt joints and systems are read as they are
        instances = stepped_instances(kind, 73)
        calls = []
        real = probability._as_mass
        monkeypatch.setattr(probability, "_as_mass", lambda *a, **k: calls.append(a) or real(*a, **k))
        for instance in instances:
            optimize_gamma(kind.removesuffix("-union"), instance, (0.05, 6.0))
        assert calls == []


class TestBoundReportInvariants:
    def test_terms_sum_to_raw_and_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            j = random_joint(rng, (2, 3), allow_zero=True)
            ev = random_event(rng, (2, 3))
            M, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = float(rng.uniform(0.2, 2.0))
            j3 = random_joint(rng, (2, 2, 2), allow_zero=True)
            ev3 = random_event(rng, (2, 2, 2))
            for rep in (
                mutual_covering_bound(j, ev, BoundParams(M, L, g, "auto")),
                simple_covering_bound(j, ev, M, L, g),
                resolvability_covering_bound(j, ev, M, L, g),
                conditional_covering_bound(j3, ev3, M, L, g),
            ):
                values = [v for _, v in rep.terms]
                assert all(v >= 0 for v in values)
                assert rep.raw_value == pytest.approx(sum(values), abs=1e-12)
                assert rep.clamped_value == min(rep.raw_value, 1.0)
