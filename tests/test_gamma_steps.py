"""Critical-gamma step tables: the cached step function must equal a fresh
evaluation (a masked sum, or the broadcast union kernel) at every gamma,
breakpoints and their neighbouring doubles included."""

import math
import sys

import numpy as np
import pytest

from oneshot import Joint, SchemeSizes, bounds, broadcast_bound
from oneshot.bounds import GammaSteps, bound_at, critical_gammas
from oneshot.broadcast import CLAUSES, DensityTables, event_probabilities, thresholds_for
from oneshot.errors import InputFormatError
from oneshot.probability import cond_info_density_table, info_density_table

from conftest import random_design, sparse_law

SIZE_STRINGS = ("1,1,1,1,1,2,2", "2,1,1,2,2,2,2", "1,2,2,1,1,4,4", "3,1,2,1,3,5,2")
TESTS = ((np.less_equal, 1.0), (np.greater, -2.0), (np.greater_equal, -1.0))
DBL_MAX = sys.float_info.max


def _gammas(breakpoints):
    """A geometric grid plus every breakpoint and its two neighbouring doubles."""
    grid = [float(g) for g in np.geomspace(1e-3, 40.0, 48)]
    for b in breakpoints:
        grid += [b, float(np.nextafter(b, 0.0)), float(np.nextafter(b, np.inf))]
    return [g for g in grid if g > 0.0]


class TestCriticalGammas:
    @pytest.mark.parametrize("test,slope", TESTS, ids=["le", "gt", "ge"])
    def test_smallest_positive_double_where_the_test_holds(self, test, slope):
        rng = np.random.default_rng(7)
        for c in (0.0, math.log(2), math.log(6), -3.5, 40.0):
            # values near c (the estimate is far from the flip in bit patterns),
            # ordinary values, extremes and the infinities
            near = c + np.arange(-6, 7) * np.spacing(max(abs(c), 1.0))
            values = np.concatenate([near, rng.normal(c, 3.0, 40), rng.normal(0.0, 1e-12, 8),
                                     [-1e308, 1e308, -DBL_MAX, DBL_MAX, -np.inf, np.inf]])
            crit = critical_gammas(values, test, c, slope)
            with np.errstate(over="ignore"):
                for v, g in zip(values, crit):
                    if g == 0.0:
                        assert test(v, c + slope * 5e-324)
                    elif g == np.inf:
                        assert not test(v, c + slope * DBL_MAX)
                    else:
                        assert test(v, c + slope * g)
                        assert not test(v, c + slope * np.nextafter(g, 0.0))

    def test_keeps_the_shape(self):
        values = np.arange(6.0).reshape(2, 3)
        assert critical_gammas(values, np.less_equal, 1.0, 1.0).shape == (2, 3)


class TestStepTablesAreExact:
    def test_broadcast_union_term(self):
        rng = np.random.default_rng(101)
        for _ in range(24):
            system = random_design(rng)
            tables = DensityTables(system)
            for text in SIZE_STRINGS:
                sizes = SchemeSizes.from_string(text)
                steps = system.tables.union_steps(sizes)
                for g in _gammas(steps.breakpoints):
                    clauses = tables.clauses(thresholds_for(sizes, g))
                    want = tables.union_probability(clauses)
                    assert broadcast_bound(system, sizes, g).term("union") == want
                    # each clause's running sum covers exactly the cells of its
                    # mask, ties at a breakpoint included
                    probs = event_probabilities(system, sizes, g)
                    for name, mask in clauses.items():
                        law = getattr(tables, CLAUSES[name].law)
                        assert probs[name] == pytest.approx(float(law[mask].sum()), rel=1e-12,
                                                            abs=0.0)
                assert len(steps.cache) <= len(steps.breakpoints) + 1

    @pytest.mark.parametrize("kind", ["covering4", "covering4-union", "covering5", "covering7"])
    def test_covering_reports(self, kind):
        rng = np.random.default_rng(202)
        union_form = kind.endswith("-union")
        kind = kind.removesuffix("-union")
        for _ in range(30):
            shape = tuple(rng.integers(1, 4, 3)) if kind == "covering5" else tuple(rng.integers(1, 6, 2))
            joint = Joint(sparse_law(rng, shape))
            ev = rng.random(shape) < 0.5
            M, L = (int(n) for n in rng.integers(1, 40, 2))
            table = (cond_info_density_table if kind == "covering5" else info_density_table)(joint)
            merged = union_form or kind == "covering5"
            test, slope = (np.greater_equal, -1.0) if kind == "covering7" else (np.greater, -2.0)
            crit = critical_gammas(table, test, math.log(M * L), slope)
            evaluate = bound_at(kind, {"joint": joint, "event": ev, "M": M, "L": L,
                                       "union_form": union_form})
            for g in _gammas(crit[(crit > 0) & (crit < np.inf)]):
                if kind == "covering7":
                    exceed = table >= math.log(M * L) - g
                else:
                    exceed = table > math.log(M * L) - 2.0 * g
                try:
                    report = evaluate(g)
                except InputFormatError:  # the ratio term rejects gammas near 0
                    continue
                if merged:
                    assert report.term("miss_or_excess") == float(joint.probs[~ev | exceed].sum())
                else:
                    assert report.term("miss") == float(joint.probs[~ev].sum())
                    assert report.term("excess") == float(joint.probs[exceed].sum())


class TestGammaSteps:
    def test_one_mass_per_interval(self):
        calls = []
        steps = GammaSteps([(np.array([1.0, 2.0, 3.0]), np.less_equal, 0.0, 1.0)])
        values = [steps(g, lambda: calls.append(g) or float(np.floor(g)))
                  for g in (0.5, 0.9, 1.0, 1.5, 2.5, 2.9, 7.0)]
        assert values == [0, 0, 1, 1, 2, 2, 7]
        # the first call builds no table and caches nothing
        assert calls == [0.5, 0.9, 1.0, 2.5, 7.0]
        assert steps.breakpoints == [1.0, 2.0, 3.0]
        assert len(steps.cache) == 4

    def test_a_single_gamma_works_out_no_breakpoints(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("critical gammas worked out for a single gamma")

        monkeypatch.setattr(bounds, "critical_gammas", refuse)
        joint = Joint([[0.4, 0.1], [0.2, 0.3]])
        report = bound_at("covering4", {"joint": joint, "event": np.ones((2, 2), bool),
                                        "M": 3, "L": 2})(0.7)
        exceed = info_density_table(joint) > math.log(6) - 2.0 * 0.7
        assert report.term("excess") == float(joint.probs[exceed].sum())
