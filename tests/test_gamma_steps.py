"""Critical-gamma step tables: the cached step function must equal a fresh
evaluation (a masked sum, or the broadcast union kernel) at every gamma,
breakpoints and their neighbouring doubles included."""

import importlib.util
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oneshot import BroadcastSystem, Joint, Kernel, SchemeSizes, bounds, broadcast_bound
from oneshot.bounds import GammaSteps, _unimodal_argmin, bound_at, critical_gammas, optimize_gamma
from oneshot.broadcast import DensityTables, product_extend_system, thresholds_for
from oneshot.errors import InputFormatError
from oneshot.probability import cond_info_density_table, info_density_table

import reference
from conftest import random_design, sparse_law

SIZE_STRINGS = ("1,1,1,1,1,2,2", "2,1,1,2,2,2,2", "1,2,2,1,1,4,4", "3,1,2,1,3,5,2")
TESTS = ((np.less_equal, 1.0), (np.greater, -2.0), (np.greater_equal, -1.0))
DBL_MAX = sys.float_info.max
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


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
        steps = GammaSteps([(np.array([1.0, 2.0, 3.0]), np.less_equal, 0.0, 1.0)],
                           lambda g: calls.append(g) or float(np.floor(g)))
        values = [steps(g) for g in (0.5, 0.9, 1.0, 1.5, 2.5, 2.9, 7.0)]
        assert values == [0, 0, 1, 1, 2, 2, 7]
        # the first call builds no table; its value is cached with the table
        assert calls == [0.5, 1.0, 2.5, 7.0]
        assert steps.breakpoints == [1.0, 2.0, 3.0]
        assert len(steps.cache) == 4

    @pytest.mark.parametrize("config,text,gamma,evaluations", [
        ("broadcast_binary.json", "1,2,2,1,1,4,4", 1.3287014630824847, 5),
        ("broadcast_inside.json", "1,1,1,1,1,2,2", 1.2234089107968629, 15),
    ])
    def test_a_search_evaluates_each_interval_once(self, config, text, gamma, evaluations,
                                                   monkeypatch):
        # the search's first value comes before any breakpoint exists, at the
        # remainder's minimizer, and the report of the winner reads it again
        with open(CONFIGS / config) as fh:
            doc = json.load(fh)
        sizes = SchemeSizes.from_string(text)
        want = broadcast_bound(BroadcastSystem.from_json(doc), sizes, gamma).to_json()
        calls = []
        real = DensityTables.union_probability
        monkeypatch.setattr(DensityTables, "union_probability",
                            lambda tables, c: calls.append(1) or real(tables, c))
        system = BroadcastSystem.from_json(doc)
        got_gamma, report = optimize_gamma("broadcast", {"system": system, "sizes": sizes},
                                           (0.05, 6.0))
        assert (got_gamma, report.to_json()) == (gamma, want)
        assert len(calls) == len(system.tables.union_steps(sizes).cache) == evaluations

    def test_a_single_gamma_works_out_no_breakpoints(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("critical gammas worked out for a single gamma")

        monkeypatch.setattr(bounds, "critical_gammas", refuse)
        joint = Joint([[0.4, 0.1], [0.2, 0.3]])
        report = bound_at("covering4", {"joint": joint, "event": np.ones((2, 2), bool),
                                        "M": 3, "L": 2})(0.7)
        exceed = info_density_table(joint) > math.log(6) - 2.0 * 0.7
        assert report.term("excess") == float(joint.probs[exceed].sum())


def _benchmark_searches(seed: int):
    """``(kind, instance)`` of each gamma search in the verify-ensemble and
    region-design decks of the benchmark (``perfbench/inputs.py``) at ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for inst in inputs.verify_ensemble(seed)["instances"]:
        if inst["kind"] in ("covering", "conditional"):
            yield ("covering4" if inst["kind"] == "covering" else "covering5",
                   {"joint": Joint(inst["joint"]), "event": np.asarray(inst["event"], dtype=bool),
                    "M": inst["M"], "L": inst["L"]})
    for d in inputs.region_design(seed)["designs"]:
        if not d["optimize"]:
            continue
        if d["type"] == "random":
            system = BroadcastSystem(Joint(d["p_ust"]), np.asarray(d["x_map"]),
                                     Kernel(d["channel"]["rows"]))
        else:
            with open(ROOT / d["config"]) as fh:
                system = product_extend_system(BroadcastSystem.from_json(json.load(fh)), d["n"])
        yield "broadcast", {"system": system, "sizes": SchemeSizes.from_string(d["sizes"])}


class TestUnimodalArgmin:
    @pytest.mark.parametrize("c", [0.05, 0.3, 1.7, 6.0, 9.0, None])
    @pytest.mark.parametrize("lo,hi", [(0.05, 6.0), (1.0, math.nextafter(1.0, 2.0))])
    def test_calls_f_once_per_point(self, c, lo, hi):
        def shape(x):
            return 0.0 if c is None else (x - c) ** 2

        calls = Counter()
        got = _unimodal_argmin(lambda x: calls.update([x]) or shape(x), lo, hi)
        assert set(calls.values()) == {1}
        assert got == reference.unimodal_argmin(shape, lo, hi)

    @pytest.mark.parametrize("seed", [11, 7919])
    def test_benchmark_searches_are_unchanged(self, seed):
        # against the search that calls the remainder again at each final candidate
        searches = list(_benchmark_searches(seed))
        assert [kind for kind, _ in searches].count("broadcast") >= 10
        for kind, instance in searches:
            got_gamma, report = optimize_gamma(kind, instance, (0.05, 6.0))
            want_gamma, want = reference.optimize_gamma(kind, instance, (0.05, 6.0))
            assert (got_gamma, report.to_json()) == (want_gamma, want.to_json())
