"""Rate-region system construction, membership, and projection."""

import math

import numpy as np
import pytest

from oneshot import (
    InfoVector,
    Joint,
    Kernel,
    RateTriple,
    build_system,
    fme_project,
    info_vector,
    region_contains,
)
from oneshot.errors import InputFormatError
from oneshot import regions
from oneshot.regions import VARIABLES, projection_contains


def random_iv(rng: np.random.Generator) -> InfoVector:
    """Random vector with a satisfiable cross constraint (nonempty region)."""
    i1, i2 = rng.uniform(0.2, 1.5, 2)
    j1 = rng.uniform(0.0, i1)
    j2 = rng.uniform(0.0, i2)
    k = rng.uniform(0.0, j1 + j2)
    return InfoVector(i1, i2, j1, j2, k)


def random_iv_any(rng: np.random.Generator) -> InfoVector:
    """Unconstrained vector; the region may be empty."""
    i1, i2 = rng.uniform(0.2, 1.5, 2)
    return InfoVector(i1, i2, rng.uniform(0.0, i1), rng.uniform(0.0, i2),
                      rng.uniform(0.0, 0.8))


def bsc_joint(p: float) -> np.ndarray:
    return np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])


class TestInfoVector:
    def test_rejects_negative(self):
        with pytest.raises(InputFormatError):
            InfoVector(-0.1, 0.2, 0.0, 0.0, 0.0)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(InputFormatError):
            InfoVector(0.2, 0.5, 0.3, 0.1, 0.0)

    def test_clips_float_noise(self):
        iv = InfoVector(0.5, 0.5, -1e-12, 0.1, -1e-12)
        assert iv.J1 == 0.0 and iv.K == 0.0


class TestInfoVectorFromDesign:
    def test_singleton_auxiliaries_zero_satellites(self):
        joint_u = Joint(np.array([0.4, 0.6]).reshape(2, 1, 1))
        x_map = np.array([[[0]], [[1]]])
        rows = np.zeros((2, 2, 2))
        for x in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    rows[x, y1, y2] = (0.9 if y1 == x else 0.1) * (0.8 if y2 == x else 0.2)
        iv = info_vector(joint_u, x_map, Kernel(rows))
        assert iv.J1 == pytest.approx(0.0, abs=1e-12)
        assert iv.J2 == pytest.approx(0.0, abs=1e-12)
        assert iv.K == pytest.approx(0.0, abs=1e-12)
        assert iv.I1 > 0

    def test_singleton_common_identifies_satellite(self):
        # U0 trivial, U1 = X through a BSC(0.1) to Y1; U2 trivial
        joint_u = Joint(np.array([0.5, 0.5]).reshape(1, 2, 1))
        x_map = np.array([[[0], [1]]])
        rows = np.zeros((2, 2, 1))
        for x in range(2):
            for y1 in range(2):
                rows[x, y1, 0] = 0.9 if y1 == x else 0.1
        iv = info_vector(joint_u, x_map, Kernel(rows))
        want = math.log(2) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
        assert iv.J1 == pytest.approx(want, abs=1e-12)
        assert iv.I1 == pytest.approx(want, abs=1e-12)

    def test_common_copy_through_bsc_closed_form(self):
        # uniform common bit, first auxiliary a copy of it, BSC(0.1)
        joint_u = Joint(np.array([[[0.5], [0.0]], [[0.0], [0.5]]]))
        x_map = np.zeros((2, 2, 1), dtype=int)
        x_map[:, 1, 0] = 1
        x_map[1, 0, 0] = 1  # x = u1 (= u0 on the support)
        rows = np.zeros((2, 2, 1))
        for x in range(2):
            for y1 in range(2):
                rows[x, y1, 0] = 0.9 if y1 == x else 0.1
        iv = info_vector(joint_u, x_map, Kernel(rows))
        assert iv.I1 == pytest.approx(0.3680642071684971, abs=1e-12)
        assert iv.J1 == pytest.approx(0.0, abs=1e-12)
        assert iv.K == pytest.approx(0.0, abs=1e-12)


class TestBuildSystem:
    def test_row_count(self):
        sys_ = build_system(InfoVector(0.5, 0.4, 0.3, 0.2, 0.1))
        assert len(sys_.rows) == 11

    def test_transcription_coefficients(self):
        sys_ = build_system(InfoVector(0.5, 0.4, 0.3, 0.2, 0.1))
        rh1 = VARIABLES.index("Rh1")
        sum1 = sys_.rows[2]
        j1 = sys_.rows[4]
        k = sys_.rows[6]
        assert sum1.coeffs[rh1] == 1.0 and sum1.constant == 0.5 and sum1.sense == "<="
        assert j1.coeffs[rh1] == 1.0 and j1.constant == 0.3
        assert k.coeffs[rh1] == 1.0 and k.sense == ">=" and k.constant == 0.1
        # the private-split terms cancel inside their own sum constraint
        assert sum1.coeffs[VARIABLES.index("R11")] == 0.0
        assert sum1.coeffs[VARIABLES.index("R22")] == -1.0

    def test_zero_vector_feasible_at_origin(self):
        iv = InfoVector(0, 0, 0, 0, 0)
        assert region_contains(iv, RateTriple(0, 0, 0))


class TestRegionContains:
    def test_origin_inside_when_cross_constraint_satisfiable(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert region_contains(random_iv(rng), RateTriple(0, 0, 0))

    def test_unsatisfiable_cross_constraint_empties_region(self):
        # the auxiliary-rate system itself is infeasible when the cross term
        # exceeds what the two satellite constraints can supply
        iv = InfoVector(1.0, 1.0, 0.1, 0.1, 0.5)
        assert not region_contains(iv, RateTriple(0, 0, 0))

    def test_degenerate_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            i1, i2 = rng.uniform(0.1, 1.0, 2)
            iv = InfoVector(i1, i2, 0.0, 0.0, 0.0)
            for _ in range(40):
                r = RateTriple(*rng.uniform(0, 0.8, 3))
                want = r.R0 + r.R1 + r.R2 <= min(i1, i2) + 1e-9
                assert region_contains(iv, r) == want

    def test_sum_rate_necessity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            iv = random_iv(rng)
            r = RateTriple(iv.I1 / 2 + 0.01, iv.I1 / 2 + 0.01, 0.0)
            assert not region_contains(iv, r)

    def test_monotone_in_rates(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            iv = random_iv(rng)
            r = RateTriple(*rng.uniform(0, 0.6, 3))
            if region_contains(iv, r):
                smaller = RateTriple(r.R0 * 0.5, r.R1 * 0.9, r.R2 * 0.7)
                assert region_contains(iv, smaller)

    def test_convex_in_rates(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            iv = random_iv(rng)
            a = RateTriple(*rng.uniform(0, 0.7, 3))
            b = RateTriple(*rng.uniform(0, 0.7, 3))
            if region_contains(iv, a) and region_contains(iv, b):
                mid = RateTriple(*(0.5 * np.array([a.R0 + b.R0, a.R1 + b.R1, a.R2 + b.R2])))
                assert region_contains(iv, mid)

    def test_zero_cross_term_admits_zero_hats(self):
        # with no cross constraint the region weakly grows as K shrinks
        rng = np.random.default_rng(5)
        for _ in range(10):
            i1, i2 = rng.uniform(0.3, 1.0, 2)
            j1, j2 = rng.uniform(0.0, 0.3, 2)
            lo = InfoVector(i1, i2, j1, j2, 0.0)
            hi = InfoVector(i1, i2, j1, j2, 0.4)
            for _ in range(20):
                r = RateTriple(*rng.uniform(0, 0.7, 3))
                if region_contains(hi, r):
                    assert region_contains(lo, r)


class TestProjection:
    def test_degenerate_projection_rows(self):
        iv = InfoVector(0.4, 0.3, 0.0, 0.0, 0.0)
        proj = fme_project(iv)
        rows = {(r.coeffs, round(r.constant, 9)) for r in proj.rows}
        assert ((0.0, -1.0, 0.0), 0.0) in rows
        assert ((0.0, 0.0, -1.0), 0.0) in rows
        assert ((1.0, 1.0, 1.0), 0.3) in rows
        assert len(proj.rows) == 3

    def test_agreement_with_direct_feasibility(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            iv = random_iv(rng)
            proj = fme_project(iv)
            for _ in range(200):
                r = RateTriple(*rng.uniform(0, 1.2, 3))
                assert projection_contains(proj, r) == region_contains(iv, r)

    def test_scaling_doubles_constants(self):
        iv = InfoVector(0.8, 0.6, 0.35, 0.3, 0.12)
        doubled = InfoVector(1.6, 1.2, 0.7, 0.6, 0.24)
        a = fme_project(iv)
        b = fme_project(doubled)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.coeffs == pytest.approx(rb.coeffs, abs=1e-12)
            assert rb.constant == pytest.approx(2 * ra.constant, abs=1e-9)

    def test_projection_is_irredundant(self):
        # dropping any returned row changes the polyhedron somewhere (points
        # may have negative coordinates: nonnegativity rows are facets too)
        iv = InfoVector(0.8, 0.6, 0.35, 0.3, 0.12)
        proj = fme_project(iv)
        A = np.array([r.coeffs for r in proj.rows])
        b = np.array([r.constant for r in proj.rows])
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.5, 1.5, size=(200000, 3))
        sat = pts @ A.T <= b[None, :] + 1e-12
        for drop in range(len(proj.rows)):
            others = np.delete(sat, drop, axis=1).all(axis=1)
            assert (others & ~sat[:, drop]).any(), f"row {drop} appears redundant"


def _facet_points(system, rng: np.random.Generator, scale: float):
    """Points on each facet of a projected system, and 1e-12 and 1e-6
    to either side of it, inside the nonnegative orthant."""
    for row in system.rows:
        c = np.array(row.coeffs)
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            continue
        x = rng.uniform(0.0, scale, 3)
        x += (row.constant - c @ x) / norm**2 * c
        for eps in (-1e-6, -1e-12, 1e-12, 1e-6):
            y = x + eps * c / norm
            if (y >= 0).all():
                yield RateTriple(*y)


def _closed_form_cases(n: int, rng: np.random.Generator):
    """Random info vectors: generic, J = I, K on the feasibility facet
    K = J1 + J2 (to within 1e-12 or 1e-6), K above it (empty region), and
    the zero vector."""
    yield InfoVector(0.0, 0.0, 0.0, 0.0, 0.0)
    for i in range(n - 1):
        i1, i2 = rng.uniform(0.0, 1.5, 2)
        j1, j2 = rng.uniform(0.0, i1), rng.uniform(0.0, i2)
        kind = i % 4
        if kind == 1:
            j1, j2 = i1, i2
        if kind == 2:
            k = max(j1 + j2 + rng.choice([-1e-6, -1e-12, 1e-12, 1e-6]), 0.0)
        elif kind == 3:
            k = j1 + j2 + rng.uniform(1e-3, 0.5)
        else:
            k = rng.uniform(0.0, j1 + j2)
        yield InfoVector(i1, i2, j1, j2, k)


class TestClosedForm:
    """``region_contains`` answers from the closed form; FME is its reference."""

    def test_matches_fme_projection(self, monkeypatch):
        # 10^4 vectors against the FME projection before LP pruning (pruning
        # only drops rows the others imply), and every 50th against the
        # pruned fme_project itself
        vectors = list(_closed_form_cases(10**4, np.random.default_rng(2024)))
        pruned = {n: fme_project(iv) for n, iv in enumerate(vectors) if n % 50 == 0}
        monkeypatch.setattr(regions, "_prune",
                            lambda matrix, tol: regions._drop_trivial_and_duplicate(matrix, tol))
        rng = np.random.default_rng(7)
        checked = inside = 0
        for n, iv in enumerate(vectors):
            refs = [fme_project(iv)] + ([pruned[n]] if n in pruned else [])
            scale = max(iv.I1, iv.I2, 1e-3)
            points = [RateTriple(0, 0, 0), RateTriple(*rng.uniform(0.0, scale, 3))]
            points += list(_facet_points(refs[0], rng, scale))
            for r in points:
                got = region_contains(iv, r)
                for ref in refs:
                    assert got == projection_contains(ref, r), (iv, r)
                checked += 1
                inside += got
        assert checked > 10**5 and inside > 10**4
