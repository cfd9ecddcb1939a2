"""Rate-region system construction, membership, and projection."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oneshot import (
    InfoVector,
    Joint,
    Kernel,
    RateTriple,
    fme_project,
    info_vector,
    region_contains,
)
from oneshot.errors import InputFormatError
from oneshot import broadcast, cli, probability, regions
from oneshot.broadcast import BroadcastSystem
from oneshot.regions import Inequality, LinearSystem, projection_contains

from conftest import random_design as sparse_design
from reference import (AUX_VARIABLES, auxiliary_system, composed_info_vector,
                       info_vector as dense_info_vector)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_iv(rng: np.random.Generator) -> InfoVector:
    """Random vector with a satisfiable cross constraint (nonempty region)."""
    i1, i2 = rng.uniform(0.2, 1.5, 2)
    j1 = rng.uniform(0.0, i1)
    j2 = rng.uniform(0.0, i2)
    k = rng.uniform(0.0, j1 + j2)
    return InfoVector(i1, i2, j1, j2, k)


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

    def test_builds_no_density_tables(self, monkeypatch, tmp_path):
        # info_vector reads only the receiver marginals, so neither it nor the
        # region command builds the five density tables; its values are those
        # of the dense design joint
        built = []
        real = broadcast.DensityTables
        monkeypatch.setattr(broadcast, "DensityTables", lambda system: built.append(system) or real(system))
        systems = [random_design(np.random.default_rng(seed)) for seed in range(8)]
        got = [info_vector(s.joint_ust, s.x_map, s.channel) for s in systems]
        for config in ("region_binary.json", "region_bsc_copy.json"):
            for flags in (["--project"], ["--rates", "0.1,0.1,0.1"]):
                argv = ["region", "--config", str(CONFIGS / config), *flags]
                assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert built == []
        for system, iv in zip(systems, got):
            for field, value in dense_info_vector(system).to_json().items():
                assert getattr(iv, field) == pytest.approx(value, rel=1e-12, abs=1e-15)


def shipped_system(config: str) -> BroadcastSystem:
    return BroadcastSystem.from_json(json.loads((CONFIGS / config).read_text()))


SHIPPED_REGION_CONFIGS = ("region_binary.json", "region_bsc_copy.json", "broadcast_binary.json",
                          "broadcast_blackwell.json")


def h(p: float) -> float:
    """Binary entropy in nats."""
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def moved_out(rates: tuple[float, float, float], step: float = 1e-6) -> list[RateTriple]:
    """``rates`` with each coordinate in turn moved out by ``step``."""
    return [RateTriple(*(r + step * (i == j) for j, r in enumerate(rates))) for i in range(3)]


class TestCapacityAnchors:
    """Textbook capacity corners, written from binary entropies: the region
    is checked against results the code did not compute."""

    def test_blackwell_corner(self):
        # a deterministic broadcast channel at its input law (Marton 1979;
        # Pinsker 1978): R1 <= H(Y1), R2 <= H(Y2), R1 + R2 <= H(Y1, Y2) = ln 3
        system = shipped_system("broadcast_blackwell.json")
        iv = info_vector(system.joint_ust, system.x_map, system.channel)
        corner = (0.0, h(1 / 3), math.log(3) - h(1 / 3))
        assert region_contains(iv, RateTriple(*corner))
        assert not any(region_contains(iv, rates) for rates in moved_out(corner))

    def test_degraded_bsc_superposition_corner(self):
        # superposition coding on a degraded BSC pair (Cover 1972; Bergmans
        # 1973): U ~ Bern(1/2), S = X = U xor V with V ~ Bern(beta), T constant
        p1, p2, beta = 0.1, 0.25, 0.2

        def conv(a, b):
            return a * (1 - b) + b * (1 - a)

        p_ust = np.array([[[1 - beta], [beta]], [[beta], [1 - beta]]]) / 2
        x_map = np.array([[[0], [1]], [[0], [1]]])
        bsc = [[1 - p1, p1], [p1, 1 - p1]], [[1 - p2, p2], [p2, 1 - p2]]
        rows = np.einsum("xa,xb->xab", *map(np.array, bsc))
        iv = info_vector(Joint(p_ust), x_map, Kernel(rows))
        corner = (0.0, h(conv(beta, p1)) - h(p1), math.log(2) - h(conv(beta, p2)))
        assert region_contains(iv, RateTriple(*corner))
        assert not any(region_contains(iv, rates) for rates in moved_out(corner))
        # the cloud's rate carried as the common message instead
        assert region_contains(iv, RateTriple(corner[2], corner[1], 0.0))


class TestInfoVectorIdentity:
    """The informations read on unchecked joints equal, bit for bit, those
    composed on :class:`Joint` objects (``reference.composed_info_vector``)."""

    @staticmethod
    def assert_identical(system: BroadcastSystem) -> None:
        args = (system.joint_ust, system.x_map, system.channel)
        got, want = info_vector(*args), composed_info_vector(*args)
        for field in ("I1", "I2", "J1", "J2", "K"):
            assert getattr(got, field) == getattr(want, field), field

    def test_random_designs(self):
        rng = np.random.default_rng(59)
        systems = [sparse_design(rng) for _ in range(200)]
        assert sum(1 in s.shape for s in systems) > 50
        assert sum((s.joint_ust.probs == 0).any() for s in systems) > 50
        for system in systems:
            self.assert_identical(system)

    @pytest.mark.parametrize("config", SHIPPED_REGION_CONFIGS)
    def test_shipped_configs(self, config):
        self.assert_identical(shipped_system(config))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_binary_powers(self, n):
        self.assert_identical(broadcast.product_extend_system(shipped_system("broadcast_binary.json"), n))

    def test_validates_no_mass_array(self, monkeypatch):
        # prebuilt objects are read as they are: no mass array is checked again
        calls = []
        real = probability._as_mass
        monkeypatch.setattr(probability, "_as_mass", lambda *a, **k: calls.append(a) or real(*a, **k))
        systems = [sparse_design(np.random.default_rng(seed)) for seed in range(20)]
        calls.clear()
        for system in systems:
            info_vector(system.joint_ust, system.x_map, system.channel)
        assert calls == []


def random_design(rng: np.random.Generator) -> BroadcastSystem:
    """A random design over small auxiliary, input and output alphabets."""
    shape = tuple(rng.integers(1, 4, size=3))
    kx, ky1, ky2 = rng.integers(1, 4, size=3)
    p_ust = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
    rows = rng.dirichlet(np.ones(ky1 * ky2), size=kx).reshape(kx, ky1, ky2)
    return BroadcastSystem(Joint(p_ust), rng.integers(0, kx, size=shape), Kernel(rows))


class TestBuildSystem:
    def test_row_count(self):
        assert auxiliary_system(InfoVector(0.5, 0.4, 0.3, 0.2, 0.1)).shape == (11, 8)

    def test_transcription_coefficients(self):
        rows = auxiliary_system(InfoVector(0.5, 0.4, 0.3, 0.2, 0.1))
        rh1, rh2 = AUX_VARIABLES.index("Rh1"), AUX_VARIABLES.index("Rh2")
        sum1, j1, k = rows[2], rows[4], rows[6]
        assert sum1[rh1] == 1.0 and sum1[-1] == 0.5
        assert j1[rh1] == 1.0 and j1[-1] == 0.3
        # Rh1 + Rh2 >= K, as the <=-row -Rh1 - Rh2 <= -K
        assert k[rh1] == -1.0 and k[rh2] == -1.0 and k[-1] == -0.1
        assert not k[:rh1].any()
        # the private-split terms cancel inside their own sum constraint
        assert sum1[AUX_VARIABLES.index("R11")] == 0.0
        assert sum1[AUX_VARIABLES.index("R22")] == -1.0

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

    def test_empty_region_is_one_row(self, monkeypatch):
        # K above J1 + J2 empties the region: one row 0 <= J1 + J2 - K, and no LP
        monkeypatch.setattr(regions, "linprog", None)
        proj = fme_project(InfoVector(1.0, 1.0, 0.1, 0.1, 0.5))
        assert proj.pretty() == ["0 <= -0.3"]
        assert not projection_contains(proj, RateTriple(0, 0, 0))

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

    def test_membership_tests_agree_beside_each_facet(self):
        # on each facet and 2 _TOL to either side of it, the projected rows and
        # the closed-form rows give one verdict
        rng = np.random.default_rng(61)
        vectors = [info_vector(s.joint_ust, s.x_map, s.channel)
                   for s in map(shipped_system, SHIPPED_REGION_CONFIGS)]
        vectors += [random_iv(rng) for _ in range(200)]
        verdicts = []
        for iv in vectors:
            proj = fme_project(iv)
            for r in _facet_points(proj, rng, max(iv.I1, iv.I2), (-2 * regions._TOL, 0.0, 2 * regions._TOL)):
                verdicts.append(region_contains(iv, r))
                assert projection_contains(proj, r) == verdicts[-1], (iv, r)
        assert sum(verdicts) > 250 and len(verdicts) - sum(verdicts) > 250

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


def _facet_points(system, rng: np.random.Generator, scale: float,
                  shifts=(-1e-6, -1e-12, 1e-12, 1e-6)):
    """Points on each facet of a projected system, shifted along its normal
    by each of ``shifts`` (1e-12 and 1e-6 to either side of it by default),
    inside the nonnegative orthant."""
    for row in system.rows:
        c = np.array(row.coeffs)
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            continue
        x = rng.uniform(0.0, scale, 3)
        x += (row.constant - c @ x) / norm**2 * c
        for eps in shifts:
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


def _normalize_rows(matrix):
    """Scale each row to a largest coefficient of one (all-zero rows stay)."""
    if len(matrix) == 0:
        return matrix
    scale = np.abs(matrix[:, :-1]).max(axis=1)
    scale = np.where(scale > regions._COEFF_TOL, scale, 1.0)
    return matrix / scale[:, None]


def _eliminate_loop(matrix, col):
    """One Fourier-Motzkin step: one combination per (pos, neg) pair."""
    a = matrix[:, col]
    combos = [up * (-low[col]) + low * up[col]
              for up in matrix[a > regions._COEFF_TOL] for low in matrix[a < -regions._COEFF_TOL]]
    zero = matrix[np.abs(a) <= regions._COEFF_TOL]
    out = np.vstack([zero] + ([np.array(combos)] if combos else []))
    out[:, col] = 0.0
    return out


def _drop_trivial_and_duplicate_unique(matrix, tol):
    """Normalize, drop vacuous rows (0 <= c with c >= -tol), keep infeasible
    ones (0 <= c with c < -tol) with zero coefficients, and keep one row per
    rounded coefficient vector: the one with the smallest constant (the first
    on ties), where that vector first appears.  Groups by ``np.unique``."""
    matrix = _normalize_rows(matrix)
    trivial = np.abs(matrix[:, :-1]).max(axis=1, initial=0.0) <= regions._COEFF_TOL
    kept = ~trivial | (matrix[:, -1] < -tol)
    rows, infeasible = matrix[kept], trivial[kept]
    if len(rows) == 0:
        return np.empty((0, matrix.shape[1]))
    rows[infeasible, :-1] = 0.0
    keys = np.round(rows[:, :-1], 9) + 0.0
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.lexsort((np.arange(len(rows)), np.where(infeasible, 0.0, rows[:, -1]), group))
    best = order[np.searchsorted(group[order], np.arange(len(first)))]
    return rows[best[np.argsort(first)]]


_AUX_COLS = [AUX_VARIABLES.index(n) for n in ("R11", "R22", "Rh1", "Rh2")]


def _fm_reference(iv: InfoVector) -> np.ndarray:
    """Fourier-Motzkin projection of ``auxiliary_system(iv)``, deduplicated
    after each elimination and not pruned, as rows [R0, R1, R2 | constant]."""
    matrix = auxiliary_system(iv)
    for col in _AUX_COLS:
        matrix = _drop_trivial_and_duplicate_unique(_eliminate_loop(matrix, col), regions._TOL)
    assert not matrix[:, _AUX_COLS].any()
    return matrix[:, [0, 1, 2, -1]]


def _as_system(matrix: np.ndarray) -> LinearSystem:
    """<=-rows [R0, R1, R2 | constant] sorted as ``fme_project`` sorts them."""
    rows = [Inequality(tuple(float(c) for c in r[:3]), float(r[3])) for r in matrix]
    rows.sort(key=lambda r: (r.coeffs, r.constant))
    return LinearSystem(rows)


@pytest.fixture(scope="module")
def closed_form_runs():
    """The 10^4 closed-form cases, each with its FM reference and its
    ``fme_project``; every ``regions.linprog`` call (arguments and result)
    and every redundancy decision (threshold and verdict) of those
    projections, in call order."""
    vectors = list(_closed_form_cases(10**4, np.random.default_rng(2024)))
    calls, decisions = [], []
    solve, redundant = regions.linprog, regions._lp_redundant

    def recording_linprog(objective, a_ub, b_ub, bound):
        best = solve(objective, a_ub, b_ub, bound)
        calls.append((objective, a_ub, b_ub, bound, best))
        return best

    def recording_redundant(row, others, tol):
        decision = redundant(row, others, tol)
        decisions.append((row[-1] + tol, decision))
        return decision

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "linprog", recording_linprog)
        mp.setattr(regions, "_lp_redundant", recording_redundant)
        projections = [fme_project(iv) for iv in vectors]
    references = [_fm_reference(iv) for iv in vectors]
    return vectors, references, projections, calls, decisions


class TestClosedForm:
    """``region_contains`` and ``fme_project`` read Marton's closed form;
    Fourier-Motzkin elimination of ``reference.auxiliary_system`` is their
    reference."""

    def test_matches_fme_projection(self, closed_form_runs):
        # all 10^4 vectors against the FM projection before LP pruning
        # (pruning only drops rows the others imply) and against the pruned
        # fme_project itself
        vectors, references, projections, _, _ = closed_form_runs
        rng = np.random.default_rng(7)
        checked = inside = 0
        for iv, reference, pruned in zip(vectors, references, projections):
            refs = [_as_system(reference), pruned]
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

    def test_projection_is_the_pruned_fm_reference(self, closed_form_runs):
        # byte for byte on every 10th nonempty region; empty regions project
        # to the one row 0 <= J1 + J2 - K, with FM's rounding of it
        vectors, references, projections, _, _ = closed_form_runs
        feasible = [n for n, iv in enumerate(vectors) if iv.K <= iv.J1 + iv.J2 + 1e-9]
        assert len(feasible) > 6000
        for n in feasible[::10]:
            want = _as_system(regions._prune(references[n], regions._TOL))
            got = projections[n]
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()), vectors[n]
        for n in sorted(set(range(len(vectors))) - set(feasible)):
            (row,) = projections[n].rows
            infeasible = [r for r in references[n] if not r[:3].any()]
            assert row.coeffs == (0.0, 0.0, 0.0) and row.constant == infeasible[0][3] < -1e-9


def _highs_linprog(objective, a_ub, b_ub, bound):
    """``regions.linprog`` answered by scipy's HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(-np.asarray(objective), A_ub=a_ub, b_ub=b_ub,
                           bounds=(-bound, bound), method="highs")
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return -res.fun if res.status == 0 else None


def _rate_row(r0, r1, r2, c):
    """A <=-row [R0, R1, R2 | c]."""
    return np.array([r0, r1, r2, c])


class TestLinprog:
    """The exact vertex-enumeration LP behind FME pruning."""

    def test_matches_highs_on_random_systems(self):
        rng = np.random.default_rng(31)
        infeasible = 0
        for n in range(1200):
            m = int(rng.integers(1, 13))
            if n % 2:
                a = rng.normal(size=(m, 3))
            else:  # few distinct coefficients: degenerate vertices and ties
                a = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(m, 3))
            a /= np.maximum(np.abs(a).max(axis=1, keepdims=True), 1e-300)
            b = rng.normal(0.3, 1.0, m)
            objective, bound = rng.normal(size=3), float(rng.uniform(1.0, 20.0))
            ref = _highs_linprog(objective, a, b, bound)
            got = regions.linprog(objective, a, b, bound)
            assert (got is None) == (ref is None), (a, b, got, ref)
            if ref is None:
                infeasible += 1
            else:
                assert math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-12), (a, b, got, ref)
        assert 100 < infeasible < 1100

    def test_prune_decisions_match_highs(self, closed_form_runs):
        """Every redundancy decision that ``_prune`` makes on the 10^4
        closed-form cases is the one HiGHS makes.  While decisions agree, a
        HiGHS-backed ``_prune`` makes the same calls, so it keeps the same
        rows.  No LP is asked about an empty set: an empty region projects
        to one row without pruning.  The LPs go to HiGHS in block-diagonal
        batches: the blocks share no variable, so each block's part of the
        optimum is optimal for that block."""
        optimize = pytest.importorskip("scipy.optimize")
        sparse = pytest.importorskip("scipy.sparse")
        _, _, _, calls, decisions = closed_form_runs
        assert len(calls) == len(decisions) > 10**4
        assert all(call[4] is not None for call in calls)
        for start in range(0, len(calls), 500):
            batch = calls[start:start + 500]
            objective = np.concatenate([call[0] for call in batch])
            res = optimize.linprog(
                -objective,
                A_ub=sparse.block_diag([call[1] for call in batch], format="csr"),
                b_ub=np.concatenate([call[2] for call in batch]),
                bounds=np.repeat([(-call[3], call[3]) for call in batch], 3, axis=0),
                method="highs")
            assert res.status == 0, res.message
            ref = (res.x * objective).reshape(-1, 3).sum(axis=1)
            for call, (threshold, decision), value in zip(batch, decisions[start:start + 500], ref):
                assert (value <= threshold) == decision, (call, value, threshold)
                assert math.isclose(call[4], value, rel_tol=1e-9, abs_tol=1e-12)

    def test_infeasible_trivial_row(self):
        # a 0 <= c < 0 row empties the set, so no row is redundant under it
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = np.array([1.0, -1e-3])
        assert regions.linprog(np.ones(3), a, b, 10.0) is None
        others = np.array([_rate_row(1, 0, 0, 1.0), _rate_row(0, 0, 0, -1e-3)])
        assert not regions._lp_redundant(_rate_row(1, 0, 0, 5.0), others, 1e-9)

    def test_parallel_rows(self):
        # every triple of the given rows is singular; the box faces make the
        # vertices, and the tightest of the parallel rows binds
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.5, 0.5, 0.0]])
        b = np.array([2.0, 1.5, 1.0, 0.5])
        assert regions.linprog(np.array([1.0, 1.0, 0.0]), a, b, 10.0) == 1.0
        assert regions.linprog(np.array([-1.0, -1.0, 0.0]), a, b, 10.0) == 1.0
        assert regions.linprog(np.array([0.0, 0.0, 1.0]), a, b, 10.0) == 10.0
        # parallel rows that cross: the band between them is empty
        assert regions.linprog(np.ones(3), a[:3], np.array([2.0, 1.5, -1.6]), 10.0) is None

    def test_weakly_redundant_row(self):
        # R0 + R1 <= 2 only touches {R0 <= 1, R1 <= 1} at a vertex: its
        # maximum equals its constant, so it is redundant; a hair tighter
        # and it is not
        others = np.array([_rate_row(1, 0, 0, 1.0), _rate_row(0, 1, 0, 1.0)])
        assert regions.linprog(np.array([1.0, 1.0, 0.0]), others[:, :3], others[:, -1], 20.0) == 2.0
        assert regions._lp_redundant(_rate_row(1, 1, 0, 2.0), others, 1e-9)
        assert not regions._lp_redundant(_rate_row(1, 1, 0, 2.0 - 1e-8), others, 1e-9)
        # a vertex 1e-8 outside the set does not count
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        best = regions.linprog(np.array([1.0, 1.0, 0.0]), a, np.array([1.0, 1.0, 2.0 - 1e-8]), 20.0)
        assert best == pytest.approx(2.0 - 1e-8, abs=1e-13)

    def test_empty_others(self, monkeypatch):
        # no other rows: nothing implies the row, and no LP is solved
        monkeypatch.setattr(regions, "linprog", None)
        assert not regions._lp_redundant(_rate_row(1, 0, 0, 1.0), np.empty((0, 4)), 1e-9)
        monkeypatch.undo()
        # no rows at all: the box alone, whose maximum is bound * |objective|_1
        box = regions.linprog(np.array([1.0, -2.0, 0.5]), np.empty((0, 3)), np.empty(0), 4.0)
        assert box == 14.0
