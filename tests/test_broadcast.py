"""Broadcast bound, codebook machinery, decoders, and ensemble simulation."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oneshot import (
    BroadcastSystem,
    Codebook,
    Joint,
    Kernel,
    SchemeSizes,
    broadcast_bound,
    decode,
    encode,
    simulate,
)
from oneshot.broadcast import (
    DensityTables,
    bound_terms,
    event_probabilities,
    mc_event_union,
    message_index,
    message_split,
    product_extend_system,
    sample_codebook,
    thresholds_for,
    zeta_table,
)
from oneshot.errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    InputFormatError,
    UndefinedRowError,
)
from oneshot import broadcast, info_vector
from oneshot import rng as rngmod
from oneshot.bounds import BoundReport, _unimodal_argmin, optimize_gamma

import reference
from conftest import asym_broadcast_system, binary_broadcast_system, dense_minimum, random_design

SIZES_A = SchemeSizes(1, 1, 1, 1, 1, 2, 2)
SIZES_B = SchemeSizes(2, 2, 2, 2, 2, 2, 2)


def singleline_system():
    """Binary cloud layer observed noiselessly; singleton satellite layers
    for receiver 2, binary for receiver 1 (x = 2u + s, y1 = x, y2 trivial)."""
    p_ust = np.array([[[0.3], [0.2]], [[0.25], [0.25]]])
    x_map = np.zeros((2, 2, 1), dtype=int)
    rows = np.zeros((4, 4, 1))
    for u in range(2):
        for s in range(2):
            x = 2 * u + s
            x_map[u, s, 0] = x
            rows[x, x, 0] = 1.0
    return BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))


class TestSchemeSizes:
    def test_derived_products(self):
        sz = SchemeSizes(2, 3, 4, 5, 6, 7, 8)
        assert sz.M == 24
        assert sz.Ntilde == 35
        assert sz.Ltilde == 48

    def test_from_string(self):
        assert SchemeSizes.from_string("1,1,1,1,1,2,2") == SIZES_A
        with pytest.raises(InputFormatError):
            SchemeSizes.from_string("1,2,3")

    def test_positive_required(self):
        with pytest.raises(InputFormatError):
            SchemeSizes(0, 1, 1, 1, 1, 1, 1)

    def test_message_bijection_round_trip(self):
        sz = SchemeSizes(3, 2, 4, 1, 1, 1, 1)
        seen = set()
        for w0 in range(3):
            for w10 in range(2):
                for w20 in range(4):
                    m = message_index(sz, w0, w10, w20)
                    assert message_split(sz, m) == (w0, w10, w20)
                    seen.add(m)
        assert seen == set(range(sz.M))


class TestSystemValidation:
    def test_x_map_shape(self, binary_system):
        with pytest.raises(AlphabetMismatchError):
            BroadcastSystem(binary_system.joint_ust, np.zeros((2, 2, 3), int),
                            binary_system.channel)

    def test_x_map_range(self, binary_system):
        bad = np.full((2, 2, 2), 5)
        with pytest.raises(InputFormatError):
            BroadcastSystem(binary_system.joint_ust, bad, binary_system.channel)

    def test_undefined_channel_row_rejected(self, binary_system):
        rows = np.array(binary_system.channel.rows)
        kernel = Kernel(rows, defined=np.array([True, False]))
        with pytest.raises(UndefinedRowError):
            BroadcastSystem(binary_system.joint_ust, binary_system.x_map, kernel)

    def test_joint_cap(self, binary_system):
        # the five-letter extension has 32^5 design cells, over the cap; the
        # evaluation builds no array of more than 32^4 entries
        big = product_extend_system(binary_system, 5)
        assert math.prod(big.shape) > broadcast.JOINT_CAP
        DensityTables(big)
        # the binary system's union is 1 at every size and gamma
        assert broadcast_bound(big, SIZES_A, 1.0).term("union") == pytest.approx(1.0, abs=1e-12)
        got = info_vector(big.joint_ust, big.x_map, big.channel).to_json()
        letter = info_vector(binary_system.joint_ust, binary_system.x_map,
                             binary_system.channel).to_json()
        for name, value in letter.items():
            assert got[name] == pytest.approx(5 * value, rel=1e-12, abs=1e-15), name

    @pytest.mark.parametrize("evaluate,kt,outputs,message", [
        (lambda system: info_vector(system.joint_ust, system.x_map, system.channel), 1, 21000,
         "receiver marginal with 10164000 entries"),
        (lambda system: broadcast_bound(system, SIZES_A, 1.0), 1, 21000,
         "union kernel with 10164000 entries"),
        (lambda system: broadcast_bound(system, SIZES_A, 1.0), 22, 1000,
         "union kernel with 10648000 entries"),
    ], ids=["info_vector", "broadcast_bound", "broadcast_bound-union"])
    def test_joint_cap_refuses_before_allocating(self, evaluate, kt, outputs, message):
        # 22^2 auxiliary pairs against 21,000 outputs: a receiver marginal of
        # 10,164,000 entries (81 MB) from inputs of about 200 kB.  With 22
        # satellite symbols for receiver 2 and 1,000 outputs the marginals
        # fit, but the union kernel's gather over (u, s, t, y1) does not
        system = BroadcastSystem(Joint(np.full((22, 22, kt), 1.0 / (22 * 22 * kt))),
                                 np.zeros((22, 22, kt), dtype=int),
                                 Kernel(np.full((1, outputs, 1), 1.0 / outputs)))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=message):
                evaluate(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_evaluation_stays_small_on_four_letters(self, binary_system):
        # the bound and the info vector of the binary^4 extension build arrays
        # of 16^4 entries at most; the dense design joint alone is 16^5
        # doubles (8 MiB), and reading the bound off it peaks above 16 MiB
        system = product_extend_system(binary_system, 4)
        tracemalloc.start()
        try:
            broadcast_bound(system, SIZES_B, 1.0)
            info_vector(system.joint_ust, system.x_map, system.channel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_product_alphabet_cap_refuses_before_allocating(self, binary_system, monkeypatch):
        from oneshot import probability

        def no_power(*args):
            raise AssertionError("product tensor built past the alphabet cap")

        monkeypatch.setattr(probability, "_iid_power", no_power)
        with pytest.raises(EnumerationCapError, match="product alphabet 2\\^13"):
            product_extend_system(binary_system, 13)


def wide_satellite_system() -> BroadcastSystem:
    """65 satellite symbols for receiver 1, past the 64 bits of a head-test
    mask: a trivial cloud layer, s uniform, x = 2s + t; y1 = s with
    probability 0.9 and uniform otherwise, y2 = t through a BSC(0.1)."""
    ks = 65
    p_ust = np.empty((1, ks, 2))
    p_ust[0, :, 1] = np.linspace(0.1, 0.3, ks) / ks
    p_ust[0, :, 0] = 1 / ks - p_ust[0, :, 1]
    x_map = (2 * np.arange(ks)[:, None] + np.arange(2)[None, :])[None]
    y1_rows = 0.9 * np.eye(ks) + 0.1 / ks
    y2_rows = np.array([[0.9, 0.1], [0.1, 0.9]])
    rows = (y1_rows[:, None, :, None] * y2_rows[None, :, None, :]).reshape(2 * ks, ks, 2)
    return BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))


WIDE = wide_satellite_system()


def random_3ary_system(seed: int = 17) -> BroadcastSystem:
    """Random design over ternary auxiliaries, a ternary input and a
    ternary-by-ternary output."""
    rng = np.random.default_rng(seed)
    p_ust = rng.dirichlet(np.ones(27)).reshape(3, 3, 3)
    x_map = rng.integers(0, 3, size=(3, 3, 3))
    rows = rng.dirichlet(np.ones(9), size=3).reshape(3, 3, 3)
    return BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))


def near_noiseless_system(e1: float = 1e-9, e2: float = 1e-11) -> BroadcastSystem:
    """Independent uniform u, s, t (2, 4 and 2 symbols), x = (u, s, t);
    receiver 1 sees (u, s) and receiver 2 sees (u, t), each wrong with
    probability ``e1`` or ``e2`` (uniformly over the other symbols)."""
    r1 = (1 - e1 - e1 / 7) * np.eye(8) + e1 / 7
    r2 = (1 - e2 - e2 / 3) * np.eye(4) + e2 / 3
    u, s, t = np.unravel_index(np.arange(16), (2, 4, 2))
    rows = r1[4 * u + s][:, :, None] * r2[2 * u + t][:, None, :]
    return BroadcastSystem(Joint(np.full((2, 4, 2), 1 / 16)), np.arange(16).reshape(2, 4, 2),
                           Kernel(rows))


def reference_designs() -> dict[str, BroadcastSystem]:
    """Seeded random designs, a nearly noiseless design, every shipped
    design config and the two- and three-letter extensions of the binary
    and asymmetric systems."""
    rng = np.random.default_rng(2024)
    designs = {f"random-{i}": random_design(rng) for i in range(16)}
    designs["near-noiseless"] = near_noiseless_system()
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("broadcast_binary", "broadcast_inside", "region_binary", "region_bsc_copy"):
        designs[name] = BroadcastSystem.from_json(json.loads((configs / f"{name}.json").read_text()))
    for n in (2, 3):
        designs[f"binary^{n}"] = product_extend_system(binary_broadcast_system(), n)
        designs[f"asym^{n}"] = product_extend_system(asym_broadcast_system(), n)
    return designs


REFERENCE_DESIGNS = reference_designs()
REFERENCE_SIZES = [SIZES_A, SIZES_B, SchemeSizes(1, 1, 1, 1, 1, 1, 1),
                   SchemeSizes(3, 1, 2, 2, 1, 4, 3)]


class TestDenseReference:
    """The evaluation from the receiver marginals against the dense design
    joint over (u, s, t, y1, y2) of ``tests/reference.py``."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_DESIGNS))
    def test_marginals(self, name):
        system = REFERENCE_DESIGNS[name]
        dense = reference.DenseTables(system)
        for got, want in zip(system.marginals, (dense.p_usy1, dense.p_uty2)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        tables = DensityTables(system)
        for attr in ("p_y1", "p_y2", "p_uy1", "p_uy2"):
            np.testing.assert_allclose(getattr(tables, attr), getattr(dense, attr), rtol=1e-12,
                                       atol=0.0)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DESIGNS))
    def test_event_probabilities(self, name):
        system = REFERENCE_DESIGNS[name]
        dense = reference.DenseTables(system)
        for sizes in REFERENCE_SIZES:
            for gamma in np.geomspace(0.01, 20.0, 24):
                want = dense.event_probabilities(sizes, gamma)["union"]
                got = event_probabilities(system, sizes, gamma)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (sizes, gamma)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DESIGNS))
    def test_info_vector(self, name):
        system = REFERENCE_DESIGNS[name]
        got = info_vector(system.joint_ust, system.x_map, system.channel).to_json()
        # below 1e-15 an information is a numerical zero: the information of a
        # nearly independent pair sums cancelling terms
        for field, value in reference.info_vector(system).to_json().items():
            assert got[field] == pytest.approx(value, rel=1e-12, abs=1e-15), field

    def test_small_union_keeps_its_relative_precision(self):
        # a union of about 1e-9: read off as 1 - P(good) it would miss by
        # about 1e-7 relative
        system = REFERENCE_DESIGNS["near-noiseless"]
        sizes = SchemeSizes(1, 1, 1, 1, 1, 2, 1)
        dense = reference.DenseTables(system)
        for gamma in np.geomspace(0.01, 0.3, 8):
            want = dense.event_probabilities(sizes, gamma)["union"]
            assert 1e-9 < want < 2e-9
            good = 1.0 - dense.full[~dense.union_mask(sizes, gamma)].sum()
            assert abs(good - want) > 1e-9 * want
            got = event_probabilities(system, sizes, gamma)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBoundEvaluation:
    @pytest.mark.parametrize("name", ["binary", "asym_ext", "random3"])
    def test_union_term_equals_event_union(self, name, request):
        # both read the union from the step table; it must be bit-equal to the
        # union kernel evaluated afresh on freshly built tables
        system = random_3ary_system() if name == "random3" else request.getfixturevalue(f"{name}_system")
        tables = DensityTables(system)
        values = set()
        for sizes in (SIZES_A, SIZES_B, SchemeSizes(1, 1, 1, 1, 1, 1, 1)):
            for gamma in np.geomspace(0.01, 20.0, 64):
                want = tables.union_probability(tables.clauses(thresholds_for(sizes, gamma)))
                assert event_probabilities(system, sizes, gamma) == want
                assert broadcast_bound(system, sizes, gamma).term("union") == want
                values.add(want)
        # the binary system's union is 1 at every size and gamma (ROADMAP item 3)
        assert len(values) > 1 or name == "binary"

    @pytest.mark.parametrize("system", [
        *(product_extend_system(binary_broadcast_system(), n) for n in range(1, 5)),
        *(random_design(np.random.default_rng(seed)) for seed in range(8)),
    ], ids=[*(f"binary^{n}" for n in range(1, 5)), *(f"random-{seed}" for seed in range(8))])
    def test_event_probabilities_lie_in_the_unit_interval(self, system):
        # the union kernel passes 1 by rounding; it is clamped where it is computed
        for text in ("1,1,1,1,1,2,2", "2,2,2,2,2,2,2", "4,2,2,4,4,8,8"):
            for gamma in np.geomspace(0.01, 10.0, 40):
                union = event_probabilities(system, SchemeSizes.from_string(text), float(gamma))
                assert 0.0 <= union <= 1.0, union

    def test_union_over_one_by_rounding_reads_one(self):
        system = product_extend_system(binary_broadcast_system(), 5)
        assert event_probabilities(system, SchemeSizes(1, 1, 1, 1, 1, 2, 2), 1.0) == 1.0
        assert broadcast_bound(system, SchemeSizes(1, 1, 1, 1, 1, 2, 2), 1.0).term("union") == 1.0

    def test_frozen_binary_values(self, binary_system):
        rep = broadcast_bound(binary_system, SIZES_A, 1.0)
        assert rep.term_names() == ("twoexp", "doubleexp", "union", "ratio")
        assert rep.term("twoexp") == pytest.approx(0.7357588823428847, abs=1e-15)
        assert rep.term("doubleexp") == pytest.approx(0.06598803584531254, abs=1e-15)
        assert rep.term("union") == pytest.approx(1.0, abs=1e-12)
        assert rep.term("ratio") == pytest.approx(1.0750646338320928, abs=1e-12)
        assert rep.raw_value == pytest.approx(2.8768115520202904, abs=1e-12)
        assert rep.clamped_value == 1.0

    def test_frozen_event_probabilities(self, binary_system):
        # the head and inner events are sure, so the union is too
        probs = reference.DenseTables(binary_system).event_probabilities(SIZES_A, 1.0)
        assert probs["cross"] == pytest.approx(0.9, abs=1e-12)
        for name in ("head1", "head2", "inner1", "inner2", "union"):
            assert probs[name] == pytest.approx(1.0, abs=1e-12)
        assert event_probabilities(binary_system, SIZES_A, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_gamma_rejected_on_a_warm_step_table(self, gamma, capsys):
        # a full table would answer any gamma from its first or last interval
        system = product_extend_system(asym_broadcast_system(), 2)
        steps = system.tables.union_steps(SIZES_A)
        for b in steps.breakpoints:
            event_probabilities(system, SIZES_A, math.nextafter(b, 0.0))
            event_probabilities(system, SIZES_A, b)
        assert len(steps.cache) == len(steps.breakpoints) + 1 > 1
        with pytest.raises(InputFormatError):
            event_probabilities(system, SIZES_A, gamma)
        with pytest.raises(InputFormatError):
            broadcast_bound(system, SIZES_A, gamma)
        from oneshot import cli

        configs = Path(__file__).resolve().parent.parent / "configs"
        code = cli.main(["bound", "broadcast", "--config", str(configs / "broadcast_binary.json"),
                         "--sizes-file", str(configs / "sizes_small.json"), f"--gamma={gamma}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: gamma must be > 0 and finite")

    def test_unit_inner_books_kill_ratio(self, binary_system):
        sz = SchemeSizes(2, 1, 1, 2, 2, 1, 1)
        rep = broadcast_bound(binary_system, sz, 0.8)
        assert rep.term("ratio") == 0.0
        thr = thresholds_for(sz, 0.8)
        assert thr["cross"] == pytest.approx(-1.6)

    def test_union_sanity_bracket(self, asym_ext_system):
        probs = reference.DenseTables(asym_ext_system).event_probabilities(SIZES_A, 0.05)
        singles = [probs[k] for k in ("head1", "head2", "inner1", "inner2", "cross")]
        union = event_probabilities(asym_ext_system, SIZES_A, 0.05)
        assert union >= max(singles) - 1e-12
        assert union <= sum(singles) + 1e-12
        assert 0.0 < union < 1.0

    def test_collapse_to_single_user_structure(self, binary_system):
        # singleton satellite alphabets force the conditional densities to
        # zero: the inner and cross events are sure, and the head events
        # reduce to single-user threshold events on the cloud symbol
        p_u = binary_system.joint_ust.probs.sum(axis=(1, 2))
        p_ust = p_u[:, None, None] * np.ones((2, 1, 1))
        x_map = np.array([[[0]], [[1]]])
        system = BroadcastSystem(Joint(p_ust), x_map, binary_system.channel)
        sz = SchemeSizes(2, 1, 1, 1, 1, 1, 1)
        gamma = 0.7
        probs = reference.DenseTables(system).event_probabilities(sz, gamma)
        assert probs["inner1"] == pytest.approx(1.0, abs=1e-12)
        assert probs["inner2"] == pytest.approx(1.0, abs=1e-12)
        assert probs["cross"] == pytest.approx(1.0, abs=1e-12)
        assert event_probabilities(system, sz, gamma) == pytest.approx(1.0, abs=1e-12)
        # independent single-user enumeration of the head-1 event
        chan = binary_system.channel.rows
        p_uy1 = p_u[:, None] * chan[[0, 1]].sum(axis=2)
        p_y1 = p_uy1.sum(axis=0)
        thr = math.log(sz.M) + gamma
        want = sum(
            p_uy1[u, y]
            for u in range(2)
            for y in range(2)
            if math.log(p_uy1[u, y] / (p_u[u] * p_y1[y])) <= thr
        )
        assert probs["head1"] == pytest.approx(want, abs=1e-12)


class TestZeta:
    def test_frozen_value(self, binary_system):
        assert zeta_table(binary_system, SIZES_A, 1.0)[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_bad_set(self, noiseless_system):
        # noiseless outputs put every achievable density above the thresholds
        zt = zeta_table(noiseless_system, SchemeSizes(1, 1, 1, 1, 1, 1, 1), 0.05)
        np.testing.assert_allclose(zt, 0.0, atol=1e-15)

    def test_full_bad_set(self, noiseless_system):
        # thresholds above every achievable density put all mass in the bad set
        zt = zeta_table(noiseless_system, SchemeSizes(4, 4, 4, 2, 2, 2, 2), 5.0)
        np.testing.assert_allclose(zt, 1.0, atol=1e-15)


class TestEncode:
    def test_unit_inner_books_forced(self, binary_system):
        cb = sample_codebook(binary_system, SchemeSizes(2, 1, 1, 2, 2, 1, 1), seed=0)
        res = encode(cb, binary_system, SchemeSizes(2, 1, 1, 2, 2, 1, 1), 0.8, 1, 0, 0, 1, 0)
        assert (res.ahat, res.bhat) == (0, 0)
        assert res.m == message_index(SchemeSizes(2, 1, 1, 2, 2, 1, 1), 1, 0, 0)

    def test_all_equal_zeta_ties_to_smallest(self, binary_system):
        # repeated inner codewords make every candidate's objective exactly
        # equal, so the tie-break must pick the lexicographically first pair
        cb = Codebook(np.array([1]), np.array([[[1, 1]]]), np.array([[[0, 0]]]))
        res = encode(cb, binary_system, SIZES_A, 1.0, 0, 0, 0, 0, 0)
        assert (res.ahat, res.bhat) == (0, 0)

    def test_crafted_codebook_selects_strict_minimizer(self, asym_ext_system):
        zt = zeta_table(asym_ext_system, SIZES_A, 0.05)
        u, s0, s1, t0, t1 = 0, 1, 0, 0, 1  # zt[u, s1, t0] is the strict minimum
        vals = np.array([zt[u, s0, t0], zt[u, s0, t1], zt[u, s1, t0], zt[u, s1, t1]])
        assert int(np.argmin(vals)) == 2
        assert vals[2] < np.partition(vals, 1)[1] - 1e-12
        cb = Codebook(np.array([u]), np.array([[[s0, s1]]]), np.array([[[t0, t1]]]))
        res = encode(cb, asym_ext_system, SIZES_A, 0.05, 0, 0, 0, 0, 0)
        assert (res.ahat, res.bhat) == (1, 0)
        assert res.x == asym_ext_system.x_map[u, s1, t0]

    def test_message_range_checked(self, binary_system):
        cb = sample_codebook(binary_system, SIZES_A, seed=0)
        with pytest.raises(InputFormatError):
            encode(cb, binary_system, SIZES_A, 1.0, 1, 0, 0, 0, 0)


class TestDecode:
    def setup_method(self):
        self.system = singleline_system()
        self.sizes = SchemeSizes(2, 1, 1, 1, 1, 1, 1)
        self.gamma = 0.3
        self.cb = Codebook(
            np.array([0, 1]),
            np.array([[[0]], [[1]]]),
            np.zeros((2, 1, 1), dtype=int),
        )

    def test_exhaustive_sweep_decodes_cloud_index(self):
        # y1 = (u, s) noiselessly identifies the transmitted pair
        for m in range(2):
            u, s = int(self.cb.u[m]), int(self.cb.s[m, 0, 0])
            y1 = 2 * u + s
            got = decode(self.cb, self.system, self.sizes, self.gamma, y1, 1)
            assert got is not None
            assert message_index(self.sizes, got.m0, got.m10, got.m20) == m
            assert got.inner == 0

    def test_no_candidate_flags_error(self):
        got = decode(self.cb, self.system, self.sizes, 5.0, 0, 1)
        assert got is None

    def test_ambiguity_flags_error(self):
        cb = Codebook(np.array([0, 0]), np.array([[[1]], [[1]]]),
                      np.zeros((2, 1, 1), dtype=int))
        got = decode(cb, self.system, self.sizes, self.gamma, 1, 1)
        assert got is None

    @pytest.mark.parametrize("receiver", [0, 3])
    def test_unknown_receiver_refused(self, receiver):
        with pytest.raises(InputFormatError, match="receiver must be 1 or 2"):
            decode(self.cb, self.system, self.sizes, self.gamma, 0, receiver)

    def test_decode2_mirror(self):
        # mirror design: receiver 2 observes (u, t) noiselessly
        p_ust = np.array([[[0.3, 0.2]], [[0.25, 0.25]]])
        x_map = np.zeros((2, 1, 2), dtype=int)
        rows = np.zeros((4, 1, 4))
        for u in range(2):
            for t in range(2):
                x = 2 * u + t
                x_map[u, 0, t] = x
                rows[x, 0, x] = 1.0
        system = BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))
        cb = Codebook(np.array([0, 1]), np.zeros((2, 1, 1), dtype=int),
                      np.array([[[0]], [[1]]]))
        for m in range(2):
            u, t = int(cb.u[m]), int(cb.t[m, 0, 0])
            got = decode(cb, system, self.sizes, self.gamma, 2 * u + t, 2)
            assert got is not None
            assert message_index(self.sizes, got.m0, got.m10, got.m20) == m


def assert_replays_pointwise(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                             reuse: int, seeds, trials: int = 8) -> None:
    """With ``reuse_codebook=reuse`` every trial of :func:`simulate` must
    replay exactly with the codebook of its group leader (trial
    ``reuse * (i // reuse)``), its own message and its own channel uniform,
    through the scalar :func:`encode` and :func:`decode`; per-trial errors
    are read off the running totals."""
    zt = zeta_table(system, sizes, gamma)
    ky2 = system.channel.out_shape[1]
    chan_cdf = np.cumsum(system.channel.rows.reshape(system.channel.n_inputs, -1), axis=1)
    cb_budget = sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat)
    outcomes = set()
    for random_message in (False, True):
        budget = cb_budget + (6 if random_message else 1)
        # trial rows of a bare codebook block would start elsewhere
        assert rngmod.row_width(cb_budget) != rngmod.row_width(budget)
        for seed in seeds:
            done = [(0, 0)]
            for n in range(1, trials + 1):
                out = simulate(system, sizes, gamma, trials=n, seed=seed, reuse_codebook=reuse,
                               random_message=random_message)
                done.append((round(out.eps1_hat.mean * n), round(out.eps2_hat.mean * n)))
            for i in range(trials):
                cb = sample_codebook(system, sizes, seed=seed, trial=reuse * (i // reuse),
                                     random_message=random_message)
                uni = rngmod.trial_uniforms(seed, i, 1, budget)[0]
                w0, w10, w20, a, b = (0, 0, 0, 0, 0)
                if random_message:
                    radices = (sizes.M0, sizes.M10, sizes.M20, sizes.N, sizes.L)
                    w0, w10, w20, a, b = (min(int(x * r), r - 1)
                                          for x, r in zip(uni[-6:-1], radices))
                res = encode(cb, system, sizes, gamma, w0, w10, w20, a, b, ztable=zt)
                y_flat = int(rngmod.sample_categorical(chan_cdf[res.x], uni[-1:])[0])
                y1, y2 = y_flat // ky2, y_flat % ky2
                got1 = decode(cb, system, sizes, gamma, y1, 1)
                got2 = decode(cb, system, sizes, gamma, y2, 2)
                err1 = got1 is None or got1 != (w0, w10, w20, a)
                err2 = got2 is None or got2 != (w0, w10, w20, b)
                outcomes.update({(1, err1), (2, err2)})
                where = f"seed {seed} trial {i} random_message={random_message}"
                assert done[i + 1][0] - done[i][0] == int(err1), f"{where} receiver 1"
                assert done[i + 1][1] - done[i][1] == int(err2), f"{where} receiver 2"
    assert {(1, True), (1, False)} <= outcomes or {(2, True), (2, False)} <= outcomes


class TestSimulate:
    def test_noiseless_trivial_sizes_error_free(self, noiseless_system):
        out = simulate(noiseless_system, SchemeSizes(1, 1, 1, 1, 1, 1, 1), 0.4,
                       trials=400, seed=2)
        assert out.eps1_hat.mean == 0.0
        assert out.eps2_hat.mean == 0.0

    def test_unreachable_thresholds_always_err(self, binary_system):
        out = simulate(binary_system, SIZES_B, 2.0, trials=300, seed=5)
        assert out.eps1_hat.mean == 1.0
        assert out.eps2_hat.mean == 1.0

    def test_deterministic_across_threads_and_chunks(self, binary_system):
        a = simulate(binary_system, SIZES_A, 1.0, trials=5000, seed=11)
        b = simulate(binary_system, SIZES_A, 1.0, trials=5000, seed=11, threads=8)
        assert a.eps1_hat == b.eps1_hat and a.eps2_hat == b.eps2_hat

    def test_reuse_codebook_deterministic(self, asym_ext_system):
        a = simulate(asym_ext_system, SIZES_A, 0.05, trials=600, seed=3, reuse_codebook=7)
        b = simulate(asym_ext_system, SIZES_A, 0.05, trials=600, seed=3,
                     reuse_codebook=7, threads=4)
        assert a.eps1_hat == b.eps1_hat

    def test_random_message_mode_runs(self, asym_ext_system):
        sz = SchemeSizes(2, 1, 1, 2, 1, 2, 1)
        out = simulate(asym_ext_system, sz, 0.05, trials=500, seed=9, random_message=True)
        assert 0.0 <= out.eps1_hat.mean <= 1.0

    @pytest.mark.parametrize("sizes", [SIZES_A, SchemeSizes(1, 1, 1, 2, 2, 2, 2)])
    def test_matches_pointwise_replay(self, asym_ext_system, sizes):
        # the vectorized path must agree trial by trial with the one-shot
        # sample/encode/transmit/decode pipeline built from the point APIs
        system, gamma = asym_ext_system, 0.07
        zt = zeta_table(system, sizes, gamma)
        ky2 = system.channel.out_shape[1]
        chan_cdf = np.cumsum(system.channel.rows.reshape(system.channel.n_inputs, -1),
                             axis=1)
        budget = sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat) + 1
        outcomes = set()
        for seed in range(60):
            out = simulate(system, sizes, gamma, trials=1, seed=seed)
            cb = sample_codebook(system, sizes, seed=seed, trial=0)
            res = encode(cb, system, sizes, gamma, 0, 0, 0, 0, 0, ztable=zt)
            u_chan = rngmod.trial_uniforms(seed, 0, 1, budget)[0, -1]
            y_flat = int(rngmod.sample_categorical(chan_cdf[res.x], np.array([u_chan]))[0])
            y1, y2 = y_flat // ky2, y_flat % ky2
            got1 = decode(cb, system, sizes, gamma, y1, 1)
            got2 = decode(cb, system, sizes, gamma, y2, 2)
            err1 = got1 is None or got1 != (0, 0, 0, 0)
            err2 = got2 is None or got2 != (0, 0, 0, 0)
            outcomes.update({(1, err1), (2, err2)})
            assert out.eps1_hat.mean == float(err1), f"seed {seed} receiver 1"
            assert out.eps2_hat.mean == float(err2), f"seed {seed} receiver 2"
        # the comparison must exercise both success and failure somewhere
        assert {(1, True), (1, False)} <= outcomes or {(2, True), (2, False)} <= outcomes

    @pytest.mark.parametrize("sizes", [SchemeSizes(1, 1, 1, 1, 2, 3, 2),
                                       SchemeSizes(2, 1, 1, 1, 1, 1, 2)])
    def test_matches_pointwise_replay_reused_codebook(self, asym_ext_system, sizes):
        assert_replays_pointwise(asym_ext_system, sizes, 0.07, reuse=3, seeds=range(25))

    @pytest.mark.parametrize("reuse", [1, 3])
    def test_wide_satellite_alphabet_matches_pointwise_replay(self, reuse):
        # 65 satellite symbols: receiver 1's head test reads the flat (y, u, s)
        # table instead of symbol masks
        assert_replays_pointwise(WIDE, SchemeSizes(2, 1, 1, 1, 1, 2, 1), 0.07, reuse=reuse,
                                 seeds=range(12))

    def test_ensemble_validity_nontrivial_instance(self, asym_ext_system):
        out = simulate(asym_ext_system, SIZES_A, 0.05, trials=4000, seed=13)
        worst = max(out.eps1_hat.mean, out.eps2_hat.mean)
        stderr = max(out.eps1_hat.stderr, out.eps2_hat.stderr)
        assert worst <= out.bound.clamped_value + 4 * stderr
        assert 0.0 < out.eps1_hat.mean < 1.0


BINARY = binary_broadcast_system()


def sim_row_bytes(sizes: SchemeSizes, extra: int, reuse: int, system=BINARY) -> int:
    """Bytes of one :func:`simulate` trial (on the binary system by default):
    its uniforms (its share of the leader's row, codebook block plus
    ``extra`` doubles, and its own last ``extra``) and its work arrays."""
    budget = broadcast._codebook_budget(sizes) + extra
    work = broadcast._trial_work_bytes(system, sizes, reuse)
    return rngmod.uniform_bytes(budget, reuse, extra) + work


def sim_chunk(sizes: SchemeSizes, extra: int, reuse: int, system=BINARY) -> int:
    """Trials per :func:`simulate` chunk, by the rule ``rng.monte_carlo`` applies."""
    return rngmod.chunk_trials(sim_row_bytes(sizes, extra, reuse, system), group=reuse,
                               fixed_bytes=broadcast._run_work_bytes(system))


class TestChunking:
    @pytest.mark.parametrize("text", ["1,1,1,1,1,2,2", "2,2,2,2,2,2,2", "4,2,2,4,4,8,8"])
    @pytest.mark.parametrize("extra", [1, 6])
    @pytest.mark.parametrize("reuse", [1, 4])
    def test_moderate_sizes_keep_full_chunks(self, text, extra, reuse):
        # a full chunk: the default trial count, or as many whole groups as the byte target holds
        sizes = SchemeSizes.from_string(text)
        chunk, row_bytes = sim_chunk(sizes, extra, reuse), sim_row_bytes(sizes, extra, reuse)
        fixed = broadcast._run_work_bytes(BINARY)
        assert chunk % reuse == 0 and fixed + row_bytes * chunk <= rngmod.CHUNK_TARGET
        if text == "1,1,1,1,1,2,2":
            assert chunk == rngmod.CHUNK_TRIALS
        else:
            assert 256 < chunk < rngmod.CHUNK_TRIALS
            assert fixed + row_bytes * (chunk + reuse) > rngmod.CHUNK_TARGET

    @pytest.mark.parametrize("reuse", [1, 3, 64])
    def test_large_sizes_chunk_under_the_byte_cap(self, reuse):
        sizes = SchemeSizes.from_string("8,8,8,8,8,8,8")
        chunk, row_bytes = sim_chunk(sizes, 1, reuse), sim_row_bytes(sizes, 1, reuse)
        fixed = broadcast._run_work_bytes(BINARY)
        assert chunk % reuse == 0 and 0 < chunk < rngmod.CHUNK_TRIALS
        assert fixed + row_bytes * chunk <= rngmod.CHUNK_TARGET
        assert fixed + row_bytes * (chunk + reuse) > rngmod.CHUNK_TARGET

    def test_group_over_the_target_runs_as_one_chunk(self):
        # 64 wide trials hold about 19 MiB: over the target, within the cap
        sizes = SchemeSizes.from_string("8,8,8,8,8,8,8")
        group_bytes = 64 * sim_row_bytes(sizes, 1, 64, WIDE)
        assert rngmod.CHUNK_TARGET < group_bytes <= rngmod.CHUNK_BYTES
        assert sim_chunk(sizes, 1, 64, WIDE) == 64

    @pytest.mark.parametrize("system,reuse,trials", [(BINARY, 1, 128), (BINARY, 4, 128),
                                                     (BINARY, 64, 128), (WIDE, 1, 128),
                                                     (WIDE, 64, 512)],
                             ids=["1", "4", "64", "wide-1", "wide-64"])
    def test_chunks_peak_within_the_byte_cap(self, system, reuse, trials, monkeypatch):
        # every array a chunk allocates counts against the target, not only
        # its uniforms: uniforms alone would let 7 wide trials share one chunk
        # here, where 4 fit, and peak at 1.5 times the target.  Past 64
        # satellite symbols the head test holds a flat index per satellite
        # codeword, which no reuse group shares: left uncounted, it would put
        # 5 wide groups of 64 in one chunk of 95 MiB, 1.5 times the cap.
        # Where the target cuts the chunk, the chunk must use what it
        # reserved (whole reuse groups of at most the target, or one group
        # over it), and reserve what it uses: the wide channel's cdf alone
        # holds 132 KiB through every chunk, and left out of the reservation
        # (as the run's other fixed arrays) a wide chunk of 4 trials peaks at
        # 1.12 times what it reserved.  The system's tables are built before
        # the traced window; the run caches nothing else on the system, so
        # the wide chunk peaks within 1.01 of its reservation
        system.tables
        sizes = SchemeSizes.from_string("8,8,8,8,8,8,8")
        calls = []
        chunk_trials = rngmod.chunk_trials

        def recording(row_bytes, max_trials, group, fixed_bytes=0):
            chunk = chunk_trials(row_bytes, max_trials, group, fixed_bytes)
            calls.append((chunk, row_bytes, fixed_bytes))
            return chunk

        monkeypatch.setattr(rngmod, "chunk_trials", recording)
        tracemalloc.start()
        try:
            simulate(system, sizes, 1.0, trials=trials, seed=3, reuse_codebook=reuse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (chunk, row_bytes, fixed), = calls
        assert row_bytes == sim_row_bytes(sizes, 1, reuse, system)
        limit = max(rngmod.CHUNK_TARGET, reuse * row_bytes)
        assert peak <= 1.1 * limit, peak / limit
        if chunk < trials:
            reserved = fixed + chunk * row_bytes
            assert 0.9 * reserved <= peak <= 1.05 * reserved, peak / reserved

    def test_simulate_peaks_within_the_byte_target(self):
        # 4096 trials of 11 KB each fit the 64 MiB cap in one chunk, which
        # peaks at 44 MB; chunks of the target peak near the target
        with open(Path(__file__).resolve().parent.parent / "configs" / "broadcast_binary.json") as fh:
            system = BroadcastSystem.from_json(json.load(fh))
        tracemalloc.start()
        try:
            simulate(system, SchemeSizes.from_string("4,2,2,4,4,8,8"), 1.0, trials=4096, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(a.nbytes for a in vars(system.tables).values() if isinstance(a, np.ndarray))
        assert peak <= 1.1 * rngmod.CHUNK_TARGET + tables, (peak - tables) / rngmod.CHUNK_TARGET

    def test_group_larger_than_default_chunk(self):
        group = rngmod.CHUNK_TRIALS + 3
        assert sim_chunk(SIZES_A, 1, group) == group

    def test_group_over_the_cap_exits_1_before_any_trial(self, capsys, monkeypatch):
        from oneshot import cli

        def no_trials(*args, **kwargs):
            raise AssertionError("trials drawn past the chunk cap")

        monkeypatch.setattr(rngmod, "trial_uniforms", no_trials)
        config = Path(__file__).resolve().parent.parent / "configs" / "broadcast_binary.json"
        code = cli.main(["simulate", "--config", str(config),
                         "--sizes", "8,8,8,8,8,8,8", "--gamma", "1", "--trials", "10",
                         "--reuse-codebook", "50000"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: one reuse group of 50000 trials")

    @pytest.mark.parametrize("reuse", [1, 3])
    def test_totals_do_not_depend_on_chunk_size(self, asym_ext_system, monkeypatch, reuse):
        kw = dict(trials=700, seed=31, reuse_codebook=reuse, random_message=True)
        sizes = SchemeSizes(1, 1, 2, 1, 2, 2, 1)
        want = simulate(asym_ext_system, sizes, 0.07, **kw)
        row_bytes = sim_row_bytes(sizes, 6, reuse, asym_ext_system)
        monkeypatch.setattr(rngmod, "CHUNK_BYTES",
                            broadcast._run_work_bytes(asym_ext_system) + 4 * reuse * row_bytes)
        assert sim_chunk(sizes, 6, reuse, asym_ext_system) == 4 * reuse
        got = simulate(asym_ext_system, sizes, 0.07, threads=2, **kw)
        assert got == want


#: sha256 of the outcomes in :class:`TestRecordedOutcomes`, recorded while every
#: trial generated its whole uniform row and the head test gathered per codeword
SIMULATE_DIGEST = "02e8a7ddcaa3f2141cbdeb2d4b9a9c9d30c4b6a546c8ab0204259d28992dcc87"


class TestRecordedOutcomes:
    def test_outcomes_match_the_recorded_digest(self, asym_ext_system, monkeypatch):
        # several chunks a run, so that two threads run them side by side;
        # 1001 trials leave a last reuse group cut short
        monkeypatch.setattr(rngmod, "CHUNK_BYTES", 2**21)
        cases = [(BINARY, "4,2,2,4,4,8,8", 1.2), (asym_ext_system, "1,1,1,1,1,2,2", 0.05)]
        digest = hashlib.sha256()
        for system, text, gamma in cases:
            for reuse in (1, 3, 4, 64):
                for random_message in (False, True):
                    outs = [simulate(system, SchemeSizes.from_string(text), gamma, trials=1001,
                                     seed=77 + reuse, threads=threads, reuse_codebook=reuse,
                                     random_message=random_message)
                            for threads in (1, 2)]
                    assert outs[0] == outs[1]
                    digest.update(json.dumps(outs[0].to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == SIMULATE_DIGEST

    @pytest.mark.parametrize("reuse", [1, 4])
    def test_every_uniform_comes_through_trial_uniforms(self, monkeypatch, reuse):
        # the benchmark's uniform counters and the cap tests patch this one name
        def refuse(*args):
            raise RuntimeError("trial_uniforms called")

        monkeypatch.setattr(rngmod, "trial_uniforms", refuse)
        with pytest.raises(RuntimeError, match="trial_uniforms called"):
            simulate(BINARY, SIZES_B, 1.0, trials=10, seed=0, reuse_codebook=reuse,
                     random_message=True)


class TestHeadMasks:
    @pytest.mark.parametrize("ks,kt", [(1, 2), (2, 1), (8, 9), (9, 8), (64, 65), (65, 64)])
    @pytest.mark.parametrize("reuse", [1, 3])
    def test_matches_the_three_index_gather(self, ks, kt, reuse):
        gen = np.random.default_rng(100 * ks + kt + reuse)
        ku, ky, M, n = 3, 5, 6, 14  # 14 trials: the last group of 3 is cut short
        lead = np.arange(n) // reuse
        u_cb = gen.integers(0, ku, (lead[-1] + 1, M)).astype(np.uint8)
        y = gen.integers(0, ky, n)
        for k, shape in ((ks, (2, 3)), (kt, (3, 1))):
            sat = gen.integers(0, k, (lead[-1] + 1, M, *shape)).astype(np.min_scalar_type(k - 1))
            for density in (0.05, 0.5):
                pass_head = gen.random((ku, k, ky)) < density
                want = pass_head[u_cb[lead][:, :, None, None], sat[lead],
                                 y[:, None, None, None]].any(axis=(2, 3))
                got = broadcast._head_fires(pass_head, u_cb, sat, y, lead)
                assert got.dtype == bool
                np.testing.assert_array_equal(got, want)


class TestEventUnionCrosscheck:
    def test_mc_matches_exact_union(self, asym_ext_system):
        union = event_probabilities(asym_ext_system, SIZES_A, 0.05)
        est = mc_event_union(asym_ext_system, SIZES_A, 0.05, trials=20000, seed=21)
        assert abs(est.mean - union) <= 4 * est.stderr


class TestDegenerateReduction:
    def test_stage_one_matches_single_user_simulation(self, binary_system):
        # singleton satellite layers: the full decoder's inner stage cannot
        # fire (its density is identically zero), so the end-to-end error is
        # one; the cloud stage alone must match an independently coded
        # single-user threshold decoder
        p_u = binary_system.joint_ust.probs.sum(axis=(1, 2))
        p_ust = p_u[:, None, None] * np.ones((2, 1, 1))
        x_map = np.array([[[0]], [[1]]])
        system = BroadcastSystem(Joint(p_ust), x_map, binary_system.channel)
        sz = SchemeSizes(2, 1, 1, 1, 1, 1, 1)
        gamma = 0.7
        trials = 6000
        out = simulate(system, sz, gamma, trials=trials, seed=17)
        assert out.eps1_hat.mean == 1.0

        # independent single-user Monte Carlo over (codebook, channel)
        chan_y1 = binary_system.channel.rows.sum(axis=2)  # (x, y1)
        p_y1 = p_u @ chan_y1
        dens = np.log(chan_y1 / p_y1[None, :])
        thr = math.log(sz.M) + gamma
        rng = np.random.default_rng(99)
        errs = 0
        for _ in range(trials):
            u_cb = rng.choice(2, size=2, p=p_u)
            y1 = rng.choice(2, p=chan_y1[u_cb[0]])
            fires = dens[u_cb, y1] > thr
            if fires.sum() != 1 or not fires[0]:
                errs += 1
        single = errs / trials
        sigma = math.sqrt(max(single * (1 - single), 1e-12) / trials)
        assert abs(out.stage1_eps1.mean - single) <= 4 * math.hypot(
            sigma, max(out.stage1_eps1.stderr, 1e-12)
        )


class TestOptimizeGamma:
    @pytest.mark.parametrize("sizes", [SIZES_A, SIZES_B])
    def test_one_table_per_search(self, sizes, monkeypatch):
        # a fresh system, because the shared fixture may hold cached tables:
        # one search, a gamma grid and one simulation build one table
        built = []
        real = broadcast.DensityTables
        monkeypatch.setattr(broadcast, "DensityTables", lambda system: built.append(system) or real(system))
        system = product_extend_system(asym_broadcast_system(), 3)
        gamma, report = optimize_gamma("broadcast", {"system": system, "sizes": sizes}, (0.05, 5.0))
        for g in np.geomspace(0.05, 5.0, 32):
            broadcast_bound(system, sizes, g)
        simulate(system, sizes, 0.07, trials=20, seed=1)
        assert built == [system]
        monkeypatch.undo()

        # reference: a system whose tables (and so union steps) are built anew
        def fresh():
            return BroadcastSystem(system.joint_ust, system.x_map, system.channel)

        reference = fresh()
        breakpoints = reference.tables.union_steps(sizes).breakpoints
        best = dense_minimum(lambda g: broadcast_bound(reference, sizes, g), breakpoints, 0.05, 5.0)
        assert report.raw_value <= best * (1 + 1e-12)
        assert report.to_json() == broadcast_bound(fresh(), sizes, gamma).to_json()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_never_above_dense_reference(self, n):
        system = product_extend_system(asym_broadcast_system(), n)
        # Nhat = 1 or Lhat = 1 drops the ratio term: the remainder then falls
        # to the top of the range
        for text in ("1,1,1,1,1,1,1", "1,1,1,1,1,2,2", "2,2,2,2,2,2,2", "1,1,1,1,1,1,3",
                     "3,1,2,2,1,4,3", "1,2,1,3,2,8,5"):
            sizes = SchemeSizes.from_string(text)
            instance = {"system": system, "sizes": sizes}
            gamma, report = optimize_gamma("broadcast", instance, (0.05, 6.0))
            assert json.dumps(report.to_json()) == json.dumps(broadcast_bound(system, sizes, gamma).to_json())
            breakpoints = system.tables.union_steps(sizes).breakpoints
            best = dense_minimum(lambda g: broadcast_bound(system, sizes, g), breakpoints, 0.05, 6.0)
            assert report.raw_value <= best * (1 + 1e-12)

            def remainder(g):
                return BoundReport(bound_terms(sizes, g, 0.0)).raw_value

            if min(sizes.Nhat, sizes.Lhat) == 1:
                assert _unimodal_argmin(remainder, 0.05, 6.0) == 6.0
