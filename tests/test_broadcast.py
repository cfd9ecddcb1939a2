"""Broadcast bound, codebook machinery, decoders, and ensemble simulation."""

import math
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
    decode1,
    decode2,
    encode,
    simulate,
)
from oneshot.broadcast import (
    DensityTables,
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
from oneshot import broadcast
from oneshot import rng as rngmod
from oneshot.bounds import minimize_scalar, optimize_gamma

from conftest import asym_broadcast_system

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
        assert sz.M1 == 15
        assert sz.M2 == 24
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
        rows = np.array(binary_system.channel.matrix())
        kernel = Kernel(rows, defined=np.array([True, False]))
        with pytest.raises(UndefinedRowError):
            BroadcastSystem(binary_system.joint_ust, binary_system.x_map, kernel)

    def test_joint_cap(self, binary_system):
        big = product_extend_system(binary_system, 5)  # 32^5 > 1e7 design entries
        with pytest.raises(EnumerationCapError):
            DensityTables(big)

    def test_product_alphabet_cap_refuses_before_allocating(self, binary_system, monkeypatch):
        from oneshot import probability

        def no_power(*args):
            raise AssertionError("product tensor built past the alphabet cap")

        monkeypatch.setattr(probability, "_iid_power", no_power)
        with pytest.raises(EnumerationCapError, match="product alphabet 2\\^13"):
            product_extend_system(binary_system, 13)


def random_3ary_system(seed: int = 17) -> BroadcastSystem:
    """Random design over ternary auxiliaries, a ternary input and a
    ternary-by-ternary output."""
    rng = np.random.default_rng(seed)
    p_ust = rng.dirichlet(np.ones(27)).reshape(3, 3, 3)
    x_map = rng.integers(0, 3, size=(3, 3, 3))
    rows = rng.dirichlet(np.ones(9), size=3).reshape(3, 3, 3)
    return BroadcastSystem(Joint(p_ust), x_map, Kernel(rows))


class TestBoundEvaluation:
    @pytest.mark.parametrize("name", ["binary", "asym_ext", "random3"])
    def test_union_term_equals_event_union(self, name, request):
        # both read the union from the step table; it must sum the same entries
        # in the same order as one OR-broadcast mask on freshly built tables
        system = random_3ary_system() if name == "random3" else request.getfixturevalue(f"{name}_system")
        tables = DensityTables(system)
        values = set()
        for sizes in (SIZES_A, SIZES_B, SchemeSizes(1, 1, 1, 1, 1, 1, 1)):
            for gamma in np.geomspace(0.01, 20.0, 64):
                want = float(tables.full[tables.union_mask(thresholds_for(sizes, gamma))].sum())
                assert event_probabilities(system, sizes, gamma)["union"] == want
                assert broadcast_bound(system, sizes, gamma).term("union") == want
                values.add(want)
        # the binary system's union is 1 at every size and gamma (ROADMAP item 3)
        assert len(values) > 1 or name == "binary"

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
        probs = event_probabilities(binary_system, SIZES_A, 1.0)
        assert probs["cross"] == pytest.approx(0.9, abs=1e-12)
        for name in ("head1", "head2", "inner1", "inner2"):
            assert probs[name] == pytest.approx(1.0, abs=1e-12)

    def test_unit_inner_books_kill_ratio(self, binary_system):
        sz = SchemeSizes(2, 1, 1, 2, 2, 1, 1)
        rep = broadcast_bound(binary_system, sz, 0.8)
        assert rep.term("ratio") == 0.0
        thr = thresholds_for(sz, 0.8)
        assert thr.cross == pytest.approx(-1.6)

    def test_union_sanity_bracket(self, asym_ext_system):
        probs = event_probabilities(asym_ext_system, SIZES_A, 0.05)
        singles = [probs[k] for k in ("head1", "head2", "inner1", "inner2", "cross")]
        assert probs["union"] >= max(singles) - 1e-12
        assert probs["union"] <= sum(singles) + 1e-12
        assert 0.0 < probs["union"] < 1.0

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
        probs = event_probabilities(system, sz, gamma)
        assert probs["inner1"] == pytest.approx(1.0, abs=1e-12)
        assert probs["inner2"] == pytest.approx(1.0, abs=1e-12)
        assert probs["cross"] == pytest.approx(1.0, abs=1e-12)
        assert probs["union"] == pytest.approx(1.0, abs=1e-12)
        # independent single-user enumeration of the head-1 event
        chan = binary_system.channel.matrix()
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
            got = decode1(self.cb, self.system, self.sizes, self.gamma, y1)
            assert got is not None
            assert message_index(self.sizes, got.m0, got.m10, got.m20) == m
            assert got.inner == 0

    def test_no_candidate_flags_error(self):
        got = decode1(self.cb, self.system, self.sizes, 5.0, 0)
        assert got is None

    def test_ambiguity_flags_error(self):
        cb = Codebook(np.array([0, 0]), np.array([[[1]], [[1]]]),
                      np.zeros((2, 1, 1), dtype=int))
        got = decode1(cb, self.system, self.sizes, self.gamma, 1)
        assert got is None

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
            got = decode2(cb, system, self.sizes, self.gamma, 2 * u + t)
            assert got is not None
            assert message_index(self.sizes, got.m0, got.m10, got.m20) == m


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
        chan_cdf = np.cumsum(system.channel.matrix().reshape(system.channel.n_inputs, -1),
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
            got1 = decode1(cb, system, sizes, gamma, y1)
            got2 = decode2(cb, system, sizes, gamma, y2)
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
        # with reuse_codebook=K every trial must replay exactly with the
        # codebook of its group leader (trial K * (i // K)), its own message
        # and its own channel uniform; per-trial errors are read off the
        # running totals
        system, gamma, K, trials = asym_ext_system, 0.07, 3, 8
        zt = zeta_table(system, sizes, gamma)
        ky2 = system.channel.out_shape[1]
        chan_cdf = np.cumsum(system.channel.matrix().reshape(system.channel.n_inputs, -1),
                             axis=1)
        cb_budget = sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat)
        outcomes = set()
        for random_message in (False, True):
            budget = cb_budget + (6 if random_message else 1)
            # trial rows of a bare codebook block would start elsewhere
            assert rngmod.row_width(cb_budget) != rngmod.row_width(budget)
            for seed in range(25):
                done = [(0, 0)]
                for n in range(1, trials + 1):
                    out = simulate(system, sizes, gamma, trials=n, seed=seed, reuse_codebook=K,
                                   random_message=random_message)
                    done.append((round(out.eps1_hat.mean * n), round(out.eps2_hat.mean * n)))
                for i in range(trials):
                    cb = sample_codebook(system, sizes, seed=seed, trial=K * (i // K),
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
                    got1 = decode1(cb, system, sizes, gamma, y1)
                    got2 = decode2(cb, system, sizes, gamma, y2)
                    err1 = got1 is None or got1 != (w0, w10, w20, a)
                    err2 = got2 is None or got2 != (w0, w10, w20, b)
                    outcomes.update({(1, err1), (2, err2)})
                    where = f"seed {seed} trial {i} random_message={random_message}"
                    assert done[i + 1][0] - done[i][0] == int(err1), f"{where} receiver 1"
                    assert done[i + 1][1] - done[i][1] == int(err2), f"{where} receiver 2"
        assert {(1, True), (1, False)} <= outcomes or {(2, True), (2, False)} <= outcomes

    def test_ensemble_validity_nontrivial_instance(self, asym_ext_system):
        out = simulate(asym_ext_system, SIZES_A, 0.05, trials=4000, seed=13)
        worst = max(out.eps1_hat.mean, out.eps2_hat.mean)
        stderr = max(out.eps1_hat.stderr, out.eps2_hat.stderr)
        assert worst <= out.bound.clamped_value + 4 * stderr
        assert 0.0 < out.eps1_hat.mean < 1.0


def sim_chunk(budget: int, reuse: int) -> int:
    """Trials per :func:`simulate` chunk, by the rule ``rng.monte_carlo`` applies."""
    return rngmod.chunk_trials(8 * rngmod.row_width(budget), broadcast.SIM_CHUNK_TRIALS, reuse)


class TestChunking:
    @pytest.mark.parametrize("text", ["1,1,1,1,1,2,2", "2,2,2,2,2,2,2", "4,2,2,4,4,8,8"])
    @pytest.mark.parametrize("extra", [1, 6])
    @pytest.mark.parametrize("reuse", [1, 4])
    def test_moderate_sizes_keep_full_chunks(self, text, extra, reuse):
        budget = broadcast._codebook_budget(SchemeSizes.from_string(text)) + extra
        assert sim_chunk(budget, reuse) == broadcast.SIM_CHUNK_TRIALS

    @pytest.mark.parametrize("reuse", [1, 3, 64])
    def test_large_sizes_chunk_under_the_byte_cap(self, reuse):
        budget = broadcast._codebook_budget(SchemeSizes.from_string("8,8,8,8,8,8,8")) + 1
        chunk = sim_chunk(budget, reuse)
        assert chunk % reuse == 0 and 0 < chunk < broadcast.SIM_CHUNK_TRIALS
        assert 8 * rngmod.row_width(budget) * chunk <= rngmod.CHUNK_BYTES
        assert 8 * rngmod.row_width(budget) * (chunk + reuse) > rngmod.CHUNK_BYTES

    def test_group_larger_than_default_chunk(self):
        assert sim_chunk(6, 5000) == 5000

    def test_group_over_the_cap_exits_1_before_any_trial(self, capsys, monkeypatch):
        from oneshot import cli

        def no_trials(*args, **kwargs):
            raise AssertionError("trials drawn past the chunk cap")

        monkeypatch.setattr(rngmod, "trial_uniforms", no_trials)
        config = Path(__file__).resolve().parent.parent / "configs" / "broadcast_binary.json"
        code = cli.main(["simulate", "--config", str(config),
                         "--sizes", "8,8,8,8,8,8,8", "--gamma", "1", "--trials", "10",
                         "--reuse-codebook", "200"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: one reuse group of 200 trials")

    @pytest.mark.parametrize("reuse", [1, 3])
    def test_totals_do_not_depend_on_chunk_size(self, asym_ext_system, monkeypatch, reuse):
        kw = dict(trials=700, seed=31, reuse_codebook=reuse, random_message=True)
        sizes = SchemeSizes(1, 1, 2, 1, 2, 2, 1)
        want = simulate(asym_ext_system, sizes, 0.07, **kw)
        row_bytes = 8 * rngmod.row_width(broadcast._codebook_budget(sizes) + 6)
        monkeypatch.setattr(rngmod, "CHUNK_BYTES", 4 * reuse * row_bytes)
        assert sim_chunk(broadcast._codebook_budget(sizes) + 6, reuse) == 4 * reuse
        got = simulate(asym_ext_system, sizes, 0.07, threads=2, **kw)
        assert got == want


class TestEventUnionCrosscheck:
    def test_mc_matches_exact_union(self, asym_ext_system):
        probs = event_probabilities(asym_ext_system, SIZES_A, 0.05)
        est = mc_event_union(asym_ext_system, SIZES_A, 0.05, trials=20000, seed=21)
        assert abs(est.mean - probs["union"]) <= 4 * est.stderr


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
        chan_y1 = binary_system.channel.matrix().sum(axis=2)  # (x, y1)
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

        # reference: the tables (and so the union mask) rebuilt for every gamma
        def fresh_bound(g):
            return broadcast_bound(BroadcastSystem(system.joint_ust, system.x_map, system.channel),
                                   sizes, g)

        ref_gamma, _ = minimize_scalar(lambda g: fresh_bound(g).raw_value, (0.05, 5.0))
        assert (gamma, report.to_json()) == (ref_gamma, fresh_bound(ref_gamma).to_json())
