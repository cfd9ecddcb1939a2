"""Core probability objects and information-density conventions."""

import math

import numpy as np
import pytest

from oneshot import (
    AlphabetMismatchError,
    Dist,
    InputFormatError,
    Joint,
    Kernel,
    OutsideSupportError,
    UndefinedRowError,
    cond_info_density,
    cond_mutual_info,
    conditional,
    info_density,
    marginal,
    merge_axes,
    mutual_info,
    product_extend,
    rel_info,
)
from oneshot.errors import EnumerationCapError
from oneshot.probability import cond_info_density_table, info_density_table

from conftest import random_joint

JOINT = Joint([[0.4, 0.1], [0.2, 0.3]])
LN2 = math.log(2.0)


def _with_zero_lines(j: Joint, i: int) -> Joint:
    """``j`` with row ``i % 3`` and column ``(i + 1) % 3`` zeroed, renormalized."""
    p = j.probs.copy()
    p[i % 3] = 0.0
    p[:, (i + 1) % 3] = 0.0
    return Joint(p / p.sum())


class TestConstruction:
    def test_renormalizes_small_deviation(self):
        d = Dist([0.5, 0.5000004])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_deviation(self):
        with pytest.raises(InputFormatError):
            Dist([0.5, 0.4])

    def test_rejects_negative_mass(self):
        with pytest.raises(InputFormatError):
            Joint([[0.6, -0.1], [0.3, 0.2]])

    def test_kernel_row_mass_checked(self):
        with pytest.raises(InputFormatError):
            Kernel([[0.5, 0.4], [0.5, 0.5]])

    def test_labels_length_checked(self):
        with pytest.raises(InputFormatError):
            Dist([0.5, 0.5], labels=("a",))

    def test_immutable(self):
        with pytest.raises(ValueError):
            JOINT.probs[0, 0] = 0.9


class TestMarginal:
    def test_uniform_keep_first(self):
        j = Joint(np.full((2, 2), 0.25))
        np.testing.assert_allclose(marginal(j, 0).probs, [0.5, 0.5])

    def test_hand_summation(self):
        np.testing.assert_allclose(marginal(JOINT, 0).probs, [0.5, 0.5])
        np.testing.assert_allclose(marginal(JOINT, 1).probs, [0.6, 0.4])

    def test_keep_all_is_identity(self):
        j = random_joint(np.random.default_rng(0), (2, 3, 2))
        np.testing.assert_array_equal(marginal(j, (0, 1, 2)).probs, j.probs)

    def test_axis_order_respected(self):
        j = random_joint(np.random.default_rng(1), (2, 3))
        np.testing.assert_allclose(marginal(j, (1, 0)).probs, j.probs.T)

    def test_invalid_axis(self):
        with pytest.raises(AlphabetMismatchError):
            marginal(JOINT, 2)


class TestConditional:
    def test_product_joint_rows_equal_marginal(self):
        pu, pv = np.array([0.3, 0.7]), np.array([0.25, 0.75])
        k = conditional(Joint(np.outer(pu, pv)), 0)
        for u in range(2):
            np.testing.assert_allclose(k.row(u), pv)

    def test_hand_division(self):
        k = conditional(JOINT, 0)
        np.testing.assert_allclose(k.row(0), [0.8, 0.2])
        np.testing.assert_allclose(k.row(1), [0.4, 0.6])

    def test_zero_mass_row_undefined(self):
        k = conditional(Joint([[0.0, 0.0], [0.6, 0.4]]), 0)
        assert not k.defined[0]
        with pytest.raises(UndefinedRowError):
            k.row(0)
        np.testing.assert_allclose(k.row(1), [0.6, 0.4])

    def test_round_trip_reproduces_joint(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            j = random_joint(rng, (3, 2), allow_zero=True)
            pu = j.probs.sum(axis=1)
            k = conditional(j, 0)
            rebuilt = pu[:, None] * k.matrix()
            np.testing.assert_allclose(rebuilt, j.probs, atol=1e-12)


class TestRelInfo:
    def test_identity(self):
        d = Dist([0.3, 0.7])
        for x in range(2):
            assert rel_info(d, d, x) == 0.0

    def test_direct_ratio(self):
        assert rel_info(Dist([1.0, 0.0]), Dist([0.5, 0.5]), 0) == pytest.approx(LN2)

    def test_zero_numerator(self):
        assert rel_info(Dist([1.0, 0.0]), Dist([0.5, 0.5]), 1) == -math.inf

    def test_zero_denominator(self):
        assert rel_info(Dist([0.5, 0.5]), Dist([1.0, 0.0]), 1) == math.inf

    def test_outside_both_supports(self):
        with pytest.raises(OutsideSupportError):
            rel_info(Dist([1.0, 0.0]), Dist([1.0, 0.0]), 1)


class TestInfoDensity:
    def test_independent_zero(self):
        j = Joint(np.outer([0.3, 0.7], [0.25, 0.75]))
        for u in range(2):
            for v in range(2):
                assert info_density(j, u, v) == pytest.approx(0.0, abs=1e-15)

    def test_noiseless_diagonal(self):
        j = Joint([[0.5, 0.0], [0.0, 0.5]])
        assert info_density(j, 0, 0) == pytest.approx(LN2)
        assert info_density(j, 1, 0) == -math.inf

    def test_direct_formula(self):
        assert info_density(JOINT, 0, 0) == pytest.approx(0.28768207245178085, abs=1e-15)

    def test_symmetric_form_on_support(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = random_joint(rng, (3, 3), allow_zero=True)
            pu, pv = j.probs.sum(axis=1), j.probs.sum(axis=0)
            for u in range(3):
                for v in range(3):
                    if j.probs[u, v] > 0:
                        want = math.log(j.probs[u, v] / (pu[u] * pv[v]))
                        assert info_density(j, u, v) == pytest.approx(want, abs=1e-12)

    def test_undefined_row(self):
        j = Joint([[0.0, 0.0], [0.6, 0.4]])
        with pytest.raises(UndefinedRowError):
            info_density(j, 0, 0)


class TestCondInfoDensity:
    def test_conditionally_independent_zero(self):
        pu = np.array([0.4, 0.6])
        ps = np.array([[0.3, 0.7], [0.5, 0.5]])
        pt = np.array([[0.2, 0.8], [0.9, 0.1]])
        j = Joint(pu[:, None, None] * ps[:, :, None] * pt[:, None, :])
        for u in range(2):
            for s in range(2):
                for t in range(2):
                    assert cond_info_density(j, s, t, u) == pytest.approx(0.0, abs=1e-12)

    def test_vacuous_conditioning(self):
        j2 = JOINT
        j3 = Joint(j2.probs[None, :, :])
        for s in range(2):
            for t in range(2):
                assert cond_info_density(j3, s, t, 0) == pytest.approx(
                    info_density(j2, s, t), abs=1e-12
                )

    def test_against_marginalize_then_divide(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            j = random_joint(rng, (2, 2, 2))
            arr = j.probs
            pu = arr.sum(axis=(1, 2))
            for u in range(2):
                ps = arr[u].sum(axis=1) / pu[u]
                pt = arr[u].sum(axis=0) / pu[u]
                for s in range(2):
                    for t in range(2):
                        want = math.log((arr[u, s, t] / pu[u]) / (ps[s] * pt[t]))
                        assert cond_info_density(j, s, t, u) == pytest.approx(want, abs=1e-12)


class TestProductExtend:
    def test_identity_for_single_copy(self):
        d = Dist([0.3, 0.7])
        assert product_extend(d, 1) is d

    def test_bernoulli_cube_is_uniform(self):
        d = product_extend(Dist([0.5, 0.5]), 3)
        np.testing.assert_allclose(d.probs, np.full(8, 0.125))

    def test_density_additivity(self):
        j2 = product_extend(JOINT, 2)
        pu = JOINT.probs.sum(axis=1)
        for u1 in range(2):
            for u2 in range(2):
                for v1 in range(2):
                    for v2 in range(2):
                        want = info_density(JOINT, u1, v1) + info_density(JOINT, u2, v2)
                        got = info_density(j2, 2 * u1 + u2, 2 * v1 + v2)
                        assert got == pytest.approx(want, abs=1e-12)

    def test_kernel_extension_rows_multiply(self):
        k = conditional(JOINT, 0)
        k2 = product_extend(k, 2)
        for x1 in range(2):
            for x2 in range(2):
                want = np.kron(k.row(x1), k.row(x2))
                np.testing.assert_allclose(k2.row(2 * x1 + x2), want, atol=1e-15)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            product_extend(Dist([0.5, 0.5]), 13)  # 8192 > 4096


class TestMutualInfo:
    def test_independent_zero(self):
        j = Joint(np.outer([0.3, 0.7], [0.25, 0.75]))
        assert mutual_info(j) == pytest.approx(0.0, abs=1e-15)

    def test_noiseless_ln2(self):
        assert mutual_info(Joint([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(LN2)

    def test_bsc_closed_form(self):
        p = 0.1
        j = Joint([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert mutual_info(j) == pytest.approx(LN2 - h, abs=1e-12)
        assert mutual_info(j) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_conditional_version_matches_slice_average(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            j = random_joint(rng, (3, 2, 2))
            pu = j.probs.sum(axis=(1, 2))
            want = sum(
                pu[u] * mutual_info(Joint(j.probs[u] / pu[u])) for u in range(3) if pu[u] > 0
            )
            assert cond_mutual_info(j, 0) == pytest.approx(want, abs=1e-12)


class TestInvariants:
    def test_chain_rule_on_support(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            j = random_joint(rng, (2, 3, 2), allow_zero=True)
            merged = merge_axes(j, ((0, 1), (2,)))
            arr = j.probs
            ks = arr.shape[1]
            for u in range(arr.shape[0]):
                for s in range(ks):
                    for y in range(arr.shape[2]):
                        if arr[u, s, y] == 0:
                            continue
                        joint_us_y = info_density(merged, u * ks + s, y)
                        split = info_density(marginal(j, (0, 2)), u, y) + cond_info_density(
                            j, s, y, u
                        )
                        assert joint_us_y == pytest.approx(split, abs=1e-12)

    def test_exp_density_expectations(self):
        rng = np.random.default_rng(33)
        for i in range(20):
            drawn = random_joint(rng, (3, 3), allow_zero=True)
            zeroed = _with_zero_lines(drawn, i)
            for j in (drawn, zeroed):
                arr = j.probs
                pu, pv = arr.sum(axis=1), arr.sum(axis=0)
                table = info_density_table(j)
                # -inf (never NaN) exactly off the support, zero marginals included
                assert np.array_equal(table == -np.inf, arr == 0)
                assert np.isfinite(table[arr > 0]).all()
                # under the product of marginals, exp(density) integrates to the
                # joint mass of the product support
                prod = np.outer(pu, pv)
                on = prod > 0
                e_forward = (prod[on] * np.exp(table[on])).sum()
                assert e_forward <= 1 + 1e-12
                assert e_forward == pytest.approx(arr[on].sum(), abs=1e-12)
                # under the joint, exp(-density) integrates to at most one
                sup = arr > 0
                e_back = (arr[sup] * np.exp(-table[sup])).sum()
                assert e_back <= 1 + 1e-12
            # the conditional table keeps the same rule, also for a
            # conditioning symbol of zero mass
            j3 = Joint(np.stack([zeroed.probs, np.zeros((3, 3)), drawn.probs]) / 2)
            table3 = cond_info_density_table(j3)
            assert np.array_equal(table3 == -np.inf, j3.probs == 0)
            assert np.isfinite(table3[j3.probs > 0]).all()

    def test_underflowing_masses_keep_finite_densities(self):
        # P(u) P(v) underflows to 0 at (0, 0): the density is -ln(1e-200), not +inf
        table = info_density_table(Joint([[1e-200, 0.0], [0.0, 1.0 - 1e-200]]))
        assert table[0, 0] == pytest.approx(200 * math.log(10), rel=1e-12)
        assert table[1, 1] == 0.0
        assert np.array_equal(table == -np.inf, np.array([[False, True], [True, False]]))
        # P(u,s,t) P(u) underflows at u = 0: the density is ln 2, not -inf
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[0, 1, 1] = 1e-200
        arr[1] = [[0.1, 0.4], [0.3, 0.2]]
        j3 = Joint(arr)
        table3 = cond_info_density_table(j3)
        assert table3[0, 0, 0] == pytest.approx(math.log(2), abs=1e-12)
        assert table3[0, 1, 1] == pytest.approx(math.log(2), abs=1e-12)
        assert np.array_equal(table3 == -np.inf, j3.probs == 0)
        assert table3[1, 0, 1] == pytest.approx(math.log(0.4 / (0.5 * 0.6)), rel=1e-12)

    def test_merge_axes_indexing(self):
        j = random_joint(np.random.default_rng(2), (2, 3, 2))
        m = merge_axes(j, ((0, 1), (2,)))
        assert m.shape == (6, 2)
        for u in range(2):
            for s in range(3):
                for y in range(2):
                    assert m.probs[u * 3 + s, y] == pytest.approx(j.probs[u, s, y])
