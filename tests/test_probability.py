"""Core probability objects and the information-density table convention."""

import math

import numpy as np
import pytest

from oneshot import (
    InputFormatError,
    Joint,
    Kernel,
    cond_mutual_info,
    conditional,
    mutual_info,
    product_extend,
)
from oneshot.errors import EnumerationCapError
from oneshot.probability import cond_info_density_table, info_density_table, log_ratio_table

from conftest import random_joint
from reference import joint_cond_mutual_info

JOINT = Joint([[0.4, 0.1], [0.2, 0.3]])
LN2 = math.log(2.0)


def _with_zero_lines(j: Joint, i: int) -> Joint:
    """``j`` with row ``i % 3`` and column ``(i + 1) % 3`` zeroed, renormalized."""
    p = j.probs.copy()
    p[i % 3] = 0.0
    p[:, (i + 1) % 3] = 0.0
    return Joint(p / p.sum())


def _ratio(num, den) -> np.ndarray:
    """:func:`log_ratio_table` of two mass vectors."""
    return log_ratio_table((np.array(num),), (np.array(den),))


class TestConstruction:
    def test_renormalizes_small_deviation(self):
        j = Joint([[0.25, 0.25], [0.25, 0.2500004]])
        assert j.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_deviation(self):
        with pytest.raises(InputFormatError):
            Joint([[0.25, 0.25], [0.25, 0.15]])

    def test_rejects_negative_mass(self):
        with pytest.raises(InputFormatError):
            Joint([[0.6, -0.1], [0.3, 0.2]])

    def test_kernel_row_mass_checked(self):
        with pytest.raises(InputFormatError):
            Kernel([[0.5, 0.4], [0.5, 0.5]])
        # every row is a distribution: a zero row is refused too
        with pytest.raises(InputFormatError):
            Kernel([[0.0, 0.0], [0.5, 0.5]])

    def test_immutable(self):
        with pytest.raises(ValueError):
            JOINT.probs[0, 0] = 0.9

    def test_unchecked_renormalizes_as_the_checked_constructor(self):
        # Joint.unchecked skips the checks, not the rescaling
        rng = np.random.default_rng(83)
        for shape in ((2, 3), (3, 1, 4), (2, 2, 2, 2)):
            p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape) * (1 + 4e-7)
            got, want = Joint.unchecked(p), Joint(p)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.shape == shape and not got.probs.flags.writeable


class TestConditional:
    def test_product_joint_rows_equal_marginal(self):
        pu, pv = np.array([0.3, 0.7]), np.array([0.25, 0.75])
        rows = conditional(Joint(np.outer(pu, pv)), 0)
        for u in range(2):
            np.testing.assert_allclose(rows[u], pv)

    def test_hand_division(self):
        rows = conditional(JOINT, 0)
        np.testing.assert_allclose(rows[0], [0.8, 0.2])
        np.testing.assert_allclose(rows[1], [0.4, 0.6])
        np.testing.assert_allclose(conditional(JOINT, 1), [[2 / 3, 1 / 3], [0.25, 0.75]])

    def test_invalid_axis(self):
        with pytest.raises(InputFormatError):
            conditional(JOINT, 2)

    def test_zero_mass_row_undefined(self):
        # the conditional law of a zero-mass symbol is undefined: its row is zeros
        rows = conditional(Joint([[0.0, 0.0], [0.6, 0.4]]), 0)
        np.testing.assert_array_equal(rows[0], [0.0, 0.0])
        np.testing.assert_allclose(rows[1], [0.6, 0.4])

    def test_round_trip_reproduces_joint(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            j = random_joint(rng, (3, 2), allow_zero=True)
            pu = j.probs.sum(axis=1)
            rebuilt = pu[:, None] * conditional(j, 0)
            np.testing.assert_allclose(rebuilt, j.probs, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rows_rescaled_as_a_kernel_rescales_them(self, axis):
        # divided by their mass, then by their own sum: the exact rows the
        # oracles read, bit for bit
        rng = np.random.default_rng(97)
        for _ in range(20):
            j = random_joint(rng, (3, 2, 4))
            arr = np.moveaxis(j.probs, axis, 0)
            once = arr / arr.reshape(len(arr), -1).sum(axis=1)[:, None, None]
            assert conditional(j, axis).tobytes() == Kernel(once).rows.tobytes()


class TestRelInfo:
    # log_ratio_table of two mass vectors: the relative information ln(p/q)
    def test_identity(self):
        np.testing.assert_array_equal(_ratio([0.3, 0.7], [0.3, 0.7]), [0.0, 0.0])

    def test_direct_ratio(self):
        assert _ratio([1.0, 0.0], [0.5, 0.5])[0] == pytest.approx(LN2)

    def test_zero_numerator(self):
        assert _ratio([1.0, 0.0], [0.5, 0.5])[1] == -math.inf

    def test_zero_denominator(self):
        assert _ratio([0.5, 0.5], [1.0, 0.0])[1] == math.inf

    def test_outside_both_supports(self):
        # a vanishing numerator gives -inf whether or not the denominator vanishes
        assert _ratio([1.0, 0.0], [1.0, 0.0])[1] == -math.inf


class TestInfoDensity:
    def test_independent_zero(self):
        table = info_density_table(Joint(np.outer([0.3, 0.7], [0.25, 0.75])))
        np.testing.assert_allclose(table, 0.0, atol=1e-15)

    def test_noiseless_diagonal(self):
        table = info_density_table(Joint([[0.5, 0.0], [0.0, 0.5]]))
        assert table[0, 0] == pytest.approx(LN2)
        assert table[1, 0] == -math.inf

    def test_direct_formula(self):
        assert info_density_table(JOINT)[0, 0] == pytest.approx(0.28768207245178085, abs=1e-15)

    def test_symmetric_form_on_support(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = random_joint(rng, (3, 3), allow_zero=True)
            arr = j.probs
            sup = arr > 0
            want = np.log(arr[sup] / np.outer(arr.sum(axis=1), arr.sum(axis=0))[sup])
            np.testing.assert_allclose(info_density_table(j)[sup], want, rtol=0, atol=1e-12)

    def test_undefined_row(self):
        # a zero-mass conditioning symbol reads -inf across its row
        table = info_density_table(Joint([[0.0, 0.0], [0.6, 0.4]]))
        np.testing.assert_array_equal(table[0], [-math.inf, -math.inf])
        np.testing.assert_allclose(table[1], 0.0, atol=1e-15)


class TestCondInfoDensity:
    def test_conditionally_independent_zero(self):
        pu = np.array([0.4, 0.6])
        ps = np.array([[0.3, 0.7], [0.5, 0.5]])
        pt = np.array([[0.2, 0.8], [0.9, 0.1]])
        j = Joint(pu[:, None, None] * ps[:, :, None] * pt[:, None, :])
        np.testing.assert_allclose(cond_info_density_table(j), 0.0, atol=1e-12)

    def test_vacuous_conditioning(self):
        table3 = cond_info_density_table(Joint(JOINT.probs[None, :, :]))
        np.testing.assert_allclose(table3[0], info_density_table(JOINT), rtol=0, atol=1e-12)

    def test_against_marginalize_then_divide(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            j = random_joint(rng, (2, 2, 2))
            arr = j.probs
            pu = arr.sum(axis=(1, 2))
            table = cond_info_density_table(j)
            for u in range(2):
                ps = arr[u].sum(axis=1) / pu[u]
                pt = arr[u].sum(axis=0) / pu[u]
                want = np.log((arr[u] / pu[u]) / np.outer(ps, pt))
                np.testing.assert_allclose(table[u], want, rtol=0, atol=1e-12)


class TestProductExtend:
    def test_identity_for_single_copy(self):
        assert product_extend(JOINT, 1) is JOINT

    def test_bernoulli_cube_is_uniform(self):
        cube = product_extend(Joint(np.full((1, 2), 0.5)), 3)
        np.testing.assert_allclose(cube.probs, np.full((1, 8), 0.125))

    def test_density_additivity(self):
        # index 2 x1 + x2 of the pair is letters (x1, x2)
        table = info_density_table(JOINT)
        want = (table[:, None, :, None] + table[None, :, None, :]).reshape(4, 4)
        got = info_density_table(product_extend(JOINT, 2))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_kernel_extension_rows_multiply(self):
        k = Kernel(conditional(JOINT, 0))
        k2 = product_extend(k, 2)
        for x1 in range(2):
            for x2 in range(2):
                want = np.kron(k.rows[x1], k.rows[x2])
                np.testing.assert_allclose(k2.rows[2 * x1 + x2], want, atol=1e-15)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            product_extend(Joint(np.full((1, 2), 0.5)), 13)  # 8192 > 4096


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

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_conditional_version_is_the_checked_composition_bit_for_bit(self, axis):
        rng = np.random.default_rng(89)
        for _ in range(20):
            j = random_joint(rng, (2, 3, 4), allow_zero=True)
            assert cond_mutual_info(j, axis) == joint_cond_mutual_info(j, axis)


class TestInvariants:
    def test_chain_rule_on_support(self):
        # i((u, s); y) = i(u; y) + i(s; y | u), (u, s) merged row-major
        rng = np.random.default_rng(21)
        for _ in range(20):
            j = random_joint(rng, (2, 3, 2), allow_zero=True)
            arr = j.probs
            joint_us_y = info_density_table(Joint(arr.reshape(-1, 2))).reshape(arr.shape)
            split = info_density_table(Joint(arr.sum(axis=1)))[:, None, :] \
                + cond_info_density_table(j)
            sup = arr > 0
            np.testing.assert_allclose(joint_us_y[sup], split[sup], rtol=0, atol=1e-12)

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
