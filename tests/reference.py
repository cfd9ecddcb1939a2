"""Dense references the library is checked against.

The broadcast evaluation reads only the law of (u, s, t) and the two
receiver marginals.  The references here build the dense design joint
``P(u,s,t) channel(y1,y2 | x(u,s,t))`` over all five axes and read every
quantity off it: the marginals, the density tables, the five clause
probabilities and their union, and the info vector.  They also hold the
multiset count the exact oracles' caps are checked against, and the gamma
search that builds a whole report at every breakpoint it walks.
"""

import bisect
import math

import numpy as np

from oneshot.bounds import _bound_parts, _raw_sum, _unimodal_argmin
from oneshot.broadcast import CLAUSES, BroadcastSystem, SchemeSizes, thresholds_for
from oneshot.probability import (Joint, cond_info_density_table, cond_mutual_info,
                                 log_ratio_table, marginal, merge_axes, mutual_info)
from oneshot.regions import InfoVector


def multiset_count(M: int, k: int) -> int:
    """Number of codeword multisets: C(M + k - 1, M)."""
    return math.comb(M + k - 1, M)


def optimize_gamma(kind: str, instance, search_range):
    """:func:`oneshot.bounds.optimize_gamma` comparing whole reports: the
    remainder's minimizer, then the point just below each breakpoint left of
    it, right to left, until the remainder alone exceeds the best."""
    report, steps, terms = _bound_parts(kind, instance)
    lo, hi = search_range

    def remainder(g):
        return _raw_sum(terms(g, 0.0))

    best_g = _unimodal_argmin(remainder, lo, hi)
    best = report(best_g)
    points = steps.breakpoints
    for b in reversed(points[bisect.bisect_right(points, lo):bisect.bisect_right(points, best_g)]):
        g = math.nextafter(b, 0.0)
        if remainder(g) > best.raw_value:
            break
        candidate = report(g)
        if candidate.raw_value <= best.raw_value:
            best_g, best = g, candidate
    return best_g, best


def design_joint(system: BroadcastSystem) -> np.ndarray:
    """The design joint over (u, s, t, y1, y2)."""
    return system.joint_ust.probs[:, :, :, None, None] * system.channel.rows[system.x_map]


class DenseTables:
    """Marginals and density tables read off :func:`design_joint`."""

    def __init__(self, system: BroadcastSystem):
        self.full = design_joint(system)
        p_ust = system.joint_ust.probs
        self.p_u = p_ust.sum(axis=(1, 2))
        self.p_us = p_ust.sum(axis=2)
        self.p_ut = p_ust.sum(axis=1)
        self.p_usy1 = self.full.sum(axis=(2, 4))
        self.p_uty2 = self.full.sum(axis=(1, 3))
        self.p_y1 = self.full.sum(axis=(0, 1, 2, 4))
        self.p_y2 = self.full.sum(axis=(0, 1, 2, 3))
        self.p_uy1 = self.full.sum(axis=(1, 2, 4))
        self.p_uy2 = self.full.sum(axis=(1, 2, 3))
        self.i_us_y1 = log_ratio_table((self.p_usy1,), (self.p_us[:, :, None], self.p_y1))
        self.i_ut_y2 = log_ratio_table((self.p_uty2,), (self.p_ut[:, :, None], self.p_y2))
        self.i_s_y1_u = log_ratio_table((self.p_usy1, self.p_u[:, None, None]),
                                        (self.p_us[:, :, None], self.p_uy1[:, None, :]))
        self.i_t_y2_u = log_ratio_table((self.p_uty2, self.p_u[:, None, None]),
                                        (self.p_ut[:, :, None], self.p_uy2[:, None, :]))
        self.i_s_t_u = cond_info_density_table(system.joint_ust)

    def clause_masks(self, thr: dict[str, float]) -> dict[str, np.ndarray]:
        """Each clause spread over (u, s, t, y1, y2)."""
        return {name: np.broadcast_to(c.test(getattr(self, c.table), thr[name])[c.axes],
                                      self.full.shape)
                for name, c in CLAUSES.items()}

    def union_mask(self, sizes: SchemeSizes, gamma: float) -> np.ndarray:
        """The union of the five clauses over (u, s, t, y1, y2)."""
        return np.logical_or.reduce(list(self.clause_masks(thresholds_for(sizes, gamma)).values()))

    def event_probabilities(self, sizes: SchemeSizes, gamma: float) -> dict[str, float]:
        """The five clause probabilities and their union, each a masked sum
        of the design joint."""
        masks = self.clause_masks(thresholds_for(sizes, gamma))
        probs = {name: float(self.full[mask].sum()) for name, mask in masks.items()}
        probs["union"] = float(self.full[self.union_mask(sizes, gamma)].sum())
        return probs


def info_vector(system: BroadcastSystem) -> InfoVector:
    """The five informations read off the design joint."""
    full = Joint(design_joint(system))
    j_01_y1 = marginal(full, (0, 1, 3))
    j_02_y2 = marginal(full, (0, 2, 4))
    return InfoVector(
        I1=mutual_info(merge_axes(j_01_y1, ((0, 1), (2,)))),
        I2=mutual_info(merge_axes(j_02_y2, ((0, 1), (2,)))),
        J1=cond_mutual_info(j_01_y1, 0),
        J2=cond_mutual_info(j_02_y2, 0),
        K=cond_mutual_info(system.joint_ust, 0),
    )
