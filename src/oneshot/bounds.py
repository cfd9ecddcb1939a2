"""Closed-form one-shot bounds: mutual covering, packing, resolvability.

Each bound evaluator returns a :class:`BoundReport` whose terms sum to
the raw value; acceptance-style comparisons use the clamped value
``min(raw, 1)``.  Threshold strictness follows the statements exactly:
the covering bounds use strict ``>`` on the excess event, the
resolvability-derived covering variant and the packing lemma use ``>=``.
Ties are measure-relevant on finite alphabets, so the distinction is
honored literally.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .errors import InputFormatError
from .probability import Joint, cond_info_density_table, info_density_table, integral


def full_event(shape: Sequence[int]) -> np.ndarray:
    """The sure event over a product alphabet."""
    return np.ones(tuple(shape), dtype=bool)


def event_from_points(shape: Sequence[int], points) -> np.ndarray:
    """Event containing exactly the given index tuples, one in-range index per axis."""
    ev = np.zeros(tuple(shape), dtype=bool)
    try:
        index = [tuple(integral(i) for i in pt) for pt in points]
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError("event points: expected a list of integer index lists") from None
    for pt in index:
        if len(pt) != ev.ndim or not all(0 <= i < n for i, n in zip(pt, ev.shape)):
            raise InputFormatError(f"event point {list(pt)} is not an index into shape {ev.shape}")
        ev[pt] = True
    return ev


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the splitting-form covering bound.

    ``delta`` may be the string ``"auto"``, in which case it resolves to
    :func:`optimal_delta` for the given sizes and threshold slack.
    """

    M: int
    L: int
    gamma: float
    delta: float | str = "auto"
    union_form: bool = False

    def __post_init__(self):
        check_bound_args(self.gamma, self.M, self.L)
        if isinstance(self.delta, str):
            if self.delta != "auto":
                raise InputFormatError(f'delta: expected a positive number or "auto", got {self.delta!r}')
        elif not 0 < self.delta < math.inf:
            raise InputFormatError("delta must be > 0 and finite")

    def resolved_delta(self) -> float:
        if isinstance(self.delta, str):
            return optimal_delta(self.M, self.L, self.gamma)
        return float(self.delta)


def _raw_sum(terms) -> float:
    """The raw value of named additive ``terms``: their plain sum."""
    return float(sum(v for _, v in terms))


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound: named additive terms plus resolved parameters."""

    terms: tuple[tuple[str, float], ...]
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def raw_value(self) -> float:
        return _raw_sum(self.terms)

    @property
    def clamped_value(self) -> float:
        return min(self.raw_value, 1.0)

    def term(self, name: str) -> float:
        for key, value in self.terms:
            if key == name:
                return value
        raise KeyError(name)

    def term_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def to_json(self) -> dict:
        return {
            "terms": [{"name": n, "value": v} for n, v in self.terms],
            "raw_value": self.raw_value,
            "clamped_value": self.clamped_value,
            "params": dict(self.params),
        }


def check_sizes(*sizes: int) -> None:
    """Reject codebook sizes below one."""
    if any(n < 1 for n in sizes):
        raise InputFormatError("codebook sizes must be positive")


def size_double(size: int) -> float:
    """``float(size)`` for a codebook size or a product of sizes; past the
    double range it is an :class:`InputFormatError`, not an ``OverflowError``."""
    try:
        return float(size)
    except OverflowError:
        raise InputFormatError("codebook sizes: a size or a product of sizes exceeds "
                               f"the largest double, {sys.float_info.max:.4g}") from None


def check_bound_args(gamma: float, *sizes: int) -> None:
    """:func:`check_sizes`, and reject a gamma that is not positive and finite."""
    check_sizes(*sizes)
    if not 0 < gamma < math.inf:
        raise InputFormatError(f"gamma must be > 0 and finite, got {gamma!r}")


#: above this gamma, ``e^{e^gamma / 2}`` in :func:`optimal_delta` overflows a double
_AUTO_DELTA_GAMMA_MAX = math.log(2.0 * math.log(sys.float_info.max))


def ratio_gap(gamma: float) -> float:
    """``e^{-gamma} - e^{-2 gamma}``, the denominator of the covering ratio
    term once the splitting parameter is substituted out.

    Raises :class:`InputFormatError` where it is not a positive finite
    number: at a non-finite gamma, and where both exponentials round to
    the same double (gamma below about 1e-16 or above about 745).
    """
    if not math.isfinite(gamma):
        raise InputFormatError(f"gamma must be finite, got {gamma!r}")
    gap = math.exp(-gamma) - math.exp(-2.0 * gamma)
    if gap == 0.0:
        raise InputFormatError(
            f"gamma={gamma!r}: e^-gamma - e^-2gamma evaluates to 0, so the ratio term is undefined"
        )
    return gap


def covering_ratio(M: int, L: int):
    """``gamma -> (min{M,L} - 1) / (ML (e^-gamma - e^-2gamma))``, the splitting ratio
    term once delta is substituted out; ``ML`` is made a double at the first call.  A call
    raises :class:`InputFormatError` where :func:`size_double`, then :func:`ratio_gap` do,
    and where the quotient overflows (gamma above about 709 with both sizes above 1)."""
    k, size = min(M, L) - 1, None

    def ratio(gamma: float) -> float:
        nonlocal size
        size = size_double(M * L) if size is None else size
        ratio = k / (size * ratio_gap(gamma))
        if not math.isfinite(ratio):
            raise InputFormatError(f"gamma={gamma!r}: the ratio term overflows a double")
        return ratio

    return ratio


def doubleexp(gamma: float, scale: float = 1.0) -> float:
    """``e^{-scale e^gamma}``, the double-exponential slack term.

    Saturates to 0.0 where ``e^gamma`` overflows; for ``scale`` 1 the
    term is already exactly 0.0 from gamma of about 6.62.
    """
    try:
        return math.exp(-scale * math.exp(gamma))
    except OverflowError:
        return 0.0


def optimal_delta(M: int, L: int, gamma: float) -> float:
    """Splitting parameter minimizing the two delta-dependent terms at fixed gamma.

    For degenerate sizes (min codebook of one) the closed form collapses
    to zero, which is outside the admissible range; the fallback is the
    substitution that yields the simplified bound.
    """
    lo, hi = min(M, L), max(M, L)
    if lo == 1:
        return size_double(M * L) * ratio_gap(gamma)
    if not gamma <= _AUTO_DELTA_GAMMA_MAX:
        raise InputFormatError(
            f"gamma={gamma!r}: the closed-form delta overflows above gamma = "
            f"{_AUTO_DELTA_GAMMA_MAX:.4g}; pass an explicit delta or use covering4"
        )
    root = math.sqrt(size_double((lo - 1) * lo * hi))
    return root * math.exp(-gamma) * math.exp(0.5 * math.exp(gamma))


def _mass_where(joint: Joint, mask: np.ndarray) -> float:
    return float(joint.probs[mask].sum())


def _density_ratio(joint: Joint) -> np.ndarray:
    """``P(u,v) / (P(u) P(v))`` on the support, ``-inf`` elsewhere (as the
    density tables are), so no threshold puts a point off the support in
    the excess event."""
    arr = joint.probs
    sup = arr > 0
    ratio = np.full(arr.shape, -np.inf)
    ratio[sup] = arr[sup] / np.outer(arr.sum(axis=1), arr.sum(axis=0))[sup]
    return ratio


def mutual_covering_bound(joint: Joint, event: np.ndarray, params: BoundParams) -> BoundReport:
    """Splitting-form mutual covering bound (CLI kind ``covering1``).

    Terms: miss probability of the event, excess probability of the
    density ratio against ``ML e^{-gamma} - delta``, the splitting ratio
    ``(min{M,L}-1)/delta``, and the double-exponential slack.  With the
    union flag the first two merge into the probability of their union.
    """
    instance = {"joint": joint, "event": event, "M": params.M, "L": params.L,
                "delta": params.delta, "union_form": params.union_form}
    return bound_at("covering1", instance)(params.gamma)


def simple_covering_bound(
    joint: Joint, event: np.ndarray, M: int, L: int, gamma: float, union_form: bool = False
) -> BoundReport:
    """Weakened covering bound with the splitting parameter substituted out
    (CLI kind ``covering4``).

    Identical to :func:`mutual_covering_bound` at
    ``delta = ML(e^{-gamma} - e^{-2 gamma})``, with the excess event
    rewritten as a density threshold ``ln(ML) - 2 gamma``.
    """
    instance = {"joint": joint, "event": event, "M": M, "L": L, "union_form": union_form}
    return bound_at("covering4", instance)(gamma)


def conditional_covering_bound(
    joint3: Joint, event3: np.ndarray, M: int, L: int, gamma: float
) -> BoundReport:
    """Conditional covering bound (CLI kind ``covering5``).

    The union of the miss event and the conditional-density excess event
    is intrinsic to the statement, so the report always has three terms.
    """
    return bound_at("covering5", {"joint": joint3, "event": event3, "M": M, "L": L})(gamma)


def resolvability_excess_bound(joint: Joint, M: int, lam: float) -> BoundReport:
    """Bound on the ensemble-average excess-information probability of a
    synthesized output law (CLI kind ``resolvability``).

    Valid for ``lam > 2``: density tail at ``ln(M lam / 2)`` plus ``2/lam``.
    """
    check_sizes(M)
    if not 2 < lam < math.inf:
        raise InputFormatError("lam must be > 2 and finite")
    above = info_density_table(joint) >= math.log(size_double(M) * lam / 2.0)
    terms = (
        ("excess", _mass_where(joint, above)),
        ("slack", 2.0 / lam),
    )
    return BoundReport(terms, {"M": M, "lam": lam})


def resolvability_covering_bound(
    joint: Joint, event: np.ndarray, M: int, L: int, gamma: float
) -> BoundReport:
    """Covering bound derived through resolvability (CLI kind ``covering7``).

    Uses ``>=`` on the density event; the probability terms cannot be
    merged into a union, so no union flag exists.
    """
    return bound_at("covering7", {"joint": joint, "event": event, "M": M, "L": L})(gamma)


def packing_bound(gamma: float) -> float:
    """The packing tail bound ``exp(-gamma)``."""
    check_bound_args(gamma)
    return math.exp(-gamma)


# ---------------------------------------------------------------------------
# step functions of gamma
# ---------------------------------------------------------------------------

#: bit patterns of the smallest positive and the largest finite double
_TINY_BITS, _MAX_BITS = 1, int(np.float64(sys.float_info.max).view(np.int64))


def critical_gammas(values, test, c: float, slope: float) -> np.ndarray:
    """For each entry ``v`` of ``values``, the smallest positive double gamma at
    which the float test ``test(v, c + slope * gamma)`` holds: 0 where it holds at
    every positive gamma and ``inf`` where it holds at none.  ``test`` is ``np.less_equal``
    with a positive slope, or ``np.greater`` or ``np.greater_equal`` with a negative one."""
    return _critical_gammas([(values, test, c, slope)]).reshape(np.shape(values))


def _critical_gammas(tests) -> np.ndarray:
    """:func:`critical_gammas` of every cell of ``tests``, a list of ``(values,
    test, c, slope)``, flat and in order, in one search over all the cells.

    A ``>=`` or ``>`` test is searched as the ``<=`` test of its negated
    values (``v > t`` as ``nextup(-v) <= -t``, NaN for ``nextup(inf)``)
    against ``-c - slope * gamma``, which rounds to exactly ``-(c + slope *
    gamma)``.  The threshold flips a cell's test where it crosses the
    midpoint between its value and the double below; gamma at that crossing
    estimates the answer to a few doubles.  From there the search gallops
    over the bit patterns of positive doubles until the flip is bracketed,
    then bisects.  A cell whose bracket is closed stays fixed.
    """
    # slope * gamma and nextup overflow to inf near the largest double: the
    # test still orders.  An infinite value estimates NaN, searched from 5e-324
    with np.errstate(over="ignore", invalid="ignore"):
        parts = []
        for values, test, c, slope in tests:
            sign = 1.0 if test is np.less_equal else -1.0
            v = sign * np.asarray(values, dtype=float).ravel()
            if test is np.greater:
                v = np.where(v < np.inf, np.nextafter(v, np.inf), np.nan)
            parts.append((v, np.full(v.shape, sign * c), np.full(v.shape, sign * slope)))
        v, c, slope = (np.concatenate(p) for p in zip(*parts))
        always = v <= c + slope * 5e-324
        out = np.where(always, 0.0, np.inf)
        todo = np.flatnonzero(~always & (v <= c + slope * sys.float_info.max))
        v, c, slope = v[todo], c[todo], slope[todo]
        est = ((v - c) + (np.nextafter(v, -np.inf) - v) / 2) / slope
        bits = np.fmin(np.fmax(est, 5e-324), sys.float_info.max).view(np.int64)
        down = v <= c + slope * bits.view(np.float64)
        # the test fails at lo and holds at hi; step > 0 while galloping
        lo, hi = np.where(down, _TINY_BITS, bits), np.where(down, bits, _MAX_BITS)
        step = np.ones_like(bits)
        while (hi - lo > 1).any():
            probe = np.clip(np.where(step > 0, np.where(down, hi - step, lo + step),
                                     lo + (hi - lo) // 2), lo + 1, hi - 1)
            ok = v <= c + slope * probe.view(np.float64)
            hi, lo = np.where(ok, probe, hi), np.where(ok, lo, probe)
            # galloping goes on while the probe stays on the estimate's side
            step = np.where(ok == down, 2 * step, 0)
        out[todo] = hi.view(np.float64)
    return out


class GammaSteps:
    """A step function of gamma, ``mass(gamma)``, and its breakpoints.

    ``tests`` lists ``(values, test, c, slope)`` for every threshold test
    ``mass`` depends on.  The breakpoints are their critical gammas in ``(0,
    inf)``: every gamma of one interval passes the same cells through every
    test, so a masked sum over those cells returns the same double
    throughout.  Each call is one ``mass(gamma)`` until a caller reads
    ``breakpoints``; then each interval's value is computed once and cached
    by the interval's index, at most ``len(breakpoints) + 1`` values.
    """

    def __init__(self, tests, mass):
        self.tests, self.mass, self.cache = tests, mass, {}

    @cached_property
    def breakpoints(self) -> list[float]:
        crit = _critical_gammas(self.tests)
        # sorted and deduplicated by hand: np.unique imports numpy.ma, a cold-start cost
        crit = np.sort(crit[(crit > 0) & (crit < np.inf)])
        return crit[np.diff(crit, prepend=-np.inf) > 0].tolist()

    def __call__(self, gamma: float) -> float:
        """The value at ``gamma``, from the cache or from ``mass(gamma)``."""
        if "breakpoints" not in vars(self):
            return self.mass(gamma)
        k = bisect.bisect_right(self.breakpoints, gamma)
        if k not in self.cache:
            self.cache[k] = self.mass(gamma)
        return self.cache[k]


# ---------------------------------------------------------------------------
# parameter optimization
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: the kinds whose bound is a step table plus a remainder in gamma alone
STEPPED_KINDS = ("covering4", "covering5", "covering7", "broadcast")


def bound_at(kind: str, instance: Mapping[str, object]):
    """``gamma -> BoundReport`` for one of the gamma-parameterized bounds.

    ``instance`` carries the kind-specific fields: ``joint``/``event``
    plus sizes for the covering bounds, or ``system``/``sizes`` for the
    broadcast bound, whose tables the system caches.  A stepped kind's
    function holds its :class:`GammaSteps` as ``steps``: a walk reads its breakpoints first.
    """
    return _bound_parts(kind, instance)[0]


def _bound_parts(kind: str, instance: Mapping[str, object]):
    """:func:`bound_at`'s function, then for ``STEPPED_KINDS`` the
    :class:`GammaSteps` of the one probability term, which the report reads,
    ``terms(gamma, p)``, the report's terms with ``p`` as that term, and
    ``remainder(gamma)``, the plain sum of their values at ``p = 0.0`` (None
    for each on covering1).  A covering kind's density table and miss term
    are computed once, and its threshold, ratio and slack are written here only.
    """
    if kind == "broadcast":
        from .broadcast import bound_terms, bound_values, broadcast_bound

        system, sizes = instance["system"], instance["sizes"]
        report, values = partial(broadcast_bound, system, sizes), bound_values(sizes)
        report.steps = system.tables.union_steps(sizes)
        return report, report.steps, lambda g, p: bound_terms(sizes, g, p), lambda g: sum(values(g, 0.0))
    if kind not in ("covering1", "covering4", "covering5", "covering7"):
        raise InputFormatError(f"kind: no gamma-parameterized bound named {kind!r}")
    joint = instance["joint"]
    ev = np.asarray(instance["event"], dtype=bool)
    if ev.shape != joint.shape:
        raise InputFormatError(f"event shape {ev.shape} does not match joint shape {joint.shape}")
    M, L = int(instance["M"]), int(instance["L"])
    check_sizes(M, L)
    union_form = bool(instance.get("union_form", False))
    # the miss and excess events merge into their union under the flag, except
    # in covering7 (which has no union form); covering5 always merges them
    merged = (union_form and kind != "covering7") or kind == "covering5"
    miss = None if merged else _mass_where(joint, ~ev)
    # a cell outside the event is in the merged event at every gamma
    always = ~ev if merged else np.zeros_like(ev)

    names = (("miss_or_excess",) if merged else ("miss", "excess")) + ("ratio", "doubleexp")

    def covering_values(excess: float, ratio: float, slack: float) -> tuple:
        return ((excess,) if merged else (miss, excess)) + (ratio, slack)

    if kind == "covering1":
        density_ratio = _density_ratio(joint)
        delta = instance.get("delta", "auto")

        # the auto delta makes the threshold non-monotone in gamma: no step table
        def covering1(g: float) -> BoundReport:
            d = BoundParams(M, L, g, delta, union_form).resolved_delta()
            # positive on the support and -inf off it: a threshold <= 0 marks the support
            exceed = density_ratio > size_double(M * L) * math.exp(-g) - d
            values = covering_values(_mass_where(joint, always | exceed), (min(M, L) - 1) / d,
                                     doubleexp(g))
            return BoundReport(tuple(zip(names, values)),
                               {"M": M, "L": L, "gamma": g, "delta": d, "union_form": union_form})

        return covering1, None, None, None
    if kind == "covering5":
        if joint.ndim != 3:
            raise InputFormatError("conditional covering bound needs a 3-axis joint")
        table = cond_info_density_table(joint)
    else:
        table = info_density_table(joint)
    # the excess event is test(table, ln(ML) + slope * gamma); -1.0 * g and
    # -2.0 * g round exactly as the negated g and 2.0 * g
    test, slope = (np.greater_equal, -1.0) if kind == "covering7" else (np.greater, -2.0)
    c = math.log(M * L)
    steps = GammaSteps([(table[~always], test, c, slope)],
                       lambda g: _mass_where(joint, always | test(table, c + slope * g)))
    flag = {"union_form": union_form} if kind == "covering4" else {}
    splitting = covering_ratio(M, L)

    def values(g: float, excess: float) -> tuple:
        if kind != "covering7":
            return covering_values(excess, splitting(g), doubleexp(g))
        try:
            ratio = math.exp(g) / size_double(max(M, L))
        except OverflowError:
            raise InputFormatError(f"gamma={g!r}: e^gamma in the ratio term overflows a double") from None
        return covering_values(excess, ratio, doubleexp(g, 0.5))

    def terms(g: float, excess: float) -> tuple:
        return tuple(zip(names, values(g, excess)))

    def report(g: float) -> BoundReport:
        check_bound_args(g, M, L)
        return BoundReport(terms(g, steps(g)), {"M": M, "L": L, "gamma": g, **flag})

    report.steps = steps
    return report, steps, terms, lambda g: sum(values(g, 0.0))


def evaluate_bound(kind: str, instance: Mapping[str, object], gamma: float) -> BoundReport:
    """Evaluate one of the gamma-parameterized bounds on an instance (see
    :func:`bound_at` for the instance fields)."""
    return bound_at(kind, instance)(gamma)


def _unimodal_argmin(f, lo: float, hi: float) -> float:
    """The minimizer of a unimodal ``f`` on ``[lo, hi]`` to the resolution of
    doubles: golden-section search until its next probe would no longer fall
    strictly inside the bracket, then the best bracket point, end or that
    probe, ties to the smallest.  ``f`` is called once per point."""
    a, b, fa, fb = lo, hi, None, None  # f at a and at b, None while they are the ends
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1 = f(x1)
    f2 = f1 if x2 == x1 else f(x2)
    while a < x1 < x2 < b:
        if f1 <= f2:
            b, fb, x2, f2 = x2, f2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            if not a < x1 < x2:
                f1 = None
                break
            f1 = f(x1)
        else:
            a, fa, x1, f1 = x1, f1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            if not x1 < x2 < b:
                f2 = None
                break
            f2 = f(x2)
    known = {x: v for x, v in ((a, fa), (x1, f1), (x2, f2), (b, fb)) if v is not None}
    return min((lo, a, x1, x2, b, hi),
               key=lambda x: (known[x] if x in known else known.setdefault(x, f(x)), x))


def optimize_gamma(kind: str, instance: Mapping[str, object],
                   search_range: tuple[float, float]) -> tuple[float, BoundReport]:
    """The gamma in ``search_range`` minimizing a bound's raw value (ties to the
    smallest) and ``bound_at(kind, instance)(gamma)``, for ``STEPPED_KINDS``.

    The bound is a non-decreasing step term plus a remainder convex in
    ``e^gamma``, so unimodal in gamma.  Both grow right of the remainder's
    minimizer; left of it the bound is least at the right end of a step.
    So the minimum is at that minimizer or just below a breakpoint left of
    it, visited right to left until the remainder alone exceeds the best.
    The walk compares raw values, read through the same step table as the
    report, and builds the report of the winner only; the remainder is a sum
    of floats that builds no terms.
    """
    if kind not in STEPPED_KINDS:
        raise InputFormatError(
            f"optimize_gamma: kind {kind!r} has no step table; expected one of {', '.join(STEPPED_KINDS)}")
    lo, hi = search_range
    if not 0 < lo < hi < math.inf:
        raise InputFormatError("search_range: need 0 < lo < hi < inf")
    report, steps, terms, remainder = _bound_parts(kind, instance)

    def raw_value(g: float) -> float:
        return _raw_sum(terms(g, steps(g)))

    best_g = _unimodal_argmin(remainder, lo, hi)
    points = steps.breakpoints  # before the first value: each value the walk reads is cached
    best = raw_value(best_g)
    for b in reversed(points[bisect.bisect_right(points, lo):bisect.bisect_right(points, best_g)]):
        g = math.nextafter(b, 0.0)
        if remainder(g) > best:
            break
        candidate = raw_value(g)
        if candidate <= best:
            best_g, best = g, candidate
    return best_g, report(best_g)
