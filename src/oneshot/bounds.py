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

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import AlphabetMismatchError, InputFormatError
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


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound: named additive terms plus resolved parameters."""

    terms: tuple[tuple[str, float], ...]
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def raw_value(self) -> float:
        return float(sum(v for _, v in self.terms))

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


def covering_ratio(M: int, L: int, gamma: float) -> float:
    """``(min{M,L} - 1) / (ML (e^-gamma - e^-2gamma))``, the splitting ratio
    term once delta is substituted out.

    Raises :class:`InputFormatError` where :func:`ratio_gap` does, and where
    the quotient overflows (gamma above about 709 with both sizes above 1).
    """
    ratio = (min(M, L) - 1) / (M * L * ratio_gap(gamma))
    if not math.isfinite(ratio):
        raise InputFormatError(f"gamma={gamma!r}: the ratio term overflows a double")
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
        return M * L * ratio_gap(gamma)
    if not gamma <= _AUTO_DELTA_GAMMA_MAX:
        raise InputFormatError(
            f"gamma={gamma!r}: the closed-form delta overflows above gamma = "
            f"{_AUTO_DELTA_GAMMA_MAX:.4g}; pass an explicit delta or use covering4"
        )
    return math.sqrt((lo - 1) * lo * hi) * math.exp(-gamma) * math.exp(0.5 * math.exp(gamma))


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


def _covering_report(joint: Joint, ev: np.ndarray, exceed: np.ndarray, union_form: bool,
                     ratio: float, slack: float, params: dict) -> BoundReport:
    """The shape every covering bound shares: the miss and excess probabilities
    (or the probability of their union), the ratio term and the slack."""
    if union_form:
        terms = (("miss_or_excess", _mass_where(joint, ~ev | exceed)),)
    else:
        terms = (("miss", _mass_where(joint, ~ev)), ("excess", _mass_where(joint, exceed)))
    return BoundReport(terms + (("ratio", ratio), ("doubleexp", slack)), params)


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
    above = info_density_table(joint) >= math.log(M * lam / 2.0)
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
# parameter optimization
# ---------------------------------------------------------------------------

_GRID_POINTS = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bound_at(kind: str, instance: Mapping[str, object]):
    """``gamma -> BoundReport`` for one of the gamma-parameterized bounds.

    ``instance`` carries the kind-specific fields: ``joint``/``event``
    plus sizes for the covering bounds, or ``system``/``sizes`` for the
    broadcast bound.  The density table (``DensityTables`` for the
    broadcast bound) is built here, once, and shared by every gamma.
    Each covering kind's excess threshold, ratio term and slack are
    written here and nowhere else.
    """
    if kind == "broadcast":
        from .broadcast import DensityTables, broadcast_bound

        tables = DensityTables(instance["system"])
        return lambda g: broadcast_bound(instance["system"], instance["sizes"], g, tables)
    if kind not in ("covering1", "covering4", "covering5", "covering7"):
        raise InputFormatError(f"kind: no gamma-parameterized bound named {kind!r}")
    joint = instance["joint"]
    ev = np.asarray(instance["event"], dtype=bool)
    if ev.shape != joint.shape:
        raise AlphabetMismatchError(f"event shape {ev.shape} does not match joint shape {joint.shape}")
    M, L = int(instance["M"]), int(instance["L"])
    union_form = bool(instance.get("union_form", False))
    if kind == "covering1":
        density_ratio = _density_ratio(joint)
        delta = instance.get("delta", "auto")

        def covering1(g: float) -> BoundReport:
            d = BoundParams(M, L, g, delta, union_form).resolved_delta()
            # positive on the support and -inf off it: a threshold <= 0 marks the support
            exceed = density_ratio > M * L * math.exp(-g) - d
            return _covering_report(joint, ev, exceed, union_form, (min(M, L) - 1) / d,
                                    doubleexp(g), {"M": M, "L": L, "gamma": g, "delta": d,
                                                   "union_form": union_form})

        return covering1
    if kind == "covering5":
        if joint.ndim != 3:
            raise AlphabetMismatchError("conditional covering bound needs a 3-axis joint")
        table = cond_info_density_table(joint)
    else:
        table = info_density_table(joint)
    if kind == "covering7":

        def covering7(g: float) -> BoundReport:
            check_bound_args(g, M, L)
            exceed = table >= math.log(M * L) - g
            try:
                ratio = math.exp(g) / max(M, L)
            except OverflowError:
                ratio = math.inf
            if not math.isfinite(ratio):
                raise InputFormatError(f"gamma={g!r}: e^gamma in the ratio term overflows a double")
            return _covering_report(joint, ev, exceed, False, ratio, doubleexp(g, 0.5),
                                    {"M": M, "L": L, "gamma": g})

        return covering7
    # covering5 always merges miss and excess; only covering4 reports the flag
    merged = union_form or kind == "covering5"
    flag = {"union_form": union_form} if kind == "covering4" else {}

    def covering4_or_5(g: float) -> BoundReport:
        check_bound_args(g, M, L)
        exceed = table > math.log(M * L) - 2.0 * g
        return _covering_report(joint, ev, exceed, merged, covering_ratio(M, L, g),
                                doubleexp(g), {"M": M, "L": L, "gamma": g, **flag})

    return covering4_or_5


def evaluate_bound(kind: str, instance: Mapping[str, object], gamma: float) -> BoundReport:
    """Evaluate one of the gamma-parameterized bounds on an instance (see
    :func:`bound_at` for the instance fields)."""
    return bound_at(kind, instance)(gamma)


def minimize_scalar(
    objective, search_range: tuple[float, float], tolerance: float = 1e-6
) -> tuple[float, float]:
    """Deterministic scalar minimization: log-spaced grid scan followed by
    golden-section refinement of the bracketing interval.

    Returns the minimizer and its value; exact ties resolve to the
    smallest argument (a constant objective returns the left endpoint).
    """
    lo, hi = search_range
    if not (0 < lo < hi):
        raise InputFormatError("search_range: need 0 < lo < hi")
    grid = np.geomspace(lo, hi, _GRID_POINTS)
    evals: list[tuple[float, float]] = [(float(g), float(objective(float(g)))) for g in grid]
    best_idx = 0
    for i in range(1, len(evals)):
        if evals[i][1] < evals[best_idx][1]:
            best_idx = i
    a = evals[max(best_idx - 1, 0)][0]
    b = evals[min(best_idx + 1, len(evals) - 1)][0]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = float(objective(x1)), float(objective(x2))
    evals += [(x1, f1), (x2, f2)]
    while b - a > tolerance:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = float(objective(x1))
            evals.append((x1, f1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = float(objective(x2))
            evals.append((x2, f2))

    best_f = min(f for _, f in evals)
    best_x = min(g for g, f in evals if f == best_f)
    return best_x, best_f


def optimize_gamma(
    kind: str,
    instance: Mapping[str, object],
    search_range: tuple[float, float],
    tolerance: float = 1e-6,
) -> tuple[float, BoundReport]:
    """Minimize a bound's raw value over gamma (see :func:`minimize_scalar`)."""
    evaluate = bound_at(kind, instance)
    best_g, _ = minimize_scalar(lambda g: evaluate(g).raw_value, search_range, tolerance)
    return best_g, evaluate(best_g)
