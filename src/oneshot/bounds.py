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

from . import oracle
from .errors import AlphabetMismatchError, InputFormatError
from .probability import Joint, cond_info_density_table, info_density_table


def _check_event(joint: Joint, event: np.ndarray) -> np.ndarray:
    ev = np.asarray(event, dtype=bool)
    if ev.shape != joint.shape:
        raise AlphabetMismatchError(
            f"event shape {ev.shape} does not match joint shape {joint.shape}"
        )
    return ev


def full_event(shape: Sequence[int]) -> np.ndarray:
    """The sure event over a product alphabet."""
    return np.ones(tuple(shape), dtype=bool)


def event_from_points(shape: Sequence[int], points) -> np.ndarray:
    """Event containing exactly the given index tuples."""
    ev = np.zeros(tuple(shape), dtype=bool)
    for pt in points:
        ev[tuple(int(i) for i in pt)] = True
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
        if self.M < 1 or self.L < 1:
            raise InputFormatError("codebook sizes must be positive")
        if not self.gamma > 0:
            raise InputFormatError("gamma must be > 0")
        if isinstance(self.delta, str):
            if self.delta != "auto":
                raise InputFormatError(f'delta: expected a positive number or "auto", got {self.delta!r}')
        elif not self.delta > 0:
            raise InputFormatError("delta must be > 0")

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


def mutual_covering_bound(joint: Joint, event: np.ndarray, params: BoundParams) -> BoundReport:
    """Splitting-form mutual covering bound (CLI kind ``covering1``).

    Terms: miss probability of the event, excess probability of the
    density ratio against ``ML e^{-gamma} - delta``, the splitting ratio
    ``(min{M,L}-1)/delta``, and the double-exponential slack.  With the
    union flag the first two merge into the probability of their union.
    """
    ev = _check_event(joint, event)
    M, L, gamma = params.M, params.L, params.gamma
    delta = params.resolved_delta()
    thr = M * L * math.exp(-gamma) - delta

    arr = joint.probs
    sup = arr > 0
    pu = arr.sum(axis=1)
    pv = arr.sum(axis=0)
    ratio = np.zeros_like(arr)
    ratio[sup] = arr[sup] / np.outer(pu, pv)[sup]
    # a nonpositive threshold is exceeded by every support point
    exceed = sup if thr <= 0 else (ratio > thr) & sup

    ratio_term = (min(M, L) - 1) / delta
    dexp_term = math.exp(-math.exp(gamma))
    used = {"M": M, "L": L, "gamma": gamma, "delta": delta, "union_form": params.union_form}
    if params.union_form:
        terms = (
            ("miss_or_excess", _mass_where(joint, ~ev | exceed)),
            ("ratio", ratio_term),
            ("doubleexp", dexp_term),
        )
    else:
        terms = (
            ("miss", _mass_where(joint, ~ev)),
            ("excess", _mass_where(joint, exceed)),
            ("ratio", ratio_term),
            ("doubleexp", dexp_term),
        )
    return BoundReport(terms, used)


def simple_covering_bound(
    joint: Joint, event: np.ndarray, M: int, L: int, gamma: float, union_form: bool = False
) -> BoundReport:
    """Weakened covering bound with the splitting parameter substituted out
    (CLI kind ``covering4``).

    Identical to :func:`mutual_covering_bound` at
    ``delta = ML(e^{-gamma} - e^{-2 gamma})``, with the excess event
    rewritten as a density threshold ``ln(ML) - 2 gamma``.
    """
    ev = _check_event(joint, event)
    if not gamma > 0:
        raise InputFormatError("gamma must be > 0")
    table = info_density_table(joint)
    sup = joint.probs > 0
    thr = math.log(M * L) - 2.0 * gamma
    exceed = np.zeros_like(sup)
    exceed[sup] = table[sup] > thr
    ratio_term = (min(M, L) - 1) / (M * L * ratio_gap(gamma))
    dexp_term = math.exp(-math.exp(gamma))
    used = {"M": M, "L": L, "gamma": gamma, "union_form": union_form}
    if union_form:
        terms = (
            ("miss_or_excess", _mass_where(joint, ~ev | exceed)),
            ("ratio", ratio_term),
            ("doubleexp", dexp_term),
        )
    else:
        terms = (
            ("miss", _mass_where(joint, ~ev)),
            ("excess", _mass_where(joint, exceed)),
            ("ratio", ratio_term),
            ("doubleexp", dexp_term),
        )
    return BoundReport(terms, used)


def conditional_covering_bound(
    joint3: Joint, event3: np.ndarray, M: int, L: int, gamma: float
) -> BoundReport:
    """Conditional covering bound (CLI kind ``covering5``).

    The union of the miss event and the conditional-density excess event
    is intrinsic to the statement, so the report always has three terms.
    """
    ev = _check_event(joint3, event3)
    if joint3.ndim != 3:
        raise AlphabetMismatchError("conditional covering bound needs a 3-axis joint")
    if not gamma > 0:
        raise InputFormatError("gamma must be > 0")
    table = cond_info_density_table(joint3)
    sup = joint3.probs > 0
    thr = math.log(M * L) - 2.0 * gamma
    exceed = np.zeros_like(sup)
    exceed[sup] = table[sup] > thr
    terms = (
        ("miss_or_excess", _mass_where(joint3, ~ev | exceed)),
        ("ratio", (min(M, L) - 1) / (M * L * ratio_gap(gamma))),
        ("doubleexp", math.exp(-math.exp(gamma))),
    )
    return BoundReport(terms, {"M": M, "L": L, "gamma": gamma})


def resolvability_excess_bound(joint: Joint, M: int, lam: float) -> BoundReport:
    """Bound on the ensemble-average excess-information probability of a
    synthesized output law (CLI kind ``resolvability``).

    Valid for ``lam > 2``: density tail at ``ln(M lam / 2)`` plus ``2/lam``.
    """
    if not lam > 2:
        raise InputFormatError("lam must be > 2")
    table = info_density_table(joint)
    sup = joint.probs > 0
    thr = math.log(M * lam / 2.0)
    above = np.zeros_like(sup)
    above[sup] = table[sup] >= thr
    terms = (
        ("excess", _mass_where(joint, above)),
        ("slack", 2.0 / lam),
    )
    return BoundReport(terms, {"M": M, "lam": lam})


def resolvability_excess_rhs(joint: Joint, M: int, lam: float) -> float:
    """Raw value of :func:`resolvability_excess_bound` (unclamped)."""
    return resolvability_excess_bound(joint, M, lam).raw_value


def resolvability_covering_bound(
    joint: Joint, event: np.ndarray, M: int, L: int, gamma: float
) -> BoundReport:
    """Covering bound derived through resolvability (CLI kind ``covering7``).

    Uses ``>=`` on the density event; the probability terms cannot be
    merged into a union, so no union flag exists.
    """
    ev = _check_event(joint, event)
    if not gamma > 0:
        raise InputFormatError("gamma must be > 0")
    table = info_density_table(joint)
    sup = joint.probs > 0
    thr = math.log(M * L) - gamma
    above = np.zeros_like(sup)
    above[sup] = table[sup] >= thr
    terms = (
        ("miss", _mass_where(joint, ~ev)),
        ("excess", _mass_where(joint, above)),
        ("ratio", math.exp(gamma) / max(M, L)),
        ("doubleexp", math.exp(-0.5 * math.exp(gamma))),
    )
    return BoundReport(terms, {"M": M, "L": L, "gamma": gamma})


def packing_bound(gamma: float) -> float:
    """The packing tail bound ``exp(-gamma)``."""
    if not gamma > 0:
        raise InputFormatError("gamma must be > 0")
    return math.exp(-gamma)


def packing_excess_prob(joint: Joint, M: int, N: int, gamma: float) -> float:
    """Exact left-hand side of the packing bound (delegates to the oracle)."""
    return oracle.exact_packing_prob(joint, M, N, gamma)


# ---------------------------------------------------------------------------
# parameter optimization
# ---------------------------------------------------------------------------

_GRID_POINTS = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def evaluate_bound(kind: str, instance: Mapping[str, object], gamma: float) -> BoundReport:
    """Evaluate one of the gamma-parameterized bounds on an instance.

    ``instance`` carries the kind-specific fields: ``joint``/``event``
    plus sizes for the covering bounds, or ``system``/``sizes`` for the
    broadcast bound.
    """
    if kind == "covering1":
        params = BoundParams(
            M=int(instance["M"]),
            L=int(instance["L"]),
            gamma=gamma,
            delta=instance.get("delta", "auto"),
            union_form=bool(instance.get("union_form", False)),
        )
        return mutual_covering_bound(instance["joint"], instance["event"], params)
    if kind == "covering4":
        return simple_covering_bound(
            instance["joint"],
            instance["event"],
            int(instance["M"]),
            int(instance["L"]),
            gamma,
            bool(instance.get("union_form", False)),
        )
    if kind == "covering5":
        return conditional_covering_bound(
            instance["joint"], instance["event"], int(instance["M"]), int(instance["L"]), gamma
        )
    if kind == "covering7":
        return resolvability_covering_bound(
            instance["joint"], instance["event"], int(instance["M"]), int(instance["L"]), gamma
        )
    if kind == "broadcast":
        from .broadcast import broadcast_bound

        return broadcast_bound(instance["system"], instance["sizes"], gamma)
    raise InputFormatError(f"kind: no gamma-parameterized bound named {kind!r}")


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

    def objective(g: float) -> float:
        return evaluate_bound(kind, instance, g).raw_value

    best_g, _ = minimize_scalar(objective, search_range, tolerance)
    return best_g, evaluate_bound(kind, instance, best_g)
