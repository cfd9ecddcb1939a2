"""Achievable-region tools for the three-auxiliary broadcast inner bound.

Computes the five mutual informations of a design and writes the
projection of the auxiliary-rate inequality system onto the rate
coordinates (R0, R1, R2) in closed form: Marton's inner bound with a
common message.  Membership tests read those rows directly; the projection
drops the rows the others imply, with an exact LP in numpy for each row
that can be implied.  Every row is a ``<=`` row over the three rates.

All arithmetic is floating point with a small slack: the inputs are
numerically computed mutual informations, so exact rational arithmetic
would be false precision.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .broadcast import BroadcastSystem
from .errors import InputFormatError
from .probability import Joint, Kernel, cond_mutual_info, mutual_info

RATES = ("R0", "R1", "R2")
_TOL = 1e-9
_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class InfoVector:
    """The five mutual informations driving the region, in nats."""

    I1: float  # heads: common plus first auxiliary against output 1
    I2: float
    J1: float  # satellites: first auxiliary against output 1 given common
    J2: float
    K: float   # cross term between the two auxiliaries given common

    def __post_init__(self):
        for name in ("I1", "I2", "J1", "J2", "K"):
            v = float(getattr(self, name))
            if v < -1e-9 or not math.isfinite(v):
                raise InputFormatError(f"info vector: {name} must be finite and nonnegative")
            object.__setattr__(self, name, max(v, 0.0))
        for i, j in (("I1", "J1"), ("I2", "J2")):
            if getattr(self, j) > getattr(self, i) + 1e-9:
                raise InputFormatError(f"info vector: {j} exceeds {i}, inconsistent with any joint")

    def to_json(self) -> dict:
        return {"I1": self.I1, "I2": self.I2, "J1": self.J1, "J2": self.J2, "K": self.K}

    @functools.cached_property
    def _marton_rows(self) -> tuple[float, tuple[tuple[float, float, float, float], ...]]:
        """The projection of the auxiliary-rate system onto (R0, R1, R2) in
        closed form: Marton's inner bound with a common message (El Gamal and Kim,
        *Network Information Theory*, Ch. 8; Liang, Kramer and Poor, IEEE
        T-IT 2011).

        The feasibility constant J1 + J2 - K (the region is nonempty iff it
        is >= 0) and six <=-rows ``(R0, R1, R2, constant)`` scaled to a
        largest coefficient of one: R1 >= 0, R2 >= 0, R0 + R1 <= I1,
        R0 + R2 <= I2, R0 + R1 + R2 <= min(I1 + J2, I2 + J1) - K and
        2 R0 + R1 + R2 <= I1 + I2 - K.  Each constant is rounded as
        Fourier-Motzkin elimination of the four auxiliary rates rounds it.
        Cached: membership tests read it once per rate point.
        """
        return (self.J1 - self.K) + self.J2, (
            (0.0, -1.0, 0.0, 0.0),
            (0.0, 0.0, -1.0, 0.0),
            (1.0, 1.0, 0.0, self.I1),
            (1.0, 0.0, 1.0, self.I2),
            (1.0, 1.0, 1.0, min(self.I1 + self.J2, self.I2 + self.J1) - self.K),
            (1.0, 0.5, 0.5, ((self.I1 - self.K) + self.I2) / 2.0),
        )


@dataclass(frozen=True)
class RateTriple:
    """A candidate rate point (common, private 1, private 2), nats per use."""

    R0: float
    R1: float
    R2: float

    def __post_init__(self):
        for name in ("R0", "R1", "R2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InputFormatError(f"rates: {name} must be >= 0 and finite")

    @classmethod
    def from_string(cls, text: str) -> "RateTriple":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise InputFormatError("rates: expected R0,R1,R2")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise InputFormatError(f"rates: could not parse {text!r}") from None
        return cls(*values)


@dataclass(frozen=True)
class Inequality:
    """A single row ``coeffs . (R0, R1, R2) <= constant``."""

    coeffs: tuple[float, ...]
    constant: float

    def pretty(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, RATES):
            if abs(c) <= _COEFF_TOL:
                continue
            mag = abs(c)
            coef = "" if abs(mag - 1.0) <= 1e-12 else f"{mag:g} "
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + f"{coef}{name}")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} <= {self.constant:.12g}"


@dataclass
class LinearSystem:
    """A <=-system over the rates (R0, R1, R2)."""

    rows: list[Inequality]

    def pretty(self) -> list[str]:
        return [row.pretty() for row in self.rows]

    def to_json(self) -> dict:
        return {
            "variables": list(RATES),
            "inequalities": [
                {
                    "coeffs": {n: c for n, c in zip(RATES, r.coeffs) if abs(c) > _COEFF_TOL},
                    "sense": "<=",
                    "constant": r.constant,
                }
                for r in self.rows
            ],
            "pretty": self.pretty(),
        }


def info_vector(joint_u: Joint, x_map: np.ndarray, channel: Kernel) -> InfoVector:
    """Compute the five mutual informations of a design.

    ``joint_u`` is the law of the three auxiliaries (common first); the
    symbol map and channel give the two receiver marginals
    (:attr:`~oneshot.broadcast.BroadcastSystem.marginals`), which are all
    the informations read besides ``joint_u``.  Each marginal, and its
    (us, y) reshape, is wrapped by :meth:`Joint.unchecked`: renormalized as
    :class:`Joint` would renormalize it, without checking again arrays the
    system has checked.
    """
    j_01_y1, j_02_y2 = map(Joint.unchecked, BroadcastSystem(joint_u, x_map, channel).marginals)
    h1, h2 = (Joint.unchecked(j.probs.reshape(-1, j.shape[2])) for j in (j_01_y1, j_02_y2))
    return InfoVector(
        I1=mutual_info(h1),
        I2=mutual_info(h2),
        J1=cond_mutual_info(j_01_y1, 0),
        J2=cond_mutual_info(j_02_y2, 0),
        K=cond_mutual_info(joint_u, 0),
    )


_BOX = np.vstack([np.eye(3), -np.eye(3)])  # faces of |x_i| <= bound


@functools.cache
def _triples(n: int) -> np.ndarray:
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    triples.setflags(write=False)  # one cached array serves every caller
    return triples


def linprog(objective: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
            bound: float) -> float | None:
    """Max of ``objective . x`` over ``a_ub x <= b_ub``, ``|x_i| <= bound`` in three
    variables, or None if empty: the box bounds the set, so the maximum is at
    a vertex.  Every triple of rows (box faces included) is one 3x3 solve,
    singular at ``|det| <= 1e-12`` (rows are scaled to a largest coefficient
    of one); a vertex counts if it meets every row to within ``_TOL``.
    Callers may wrap or replace ``regions.linprog``: it is looked up per call.
    """
    a = np.vstack([a_ub, _BOX])
    b = np.concatenate([b_ub, np.full(6, float(bound))])
    triples = _triples(len(a))
    lhs = a[triples]
    regular = np.abs(np.linalg.det(lhs)) > 1e-12
    vertices = np.linalg.solve(lhs[regular], b[triples[regular], None])[..., 0]
    vertices = vertices[(a @ vertices.T <= b[:, None] + _TOL).all(axis=0)]
    return float((vertices @ objective).max()) if len(vertices) else None


def _lp_redundant(row: np.ndarray, others: np.ndarray, tol: float) -> bool:
    """Exact redundancy test of a row ``[R0, R1, R2, constant]``: maximize
    its left side under the others."""
    if len(others) == 0:
        return False
    bound = 10.0 * max(float(np.abs(others[:, -1]).max(initial=1.0)),
                       float(abs(row[-1])), 1.0)
    best = linprog(row[:3], others[:, :3], others[:, -1], bound)
    return best is not None and best <= row[-1] + tol


def _prune(matrix: np.ndarray, tol: float, candidates=None) -> np.ndarray:
    """Drop each row in turn (of ``candidates``; all by default) that the rows still kept imply."""
    keep = list(range(len(matrix)))
    for i in candidates or keep[:]:
        if _lp_redundant(matrix[i], matrix[[j for j in keep if j != i]], tol):
            keep.remove(i)
    return matrix[keep]


def region_contains(iv: InfoVector, rates: RateTriple) -> bool:
    """Whether a rate triple admits feasible auxiliary rates.

    Reads the rows of :attr:`InfoVector._marton_rows`, each held to
    ``_TOL``, as the projected rows are.  The strict positivity in the region
    statement is relaxed to closure (>= 0): the achievable region is taken
    closed.
    """
    feasibility, rows = iv._marton_rows
    if feasibility < -_TOL:
        return False
    r0, r1, r2 = rates.R0, rates.R1, rates.R2
    for a0, a1, a2, c in rows:
        if a0 * r0 + a1 * r1 + a2 * r2 > c + _TOL:
            return False
    return True


def fme_project(iv: InfoVector) -> LinearSystem:
    """Project the auxiliary-rate system onto the rate coordinates.

    An empty region (J1 + J2 - K below ``-_TOL``) is the one row
    0 <= J1 + J2 - K.  Otherwise the rows of :attr:`InfoVector._marton_rows`
    are pruned in order to an irredundant <=-system over (R0, R1, R2),
    sorted.  Only R0 + R1 <= I1, R0 + R2 <= I2 and the 2 R0 + R1 + R2 row get
    an LP: R0 is unbounded below in the system, down to the LP's own box, so
    lowering R1 or R2 alone, or moving along (-1, 1, 1), violates R1 >= 0,
    R2 >= 0 or the sum-rate row at a point that meets every other row.
    """
    feasibility, rows = iv._marton_rows
    if feasibility < -_TOL:
        matrix = np.array([[0.0, 0.0, 0.0, feasibility]])
    else:
        matrix = _prune(np.array(rows), _TOL, (2, 3, 5))
    system = [Inequality(tuple(float(c) for c in r[:3]), float(r[3])) for r in matrix]
    system.sort(key=lambda r: (r.coeffs, r.constant))
    return LinearSystem(system)


def projection_contains(system: LinearSystem, rates: RateTriple) -> bool:
    """Membership test against a projected system over (R0, R1, R2), each
    row evaluated as :func:`region_contains` evaluates its rows."""
    r0, r1, r2 = rates.R0, rates.R1, rates.R2
    for row in system.rows:
        a0, a1, a2 = row.coeffs
        if a0 * r0 + a1 * r1 + a2 * r2 > row.constant + _TOL:
            return False
    return True
