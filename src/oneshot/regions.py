"""Achievable-region tools for the three-auxiliary broadcast inner bound.

Builds the auxiliary-rate inequality system from the five mutual
informations of a design, tests rate-triple membership against the
closed form of the region, and projects the system onto the rate
coordinates by Fourier-Motzkin elimination.

All arithmetic is floating point with a small slack: the inputs are
numerically computed mutual informations, so exact rational elimination
would be false precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError
from .probability import Joint, Kernel, cond_mutual_info, marginal, merge_axes, mutual_info

VARIABLES = ("R0", "R1", "R2", "R11", "R22", "Rh1", "Rh2")
_AUX = ("R11", "R22", "Rh1", "Rh2")
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
    """A single row ``coeffs . x (sense) constant`` over named variables."""

    coeffs: tuple[float, ...]
    sense: str
    constant: float

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise InputFormatError(f'inequality sense must be "<=" or ">=", got {self.sense!r}')

    def as_leq(self) -> np.ndarray:
        """Row as [coeffs..., constant] normalized to the <= sense."""
        row = np.asarray(self.coeffs + (self.constant,), dtype=float)
        return row if self.sense == "<=" else -row

    def pretty(self, variables: tuple[str, ...]) -> str:
        parts = []
        for c, name in zip(self.coeffs, variables):
            if abs(c) <= _COEFF_TOL:
                continue
            mag = abs(c)
            coef = "" if abs(mag - 1.0) <= 1e-12 else f"{mag:g} "
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + f"{coef}{name}")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} {self.sense} {self.constant:.12g}"


@dataclass
class LinearSystem:
    """An inequality system over a fixed tuple of variable names."""

    rows: list[Inequality]
    variables: tuple[str, ...] = VARIABLES

    def pretty(self) -> list[str]:
        return [row.pretty(self.variables) for row in self.rows]

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "inequalities": [
                {
                    "coeffs": {n: c for n, c in zip(self.variables, r.coeffs) if abs(c) > _COEFF_TOL},
                    "sense": r.sense,
                    "constant": r.constant,
                }
                for r in self.rows
            ],
            "pretty": self.pretty(),
        }


def info_vector(joint_u: Joint, x_map: np.ndarray, channel: Kernel) -> InfoVector:
    """Compute the five mutual informations of a design.

    ``joint_u`` is the law of the three auxiliaries (common first); the
    symbol map and channel complete the design joint over the outputs.
    """
    from .broadcast import BroadcastSystem

    full = Joint(BroadcastSystem(joint_u, x_map, channel).tables.full)  # (u0, u1, u2, y1, y2)
    j_01_y1 = marginal(full, (0, 1, 3))
    j_02_y2 = marginal(full, (0, 2, 4))
    return InfoVector(
        I1=mutual_info(merge_axes(j_01_y1, ((0, 1), (2,)))),
        I2=mutual_info(merge_axes(j_02_y2, ((0, 1), (2,)))),
        J1=cond_mutual_info(j_01_y1, 0),
        J2=cond_mutual_info(j_02_y2, 0),
        K=cond_mutual_info(joint_u, 0),
    )


def _coeff(**named: float) -> tuple[float, ...]:
    row = [0.0] * len(VARIABLES)
    for name, value in named.items():
        row[VARIABLES.index(name)] = float(value)
    return tuple(row)


def build_system(iv: InfoVector) -> LinearSystem:
    """The auxiliary-rate inequality system (11 rows).

    Per receiver: the private split cannot exceed the private rate, the
    head constraint against I, and the satellite constraint against J;
    plus the shared cross constraint against K and nonnegativity of the
    four auxiliary rates.
    """
    return LinearSystem([
        Inequality(_coeff(R11=1, R1=-1), "<=", 0.0),
        Inequality(_coeff(R22=1, R2=-1), "<=", 0.0),
        Inequality(_coeff(R0=1, R1=1, R2=1, R22=-1, Rh1=1), "<=", iv.I1),
        Inequality(_coeff(R0=1, R1=1, R2=1, R11=-1, Rh2=1), "<=", iv.I2),
        Inequality(_coeff(R11=1, Rh1=1), "<=", iv.J1),
        Inequality(_coeff(R22=1, Rh2=1), "<=", iv.J2),
        Inequality(_coeff(Rh1=1, Rh2=1), ">=", iv.K),
        Inequality(_coeff(R11=1), ">=", 0.0),
        Inequality(_coeff(R22=1), ">=", 0.0),
        Inequality(_coeff(Rh1=1), ">=", 0.0),
        Inequality(_coeff(Rh2=1), ">=", 0.0),
    ])


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


def _eliminate(matrix: np.ndarray, col: int) -> np.ndarray:
    """One elimination step on <=-normalized rows [coeffs | const]."""
    a = matrix[:, col]
    zero = matrix[np.abs(a) <= _COEFF_TOL]
    pos = matrix[a > _COEFF_TOL]
    neg = matrix[a < -_COEFF_TOL]
    combos = []
    for up in pos:          # up: a_p x_col + r <= c with a_p > 0
        for low in neg:     # low: a_n x_col + r <= c with a_n < 0
            combo = up * (-low[col]) + low * up[col]
            combos.append(combo)
    if combos:
        out = np.vstack([zero, np.array(combos)])
    else:
        out = zero.copy() if len(zero) else np.empty((0, matrix.shape[1]))
    out[:, col] = 0.0
    return out


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    if len(matrix) == 0:
        return matrix
    scale = np.abs(matrix[:, :-1]).max(axis=1)
    scale = np.where(scale > _COEFF_TOL, scale, 1.0)
    return matrix / scale[:, None]


def _drop_trivial_and_duplicate(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows that are vacuous (0 <= c with c >= -tol), keep the first
    infeasible one (0 <= c with c < -tol) with zero coefficients, and keep
    one row per rounded coefficient vector: the one with the smallest
    constant (the first on ties), where that vector first appears."""
    matrix = _normalize_rows(matrix)
    trivial = np.abs(matrix[:, :-1]).max(axis=1, initial=0.0) <= _COEFF_TOL
    kept = ~trivial | (matrix[:, -1] < -tol)
    rows, infeasible = matrix[kept], trivial[kept]
    if len(rows) == 0:
        return np.empty((0, matrix.shape[1]))
    rows[infeasible, :-1] = 0.0
    # adding 0.0 turns -0.0 into 0.0, so equal keys are equal bytes, and one
    # np.unique over the bytes of each row groups them
    keys = np.round(rows[:, :-1], 9) + 0.0
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    # per group, the smallest constant and then the earliest row; the
    # infeasible rows all tie, so the first of them is kept
    order = np.lexsort((np.arange(len(rows)), np.where(infeasible, 0.0, rows[:, -1]), group))
    best = order[np.searchsorted(group[order], np.arange(len(first)))]
    return rows[best[np.argsort(first)]]


def _probe_irredundant(matrix: np.ndarray, tol: float, probes: int = 256) -> np.ndarray:
    """Random-point probing: mark rows witnessed as non-redundant.

    A row is certainly needed if some probe point satisfies every other
    row but violates it.  Probing only certifies keeps; drops are decided
    by the exact check.
    """
    n = len(matrix)
    needed = np.zeros(n, dtype=bool)
    if n <= 1:
        return needed
    scale = max(float(np.abs(matrix[:, -1]).max(initial=1.0)), 1.0)
    points = np.random.default_rng(0).normal(0.0, 2.0 * scale, size=(probes, matrix.shape[1] - 1))
    lhs = points @ matrix[:, :-1].T  # (probes, rows)
    sat = lhs <= matrix[:, -1][None, :] + tol
    for i in range(n):
        others = np.delete(sat, i, axis=1).all(axis=1)
        needed[i] = bool((others & ~sat[:, i]).any())
    return needed


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    Only FME pruning solves LPs, so importing scipy here keeps it off the
    import path of everything else.  The name stays a module attribute so
    that callers can wrap or replace ``regions.linprog``.
    """
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


def _lp_redundant(row: np.ndarray, others: np.ndarray, tol: float) -> bool:
    """Exact redundancy test: maximize the row's left side under the others."""
    if len(others) == 0:
        return False
    bound = 10.0 * max(float(np.abs(others[:, -1]).max(initial=1.0)),
                       float(abs(row[-1])), 1.0)
    res = linprog(
        -row[:-1],
        A_ub=others[:, :-1],
        b_ub=others[:, -1],
        bounds=[(-bound, bound)] * (len(row) - 1),
        method="highs",
    )
    if not res.success:
        return False
    return -res.fun <= row[-1] + tol


def _prune(matrix: np.ndarray, tol: float) -> np.ndarray:
    matrix = _drop_trivial_and_duplicate(matrix, tol)
    if len(matrix) <= 1:
        return matrix
    needed = _probe_irredundant(matrix, tol)
    keep = list(range(len(matrix)))
    for i in range(len(matrix)):
        if needed[i]:
            continue
        others = matrix[[j for j in keep if j != i]]
        if _lp_redundant(matrix[i], others, tol):
            keep.remove(i)
    return matrix[keep]


def region_contains(iv: InfoVector, rates: RateTriple) -> bool:
    """Whether a rate triple admits feasible auxiliary rates.

    Answered from the closed form that :func:`fme_project` leaves of
    :func:`build_system`, Marton's inner bound with a common message (El
    Gamal and Kim, *Network Information Theory*, Ch. 8): K <= J1 + J2,
    R0 + R1 <= I1, R0 + R2 <= I2, R0 + R1 + R2 <= min(I1 + J2, I2 + J1) - K
    and 2 R0 + R1 + R2 <= I1 + I2 - K.  Each row is held to ``_TOL`` after
    scaling to a largest coefficient of one, as the projected rows are.
    The strict positivity in the region statement is relaxed to closure
    (>= 0): the achievable region is taken closed.
    """
    r0, r1, r2 = rates.R0, rates.R1, rates.R2
    total = r0 + r1 + r2
    return (iv.K <= iv.J1 + iv.J2 + _TOL
            and r0 + r1 <= iv.I1 + _TOL
            and r0 + r2 <= iv.I2 + _TOL
            and total <= min(iv.I1 + iv.J2, iv.I2 + iv.J1) - iv.K + _TOL
            and (r0 + total) / 2.0 <= (iv.I1 + iv.I2 - iv.K) / 2.0 + _TOL)


def fme_project(iv: InfoVector) -> LinearSystem:
    """Project the auxiliary-rate system onto the rate coordinates.

    Eliminates the four auxiliary rates in a fixed order and prunes the
    result to an irredundant <=-system over (R0, R1, R2).
    """
    system = build_system(iv)
    matrix = np.array([row.as_leq() for row in system.rows])
    for name in _AUX:
        matrix = _eliminate(matrix, VARIABLES.index(name))
        matrix = _drop_trivial_and_duplicate(matrix, _TOL)
    matrix = _prune(matrix, _TOL)
    rate_cols = [VARIABLES.index(n) for n in ("R0", "R1", "R2")]
    rows = [
        Inequality(tuple(float(r[c]) for c in rate_cols), "<=", float(r[-1]))
        for r in matrix
    ]
    rows.sort(key=lambda r: (r.coeffs, r.constant))
    return LinearSystem(rows, ("R0", "R1", "R2"))


def projection_contains(system: LinearSystem, rates: RateTriple) -> bool:
    """Membership test against a projected system over (R0, R1, R2)."""
    x = np.array([rates.R0, rates.R1, rates.R2])
    for row in system.rows:
        lhs = float(np.dot(row.coeffs, x))
        ok = lhs <= row.constant + _TOL if row.sense == "<=" else lhs >= row.constant - _TOL
        if not ok:
            return False
    return True
