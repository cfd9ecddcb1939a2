"""Finite-alphabet probability objects and information densities.

Alphabets are index sets ``0..n-1`` (optional string labels are carried
for display only).  Tensors are dense; everything is immutable after
construction and all operations are pure.

Conventions
-----------
* All logarithms are natural: densities and mutual informations are in
  nats.
* Scalar density ratios at zero-probability points follow the
  extended-real conventions:

  - numerator > 0, denominator = 0  ->  ``+inf``
  - numerator = 0, denominator > 0  ->  ``-inf``
  - both zero                       ->  :class:`OutsideSupportError`

* Density tables are built by one kernel, :func:`log_ratio_table`: every
  entry whose numerator vanishes is ``-inf``, whether or not the
  denominator does, and a support point whose masses underflow keeps
  its finite density.  IEEE semantics order ``-inf`` below every finite
  threshold, so an excess event is a plain ``table > thr`` (or ``>=``)
  and never contains a point off the support.
* Mass vectors are renormalized exactly on construction when their sum
  deviates from 1 by at most ``NORMALIZE_TOL``; a larger deviation is a
  hard input error (tolerate JSON rounding, reject malformed input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    InputFormatError,
    OutsideSupportError,
    UndefinedRowError,
)

NORMALIZE_TOL = 1e-6

_DBL_MIN = np.finfo(float).tiny

#: default cap on each product alphabet built by :func:`product_extend`
PRODUCT_ALPHABET_CAP = 4096


def integral(value) -> int:
    """``int(value)``, but a float with a fractional part is a ``ValueError``."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def input_array(values, what: str, dtype=float) -> np.ndarray:
    """``np.asarray(values, dtype)``; a ragged or non-numeric array, or a fraction
    in an integer ``dtype``, is an :class:`InputFormatError` naming ``what``."""
    try:
        arr = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(f"{what}: expected a rectangular array of numbers") from None
    if arr.dtype.kind == "i" and not np.array_equal(arr, input_array(values, what)):
        raise InputFormatError(f"{what}: expected integer entries")
    return arr


def _as_mass(values, what: str, ndim: int | None = None) -> np.ndarray:
    arr = input_array(values, what)
    if arr.size == 0:
        raise InputFormatError(f"{what}: empty array")
    if ndim is not None and arr.ndim != ndim:
        raise InputFormatError(f"{what}: expected {ndim} axes, got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"{what}: non-finite entries")
    if np.any(arr < 0):
        raise InputFormatError(f"{what}: negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZE_TOL:
        raise InputFormatError(f"{what}: total mass {total!r} deviates from 1 by more than {NORMALIZE_TOL}")
    arr = arr / total
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dist:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_mass(self.probs, "distribution", ndim=1)
        object.__setattr__(self, "probs", arr)
        if self.labels is not None and len(self.labels) != arr.shape[0]:
            raise InputFormatError("labels: length does not match alphabet size")

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    def __getitem__(self, x: int) -> float:
        return float(self.probs[x])


@dataclass(frozen=True)
class Joint:
    """Joint probability tensor over two or more finite alphabets."""

    probs: np.ndarray
    labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        arr = _as_mass(self.probs, "joint")
        if arr.ndim < 2:
            raise InputFormatError(f"joint: expected at least 2 axes, got {arr.ndim}")
        object.__setattr__(self, "probs", arr)
        if self.labels is not None:
            if len(self.labels) != arr.ndim or any(
                len(lab) != size for lab, size in zip(self.labels, arr.shape)
            ):
                raise InputFormatError("labels: shape does not match joint axes")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    @property
    def ndim(self) -> int:
        return self.probs.ndim

    def __getitem__(self, idx) -> float:
        return float(self.probs[idx])

    @classmethod
    def from_json(cls, doc) -> "Joint":
        if isinstance(doc, dict):
            if "probs" not in doc:
                raise InputFormatError('joint: expected a nested array or an object with "probs"')
            return cls(doc["probs"], _labels_from_json(doc.get("labels"), nested=True))
        return cls(doc)


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic conditional law: one output distribution per input symbol.

    ``rows`` has shape ``(n_inputs, *out_shape)``; the output may be a
    product alphabet (more than one trailing axis).  Rows flagged
    undefined (inputs of zero probability) hold zeros and raise
    :class:`UndefinedRowError` when evaluated.
    """

    rows: np.ndarray
    defined: np.ndarray | None = None

    def __post_init__(self):
        arr = input_array(self.rows, "kernel")
        if arr.ndim < 2:
            raise InputFormatError("kernel: rows must have at least one output axis")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InputFormatError("kernel: rows must be finite and nonnegative")
        defined = self.defined
        if defined is None:
            defined = np.ones(arr.shape[0], dtype=bool)
        else:
            defined = np.asarray(defined, dtype=bool).copy()
            if defined.shape != (arr.shape[0],):
                raise InputFormatError("kernel: defined mask must have one flag per row")
        sums = arr.reshape(arr.shape[0], -1).sum(axis=1)
        bad = np.flatnonzero(defined & (np.abs(sums - 1.0) > NORMALIZE_TOL))
        if bad.size:
            raise InputFormatError(f"kernel: row {bad[0]} has mass {sums[bad[0]]!r}, "
                                   f"deviating from 1 by more than {NORMALIZE_TOL}")
        out = np.zeros_like(arr)
        out[defined] = arr[defined] / sums[defined].reshape(-1, *([1] * (arr.ndim - 1)))
        out.setflags(write=False)
        defined.setflags(write=False)
        object.__setattr__(self, "rows", out)
        object.__setattr__(self, "defined", defined)

    @property
    def n_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.rows.shape[1:]

    def row(self, x: int) -> np.ndarray:
        """Output law for input ``x``; raises on undefined rows."""
        if not self.defined[x]:
            raise UndefinedRowError(f"conditional row {x} is undefined (zero-probability input)")
        return self.rows[x]

    @classmethod
    def from_json(cls, doc) -> "Kernel":
        if not isinstance(doc, dict) or "rows" not in doc:
            raise InputFormatError('kernel: expected an object with a "rows" field')
        return cls(doc["rows"])


def _labels_from_json(labels, nested: bool = False):
    """JSON labels as a tuple of strings, or of such tuples if ``nested``."""
    if labels is None:
        return None
    if not isinstance(labels, list) or (nested and not all(isinstance(x, list) for x in labels)):
        raise InputFormatError("labels: expected a list" + (" of lists" if nested else ""))
    return tuple(_labels_from_json(x) if nested else str(x) for x in labels)


# ---------------------------------------------------------------------------
# marginalization / conditioning
# ---------------------------------------------------------------------------


def marginal(joint: Joint, axes: int | Iterable[int]) -> Dist | Joint:
    """Sum out every axis not listed in ``axes`` (result axes in given order)."""
    keep = (axes,) if isinstance(axes, int) else tuple(axes)
    nd = joint.ndim
    if len(keep) == 0 or len(set(keep)) != len(keep) or any(not 0 <= a < nd for a in keep):
        raise AlphabetMismatchError(f"invalid axis selection {keep!r} for a {nd}-axis joint")
    if keep == tuple(range(nd)):
        return joint
    drop = tuple(a for a in range(nd) if a not in keep)
    arr = joint.probs.sum(axis=drop) if drop else joint.probs
    # reorder remaining axes to the requested order
    remaining = [a for a in range(nd) if a not in drop]
    arr = np.transpose(arr, [remaining.index(a) for a in keep])
    labels = None
    if joint.labels is not None:
        labels = tuple(joint.labels[a] for a in keep)
    if len(keep) == 1:
        return Dist(arr, labels[0] if labels else None)
    return Joint(arr, labels)


def conditional(joint: Joint, given_axis: int) -> Kernel:
    """Conditional kernel of the remaining axes given ``given_axis``.

    Rows for zero-probability conditioning symbols are marked undefined.
    """
    if not 0 <= given_axis < joint.ndim:
        raise AlphabetMismatchError(f"invalid conditioning axis {given_axis}")
    arr = np.moveaxis(joint.probs, given_axis, 0)
    mass = arr.reshape(arr.shape[0], -1).sum(axis=1)
    defined = mass > 0
    rows = np.zeros_like(arr)
    rows[defined] = arr[defined] / mass[defined].reshape(-1, *([1] * (arr.ndim - 1)))
    return Kernel(rows, defined)


def merge_axes(joint: Joint, groups: Sequence[Sequence[int]]) -> Joint:
    """Flatten groups of axes into single product-alphabet axes (row-major)."""
    flat = [a for g in groups for a in g]
    if sorted(flat) != list(range(joint.ndim)):
        raise AlphabetMismatchError(f"groups {groups!r} must partition the {joint.ndim} axes")
    arr = np.transpose(joint.probs, flat)
    shape = [int(np.prod([joint.shape[a] for a in g])) for g in groups]
    return Joint(arr.reshape(shape))


# ---------------------------------------------------------------------------
# relative information and information densities
# ---------------------------------------------------------------------------


def _log_ratio(num: float, den: float) -> float:
    if num > 0 and den > 0:
        return math.log(num / den)
    if num > 0:
        return math.inf
    if den > 0:
        return -math.inf
    raise OutsideSupportError("point lies outside the support of both measures")


def rel_info(p: Dist, q: Dist, x: int) -> float:
    """ln(p(x)/q(x)) in nats, with the extended-real zero conventions."""
    if p.alphabet_size != q.alphabet_size:
        raise AlphabetMismatchError("rel_info: distributions on different alphabets")
    return _log_ratio(p[x], q[x])


def info_density(joint: Joint, u: int, v: int) -> float:
    """Information density of the pair ``(u, v)`` under a 2-axis joint.

    Defined as the relative information of the row law given ``u`` with
    respect to the second marginal, evaluated at ``v``; on the support it
    equals ``ln(P(u,v) / (P(u) P(v)))``.
    """
    if joint.ndim != 2:
        raise AlphabetMismatchError("info_density: need a 2-axis joint")
    pu = float(joint.probs.sum(axis=1)[u])
    if pu == 0:
        raise UndefinedRowError(f"conditioning symbol {u} has zero probability")
    pv = float(joint.probs.sum(axis=0)[v])
    return _log_ratio(joint[u, v] / pu, pv)


def cond_info_density(joint: Joint, s: int, t: int, u: int) -> float:
    """Conditional information density of ``(s, t)`` given ``u``.

    ``joint`` has axes (conditioning, first, second); the value is
    ``ln(P(s,t|u) / (P(s|u) P(t|u)))`` with the usual zero conventions.
    """
    if joint.ndim != 3:
        raise AlphabetMismatchError("cond_info_density: need a 3-axis joint")
    arr = joint.probs
    pu = float(arr.sum(axis=(1, 2))[u])
    if pu == 0:
        raise UndefinedRowError(f"conditioning symbol {u} has zero probability")
    num = arr[u, s, t] / pu
    den = (arr[u, s, :].sum() / pu) * (arr[u, :, t].sum() / pu)
    return _log_ratio(num, float(den))


def log_ratio_table(num: Sequence[np.ndarray], den: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise ``ln(prod(num) / prod(den))`` where every numerator factor is
    positive, ``-inf`` elsewhere.

    ``num`` and ``den`` are sequences of (at most two) arrays of masses in
    ``[0, 1]`` whose products both have the table's shape.  Where both
    products are normal doubles the value is ``ln(prod(num) / prod(den))``;
    where a product lost digits or underflowed it is
    ``sum(ln num) - sum(ln den)``, so a support point of tiny mass keeps its
    finite density instead of ``+inf`` or ``-inf``.
    """
    n, d = math.prod(num), math.prod(den)
    out = np.full(n.shape, -np.inf)
    linear = (n >= _DBL_MIN) & (d >= _DBL_MIN)
    out[linear] = np.log(n[linear] / d[linear])
    split = ~linear
    for f in num:
        split &= f > 0
    if split.any():
        with np.errstate(divide="ignore"):  # a vanishing denominator factor gives +inf
            logs = [sign * np.log(np.broadcast_to(f, n.shape)[split])
                    for sign, factors in ((1.0, num), (-1.0, den)) for f in factors]
        out[split] = sum(logs[1:], logs[0])
    return out


def info_density_table(joint: Joint) -> np.ndarray:
    """Vectorized density table for a 2-axis joint: finite on the support,
    ``-inf`` wherever the joint vanishes (see :func:`log_ratio_table`)."""
    arr = joint.probs
    return log_ratio_table((arr,), (arr.sum(axis=1)[:, None], arr.sum(axis=0)[None, :]))


def cond_info_density_table(joint: Joint) -> np.ndarray:
    """Conditional density table for a 3-axis joint, axes (u, s, t),
    conditioning on axis 0: finite on the support, ``-inf`` off it."""
    arr = joint.probs
    return log_ratio_table((arr, arr.sum(axis=(1, 2))[:, None, None]),
                           (arr.sum(axis=2)[:, :, None], arr.sum(axis=1)[:, None, :]))


def mutual_info(joint: Joint) -> float:
    """Mutual information of a 2-axis joint in nats (0 ln 0 = 0)."""
    if joint.ndim != 2:
        raise AlphabetMismatchError("mutual_info: need a 2-axis joint")
    arr = joint.probs
    sup = arr > 0
    table = info_density_table(joint)
    return float((arr[sup] * table[sup]).sum())


def cond_mutual_info(joint: Joint, given_axis: int = 0) -> float:
    """Conditional mutual information of the other two axes given one axis."""
    if joint.ndim != 3:
        raise AlphabetMismatchError("cond_mutual_info: need a 3-axis joint")
    arr = np.moveaxis(joint.probs, given_axis, 0)
    table = cond_info_density_table(Joint(arr))
    sup = arr > 0
    return float((arr[sup] * table[sup]).sum())


# ---------------------------------------------------------------------------
# i.i.d. product extension
# ---------------------------------------------------------------------------


def _iid_power(arr: np.ndarray, n: int, combine=np.multiply.outer) -> np.ndarray:
    """n-fold tensor power keeping axis groups; tuple indices are row-major
    with the first letter most significant.  ``combine`` joins the power so
    far with one more letter over all index pairs."""
    out = arr
    d = arr.ndim
    for _ in range(n - 1):
        prod = combine(out, arr)
        order = [axis for j in range(d) for axis in (j, d + j)]
        prod = np.transpose(prod, order)
        out = prod.reshape([out.shape[j] * arr.shape[j] for j in range(d)])
    return out


def product_extend(obj, n: int):
    """i.i.d. n-fold product of a Dist / Joint / Kernel.

    Information densities on the product are sums of per-letter densities.
    Each extended alphabet must stay within ``PRODUCT_ALPHABET_CAP``.
    """
    if n < 1:
        raise InputFormatError("product_extend: n must be >= 1")
    if not isinstance(obj, (Dist, Joint, Kernel)):
        raise InputFormatError(f"product_extend: unsupported object {type(obj).__name__}")
    arr = obj.rows if isinstance(obj, Kernel) else obj.probs
    total = 1
    for size in arr.shape:
        if size**n > PRODUCT_ALPHABET_CAP:
            raise EnumerationCapError(
                f"product alphabet {size}^{n} exceeds the cap of {PRODUCT_ALPHABET_CAP} symbols"
            )
        total *= size**n
    if total > 1 << 24:
        raise EnumerationCapError(
            f"extended tensor with {total} entries exceeds the cap of {1 << 24}"
        )
    if n == 1:
        return obj
    if not isinstance(obj, Kernel):
        return type(obj)(_iid_power(arr, n))
    return Kernel(_iid_power(arr, n), _iid_power(obj.defined, n, np.logical_and.outer))
