"""Finite-alphabet joint laws, kernels and information density tables.

Alphabets are index sets ``0..n-1``.  Tensors are dense; everything is
immutable after construction and all operations are pure.

Conventions
-----------
* All logarithms are natural: densities and mutual informations are in
  nats.
* Densities exist only as tables, built by one kernel,
  :func:`log_ratio_table`: every entry whose numerator vanishes is
  ``-inf``, whether or not the denominator does, and a support point whose
  masses underflow keeps its finite density.  IEEE semantics order ``-inf``
  below every finite threshold, so an excess event is a plain
  ``table > thr`` (or ``>=``) and never contains a point off the support.
* Mass vectors are renormalized exactly on construction when their sum
  deviates from 1 by at most ``NORMALIZE_TOL``; a larger deviation is a
  hard input error (tolerate JSON rounding, reject malformed input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, InputFormatError

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


def _as_mass(values, what: str) -> np.ndarray:
    arr = input_array(values, what)
    if arr.size == 0:
        raise InputFormatError(f"{what}: empty array")
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"{what}: non-finite entries")
    if np.any(arr < 0):
        raise InputFormatError(f"{what}: negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZE_TOL:
        raise InputFormatError(f"{what}: total mass {total!r} deviates from 1 by more than {NORMALIZE_TOL}")
    return _renormalized(arr)


def _renormalized(arr: np.ndarray) -> np.ndarray:
    """``arr / arr.sum()``, read-only: the rescaling every checked mass array gets."""
    arr = arr / arr.sum()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Joint:
    """Joint probability tensor over two or more finite alphabets."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_mass(self.probs, "joint")
        if arr.ndim < 2:
            raise InputFormatError(f"joint: expected at least 2 axes, got {arr.ndim}")
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    @property
    def ndim(self) -> int:
        return self.probs.ndim

    @classmethod
    def unchecked(cls, arr: np.ndarray) -> "Joint":
        """``Joint(arr)`` for an array already known to be a valid mass array
        of two or more axes: renormalized as that would, without its checks."""
        joint = object.__new__(cls)
        object.__setattr__(joint, "probs", _renormalized(arr))
        return joint

    @classmethod
    def from_json(cls, doc) -> "Joint":
        if isinstance(doc, dict):
            if "probs" not in doc:
                raise InputFormatError('joint: expected a nested array or an object with "probs"')
            return cls(doc["probs"])
        return cls(doc)


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic conditional law: one output distribution per input symbol.

    ``rows`` has shape ``(n_inputs, *out_shape)``; the output may be a
    product alphabet (more than one trailing axis).
    """

    rows: np.ndarray

    def __post_init__(self):
        arr = input_array(self.rows, "kernel")
        if arr.ndim < 2:
            raise InputFormatError("kernel: rows must have at least one output axis")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InputFormatError("kernel: rows must be finite and nonnegative")
        sums = _row_sums(arr)
        bad = np.flatnonzero(np.abs(sums - 1.0) > NORMALIZE_TOL)
        if bad.size:
            raise InputFormatError(f"kernel: row {bad[0]} has mass {sums[bad[0]]!r}, "
                                   f"deviating from 1 by more than {NORMALIZE_TOL}")
        out = arr / sums.reshape(-1, *([1] * (arr.ndim - 1)))
        out.setflags(write=False)
        object.__setattr__(self, "rows", out)

    @property
    def n_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.rows.shape[1:]

    @classmethod
    def from_json(cls, doc) -> "Kernel":
        if not isinstance(doc, dict) or "rows" not in doc:
            raise InputFormatError('kernel: expected an object with a "rows" field')
        return cls(doc["rows"])


def _row_sums(arr: np.ndarray) -> np.ndarray:
    """The mass of each row of ``arr`` (axis 0 indexes the rows)."""
    return arr.reshape(arr.shape[0], -1).sum(axis=1)


def conditional(joint: Joint, given_axis: int) -> np.ndarray:
    """The conditional rows of the other axes given ``given_axis``, that axis
    first; the row of a zero-mass symbol is all zeros.

    Each row is divided by its mass, then once more by its own sum, as
    :class:`Kernel` rescales its rows.
    """
    if not 0 <= given_axis < joint.ndim:
        raise InputFormatError(f"invalid conditioning axis {given_axis}")
    arr = np.moveaxis(joint.probs, given_axis, 0)
    shape = (-1, *([1] * (arr.ndim - 1)))
    mass = _row_sums(arr)
    defined = mass > 0
    rows = np.zeros_like(arr)
    rows[defined] = arr[defined] / mass[defined].reshape(shape)
    rows[defined] /= _row_sums(rows)[defined].reshape(shape)
    return rows


# ---------------------------------------------------------------------------
# information density tables
# ---------------------------------------------------------------------------


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
        raise InputFormatError("mutual_info: need a 2-axis joint")
    arr = joint.probs
    sup = arr > 0
    table = info_density_table(joint)
    return float((arr[sup] * table[sup]).sum())


def cond_mutual_info(joint: Joint, given_axis: int = 0) -> float:
    """Conditional mutual information of the other two axes given one axis,
    weighted by ``joint`` and read off the density table of the moved axes
    renormalized (as a :class:`Joint` of them is)."""
    if joint.ndim != 3:
        raise InputFormatError("cond_mutual_info: need a 3-axis joint")
    arr = joint.probs if given_axis == 0 else np.moveaxis(joint.probs, given_axis, 0)
    table = cond_info_density_table(Joint.unchecked(arr))
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
    """i.i.d. n-fold product of a Joint or a Kernel.

    Information densities on the product are sums of per-letter densities.
    Each extended alphabet must stay within ``PRODUCT_ALPHABET_CAP``.
    """
    if n < 1:
        raise InputFormatError("product_extend: n must be >= 1")
    if not isinstance(obj, (Joint, Kernel)):
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
    return type(obj)(_iid_power(arr, n))
