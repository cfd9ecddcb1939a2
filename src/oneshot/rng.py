"""Counter-based uniform streams for reproducible Monte Carlo.

Every trial owns a fixed budget of ``k`` uniforms carved out of a single
Philox stream keyed by the seed.  Trial ``i`` occupies the counter blocks
``[i*ceil(k/4), (i+1)*ceil(k/4))`` (Philox emits 4 uint64 per counter
step), so the numbers a trial sees depend only on ``(seed, i, k)`` --
never on chunk sizes, thread counts, or scheduling.

A uniform is kept as its 53-bit integer word ``w = raw >> 11``, whose
value ``w * 2**-53`` is bit for bit the double that numpy's
``Generator(Philox(key=seed)).random()`` makes from the same output.  A
draw only ever compares a uniform with a cdf entry ``c``, and
:func:`thresholds` turns ``c`` into the integer ``ceil(c * 2**53)``:
``w * 2**-53 >= c`` exactly when ``w >= ceil(c * 2**53)``, since
``c * 2**53`` is exact for every double ``c >= 0`` and ``w`` is an
integer.  A threshold of ``2**53`` or more (a cumsum past 1) never fires.

A counter-based stream can be read anywhere without its prefix.  When
trials share a draw in groups (:func:`skips_rows`), only each group's
leader generates its whole row; the other trials compute just the last few
words they read, block by block (:func:`philox_blocks`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Callable, TypeVar

import numpy as np

from .errors import EnumerationCapError, InputFormatError, count_text

_OUTPUTS_PER_BLOCK = 4

#: most trials per chunk, unless the chunk byte target binds first
CHUNK_TRIALS = 8192
#: bytes of per-trial arrays a chunk of trials aims for: as many whole reuse
#: groups as fit, or else one group.  On a 2-CPU Xeon (2 MiB of L2 per core),
#: four interleaved 20-s runs of the benchmark's broadcast-sim workload per
#: target read a median of 59.9 ops/s at 1 MiB, 65.3 at 2 MiB, 72.9 at 4 MiB,
#: 72.1 at 8 MiB and 68.6 at 64 MiB: smaller chunks pay their fixed cost more
#: often, and 8 MiB raised peak RSS from 63 to 66 MB for no speed
#: (BENCH_chunk_target.json)
CHUNK_TARGET = 4 * 2**20
#: cap on the bytes of per-trial arrays one reuse group of trials holds (a
#: chunk of one group may exceed the target up to it), and so on any chunk
CHUNK_BYTES = 64 * 2**20
#: cap on the trials of one Monte Carlo run
TRIALS_CAP = 10**9
#: cap on the worker threads of one Monte Carlo run; each holds one chunk at a
#: time, of up to ``CHUNK_TARGET`` bytes or one reuse group of up to ``CHUNK_BYTES``
THREADS_CAP = 64
#: unread uniforms per group from which skipping them pays: below it, generating
#: them costs less than a jump per leader plus the tails computed block by block
SKIP_DOUBLES = 1024
#: widest 1-D cdf that :func:`sample_categorical` maps by whole-array compare
#: passes instead of a binary search.  The passes cost one sweep per symbol;
#: on a 2-CPU Xeon, comparing uint64 words, they beat ``searchsorted`` up to
#: about 50 symbols on a strided (3000, 128) block of uniforms and up to about
#: 110 on a contiguous (10**5,) column, so 16 wins in both layouts with room
#: to spare
COMPARE_SYMBOLS = 16

T = TypeVar("T")


def row_width(k: int) -> int:
    """Uniforms generated per trial for a budget of ``k``: whole Philox blocks."""
    return -(-k // _OUTPUTS_PER_BLOCK) * _OUTPUTS_PER_BLOCK


#: Philox4x64 round multipliers, as (2, 1) columns for words 0 and 2
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_MUL_LO, _PHILOX_MUL_HI = _PHILOX_MUL & np.uint64(0xFFFFFFFF), _PHILOX_MUL >> np.uint64(32)
#: Weyl increments of the two key words between rounds
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def philox_blocks(seed: int, blocks: np.ndarray) -> np.ndarray:
    """The four uint64 outputs of each 0-based counter block of the seed's
    stream, as ``(len(blocks), 4)``: Philox4x64-10 under key ``(seed, 0)``
    at counter ``block + 1`` (the counter is incremented before each
    block), as ``np.random.Philox(key=seed)`` emits them after
    ``advance(block)``.  Blocks must be below ``2**64 - 1``.

    The 64x64 -> 128-bit products are split into 32-bit halves, since
    numpy has no wide multiply."""
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    x = np.zeros((4, len(blocks)), dtype=np.uint64)
    x[0] = blocks
    x[0] += np.uint64(1)
    key = np.array([[seed], [0]], dtype=np.uint64)
    for _ in range(10):
        a = x[0::2]  # the multiplied words 0 and 2
        a_lo, a_hi = a & low, a >> shift
        cross1, cross2 = a_lo * _PHILOX_MUL_HI, a_hi * _PHILOX_MUL_LO
        carry = (a_lo * _PHILOX_MUL_LO) >> shift
        carry += cross1 & low
        carry += cross2 & low
        carry >>= shift
        hi = a_hi * _PHILOX_MUL_HI
        hi += cross1 >> shift
        hi += cross2 >> shift
        hi += carry
        lo = a * _PHILOX_MUL
        hi = hi[::-1]
        hi ^= x[1::2]
        hi ^= key
        x[0::2] = hi
        x[1::2] = lo[::-1]
        key += _PHILOX_BUMP
    return x.T


def _tail_uniforms(seed: int, start: int, n: int, k: int, tail: int) -> np.ndarray:
    """The last ``tail`` of the ``k`` uniforms of trials ``start .. start+n-1``,
    computed from only the Philox blocks that hold them."""
    per_row = row_width(k) // _OUTPUTS_PER_BLOCK
    first, last = (k - tail) // _OUTPUTS_PER_BLOCK, (k - 1) // _OUTPUTS_PER_BLOCK
    row_starts = (np.arange(start, start + n, dtype=np.uint64) * np.uint64(per_row))[:, None]
    blocks = row_starts + np.arange(first, last + 1, dtype=np.uint64)
    words = philox_blocks(seed, blocks.reshape(-1)).reshape(n, blocks.shape[1] * _OUTPUTS_PER_BLOCK)
    skip = k - tail - first * _OUTPUTS_PER_BLOCK
    return words[:, skip:skip + tail] >> np.uint64(11)


def skips_rows(k: int, group: int, tail: int | None) -> bool:
    """Whether :func:`trial_uniforms` leaves the rows of non-leaders
    ungenerated: with a ``tail``, once a group's other rows hold at least
    ``SKIP_DOUBLES`` uniforms."""
    return tail is not None and (group - 1) * row_width(k) >= SKIP_DOUBLES


def trial_uniforms(seed: int, start: int, n: int, k: int, group: int = 1,
                   tail: int | None = None):
    """Uniforms for trials ``start .. start+n-1``, ``k`` each, as uint64
    words ``w`` of value ``w * 2**-53`` (see the module docstring).

    Returns an ``(n, k)`` array; row ``i`` is identical for every way of
    chunking the trial range.  With a ``tail`` width, returns the pair
    ``(rows, tails)``: ``rows`` holds the whole rows of the group leaders
    only (trials ``start``, ``start+group``, ...), and ``tails`` the last
    ``tail`` words of every trial, ``(n, tail)``.  Where
    :func:`skips_rows`, the other trials' rows are never generated.
    """
    if n < 0 or k <= 0:
        raise ValueError("need n >= 0 and k > 0")
    width = row_width(k)
    per_row = width // _OUTPUTS_PER_BLOCK
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(start * per_row)
    if not skips_rows(k, group, tail):
        u = bg.random_raw(n * width)
        u >>= np.uint64(11)
        u = u.reshape(n, width)[:, :k]
        return u if tail is None else (u[::group], u[:, k - tail:])
    # one leader row, then a jump over the rest of its group
    rows = np.empty((-(-n // group), width), dtype=np.uint64)
    for row in rows:
        np.right_shift(bg.random_raw(width), np.uint64(11), out=row)
        bg.advance((group - 1) * per_row)
    return rows[:, :k], _tail_uniforms(seed, start, n, k, tail)


def thresholds(cdf: np.ndarray) -> np.ndarray:
    """The uint64 thresholds ``ceil(c * 2**53)`` of the cdf entries ``c``, which
    :func:`sample_categorical` compares with words; build them once per table."""
    return np.ceil(cdf * 2.0**53).astype(np.uint64)


def sample_categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniform words to symbol indices through the :func:`thresholds` of
    a cumulative mass vector.

    ``cdf`` may be broadcast against ``u``: its last axis is the alphabet,
    the leading axes must match ``u``'s shape.  It must be nondecreasing
    along that axis.  The index is the number of thresholds ``<= u``, that
    is of cdf entries ``<= u * 2**-53``, clamped to the last symbol.  It
    comes back in the smallest unsigned dtype that holds ``k - 1`` (one byte
    up to 256 symbols), so a caller doing arithmetic on indices widens them
    first.
    """
    k = cdf.shape[-1]
    dtype = np.min_scalar_type(k - 1)
    if cdf.ndim == 1 and k > COMPARE_SYMBOLS:
        return np.minimum(np.searchsorted(cdf, u, side="right"), k - 1).astype(dtype)
    # one whole-array pass per column; a nondecreasing cdf makes the count
    # over the first k-1 columns equal to the clamped count over all k
    shape = np.broadcast_shapes(u.shape, cdf.shape[:-1])
    if k == 1:
        return np.zeros(shape, dtype=dtype)
    # the first pass casts its flags straight into the counter
    idx = np.empty(shape, dtype=dtype)
    np.greater_equal(u, cdf[..., 0], out=idx)
    hit = np.empty(shape, dtype=bool)
    for j in range(1, k - 1):
        np.greater_equal(u, cdf[..., j], out=hit)
        idx += hit
    return idx


def chunk_trials(row_bytes: int, max_trials: int = CHUNK_TRIALS, group: int = 1,
                 fixed_bytes: int = 0) -> int:
    """Trials per chunk: the largest positive multiple of ``group``, up to
    ``max_trials``, whose trials at ``row_bytes`` each fit together, next to
    the ``fixed_bytes`` a run holds through all its chunks, in
    ``CHUNK_TARGET`` (or ``CHUNK_BYTES``, if smaller), or else one group.
    Raises :class:`EnumerationCapError` if one group does not fit in
    ``CHUNK_BYTES``."""
    if group * row_bytes > CHUNK_BYTES:
        what = "one trial" if group == 1 else f"one reuse group of {count_text(group)} trials"
        raise EnumerationCapError(
            f"{what} needs {count_text(row_bytes * group)} bytes of uniforms and work arrays, "
            f"above the chunk cap of {CHUNK_BYTES}"
        )
    fit = max(0, min(CHUNK_TARGET, CHUNK_BYTES) - fixed_bytes) // row_bytes
    return group * max(1, min(max_trials, fit) // group)


def run_trials(
    trials: int,
    worker: Callable[[int, int], T],
    *,
    chunk: int = CHUNK_TRIALS,
    threads: int = 1,
) -> list[T]:
    """Split ``trials`` into fixed chunks and run ``worker(start, n)`` on each.

    Chunk boundaries depend only on ``(trials, chunk)``, and results are
    returned in chunk order, so any aggregation over them is independent
    of the thread count.  ``threads`` outside ``[1, THREADS_CAP]`` raises
    :class:`InputFormatError` before any chunk runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= threads <= THREADS_CAP:
        raise InputFormatError(f"threads must be in [1, {THREADS_CAP}], got {threads}")
    spans = [(s, min(chunk, trials - s)) for s in range(0, trials, chunk)]
    if threads == 1 or len(spans) == 1:
        return [worker(s, n) for s, n in spans]
    from concurrent.futures import ThreadPoolExecutor  # loaded only where threads start

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda sn: worker(*sn), spans))


def uniform_bytes(k: int, group: int = 1, tail: int | None = None) -> int:
    """Bytes of uniforms one trial holds in :func:`monte_carlo`: its whole
    row or, where :func:`skips_rows`, its share of the leader's row plus its
    own tail and the Philox words it is computed from."""
    row = 8 * row_width(k)
    if not skips_rows(k, group, tail):
        return row
    blocks = (k - 1) // _OUTPUTS_PER_BLOCK - (k - tail) // _OUTPUTS_PER_BLOCK + 1
    # the counters, state and temporaries of a Philox block: under 48 words
    return -(-row // group) + 16 * tail + 8 * 48 * blocks


def monte_carlo(trials: int, seed: int, k: int, body: Callable[..., T], *,
                work_bytes: int = 0, fixed_bytes: int = 0, max_trials: int = CHUNK_TRIALS,
                group: int = 1, tail: int | None = None, threads: int = 1) -> T:
    """Sum (``+``), in chunk order, of ``body`` on the ``(n, k)`` uniforms of
    each chunk of trials, or with a ``tail`` width on the ``(rows, tails)``
    pair of :func:`trial_uniforms`: whole rows only for the leaders of each
    group of ``group`` trials.  A body returning lists, such as
    :func:`exact_partials`, has them concatenated.  A trial holds its
    :func:`uniform_bytes` plus ``work_bytes`` of work arrays, the run holds
    ``fixed_bytes`` through every chunk, and :func:`chunk_trials` sizes the
    chunks from those.  More than ``TRIALS_CAP`` trials raise
    :class:`EnumerationCapError` before any runs."""
    if trials > TRIALS_CAP:
        raise EnumerationCapError(f"{count_text(trials)} trials exceed the cap of {TRIALS_CAP}")
    chunk = chunk_trials(uniform_bytes(k, group, tail) + work_bytes, max_trials, group, fixed_bytes)
    # positional, so that a wrapper of trial_uniforms taking *args sees them all
    return reduce(operator.add,
                  run_trials(trials, lambda start, n: body(trial_uniforms(seed, start, n, k,
                                                                         group, tail)),
                             chunk=chunk, threads=threads))


def exact_partials(values: np.ndarray) -> list[float]:
    """Doubles whose exact sum is that of ``values``: their exactly rounded
    sum, then the rounded remainder, and so on until none is left.
    ``math.fsum`` over the partials of every chunk is then the exactly
    rounded sum of all the values, however they were chunked."""
    vals = values.tolist()
    parts = []
    while (part := math.fsum(vals)) != 0.0:
        parts.append(part)
        vals.append(-part)
    return parts


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its worst-case binomial standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def estimate(total: float, trials: int, seed: int) -> McEstimate:
    """Mean of [0, 1]-valued trials summing to ``total``, with its standard error."""
    mean = total / trials
    p = min(max(mean, 0.0), 1.0)
    return McEstimate(mean, float(np.sqrt(p * (1.0 - p) / trials)), trials, seed)
