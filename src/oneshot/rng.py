"""Seekable uniform streams for reproducible Monte Carlo.

Every trial owns a fixed budget of ``k`` uniforms: trial ``i`` reads the
words ``[i*k, (i+1)*k)`` of the seed's ``PCG64DXSM`` stream, which a chunk
of trials reaches by one ``advance``.  So the numbers a trial sees depend
only on ``(seed, i, k)`` -- never on chunk sizes, thread counts, or
scheduling.

A uniform is kept as its 53-bit integer word ``w = raw >> 11``, whose
value ``w * 2**-53`` is bit for bit the double that numpy's
``Generator(PCG64DXSM(seed)).random()`` makes from the same output.  A
draw only ever compares a uniform with a cdf entry ``c``, and
:func:`thresholds` turns ``c`` into the integer ``ceil(c * 2**53)``:
``w * 2**-53 >= c`` exactly when ``w >= ceil(c * 2**53)``, since
``c * 2**53`` is exact for every double ``c >= 0`` and ``w`` is an
integer.  A threshold of ``2**53`` or more (a cumsum past 1) never fires.

Trials that share a draw in groups of ``group`` read two streams.  The
``c = k - tail`` words of group ``g``'s draw are words ``[g*c, (g+1)*c)``
of the seed's stream, so a chunk, which starts at a group boundary, reads
all its groups' draws with one ``advance`` and one call; and the last
``tail`` words of trial ``i`` are words ``[i*tail, (i+1)*tail)`` of its
first spawned child, ``PCG64DXSM(SeedSequence(seed).spawn(1)[0])``, also
read with one call.  So group ``g`` draws what trial ``g`` draws in groups
of one, and a trial's tail is the same whatever its group.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Callable, TypeVar

import numpy as np

from .errors import EnumerationCapError, InputFormatError, count_text

#: most trials per chunk, unless the chunk byte target binds first
CHUNK_TRIALS = 8192
#: bytes of per-trial arrays a chunk of trials aims for: as many whole reuse
#: groups as fit, or else one group.  On a 2-CPU Xeon (2 MiB of L2 per core),
#: three interleaved 20-s runs of the benchmark's broadcast-sim workload per
#: target read a median of 144 ops/s at 1 MiB, 149 at 2 MiB, 155 at 4 MiB,
#: 156 at 8 MiB and 129 at 64 MiB, the runs of one target up to 16 ops/s
#: apart: below 4 MiB chunks pay their fixed cost more often, and 8 MiB
#: raised peak RSS from 63 to 65 MB (64 MiB: 100 MB) for no speed
#: (BENCH_codebook_blocks.json)
CHUNK_TARGET = 4 * 2**20
#: cap on the bytes of per-trial arrays one reuse group of trials holds (a
#: chunk of one group may exceed the target up to it), and so on any chunk
CHUNK_BYTES = 64 * 2**20
#: cap on the trials of one Monte Carlo run
TRIALS_CAP = 10**9
#: cap on the worker threads of one Monte Carlo run; each holds one chunk at a
#: time, of up to ``CHUNK_TARGET`` bytes or one reuse group of up to ``CHUNK_BYTES``
THREADS_CAP = 64
#: widest 1-D cdf that :func:`sample_categorical` maps by whole-array compare
#: passes instead of a binary search.  The passes cost one sweep per symbol;
#: on a 2-CPU Xeon, comparing uint64 words, they beat ``searchsorted`` up to
#: about 50 symbols on a strided (3000, 128) block of uniforms and up to about
#: 110 on a contiguous (10**5,) column, so 16 wins in both layouts with room
#: to spare
COMPARE_SYMBOLS = 16

T = TypeVar("T")


def _words(bits: np.random.PCG64DXSM, count: int) -> np.ndarray:
    """The next ``count`` words of a stream, as 53-bit uniforms."""
    words = bits.random_raw(count)
    words >>= np.uint64(11)
    return words


def trial_uniforms(seed: int, start: int, n: int, k: int, group: int = 1,
                   tail: int | None = None):
    """Uniforms for trials ``start .. start+n-1``, ``k`` each, as uint64
    words ``w`` of value ``w * 2**-53`` (see the module docstring).

    Returns an ``(n, k)`` array; row ``i`` is identical for every way of
    chunking the trial range.  With a ``tail`` width, returns the pair
    ``(rows, tails)``: ``rows`` holds the ``k - tail`` words of the seed's
    stream of each group of ``group`` trials, ``(ceil(n / group), k - tail)``,
    and ``tails`` the ``tail`` words of the child stream of every trial,
    ``(n, tail)``.  ``start`` must be a multiple of ``group``.
    """
    if n < 0 or k <= 0:
        raise ValueError("need n >= 0 and k > 0")
    if start % group:
        raise ValueError(f"start {start} is not a multiple of the group of {group}")
    bits = np.random.PCG64DXSM(seed)
    if tail is None:
        bits.advance(start * k)
        return _words(bits, n * k).reshape(n, k)
    width, draws = k - tail, -(-n // group)
    bits.advance(start // group * width)
    rows = _words(bits, draws * width).reshape(draws, width)
    # the state of SeedSequence(seed).spawn(1)[0], built without the parent
    child = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(0,)))
    child.advance(start * tail)
    return rows, _words(child, n * tail).reshape(n, tail)


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
    row or, with a ``tail``, its share of its group's draw plus its own
    tail."""
    if tail is None:
        return 8 * k
    return -(-8 * (k - tail) // group) + 8 * tail


def monte_carlo(trials: int, seed: int, k: int, body: Callable[..., T], *,
                work_bytes: int = 0, fixed_bytes: int = 0, max_trials: int = CHUNK_TRIALS,
                group: int = 1, tail: int | None = None, threads: int = 1) -> T:
    """Sum (``+``), in chunk order, of ``body`` on the ``(n, k)`` uniforms of
    each chunk of trials, or with a ``tail`` width on the ``(rows, tails)``
    pair of :func:`trial_uniforms`: one draw's row for each group of
    ``group`` trials and a tail for each trial.  A body returning lists,
    such as :func:`exact_partials`, has them concatenated.  A trial holds its
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
