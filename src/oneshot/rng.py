"""Counter-based uniform streams for reproducible Monte Carlo.

Every trial owns a fixed budget of ``k`` uniforms carved out of a single
Philox stream keyed by the seed.  Trial ``i`` occupies the counter blocks
``[i*ceil(k/4), (i+1)*ceil(k/4))`` (Philox emits 4 uint64 per counter
step), so the numbers a trial sees depend only on ``(seed, i, k)`` --
never on chunk sizes, thread counts, or scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import EnumerationCapError, InputFormatError

_OUTPUTS_PER_BLOCK = 4

#: trials per chunk, unless the chunk byte cap binds first
CHUNK_TRIALS = 8192
#: cap on the bytes one chunk of trials holds in its per-trial arrays
CHUNK_BYTES = 64 * 2**20
#: cap on the trials of one Monte Carlo run
TRIALS_CAP = 10**9
#: cap on the worker threads of one Monte Carlo run (each may hold a chunk)
THREADS_CAP = 64

T = TypeVar("T")


def row_width(k: int) -> int:
    """Doubles generated per trial for a budget of ``k``: whole Philox blocks."""
    return -(-k // _OUTPUTS_PER_BLOCK) * _OUTPUTS_PER_BLOCK


def trial_uniforms(seed: int, start: int, n: int, k: int) -> np.ndarray:
    """Uniforms for trials ``start .. start+n-1``, ``k`` doubles each.

    Returns an ``(n, k)`` array; row ``i`` is identical for every way of
    chunking the trial range.
    """
    if n < 0 or k <= 0:
        raise ValueError("need n >= 0 and k > 0")
    width = row_width(k)
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(start * (width // _OUTPUTS_PER_BLOCK))
    u = np.random.Generator(bg).random(n * width)
    return u.reshape(n, width)[:, :k]


def sample_categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to symbol indices through a cumulative mass vector.

    ``cdf`` may be broadcast against ``u``: its last axis is the alphabet,
    the leading axes must match ``u``'s shape.  It must be nondecreasing
    along that axis.  The index is the number of cdf entries ``<= u``,
    clamped to the last symbol, and comes back as ``np.intp``.
    """
    k = cdf.shape[-1]
    if cdf.ndim == 1:
        return np.minimum(np.searchsorted(cdf, u, side="right"), k - 1)
    # one whole-array pass per column; a nondecreasing cdf makes the count
    # over the first k-1 columns equal to the clamped count over all k
    shape = np.broadcast_shapes(u.shape, cdf.shape[:-1])
    idx = np.zeros(shape, dtype=np.min_scalar_type(k))
    hit = np.empty(shape, dtype=bool)
    for j in range(k - 1):
        np.greater_equal(u, cdf[..., j], out=hit)
        idx += hit
    return idx.astype(np.intp)


def chunk_trials(row_bytes: int, max_trials: int = CHUNK_TRIALS, group: int = 1) -> int:
    """Trials per chunk: the largest multiple of ``group``, up to
    ``max_trials`` (or one group, if that is larger), whose trials at
    ``row_bytes`` each fit in ``CHUNK_BYTES`` together.  Raises
    :class:`EnumerationCapError` if one group does not fit."""
    fit = CHUNK_BYTES // row_bytes
    if group > fit:
        what = "one trial" if group == 1 else f"one reuse group of {group} trials"
        raise EnumerationCapError(
            f"{what} needs {row_bytes * group} bytes of uniforms and work arrays, "
            f"above the chunk cap of {CHUNK_BYTES}"
        )
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
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda sn: worker(*sn), spans))


def monte_carlo(trials: int, seed: int, k: int, body: Callable[[np.ndarray], T], *,
                work_bytes: int = 0, max_trials: int = CHUNK_TRIALS, group: int = 1,
                threads: int = 1) -> T:
    """Sum, in chunk order, of ``body`` on the ``(n, k)`` uniforms of each chunk
    of trials; a trial holds its uniform row plus ``work_bytes`` of work
    arrays, and :func:`chunk_trials` sizes the chunks from that.  More than
    ``TRIALS_CAP`` trials raise :class:`EnumerationCapError` before any runs."""
    if trials > TRIALS_CAP:
        raise EnumerationCapError(f"{trials} trials exceed the cap of {TRIALS_CAP}")
    chunk = chunk_trials(8 * row_width(k) + work_bytes, max_trials, group)
    return sum(run_trials(trials, lambda start, n: body(trial_uniforms(seed, start, n, k)),
                          chunk=chunk, threads=threads))


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
