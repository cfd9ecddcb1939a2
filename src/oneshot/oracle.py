"""Exact codebook-ensemble probabilities and Monte Carlo estimators.

The covering-type exact values (miss, conditional miss, packing) depend
on a codebook only through the set of event columns it covers, so they
run as a dynamic programme over covered-column sets: codebook symbols
with identical event rows merge into one class, the reachable covered
sets are closed under the class rows, and the law of the covered set is
pushed forward one i.i.d. draw at a time.  The resolvability value needs
full per-symbol counts and enumerates codebooks up to reordering, over
compositions of the codebook size with log-space multinomial weights.

Monte Carlo estimators run through :func:`oneshot.rng.monte_carlo`: results
are bitwise identical for any thread count, and chunk sizes are a fixed
function of the inputs.  The covering estimators test each trial on
bit-packed event rows (:func:`_hits`).  Every estimator is also
independent of the chunk size: the miss estimators count, and
:func:`mc_resolvability_excess` rounds the sum of its per-trial values
once, over all trials (:func:`oneshot.rng.exact_partials`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice
from typing import Iterator

import numpy as np

from . import rng
from .bounds import check_bound_args, check_sizes, size_double
from .errors import EnumerationCapError, InputFormatError, count_text
from .probability import Joint, conditional, info_density_table

#: cap on the number of codeword multisets the resolvability oracle may visit
MULTISET_CAP = 10**6

#: cap on the covered-set DP's work: draws x (covered sets x symbol classes),
#: each draw charged at least ``_DRAW_OVERHEAD`` for its fixed numpy cost
DP_CAP = 10**8

#: cap on the covered-set DP's transition table, covered sets x symbol classes
DP_TABLE_CAP = 2**22

_DRAW_OVERHEAD = 512

#: cap on the number of raw codebooks the brute-force cross-check may visit
BRUTEFORCE_CAP = 10**5

_BLOCK = 1 << 14


@dataclass(frozen=True)
class EnsembleSpec:
    """A covering instance: joint law, target event, codebook sizes."""

    joint: Joint
    event: np.ndarray
    M: int
    L: int

    def __post_init__(self):
        ev = np.array(self.event, dtype=bool, copy=True)
        ev.setflags(write=False)
        object.__setattr__(self, "event", ev)
        if self.joint.ndim != 2:
            raise InputFormatError("ensemble spec needs a 2-axis joint")
        if ev.shape != self.joint.shape:
            raise InputFormatError(
                f"event shape {ev.shape} does not match joint shape {self.joint.shape}"
            )
        check_sizes(self.M, self.L)


# ---------------------------------------------------------------------------
# multiset enumeration
# ---------------------------------------------------------------------------


def _multisets_exceed(M: int, k: int, cap: int) -> bool:
    """Whether the number of codeword multisets, ``C(M + k - 1, M)``, exceeds
    ``cap``, without building a count past the cap: ``C(n + i, i)`` grows
    with ``i`` up to ``min(M, k - 1)``."""
    n, count = max(M, k - 1), 1
    for i in range(1, min(M, k - 1) + 1):
        count = count * (n + i) // i
        if count > cap:
            return True
    return False


def _row_counts(idx: np.ndarray, k: int, dtype=np.int64) -> np.ndarray:
    """Per-row symbol counts of an (n, m) index array, as (n, k) int64, or
    float64 summed from unit weights, so that no int64 copy is held."""
    n = idx.shape[0]
    flat = (idx + np.arange(0, n * k, k)[:, None]).ravel()
    weights = None if dtype == np.int64 else np.ones(flat.size)
    return np.bincount(flat, weights, n * k).reshape(n, k)


def _iter_count_blocks(M: int, k: int) -> Iterator[np.ndarray]:
    """Yield (n, k) arrays of per-symbol codeword counts, ``_BLOCK`` at a time."""
    combos = combinations_with_replacement(range(k), M)
    while True:
        chunk = list(islice(combos, _BLOCK))
        if not chunk:
            return
        yield _row_counts(np.asarray(chunk, dtype=np.int64), k)


def _log_weights(counts: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log multinomial weight of each multiset under i.i.d. sampling from p.

    Returns (log_weights, valid); rows touching zero-probability symbols
    are flagged invalid (their weight is exactly zero).
    """
    M = int(counts[0].sum())
    log_fact = np.array([math.lgamma(i + 1) for i in range(M + 1)])
    valid = ~np.any((counts > 0) & (p == 0)[None, :], axis=1)
    safe_log = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    logw = (
        log_fact[M]
        - log_fact[counts].sum(axis=1)
        + (counts * safe_log[None, :]).sum(axis=1)
    )
    return logw, valid


def _pack(event: np.ndarray) -> np.ndarray:
    """Event rows as bits along the last axis, little-endian within each byte."""
    return np.packbits(event, axis=-1, bitorder="little")


def _hits(rows: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Per trial, whether a drawn column lies in the union of the drawn rows.

    ``rows`` holds each trial's drawn :func:`_pack` rows, (n, M, ceil(k/8));
    ``cols`` its drawn column indices, (n, L), out of ``k`` columns.
    """
    n = rows.shape[0]
    union = np.unpackbits(np.bitwise_or.reduce(rows, axis=1), axis=1, count=k,
                          bitorder="little")
    return union.ravel().take(np.arange(0, n * k, k)[:, None] + cols).any(axis=1)


def _hit_bytes(width: int, M: int, L: int, k: int) -> int:
    """Bytes one trial of :func:`_hits` holds: its ``M`` drawn packed rows of
    ``width`` bytes, their union packed and unpacked over ``k`` columns, and a
    flat int64 index and a flag for each of its ``L`` drawn columns."""
    return width * (M + 1) + k + 9 * L + 8


def _exact_miss(pu: np.ndarray, pv: np.ndarray, event: np.ndarray, M: int, L: int) -> float:
    """E[(1 - P_V(union of covered columns))^L] by a DP over covered sets.

    Symbols of positive mass whose event rows agree on the columns of
    positive mass form one class.  The covered sets reachable in at most
    M draws are found breadth first from the empty set, recording
    ``table[state, class] = state | row(class)``; the law of the covered
    set is then advanced through the table once per draw.
    """
    cols = pv > 0
    rows, inv = np.unique(event[pu > 0][:, cols], axis=0, return_inverse=True)
    q = np.bincount(inv.ravel(), weights=pu[pu > 0], minlength=len(rows))
    masks = [int.from_bytes(r.tobytes(), "little") for r in _pack(rows)]
    C = len(masks)

    def check_cap(sets: int) -> None:
        entries = sets * C
        if entries > DP_TABLE_CAP or M * (entries + _DRAW_OVERHEAD) > DP_CAP:
            raise EnumerationCapError(
                f"the covered-set DP needs at least {sets} covered sets x {C} symbol classes "
                f"x {count_text(M)} draws, above the cap; use the Monte Carlo estimator"
            )

    states, index, table = [0], {0: 0}, []
    expanded = 0
    for _ in range(M):
        # expand the sets first reached by the previous draw
        reached = len(states)
        for s in states[expanded:reached]:
            for m in masks:
                j = index.get(s | m)
                if j is None:
                    j = index[s | m] = len(states)
                    states.append(s | m)
                    check_cap(len(states))
                table.append(j)
        expanded = reached
        if expanded == len(states):
            break
    # a closure that stops early still costs M draws
    check_cap(len(states))
    # sets first reached by the last draw are never expanded; they hold
    # no mass before it, so the table covers every set that does
    successor = np.array(table, dtype=np.intp)
    dist = np.zeros(len(states))
    dist[0] = 1.0
    for _ in range(M):
        dist = np.bincount(successor, weights=np.multiply.outer(dist[:expanded], q).ravel(),
                           minlength=len(states))
    k = int(cols.sum())
    packed = b"".join(s.to_bytes((k + 7) // 8, "little") for s in states)
    covered = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(states), -1),
                            axis=1, count=k, bitorder="little")
    mass = covered @ pv[cols]
    return min(float(dist @ np.clip(1.0 - mass, 0.0, 1.0) ** size_double(L)), 1.0)


# ---------------------------------------------------------------------------
# mutual covering: miss probability
# ---------------------------------------------------------------------------


def exact_miss_prob(spec: EnsembleSpec) -> float:
    """Exact probability that no codeword pair lands in the event.

    Both codebooks are i.i.d. from the joint's marginals; the value is
    ``P[(U_m, V_l) outside the event for all m, l]``.
    """
    pu = spec.joint.probs.sum(axis=1)
    pv = spec.joint.probs.sum(axis=0)
    return _exact_miss(pu, pv, spec.event, spec.M, spec.L)


def exact_miss_prob_bruteforce(spec: EnsembleSpec) -> float:
    """Same value by raw enumeration of all |U|^M codebooks (cross-check).

    The codebooks are extended one codeword at a time, in lexicographic
    order; each carries its probability and its covered columns.
    """
    pu = spec.joint.probs.sum(axis=1)
    pv = spec.joint.probs.sum(axis=0)
    k, M = len(pu), spec.M
    # k**M is built only up to ``draws``: past it, 2**M alone exceeds the cap
    draws = BRUTEFORCE_CAP.bit_length() - 1
    if M > draws or k**M > BRUTEFORCE_CAP:
        raise EnumerationCapError(
            f"{k}^M raw codebooks exceed the brute-force caps of {BRUTEFORCE_CAP} codebooks "
            f"and {draws} draws"
        )
    weights = np.ones(1)
    covered = np.zeros((1, len(pv)), dtype=bool)
    for _ in range(M):
        weights = np.outer(weights, pu).ravel()
        covered = (covered[:, None] | spec.event[None]).reshape(-1, len(pv))
    # the power once per distinct miss mass (libm is slow on subnormal
    # results), gathered back by a binary search among the few distinct ones
    miss = np.clip(1.0 - covered @ pv, 0.0, 1.0)
    distinct = np.unique(miss)
    return float((weights * (distinct ** spec.L)[np.searchsorted(distinct, miss)]).sum())


def mc_miss_prob(spec: EnsembleSpec, trials: int, seed: int, threads: int = 1) -> rng.McEstimate:
    """Monte Carlo estimate of :func:`exact_miss_prob`.

    Each trial samples fresh codebooks and checks that every pair avoids
    the event; trial ``i`` is a deterministic function of ``(seed, i)``.
    """
    pu = spec.joint.probs.sum(axis=1)
    pv = spec.joint.probs.sum(axis=0)
    cdf_u = rng.thresholds(np.cumsum(pu))
    cdf_v = rng.thresholds(np.cumsum(pv))
    M, L = spec.M, spec.L
    packed = _pack(spec.event)
    kv = len(pv)

    def body(u: np.ndarray) -> float:
        us = rng.sample_categorical(cdf_u, u[:, :M])
        vs = rng.sample_categorical(cdf_v, u[:, M:])
        # a pair hits iff some column the U-codebook covers was drawn
        return float((~_hits(packed.take(us, axis=0), vs, kv)).sum())

    # per trial besides its uniform row: the drawn indices, then the larger
    # of the sampler's temporaries for the larger codebook (at most two int64
    # a draw, freed with its draw) and the hit test (see _hit_bytes)
    index = np.min_scalar_type(max(len(pu), kv) - 1).itemsize
    work = index * (M + L) + max(16 * max(M, L), _hit_bytes(packed.shape[-1], M, L, kv))
    total = rng.monte_carlo(trials, seed, M + L, body, work_bytes=work, threads=threads)
    return rng.estimate(total, trials, seed)


# ---------------------------------------------------------------------------
# conditional covering
# ---------------------------------------------------------------------------


def exact_conditional_miss_prob(joint3: Joint, event3: np.ndarray, M: int, L: int) -> float:
    """Exact miss probability for the conditional ensemble.

    A single conditioning symbol is drawn, then the two codebooks are
    i.i.d. from its conditional rows; the event tensor is sliced at the
    drawn symbol.
    """
    event3 = np.asarray(event3, dtype=bool)
    if joint3.ndim != 3 or event3.shape != joint3.shape:
        raise InputFormatError("conditional ensemble needs matching 3-axis joint and event")
    pu = joint3.probs.sum(axis=(1, 2))
    rows = conditional(joint3, 0)  # rows over (S, T) given u
    total = 0.0
    for u in range(len(pu)):
        if pu[u] == 0:
            continue
        st = rows[u]
        ps = st.sum(axis=1)
        pt = st.sum(axis=0)
        total += pu[u] * _exact_miss(ps, pt, event3[u], M, L)
    return total


def mc_conditional_miss_prob(
    joint3: Joint, event3: np.ndarray, M: int, L: int, trials: int, seed: int, threads: int = 1
) -> rng.McEstimate:
    """Monte Carlo counterpart of :func:`exact_conditional_miss_prob`."""
    event3 = np.asarray(event3, dtype=bool)
    pu = joint3.probs.sum(axis=(1, 2))
    st = conditional(joint3, 0)
    cdf_u = rng.thresholds(np.cumsum(pu))
    cdf_s = rng.thresholds(np.cumsum(st.sum(axis=2), axis=1))
    cdf_t = rng.thresholds(np.cumsum(st.sum(axis=1), axis=1))
    _, ks, kt = event3.shape
    packed = _pack(event3).reshape(-1, -(-kt // 8))

    def body(u: np.ndarray) -> float:
        us = rng.sample_categorical(cdf_u, u[:, 0])
        ss = rng.sample_categorical(cdf_s.take(us, axis=0)[:, None, :], u[:, 1 : 1 + M])
        ts = rng.sample_categorical(cdf_t.take(us, axis=0)[:, None, :], u[:, 1 + M :])
        # the drawn rows of the event, at flat offset u |S| + s
        rows = packed.take((us.astype(np.intp) * ks)[:, None] + ss, axis=0)
        return float((~_hits(rows, ts, kt)).sum())

    # per trial besides its uniform row: the drawn indices, then the largest
    # of one codebook's draw (its conditional cdf row and a flag per draw),
    # the gather of its rows (a flat offset and a packed row per draw) and
    # the hit test (see _hit_bytes)
    index = np.min_scalar_type(max(event3.shape) - 1).itemsize
    width = packed.shape[-1]
    work = index * (1 + M + L) + max(8 * max(ks, kt) + max(M, L), (8 + width) * M,
                                     _hit_bytes(width, M, L, kt))
    total = rng.monte_carlo(trials, seed, 1 + M + L, body, work_bytes=work, threads=threads)
    return rng.estimate(total, trials, seed)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def exact_packing_prob(joint: Joint, M: int, N: int, gamma: float) -> float:
    """Exact P[max over pairs of the density >= ln(MN) + gamma].

    All row codewords are i.i.d. from the first marginal, all column
    codewords i.i.d. from the second, mutually independent; the density
    is taken with respect to the given joint.
    """
    check_bound_args(gamma, M, N)
    above = info_density_table(joint) >= math.log(M * N) + gamma
    pu = joint.probs.sum(axis=1)
    pv = joint.probs.sum(axis=0)
    return 1.0 - _exact_miss(pu, pv, above, M, N)


# ---------------------------------------------------------------------------
# resolvability in excess information
# ---------------------------------------------------------------------------


def _excess_mass(phat: np.ndarray, pv: np.ndarray, lam: float) -> np.ndarray:
    """Row-wise mass of the synthesized law where it exceeds lam times the target.

    Strict inequality; points with zero target mass but positive
    synthesized mass exceed every threshold automatically.
    """
    mask = phat > lam * pv[None, :]
    return (phat * mask).sum(axis=1)


def _resolvability_inputs(joint: Joint, M: int, lam: float):
    """Validate ``M`` and ``lam``; returns ``P_U``, ``P_V`` and the rows of ``P_{V|U}``."""
    check_sizes(M)
    if not lam > 0:
        raise InputFormatError("lam must be > 0")
    return joint.probs.sum(axis=1), joint.probs.sum(axis=0), conditional(joint, 0)


def resolvability_excess_exact(joint: Joint, M: int, lam: float) -> float:
    """Ensemble-average excess-information probability, exactly.

    For each codeword multiset the synthesized output law is the
    count-weighted mixture of conditional rows; the value averages the
    synthesized mass of ``{v : ln(Phat(v)/P_V(v)) > ln(lam)}`` over the
    codebook ensemble.
    """
    pu, pv, rows = _resolvability_inputs(joint, M, lam)
    if _multisets_exceed(M, len(pu), MULTISET_CAP):
        raise EnumerationCapError(
            f"C(M + {len(pu) - 1}, M) codeword multisets exceed the cap of {MULTISET_CAP}; "
            "use the Monte Carlo estimator")
    total = 0.0
    for counts in _iter_count_blocks(M, len(pu)):
        logw, valid = _log_weights(counts, pu)
        phat = (counts.astype(np.float64) @ rows) / M
        total += float((np.exp(logw[valid]) * _excess_mass(phat[valid], pv, lam)).sum())
    return total


def mc_resolvability_excess(
    joint: Joint, M: int, lam: float, trials: int, seed: int, threads: int = 1
) -> rng.McEstimate:
    """Monte Carlo estimate of :func:`resolvability_excess_exact`.

    Each trial samples one codebook and computes its excess probability
    exactly; the estimate averages these per-codebook values.
    """
    pu, pv, rows = _resolvability_inputs(joint, M, lam)
    cdf_u = rng.thresholds(np.cumsum(pu))
    k = len(pu)

    def body(u: np.ndarray) -> list[float]:
        counts = _row_counts(rng.sample_categorical(cdf_u, u), k, np.float64)
        phat = (counts @ rows) / M
        return rng.exact_partials(_excess_mass(phat, pv, lam))

    # per trial besides its uniform row: the drawn indices, the counts, the
    # synthesized law with its excess mask and masked product, and its value
    # in the list that exact_partials sums (a float object and a pointer)
    partials = rng.monte_carlo(trials, seed, M, body,
                               work_bytes=16 * M + 8 * k + 17 * len(pv) + 32, threads=threads)
    return rng.estimate(math.fsum(partials), trials, seed)
