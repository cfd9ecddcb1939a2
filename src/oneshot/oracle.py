"""Exact codebook-ensemble probabilities and Monte Carlo estimators.

The exact routines enumerate codebooks up to reordering: the quantities
of interest (the per-codebook covered set, the synthesized output law,
the packing threshold set) depend only on the *multiset* of codewords,
so enumeration runs over compositions of the codebook size with
multinomial weights instead of over all ``|U|^M`` raw codebooks.
Multinomial weights are computed in log space so sizes up to a few
dozen codewords stay exact.

Monte Carlo estimators draw their per-trial randomness from
counter-based streams (:mod:`oneshot.rng`), so a fixed ``(seed, trials)``
pair gives bitwise-identical results for any chunking or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice
from typing import Iterator

import numpy as np

from . import rng
from .errors import AlphabetMismatchError, EnumerationCapError, InputFormatError
from .probability import Joint, conditional, info_density_table

#: cap on the number of codeword multisets an exact computation may visit
MULTISET_CAP = 10**6

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
            raise AlphabetMismatchError("ensemble spec needs a 2-axis joint")
        if ev.shape != self.joint.shape:
            raise AlphabetMismatchError(
                f"event shape {ev.shape} does not match joint shape {self.joint.shape}"
            )
        if self.M < 1 or self.L < 1:
            raise InputFormatError("codebook sizes must be positive")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its worst-case binomial standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "trials": self.trials,
            "seed": self.seed,
        }


def _estimate(total: float, trials: int, seed: int) -> McEstimate:
    mean = total / trials
    return McEstimate(mean, rng.bernoulli_stderr(mean, trials), trials, seed)


# ---------------------------------------------------------------------------
# multiset enumeration
# ---------------------------------------------------------------------------


def multiset_count(M: int, k: int) -> int:
    """Number of codeword multisets: C(M + k - 1, M)."""
    return math.comb(M + k - 1, M)


def _check_cap(M: int, k: int, cap: int = MULTISET_CAP) -> None:
    n = multiset_count(M, k)
    if n > cap:
        raise EnumerationCapError(
            f"{n} codeword multisets exceed the cap of {cap}; use the Monte Carlo estimator"
        )


def _iter_count_blocks(M: int, k: int, block: int = _BLOCK) -> Iterator[np.ndarray]:
    """Yield (n, k) arrays of per-symbol codeword counts, block by block."""
    combos = combinations_with_replacement(range(k), M)
    while True:
        chunk = list(islice(combos, block))
        if not chunk:
            return
        idx = np.asarray(chunk, dtype=np.int64)
        counts = np.zeros((idx.shape[0], k), dtype=np.int64)
        np.add.at(counts, (np.arange(idx.shape[0])[:, None], idx), 1)
        yield counts


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


def _exact_miss(pu: np.ndarray, pv: np.ndarray, event: np.ndarray, M: int, L: int) -> float:
    """E[(1 - P_V(union of covered columns))^L] over codeword multisets."""
    _check_cap(M, len(pu))
    ev = event.astype(np.float64)
    total = 0.0
    for counts in _iter_count_blocks(M, len(pu)):
        logw, valid = _log_weights(counts, pu)
        covered = (counts > 0).astype(np.float64) @ ev > 0
        mass = covered @ pv
        vals = np.exp(logw[valid]) * np.clip(1.0 - mass[valid], 0.0, 1.0) ** L
        total += float(vals.sum())
    return min(total, 1.0)


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
    """Same value by raw enumeration of all |U|^M codebooks (cross-check)."""
    pu = spec.joint.probs.sum(axis=1)
    pv = spec.joint.probs.sum(axis=0)
    k = len(pu)
    n_books = k**spec.M
    if n_books > BRUTEFORCE_CAP:
        raise EnumerationCapError(
            f"{n_books} raw codebooks exceed the brute-force cap of {BRUTEFORCE_CAP}"
        )
    books = np.indices((k,) * spec.M).reshape(spec.M, -1).T
    weights = pu[books].prod(axis=1)
    covered = spec.event[books].any(axis=1)
    mass = covered @ pv
    return float((weights * np.clip(1.0 - mass, 0.0, 1.0) ** spec.L).sum())


def mc_miss_prob(spec: EnsembleSpec, trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of :func:`exact_miss_prob`.

    Each trial samples fresh codebooks and checks that every pair avoids
    the event; trial ``i`` is a deterministic function of ``(seed, i)``.
    """
    pu = spec.joint.probs.sum(axis=1)
    pv = spec.joint.probs.sum(axis=0)
    cdf_u = np.cumsum(pu)
    cdf_v = np.cumsum(pv)
    M, L = spec.M, spec.L
    event = spec.event

    def worker(start: int, n: int) -> float:
        u = rng.trial_uniforms(seed, start, n, M + L)
        us = rng.sample_categorical(cdf_u, u[:, :M])
        vs = rng.sample_categorical(cdf_v, u[:, M:])
        hit = event[us[:, :, None], vs[:, None, :]].any(axis=(1, 2))
        return float((~hit).sum())

    parts = rng.run_trials(trials, worker, threads=threads)
    return _estimate(sum(parts), trials, seed)


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
        raise AlphabetMismatchError("conditional ensemble needs matching 3-axis joint and event")
    pu = joint3.probs.sum(axis=(1, 2))
    ks = conditional(joint3, 0)  # rows over (S, T) given u
    total = 0.0
    for u in range(len(pu)):
        if pu[u] == 0:
            continue
        st = ks.row(u)
        ps = st.sum(axis=1)
        pt = st.sum(axis=0)
        total += pu[u] * _exact_miss(ps, pt, event3[u], M, L)
    return total


def mc_conditional_miss_prob(
    joint3: Joint, event3: np.ndarray, M: int, L: int, trials: int, seed: int, threads: int = 1
) -> McEstimate:
    """Monte Carlo counterpart of :func:`exact_conditional_miss_prob`."""
    event3 = np.asarray(event3, dtype=bool)
    pu = joint3.probs.sum(axis=(1, 2))
    st = conditional(joint3, 0).matrix()
    cdf_u = np.cumsum(pu)
    cdf_s = np.cumsum(st.sum(axis=2), axis=1)
    cdf_t = np.cumsum(st.sum(axis=1), axis=1)

    def worker(start: int, n: int) -> float:
        u = rng.trial_uniforms(seed, start, n, 1 + M + L)
        us = rng.sample_categorical(cdf_u, u[:, 0])
        ss = rng.sample_categorical(cdf_s[us][:, None, :], u[:, 1 : 1 + M])
        ts = rng.sample_categorical(cdf_t[us][:, None, :], u[:, 1 + M :])
        hit = event3[us[:, None, None], ss[:, :, None], ts[:, None, :]].any(axis=(1, 2))
        return float((~hit).sum())

    parts = rng.run_trials(trials, worker, threads=threads)
    return _estimate(sum(parts), trials, seed)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def exact_packing_prob(joint: Joint, M: int, N: int, gamma: float) -> float:
    """Exact P[max over pairs of the density >= ln(MN) + gamma].

    All row codewords are i.i.d. from the first marginal, all column
    codewords i.i.d. from the second, mutually independent; the density
    is taken with respect to the given joint.
    """
    if gamma <= 0:
        raise InputFormatError("gamma must be > 0")
    table = info_density_table(joint)
    thr = math.log(M * N) + gamma
    with np.errstate(invalid="ignore"):
        above = np.where(np.isnan(table), False, table >= thr)
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


def resolvability_excess_exact(joint: Joint, M: int, lam: float) -> float:
    """Ensemble-average excess-information probability, exactly.

    For each codeword multiset the synthesized output law is the
    count-weighted mixture of conditional rows; the value averages the
    synthesized mass of ``{v : ln(Phat(v)/P_V(v)) > ln(lam)}`` over the
    codebook ensemble.
    """
    if lam <= 0:
        raise InputFormatError("lam must be > 0")
    pu = joint.probs.sum(axis=1)
    pv = joint.probs.sum(axis=0)
    rows = conditional(joint, 0).matrix()
    _check_cap(M, len(pu))
    total = 0.0
    for counts in _iter_count_blocks(M, len(pu)):
        logw, valid = _log_weights(counts, pu)
        phat = (counts.astype(np.float64) @ rows) / M
        total += float((np.exp(logw[valid]) * _excess_mass(phat[valid], pv, lam)).sum())
    return total


def mc_resolvability_excess(
    joint: Joint, M: int, lam: float, trials: int, seed: int, threads: int = 1
) -> McEstimate:
    """Monte Carlo estimate of :func:`resolvability_excess_exact`.

    Each trial samples one codebook and computes its excess probability
    exactly; the estimate averages these per-codebook values.
    """
    if lam <= 0:
        raise InputFormatError("lam must be > 0")
    pu = joint.probs.sum(axis=1)
    pv = joint.probs.sum(axis=0)
    rows = conditional(joint, 0).matrix()
    cdf_u = np.cumsum(pu)
    k = len(pu)

    def worker(start: int, n: int) -> float:
        u = rng.trial_uniforms(seed, start, n, M)
        cs = rng.sample_categorical(cdf_u, u)
        counts = np.zeros((n, k), dtype=np.float64)
        np.add.at(counts, (np.arange(n)[:, None], cs), 1.0)
        phat = (counts @ rows) / M
        return float(_excess_mass(phat, pv, lam).sum())

    parts = rng.run_trials(trials, worker, threads=threads)
    return _estimate(sum(parts), trials, seed)
