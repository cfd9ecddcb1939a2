"""Two-receiver broadcast with a common message: exact one-shot bound and
an executable random-coding simulator.

The scheme has a lower layer of ``M`` cloud codewords and, per cloud
codeword, inner codebooks of ``N x Nhat`` and ``L x Lhat`` satellite
codewords for the two receivers.  The encoder picks the inner pair
minimizing the mass of the bad output set; each decoder runs a two-stage
threshold search (cloud index, then satellite pair).

The bound and the density tables read only the law of (u, s, t) and the
two receiver marginals ``p(u,s,y1)`` and ``p(u,t,y2)``; the design joint
over (u, s, t, y1, y2) is never built for them.  Output symbols outside
the design support get density ``-inf`` ("no evidence"), which keeps the
decoders total without affecting any exactly computed probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .bounds import BoundReport, GammaSteps, check_bound_args, covering_ratio, doubleexp
from .errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    InputFormatError,
    UndefinedRowError,
)
from .probability import (Joint, Kernel, _iid_power, cond_info_density_table, input_array,
                          integral, log_ratio_table, product_extend)

#: cap on the entries of the largest array a broadcast evaluation builds: a
#: receiver marginal, an array of the union kernel, or (for the encoder and
#: the Monte Carlo cross-check) a table over (u, s, t, y1, y2)
JOINT_CAP = 10**7


def _check_cap(what: str, *entries: int) -> None:
    """Raise :class:`EnumerationCapError` before an array of more than
    ``JOINT_CAP`` entries is built; ``entries`` are the sizes of the arrays."""
    largest = max(entries)
    if largest > JOINT_CAP:
        raise EnumerationCapError(f"{what} with {largest} entries exceeds the cap of {JOINT_CAP}")


@dataclass(frozen=True)
class SchemeSizes:
    """Codebook sizes ``(M0, M10, M20, N, L, Nhat, Lhat)`` and derived products."""

    M0: int
    M10: int
    M20: int
    N: int
    L: int
    Nhat: int
    Lhat: int

    def __post_init__(self):
        for name in _SIZE_NAMES:
            if getattr(self, name) < 1:
                raise InputFormatError(f"sizes: {name} must be a positive integer")

    @property
    def M(self) -> int:
        return self.M0 * self.M10 * self.M20

    @property
    def Ntilde(self) -> int:
        return self.Nhat * self.N

    @property
    def Ltilde(self) -> int:
        return self.Lhat * self.L

    @classmethod
    def from_json(cls, doc: dict) -> "SchemeSizes":
        if not isinstance(doc, dict):
            raise InputFormatError("sizes: expected a JSON object")
        sizes = {}
        for name in _SIZE_NAMES:
            if name not in doc:
                raise InputFormatError(f"sizes: missing field {name!r}")
            value = doc[name]
            try:
                sizes[name] = integral(value)
            except (TypeError, ValueError):
                raise InputFormatError(f"sizes: {name} must be an integer, got {value!r}") from None
        return cls(**sizes)

    @classmethod
    def from_string(cls, text: str) -> "SchemeSizes":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != len(_SIZE_NAMES) or not all(p.lstrip("-").isdigit() for p in parts):
            raise InputFormatError(
                f"sizes: expected {len(_SIZE_NAMES)} comma-separated integers {','.join(_SIZE_NAMES)}"
            )
        return cls(*(int(p) for p in parts))

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _SIZE_NAMES}

    @cached_property
    def clause_logs(self) -> dict[str, float]:
        """``ln`` of each clause's size, keyed like :data:`CLAUSES`."""
        return {name: math.log(c.size(self)) for name, c in CLAUSES.items()}


_SIZE_NAMES = tuple(f.name for f in fields(SchemeSizes))


@dataclass(frozen=True)
class BroadcastSystem:
    """Design distribution, symbol map, and channel of a broadcast instance."""

    joint_ust: Joint
    x_map: np.ndarray
    channel: Kernel

    def __post_init__(self):
        xm = np.array(self.x_map, dtype=np.int64, copy=True)
        xm.setflags(write=False)
        object.__setattr__(self, "x_map", xm)
        if self.joint_ust.ndim != 3:
            raise AlphabetMismatchError("broadcast system needs a 3-axis design joint")
        if xm.shape != self.joint_ust.shape:
            raise AlphabetMismatchError(
                f"x_map shape {xm.shape} does not match joint shape {self.joint_ust.shape}"
            )
        if len(self.channel.out_shape) != 2:
            raise AlphabetMismatchError("channel rows must cover a product output (y1, y2)")
        if xm.min() < 0 or xm.max() >= self.channel.n_inputs:
            raise InputFormatError("x_map: symbol outside the channel input alphabet")
        if not self.channel.defined[xm].all():
            raise UndefinedRowError("channel row undefined for a symbol in the image of x_map")

    @property
    def shape(self) -> tuple[int, ...]:
        ku, ks, kt = self.joint_ust.shape
        ky1, ky2 = self.channel.out_shape
        return ku, ks, kt, ky1, ky2

    @cached_property
    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """The receiver marginals ``p(u,s,y1)`` and ``p(u,t,y2)``, built on
        first use: ``P(u,s,t) W_r(y_r | x(u,s,t))`` summed over the other
        auxiliary, ``W_r`` the channel's marginal rows for receiver ``r``.
        More than ``JOINT_CAP`` entries in one of them, or in the law of
        (u, s_r, x) each is read from, raise before allocation."""
        ku, ks, kt, ky1, ky2 = self.shape
        kx = self.channel.n_inputs
        _check_cap("receiver marginal", ku * ks * max(kx, ky1), ku * kt * max(kx, ky2))
        p, rows = self.joint_ust.probs, self.channel.rows
        return (_receiver_marginal(p, self.x_map, rows.sum(axis=2)),
                _receiver_marginal(p.transpose(0, 2, 1), self.x_map.transpose(0, 2, 1),
                                   rows.sum(axis=1)))

    @cached_property
    def tables(self) -> "DensityTables":
        """The system's :class:`DensityTables`, built on first use."""
        return DensityTables(self)

    @classmethod
    def from_json(cls, doc: dict) -> "BroadcastSystem":
        if not isinstance(doc, dict):
            raise InputFormatError("system: expected a JSON object")
        for key in ("p_ust", "x_map", "channel"):
            if key not in doc:
                raise InputFormatError(f"system: missing field {key!r}")
        return cls(
            Joint(doc["p_ust"]),
            input_array(doc["x_map"], "x_map", np.int64),
            Kernel.from_json(doc["channel"]),
        )


def _receiver_marginal(p_ust: np.ndarray, x_map: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_t p(u,s,t) w(y | x(u,s,t))`` over (u, s, y): the law of (u, s, x),
    summed by ``bincount`` over the last auxiliary, times the rows ``w``."""
    ku, ks, kt = p_ust.shape
    kx = w.shape[0]
    cells = (np.arange(ku * ks)[:, None] * kx + x_map.reshape(ku * ks, kt)).ravel()
    p_usx = np.bincount(cells, weights=p_ust.ravel(), minlength=ku * ks * kx)
    return (p_usx.reshape(ku * ks, kx) @ w).reshape(ku, ks, -1)


def product_extend_system(system: BroadcastSystem, n: int) -> BroadcastSystem:
    """i.i.d. n-letter extension of a broadcast system.

    Alphabets become n-fold products (row-major tuple indices) and the
    symbol map applies letterwise.
    """
    if n < 1:
        raise InputFormatError("product_extend_system: n must be >= 1")
    if n == 1:
        return system
    joint = product_extend(system.joint_ust, n)
    chan = product_extend(system.channel, n)
    # the input symbol of a tuple of letters is their row-major tuple index
    kx = system.channel.n_inputs
    x_map = _iid_power(system.x_map, n, lambda out, xm: np.add.outer(out * kx, xm))
    return BroadcastSystem(joint, x_map, chan)


class Clause(NamedTuple):
    """A threshold event: density table ``table`` passes ``test`` against
    ``ln(size(sizes)) + slope * gamma``; ``axes`` spreads it over
    (u, s, t, y1, y2)."""

    table: str
    test: Callable
    size: Callable[[SchemeSizes], int]
    slope: float
    axes: tuple


#: the five clauses by name: receiver r's head test on i(U S_r; Y_r) is
#: ``head{r}`` and its inner test on i(S_r; Y_r | U) is ``inner{r}`` (S_1 = S,
#: S_2 = T); ``cross`` is the encoder's test on i(S; T | U)
CLAUSES = {
    "head1": Clause("i_us_y1", np.less_equal, lambda z: z.M * z.Ntilde, 1.0,
                    np.s_[:, :, None, :, None]),
    "head2": Clause("i_ut_y2", np.less_equal, lambda z: z.M * z.Ltilde, 1.0,
                    np.s_[:, None, :, None, :]),
    "inner1": Clause("i_s_y1_u", np.less_equal, lambda z: z.Ntilde, 1.0,
                     np.s_[:, :, None, :, None]),
    "inner2": Clause("i_t_y2_u", np.less_equal, lambda z: z.Ltilde, 1.0,
                     np.s_[:, None, :, None, :]),
    "cross": Clause("i_s_t_u", np.greater, lambda z: z.Nhat * z.Lhat, -2.0,
                    np.s_[:, :, :, None, None]),
}


def thresholds_for(sizes: SchemeSizes, gamma: float) -> dict[str, float]:
    """Decoding/encoding thresholds in nats, keyed like :data:`CLAUSES`:
    ``ln(sizes) + gamma`` for the head and inner tests, ``ln(Nhat Lhat) -
    2 gamma`` for the cross test (``1.0 * gamma`` and ``-2.0 * gamma``
    round exactly as ``gamma`` and the negated ``2.0 * gamma``).

    The inner thresholds use the full inner-book sizes (Ntilde, Ltilde)
    everywhere, matching the bound statement and both decoders.
    """
    check_bound_args(gamma)
    logs = sizes.clause_logs
    return {name: logs[name] + c.slope * gamma for name, c in CLAUSES.items()}


class DensityTables:
    """Marginals and density tables of a design, precomputed once per system
    (read them as :attr:`BroadcastSystem.tables`) from the law of (u, s, t)
    and the receiver marginals :attr:`BroadcastSystem.marginals`.

    Every table comes from :func:`~oneshot.probability.log_ratio_table`:
    finite on the support and ``-inf`` where the relevant joint marginal
    vanishes.  The arrays of :meth:`union_probability` count against
    ``JOINT_CAP`` here, before anything is built.
    """

    def __init__(self, system: BroadcastSystem):
        ku, ks, kt, ky1, ky2 = self.shape = system.shape
        kx = system.channel.n_inputs
        _check_cap("union kernel", ku * kt * kx * ky1, ku * ks * kt * ky1)
        self.p_usy1, self.p_uty2 = system.marginals
        self.p_ust = system.joint_ust.probs
        self.p_u = self.p_ust.sum(axis=(1, 2))
        self.p_us = self.p_ust.sum(axis=2)
        self.p_ut = self.p_ust.sum(axis=1)
        self.p_uy1 = self.p_usy1.sum(axis=1)
        self.p_uy2 = self.p_uty2.sum(axis=1)
        self.p_y1 = self.p_uy1.sum(axis=0)
        self.p_y2 = self.p_uy2.sum(axis=0)

        self.i_us_y1 = log_ratio_table((self.p_usy1,), (self.p_us[:, :, None], self.p_y1))
        self.i_ut_y2 = log_ratio_table((self.p_uty2,), (self.p_ut[:, :, None], self.p_y2))
        self.i_s_y1_u = log_ratio_table((self.p_usy1, self.p_u[:, None, None]),
                                        (self.p_us[:, :, None], self.p_uy1[:, None, :]))
        self.i_t_y2_u = log_ratio_table((self.p_uty2, self.p_u[:, None, None]),
                                        (self.p_ut[:, :, None], self.p_uy2[:, None, :]))
        self.i_s_t_u = cond_info_density_table(system.joint_ust)
        # the union kernel's channel rows, receiver 2's marginal rows over
        # (y2, x) and the rows over (y2, x y1), and the flat index of
        # (u, t, x(u,s,t)) over (u, s, t)
        rows = system.channel.rows
        self._w2 = rows.sum(axis=1).T
        self._w_x_y1 = rows.reshape(kx * ky1, ky2).T
        self._utx = (np.arange(ku)[:, None, None] * kt + np.arange(kt)) * kx + system.x_map
        self._union_steps: dict[SchemeSizes, GammaSteps] = {}

    def clauses(self, thr: dict[str, float]) -> dict[str, np.ndarray]:
        """The five threshold events of the bound, each a boolean table over its
        own axes; a clause's ``axes`` spreads it over (u, s, t, y1, y2).  A
        ``-inf`` density falls in each ``<=`` clause, so the complements are
        exactly the decoders' passing tests."""
        return {name: c.test(getattr(self, c.table), thr[name])
                for name, c in CLAUSES.items()}

    def union_probability(self, c: dict[str, np.ndarray]) -> float:
        """The probability of the union of the clauses ``c`` (as from
        :meth:`clauses`): ``sum P(u,s,t) [cross ? 1 : bad mass]``.

        The bad mass of (u, s, t) is the channel mass of the outputs where
        a receiver's head or inner clause holds, A + B - A∧B with A and B
        the two receivers' shares.  It is summed as B plus the mass where
        receiver 1's clauses hold and receiver 2's pass, so every term is
        non-negative and a small union keeps its relative precision.  That
        last mass is one matmul of the channel rows against receiver 2's
        pass table for every (u, t), gathered at ``x(u,s,t)`` and summed
        against receiver 1's clauses over y1.  The matmuls are batched over
        u, which keeps each one small.  Rounding can take the sum past 1;
        it is clamped to 1, so the union's step table holds it clamped too.
        """
        ky1 = self.shape[3]
        bad1 = (c["head1"] | c["inner1"]).astype(np.float64)  # (u, s, y1)
        bad2 = (c["head2"] | c["inner2"]).astype(np.float64)  # (u, t, y2)
        b = (bad2 @ self._w2).take(self._utx)
        rest = ((1.0 - bad2) @ self._w_x_y1).reshape(-1, ky1).take(self._utx, axis=0)
        a_only = (rest @ bad1[:, :, :, None])[..., 0]
        return min(float((self.p_ust * np.where(c["cross"], 1.0, b + a_only)).sum()), 1.0)

    def union_mask(self, thr: dict[str, float]) -> np.ndarray:
        """The union of the five threshold events over (u, s, t, y1, y2), for
        the Monte Carlo cross-check (at most ``JOINT_CAP`` entries)."""
        _check_cap("design joint", math.prod(self.shape))
        c = self.clauses(thr)
        return _bad_outputs(c) | c["cross"][CLAUSES["cross"].axes]

    def union_steps(self, sizes: SchemeSizes) -> GammaSteps:
        """The union probability's step table for ``sizes``, built once: its
        breakpoints are the critical gammas of every clause."""
        steps = self._union_steps.get(sizes)
        if steps is None:
            steps = self._union_steps[sizes] = GammaSteps(
                [(getattr(self, c.table), c.test, sizes.clause_logs[name], c.slope)
                 for name, c in CLAUSES.items()],
                lambda g: self.union_probability(self.clauses(thresholds_for(sizes, g))))
        return steps


def _bad_outputs(c: dict[str, np.ndarray]) -> np.ndarray:
    """Where a receiver's head or inner clause holds, over (u, s, t, y1, y2)."""
    return ((c["head1"] | c["inner1"])[CLAUSES["head1"].axes]
            | (c["head2"] | c["inner2"])[CLAUSES["head2"].axes])


def zeta_table(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> np.ndarray:
    """Mass of the bad output set for every codeword triple (u, s, t), from
    the channel rows at ``x(u,s,t)`` gathered for this call.  More than
    ``JOINT_CAP`` entries over (u, s, t, y1, y2) raise
    :class:`EnumerationCapError` before they are allocated."""
    c = system.tables.clauses(thresholds_for(sizes, gamma))
    _check_cap("design joint", math.prod(system.shape))
    return (system.channel.rows[system.x_map] * _bad_outputs(c)).sum(axis=(3, 4))


def event_probabilities(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> float:
    """The exact probability of the union of the five threshold events
    (:meth:`DensityTables.union_probability`), evaluated once per interval of
    the step table for ``sizes`` (:meth:`DensityTables.union_steps`).  A
    gamma :func:`thresholds_for` rejects is rejected before the table is read."""
    check_bound_args(gamma)
    return system.tables.union_steps(sizes)(gamma)


def bound_terms(sizes: SchemeSizes, gamma: float, union: float) -> tuple:
    """The terms of :func:`broadcast_bound` at ``gamma``, ``union`` the union term."""
    return (
        ("twoexp", 2.0 * math.exp(-gamma)),
        ("doubleexp", doubleexp(gamma)),
        ("union", union),
        ("ratio", covering_ratio(sizes.Nhat, sizes.Lhat, gamma)),
    )


def broadcast_bound(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> BoundReport:
    """One-shot achievability bound on the worse of the two error
    probabilities (CLI kind ``broadcast``).

    Terms: the two change-of-measure tails ``2 e^{-gamma}``, the
    double-exponential slack, the exact five-event union probability,
    and the inner covering ratio.
    """
    union = event_probabilities(system, sizes, gamma)
    return BoundReport(bound_terms(sizes, gamma, union), {"sizes": sizes.to_json(), "gamma": gamma})


# ---------------------------------------------------------------------------
# codebook, encoder, decoders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """One realization of the three-layer random codebook."""

    u: np.ndarray  # (M,)
    s: np.ndarray  # (M, N, Nhat)
    t: np.ndarray  # (M, L, Lhat)

    def __post_init__(self):
        for name in ("u", "s", "t"):
            arr = np.array(getattr(self, name), dtype=np.int64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.u.ndim != 1 or self.s.ndim != 3 or self.t.ndim != 3:
            raise InputFormatError("codebook: u must be 1-D, s and t 3-D")
        if self.s.shape[0] != self.u.shape[0] or self.t.shape[0] != self.u.shape[0]:
            raise AlphabetMismatchError("codebook: layer leading dimensions disagree")


def message_index(sizes: SchemeSizes, w0: int, w10: int, w20: int) -> int:
    """Mixed-radix cloud index of the public parts, w0 most significant."""
    if not (0 <= w0 < sizes.M0 and 0 <= w10 < sizes.M10 and 0 <= w20 < sizes.M20):
        raise InputFormatError("message index out of range")
    return (w0 * sizes.M10 + w10) * sizes.M20 + w20


def message_split(sizes: SchemeSizes, m: int) -> tuple[int, int, int]:
    """Inverse of :func:`message_index`."""
    if not 0 <= m < sizes.M:
        raise InputFormatError("cloud index out of range")
    return m // (sizes.M10 * sizes.M20), (m // sizes.M20) % sizes.M10, m % sizes.M20


def sample_codebook(system: BroadcastSystem, sizes: SchemeSizes, seed: int,
                    trial: int = 0, random_message: bool = False) -> Codebook:
    """Draw one codebook from the generation law (cloud words i.i.d. from
    the u-marginal, satellites i.i.d. from the conditional rows).

    It is the codebook :func:`simulate` draws for ``trial`` under the
    same ``seed`` and ``random_message``.
    """
    sampler = _Sampler(system)
    u = rng.trial_uniforms(seed, trial, 1, _trial_budget(sizes, random_message))
    u_cb, s_cb, t_cb = _codebooks_from_uniforms(sampler, sizes, u[:, :_codebook_budget(sizes)])
    return Codebook(u_cb[0], s_cb[0], t_cb[0])


class _Sampler:
    """Cumulative mass vectors used by codebook/channel sampling."""

    def __init__(self, system: BroadcastSystem):
        tables = system.tables
        live = tables.p_u[:, None] > 0
        p_u = np.where(live, tables.p_u[:, None], 1.0)
        self.cdf_u = np.cumsum(tables.p_u)
        self.cdf_s = np.cumsum(np.where(live, tables.p_us / p_u, 0.0), axis=1)
        self.cdf_t = np.cumsum(np.where(live, tables.p_ut / p_u, 0.0), axis=1)
        self.cdf_chan = np.cumsum(system.channel.rows.reshape(system.channel.n_inputs, -1), axis=1)


def _codebook_budget(sizes: SchemeSizes) -> int:
    return sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat)


def _trial_budget(sizes: SchemeSizes, random_message: bool) -> int:
    """Uniforms per :func:`simulate` trial: the codebook block, five
    message uniforms if the message is random, then the channel uniform."""
    return _codebook_budget(sizes) + (5 if random_message else 0) + 1


def _trial_work_bytes(system: BroadcastSystem, sizes: SchemeSizes, reuse: int) -> int:
    """Bytes of work arrays a :func:`simulate` trial holds besides its
    uniforms: its share of the group leader's codebooks (one byte an entry
    up to 256 symbols), then the larger of two phases that are never live
    at once.  The draw is its share of the leader's cdf rows and hits.  The
    decoding is its share of the leader's symbol masks plus its own
    cloud-wide head test (masks and an index per cloud, or past 64 symbols
    a flat index per cloud and per satellite codeword, which the codeword
    symbols it is summed from and the gathered test each overlap, see
    :func:`_head_fires`), one cloud's inner test, the encoder's candidates
    and their masses, a channel cdf row and index vectors."""
    ku, ks, kt, ky1, ky2 = system.shape
    M, Nh, Lh = sizes.M, sizes.Nhat, sizes.Lhat
    cloud = max(sizes.N * Nh, sizes.L * Lh)  # satellite codewords per cloud
    index = np.min_scalar_type(max(ku, ks, kt) - 1).itemsize
    draw, masks, head = 8 * M * (max(ks, kt) + 1) + M * cloud, 0, 0
    for k in (ks, kt):
        if k <= 64:
            mask = np.min_scalar_type((1 << k) - 1).itemsize
            masks = max(masks, mask * M * (cloud + 1))
            head = max(head, M * (3 * mask + index + 2))
        else:
            head = max(head, M * ((8 + index) * cloud + 8))
    decode = (-(-masks // reuse) + head + (index + 1) * cloud + index * (Nh + Lh)
              + 8 * (Nh * Lh + ky1 * ky2 + 32))
    return -(-index * _codebook_budget(sizes) // reuse) + max(-(-draw // reuse), decode)


def _run_work_bytes(system: BroadcastSystem) -> int:
    """Bytes of the arrays a :func:`simulate` run builds and holds through
    all its chunks: the sampler's cdfs (the channel's over (x, y1 y2) is the
    largest), the five passing tests and the encoder's mass table."""
    ku, ks, kt, ky1, ky2 = system.shape
    kx = system.channel.n_inputs
    return (8 * (ku * (1 + ks + kt) + kx * ky1 * ky2) + 9 * ku * ks * kt
            + 2 * ku * (ks * ky1 + kt * ky2))


def _codebooks_from_uniforms(sampler: _Sampler, sizes: SchemeSizes,
                             u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = u.shape[0]
    M, N, Nh, L, Lh = sizes.M, sizes.N, sizes.Nhat, sizes.L, sizes.Lhat
    col = 0
    u_cb = rng.sample_categorical(sampler.cdf_u, u[:, col:col + M])
    col += M
    s_uni = u[:, col:col + M * N * Nh].reshape(n, M, N, Nh)
    col += M * N * Nh
    t_uni = u[:, col:col + M * L * Lh].reshape(n, M, L, Lh)
    s_cb = rng.sample_categorical(sampler.cdf_s[u_cb][:, :, None, None, :], s_uni)
    t_cb = rng.sample_categorical(sampler.cdf_t[u_cb][:, :, None, None, :], t_uni)
    return u_cb, s_cb, t_cb


def _head_fires(pass_head: np.ndarray, u_cb: np.ndarray, sat: np.ndarray, y: np.ndarray,
                lead: np.ndarray) -> np.ndarray:
    """Stage 1 of a decoder for each trial and cloud index: does some
    satellite codeword of the cloud pass the head test at the trial's
    output?  ``pass_head`` is the passing test over (u, s, y); ``u_cb``
    ``(G, M)`` and ``sat`` ``(G, M, J, Jhat)`` are the group leaders'
    codebooks; ``y`` (``np.intp``) and ``lead`` give each trial's output
    and leader.

    Up to 64 satellite symbols, the symbols a cloud holds and the symbols
    passing at (u, y) are bit masks in the smallest unsigned dtype with a
    bit per symbol, and the test is their AND; the leaders' masks serve
    every trial of their group.  Wider alphabets read the test from a flat
    (y, u, s) table."""
    ku, ks, _ = pass_head.shape
    if ks > 64:
        flat = pass_head.transpose(2, 0, 1).reshape(-1)
        base = (y[:, None] * ku + u_cb[lead]) * ks
        return flat.take(base[:, :, None, None] + sat[lead]).any(axis=(2, 3))
    dtype = np.min_scalar_type((1 << ks) - 1)
    held = np.bitwise_or.reduce(np.left_shift(dtype.type(1), sat).reshape(*u_cb.shape, -1),
                                axis=2)
    passing = np.bitwise_or.reduce(
        pass_head.astype(dtype) << np.arange(ks, dtype=dtype)[:, None], axis=1)  # (u, y)
    return (held[lead] & passing[u_cb[lead], y[:, None]]) != 0


class EncodeResult(NamedTuple):
    m: int
    a: int
    ahat: int
    b: int
    bhat: int
    x: int


def encode(cb: Codebook, system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
           w0: int, w10: int, w20: int, a: int, b: int,
           ztable: np.ndarray | None = None) -> EncodeResult:
    """Pick the inner pair minimizing the bad-set mass and emit the symbol.

    Ties resolve to the lexicographically smallest ``(ahat, bhat)``.
    """
    if not (0 <= a < sizes.N and 0 <= b < sizes.L):
        raise InputFormatError("message index out of range")
    m = message_index(sizes, w0, w10, w20)
    zt = ztable if ztable is not None else zeta_table(system, sizes, gamma)
    um = int(cb.u[m])
    svals = cb.s[m, a, :]
    tvals = cb.t[m, b, :]
    z = zt[um, svals[:, None], tvals[None, :]]
    flat = int(np.argmin(z.reshape(-1)))
    ahat, bhat = divmod(flat, sizes.Lhat)
    x = int(system.x_map[um, svals[ahat], tvals[bhat]])
    return EncodeResult(m, a, ahat, b, bhat, x)


class DecodeResult(NamedTuple):
    m0: int
    m10: int
    m20: int
    inner: int


def decode(cb: Codebook, system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
           y: int, receiver: int) -> DecodeResult | None:
    """Receiver ``receiver``'s two-stage threshold decoder at its output ``y``:
    the one cloud index some satellite of which passes the head test, then
    the one satellite of that cloud passing the inner test.  Receiver 1
    reads the s-layer, receiver 2 the t-layer.

    Returns None as the decoding-failure flag (no candidate, or ambiguity
    at either stage).
    """
    if receiver not in (1, 2):
        raise InputFormatError(f"receiver must be 1 or 2, got {receiver!r}")
    sat, cols = (cb.s, sizes.Nhat) if receiver == 1 else (cb.t, sizes.Lhat)
    thr = thresholds_for(sizes, gamma)
    head, inner = f"head{receiver}", f"inner{receiver}"
    # a test passes where its density exceeds the threshold: the clause fails
    head_vals = getattr(system.tables, CLAUSES[head].table)[cb.u[:, None, None], sat, y]
    fires = (head_vals > thr[head]).any(axis=(1, 2))
    if fires.sum() != 1:
        return None
    m = int(np.argmax(fires))
    hits = getattr(system.tables, CLAUSES[inner].table)[cb.u[m], sat[m], y] > thr[inner]
    if hits.sum() != 1:
        return None
    return DecodeResult(*message_split(sizes, m), int(np.argmax(hits.reshape(-1))) // cols)


# ---------------------------------------------------------------------------
# ensemble simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimOutcome:
    """Monte Carlo error estimates next to the evaluated bound."""

    eps1_hat: rng.McEstimate
    eps2_hat: rng.McEstimate
    bound: BoundReport
    trials: int
    seed: int
    stage1_eps1: rng.McEstimate
    stage1_eps2: rng.McEstimate

    def to_json(self) -> dict:
        return {
            "eps1_hat": self.eps1_hat.to_json(),
            "eps2_hat": self.eps2_hat.to_json(),
            "stage1_eps1": self.stage1_eps1.to_json(),
            "stage1_eps2": self.stage1_eps2.to_json(),
            "bound": self.bound.to_json(),
            "trials": self.trials,
            "seed": self.seed,
        }


def simulate(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
             trials: int, seed: int, threads: int = 1,
             reuse_codebook: int = 1, random_message: bool = False) -> SimOutcome:
    """Estimate both receivers' error probabilities over the codebook ensemble.

    Each trial draws a fresh codebook (unless ``reuse_codebook`` groups
    trials), encodes the all-ones message (or a uniformly random one),
    passes the symbol through the channel, and runs both decoders.  A
    receiver errs when its decoder flags failure or any decoded
    coordinate differs from the truth.

    ``reuse_codebook=k`` shares one codebook across groups of ``k``
    consecutive trials, drawn only by the group's first trial; the
    reported standard error then underestimates the ensemble variance.
    Where :func:`rng.skips_rows`, the other trials generate only the
    message and channel uniforms at the end of their rows; every trial reads
    the same numbers as without reuse.  Trials run in chunks of whole reuse
    groups, sized by :func:`rng.monte_carlo`.
    """
    if trials < 1:
        raise InputFormatError("trials must be >= 1")
    if reuse_codebook < 1:
        raise InputFormatError("reuse_codebook must be >= 1")
    # evaluated first, so that a gamma the bound rejects costs no trials
    bound = broadcast_bound(system, sizes, gamma)
    cb_width = _codebook_budget(sizes)
    budget = _trial_budget(sizes, random_message)
    sampler = _Sampler(system)
    # decoder tests thresholded once: gathering booleans is cheaper than
    # gathering densities and comparing them trial by trial
    passing = {name: ~mask
               for name, mask in system.tables.clauses(thresholds_for(sizes, gamma)).items()}
    ztable = zeta_table(system, sizes, gamma)
    N, Nh, L, Lh = sizes.N, sizes.Nhat, sizes.L, sizes.Lhat
    x_map = system.x_map
    ky2 = system.shape[4]

    def body(uniforms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        # chunks start at group boundaries: the leaders' rows hold the
        # codebooks, which every trial of the group then uses, and each
        # trial's tail holds its message and channel uniforms
        lead_uni, tails = uniforms
        n = tails.shape[0]
        u_cb, s_cb, t_cb = _codebooks_from_uniforms(sampler, sizes, lead_uni[:, :cb_width])
        rows = np.arange(n)
        lead = rows // reuse_codebook
        if random_message:
            radix = np.array([sizes.M0, sizes.M10, sizes.M20, N, L])
            w0, w10, w20, a, b = np.minimum((tails[:, :-1] * radix).astype(np.int64), radix - 1).T
            m_true = (w0 * sizes.M10 + w10) * sizes.M20 + w20
        else:
            m_true = a = b = np.zeros(n, dtype=np.int64)  # read only

        u_sel = u_cb[lead, m_true]
        s_inner = s_cb[lead, m_true, a, :]      # (n, Nhat)
        t_inner = t_cb[lead, m_true, b, :]      # (n, Lhat)
        z = ztable[u_sel[:, None, None], s_inner[:, :, None], t_inner[:, None, :]]
        flat = z.reshape(n, -1).argmin(axis=1)
        ahat, bhat = flat // Lh, flat % Lh
        x = x_map[u_sel, s_inner[rows, ahat], t_inner[rows, bhat]]

        y_flat = rng.sample_categorical(sampler.cdf_chan[x], tails[:, -1]).astype(np.intp)
        y1, y2 = y_flat // ky2, y_flat % ky2

        def side(receiver, sat, y, truth_inner, cols):
            pass_head, pass_inner = passing[f"head{receiver}"], passing[f"inner{receiver}"]
            fires = _head_fires(pass_head, u_cb, sat, y, lead)
            cnt = fires.sum(axis=1)
            m_hat = fires.argmax(axis=1)
            ok_head = (cnt == 1) & (m_hat == m_true)
            stage1_err = ~ok_head
            sat_m = sat[lead, m_hat]
            ivals = pass_inner[u_cb[lead, m_hat][:, None, None], sat_m, y[:, None, None]]
            pcnt = ivals.reshape(n, -1).sum(axis=1)
            inner_hat = ivals.reshape(n, -1).argmax(axis=1) // cols
            ok = ok_head & (pcnt == 1) & (inner_hat == truth_inner)
            return ~ok, stage1_err

        err1, s1err1 = side(1, s_cb, y1, a, Nh)
        err2, s1err2 = side(2, t_cb, y2, b, Lh)
        return np.array([err1.sum(), err2.sum(), s1err1.sum(), s1err2.sum()], dtype=np.float64)

    totals = rng.monte_carlo(trials, seed, budget, body,
                             work_bytes=_trial_work_bytes(system, sizes, reuse_codebook),
                             fixed_bytes=_run_work_bytes(system),
                             group=reuse_codebook, tail=budget - cb_width, threads=threads)
    eps1, eps2, stage1_eps1, stage1_eps2 = (rng.estimate(tot, trials, seed) for tot in totals)
    return SimOutcome(eps1, eps2, bound, trials, seed, stage1_eps1, stage1_eps2)


def mc_event_union(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                   trials: int, seed: int, threads: int = 1) -> rng.McEstimate:
    """Monte Carlo estimate of the five-event union probability under the
    design joint (cross-check for the exact union term)."""
    ku, ks, kt, ky1, ky2 = system.shape
    union_flat = system.tables.union_mask(thresholds_for(sizes, gamma)).reshape(ku * ks * kt, ky1 * ky2)
    cdf_ust = np.cumsum(system.joint_ust.probs.reshape(-1))
    cdf_chan = _Sampler(system).cdf_chan
    x_flat = system.x_map.reshape(-1)

    def body(u: np.ndarray) -> float:
        ust = rng.sample_categorical(cdf_ust, u[:, 0])
        y = rng.sample_categorical(cdf_chan[x_flat[ust]], u[:, 1])
        return float(union_flat[ust, y].sum())

    # per trial besides its uniform row: three drawn indices and a channel cdf row
    total = rng.monte_carlo(trials, seed, 2, body, work_bytes=24 + 8 * ky1 * ky2, threads=threads)
    return rng.estimate(total, trials, seed)
