"""Two-receiver broadcast with a common message: exact one-shot bound and
an executable random-coding simulator.

The scheme has a lower layer of ``M`` cloud codewords and, per cloud
codeword, inner codebooks of ``N x Nhat`` and ``L x Lhat`` satellite
codewords for the two receivers.  The encoder picks the inner pair
minimizing the mass of the bad output set; each decoder runs a two-stage
threshold search (cloud index, then satellite pair).

Everything reads only the law of (u, s, t) and the receiver marginals
``p(u,s,y1)`` and ``p(u,t,y2)``; the bound and the encoder share one
bad-mass kernel, and no array over (u, s, t, y1, y2) is built.  Output
symbols outside the design support get density ``-inf`` ("no evidence"),
which keeps the decoders total without affecting any exactly computed
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .bounds import BoundReport, GammaSteps, check_bound_args, covering_ratio, doubleexp
from .errors import EnumerationCapError, InputFormatError, count_text
from .probability import (Joint, Kernel, _iid_power, cond_info_density_table, input_array,
                          integral, log_ratio_table, product_extend)

#: cap on the entries of the largest array a broadcast evaluation builds: a
#: receiver marginal, the law of (u, s_r, x) it is read from, an array of
#: the bad-mass kernel or one of the exact oracle
JOINT_CAP = 10**7


def _check_cap(what: str, *entries: int) -> None:
    """Raise :class:`EnumerationCapError` before an array of more than
    ``JOINT_CAP`` entries is built; ``entries`` are the sizes of the arrays."""
    largest = max(entries)
    if largest > JOINT_CAP:
        raise EnumerationCapError(
            f"{what} with {count_text(largest)} entries exceeds the cap of {JOINT_CAP}")


@dataclass(frozen=True)
class SchemeSizes:
    """The sizes ``(M0, M10, M20, N, L, Nhat, Lhat)`` of a codebook and derived products."""

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
        if len(parts) != len(_SIZE_NAMES) or not all(p.removeprefix("-").isdecimal() for p in parts):
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
            raise InputFormatError("broadcast system needs a 3-axis design joint")
        if xm.shape != self.joint_ust.shape:
            raise InputFormatError(
                f"x_map shape {xm.shape} does not match joint shape {self.joint_ust.shape}"
            )
        if len(self.channel.out_shape) != 2:
            raise InputFormatError("channel rows must cover a product output (y1, y2)")
        if xm.min() < 0 or xm.max() >= self.channel.n_inputs:
            raise InputFormatError("x_map: symbol outside the channel input alphabet")

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
    ``ln(size(sizes)) + slope * gamma``."""

    table: str
    test: Callable
    size: Callable[[SchemeSizes], int]
    slope: float


#: the five clauses by name: receiver r's head test on i(U S_r; Y_r) is
#: ``head{r}`` and its inner test on i(S_r; Y_r | U) is ``inner{r}`` (S_1 = S,
#: S_2 = T); ``cross`` is the encoder's test on i(S; T | U)
CLAUSES = {
    "head1": Clause("i_us_y1", np.less_equal, lambda z: z.M * z.Ntilde, 1.0),
    "head2": Clause("i_ut_y2", np.less_equal, lambda z: z.M * z.Ltilde, 1.0),
    "inner1": Clause("i_s_y1_u", np.less_equal, lambda z: z.Ntilde, 1.0),
    "inner2": Clause("i_t_y2_u", np.less_equal, lambda z: z.Ltilde, 1.0),
    "cross": Clause("i_s_t_u", np.greater, lambda z: z.Nhat * z.Lhat, -2.0),
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
    vanishes.  The arrays of :meth:`bad_mass` count against ``JOINT_CAP``
    here, before anything is built.
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
        # the rows of P(s | u) and P(t | u), zeros at a cloud symbol of no mass
        p_u = np.where(self.p_u > 0, self.p_u, 1.0)[:, None]
        self.p_s_u, self.p_t_u = self.p_us / p_u, self.p_ut / p_u
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
        # the bad-mass kernel's channel rows, receiver 2's marginal rows over
        # (y2, x) and the rows over (y2, x y1), and the flat index of
        # (u, t, x(u,s,t)) over (u, s, t)
        rows = system.channel.rows
        self._w2 = rows.sum(axis=1).T
        self._w_x_y1 = rows.reshape(kx * ky1, ky2).T
        self._utx = (np.arange(ku)[:, None, None] * kt + np.arange(kt)) * kx + system.x_map
        self._union_steps: dict[SchemeSizes, GammaSteps] = {}

    def clauses(self, thr: dict[str, float]) -> dict[str, np.ndarray]:
        """The five threshold events of the bound, each a boolean table over its
        own axes: (u, s, y1) for receiver 1's, (u, t, y2) for receiver 2's
        and (u, s, t) for the cross clause.  A ``-inf`` density falls in each
        ``<=`` clause, so the complements are exactly the decoders' passing
        tests."""
        return {name: c.test(getattr(self, c.table), thr[name])
                for name, c in CLAUSES.items()}

    def bad_mass(self, c: dict[str, np.ndarray]) -> np.ndarray:
        """The channel mass over (u, s, t) of the outputs where a receiver's
        head or inner clause of ``c`` (as from :meth:`clauses`) holds: A + B -
        A∧B with A and B the two receivers' shares.

        It is summed as B plus the mass where receiver 1's clauses hold and
        receiver 2's pass, so every term is non-negative and a small mass
        keeps its relative precision.  That last mass is one matmul of the
        channel rows against receiver 2's pass table for every (u, t),
        gathered at ``x(u,s,t)`` and summed against receiver 1's clauses
        over y1.  The matmuls are batched over u, which keeps each one small.
        """
        ky1 = self.shape[3]
        bad1 = (c["head1"] | c["inner1"]).astype(np.float64)  # (u, s, y1)
        bad2 = (c["head2"] | c["inner2"]).astype(np.float64)  # (u, t, y2)
        b = (bad2 @ self._w2).take(self._utx)
        rest = ((1.0 - bad2) @ self._w_x_y1).reshape(-1, ky1).take(self._utx, axis=0)
        return b + (rest @ bad1[:, :, :, None])[..., 0]

    def union_probability(self, c: dict[str, np.ndarray]) -> float:
        """The probability of the union of the clauses ``c``:
        ``sum P(u,s,t) [cross ? 1 : bad mass]``.  Rounding can take the sum
        past 1; it is clamped to 1, so the union's step table holds it
        clamped too."""
        return min(float((self.p_ust * np.where(c["cross"], 1.0, self.bad_mass(c))).sum()), 1.0)

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


def zeta_table(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> np.ndarray:
    """Mass of the bad output set for every codeword triple (u, s, t), the
    encoder's objective (:meth:`DensityTables.bad_mass`)."""
    tables = system.tables
    return tables.bad_mass(tables.clauses(thresholds_for(sizes, gamma)))


def event_probabilities(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> float:
    """The exact probability of the union of the five threshold events
    (:meth:`DensityTables.union_probability`), evaluated once per interval of
    the step table for ``sizes`` (:meth:`DensityTables.union_steps`).  A
    gamma :func:`thresholds_for` rejects is rejected before the table is read."""
    check_bound_args(gamma)
    return system.tables.union_steps(sizes)(gamma)


def bound_values(sizes: SchemeSizes, gamma: float, union: float) -> tuple[float, ...]:
    """The values of :func:`bound_terms`, in order."""
    return (2.0 * math.exp(-gamma), doubleexp(gamma), union,
            covering_ratio(sizes.Nhat, sizes.Lhat, gamma))


def bound_terms(sizes: SchemeSizes, gamma: float, union: float) -> tuple:
    """The terms of :func:`broadcast_bound` at ``gamma``, ``union`` the union term."""
    return tuple(zip(("twoexp", "doubleexp", "union", "ratio"), bound_values(sizes, gamma, union)))


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
# codebook sampling and the decoders' head test
# ---------------------------------------------------------------------------


class _Sampler:
    """The :func:`rng.thresholds` of the cumulative mass vectors used by
    codebook/channel sampling, built once per run."""

    def __init__(self, system: BroadcastSystem):
        tables = system.tables
        self.cdf_u = rng.thresholds(np.cumsum(tables.p_u))
        self.cdf_s = rng.thresholds(np.cumsum(tables.p_s_u, axis=1))
        self.cdf_t = rng.thresholds(np.cumsum(tables.p_t_u, axis=1))
        self.cdf_chan = rng.thresholds(
            np.cumsum(system.channel.rows.reshape(system.channel.n_inputs, -1), axis=1))


def _codebook_budget(sizes: SchemeSizes) -> int:
    return sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat)


def _trial_budget(sizes: SchemeSizes, random_message: bool) -> int:
    """Uniforms per :func:`simulate` trial: the codebook block, then, in
    the tail read from the child stream, five message uniforms if the
    message is random and the channel uniform."""
    return _codebook_budget(sizes) + (5 if random_message else 0) + 1


def _trial_work_bytes(system: BroadcastSystem, sizes: SchemeSizes, reuse: int) -> int:
    """Bytes of work arrays a :func:`simulate` trial holds besides its
    uniforms: its share of its group's codebooks (one byte an entry
    up to 256 symbols), then the larger of two phases that are never live
    at once.  The draw is its share of its group's cdf rows and hits.  The
    decoding is its share of its group's symbol masks and cloud codewords
    (``np.intp``, cloud-major), plus its own cloud-wide head test (masks and
    a flat offset per cloud, or past 64 symbols a flat offset per cloud and
    per satellite codeword, which the codeword symbols it is summed from and
    the gathered test each overlap, see :func:`_head_fires`), one cloud's
    inner test, the encoder's candidates and their masses, a channel cdf row
    and index vectors.  Besides the draw's gather of cdf rows, which widens
    the group's cloud codewords to ``np.intp`` (counted with the rows),
    every ``take`` of the kernel reads ``np.intp`` offsets, so none builds a
    converted copy of its index array."""
    ku, ks, kt, ky1, ky2 = system.shape
    M, Nh, Lh = sizes.M, sizes.Nhat, sizes.Lhat
    cloud = max(sizes.N * Nh, sizes.L * Lh)  # satellite codewords per cloud
    index = np.min_scalar_type(max(ku, ks, kt) - 1).itemsize
    draw, masks, head = 8 * M * (max(ks, kt) + 1) + M * cloud, 8 * M, 0
    for k in (ks, kt):
        if k <= 64:
            mask = np.min_scalar_type((1 << k) - 1).itemsize
            masks = max(masks, mask * M * (cloud + 2) + 8 * M)
            head = max(head, M * (3 * mask + 9))
        else:
            head = max(head, M * ((8 + index) * cloud + 8))
    decoding = (-(-masks // reuse) + head + (index + 1) * cloud + index * (Nh + Lh)
                + 8 * (Nh * Lh + ky1 * ky2 + 32))
    return -(-index * _codebook_budget(sizes) // reuse) + max(-(-draw // reuse), decoding)


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
    """The codebooks drawn from the group rows ``u`` ``(G, width)``: the
    cloud codewords ``(G, M)`` and the satellite codebooks codeword-major,
    ``(N Nhat, G, M)`` and ``(L Lhat, G, M)``, codeword ``a Nhat + h`` of
    cloud ``m`` of group ``g`` at ``[a Nhat + h, g, m]``.  A row holds the
    ``M`` cloud words, then receiver 1's satellite words codeword by
    codeword, each codeword's ``M`` clouds together, then receiver 2's the
    same way; so each satellite draw compares a contiguous run of ``M``
    words with the cdf rows of the group's clouds, gathered by ``take``."""
    n = u.shape[0]
    M, J1, J2 = sizes.M, sizes.Ntilde, sizes.Ltilde
    u_cb = rng.sample_categorical(sampler.cdf_u, u[:, :M])
    s_uni = u[:, M:M + M * J1].reshape(n, J1, M).transpose(1, 0, 2)
    t_uni = u[:, M + M * J1:M + M * (J1 + J2)].reshape(n, J2, M).transpose(1, 0, 2)
    s_cb = rng.sample_categorical(sampler.cdf_s.take(u_cb, axis=0), s_uni)
    t_cb = rng.sample_categorical(sampler.cdf_t.take(u_cb, axis=0), t_uni)
    return u_cb, s_cb, t_cb


def _head_fires(pass_head: np.ndarray, u_cb: np.ndarray, sat: np.ndarray, y: np.ndarray,
                lead: np.ndarray) -> np.ndarray:
    """Stage 1 of a decoder, ``(M, n)``, for each cloud index and trial: does
    some satellite codeword of the cloud pass the head test at the trial's
    output?  ``pass_head`` is the passing test over (u, s, y); ``u_cb``
    ``(G, M)`` and ``sat`` ``(J, G, M)`` are the groups' codebooks,
    the satellites codeword-major (as from :func:`_codebooks_from_uniforms`);
    ``y`` (``np.intp``) and ``lead`` give each trial's output and group.

    Up to 64 satellite symbols, the symbols a cloud holds and the symbols
    passing at (u, y) are bit masks in the smallest unsigned dtype with a
    bit per symbol, and the test is their AND; the groups' masks, an OR
    over the outer codeword axis, serve every trial of their group.  Wider
    alphabets read the test from a flat (y, u, s) table.  Every gather is a
    ``take``, of rows or at flat offsets."""
    ku, ks, ky = pass_head.shape
    # each trial's cloud codewords, turned into flat offsets in place
    uy = np.ascontiguousarray(u_cb.T, dtype=np.intp).take(lead, axis=1)  # (M, n)
    if ks > 64:
        uy += y * ku
        uy *= ks
        flat = pass_head.transpose(2, 0, 1).reshape(-1)  # (y, u, s)
        return flat.take(uy + sat.take(lead, axis=1).transpose(0, 2, 1)).any(axis=0)
    uy *= ky
    uy += y
    dtype = np.min_scalar_type((1 << ks) - 1)
    held = np.bitwise_or.reduce(np.left_shift(dtype.type(1), sat), axis=0)
    passing = np.bitwise_or.reduce(
        pass_head.astype(dtype) << np.arange(ks, dtype=dtype)[:, None], axis=1)  # (u, y)
    return (held.T.take(lead, axis=1) & passing.take(uy)) != 0


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
    trials), encodes the all-zeros message (or a uniformly random one),
    passes the symbol through the channel, and runs both decoders.  A
    receiver errs when its decoder flags failure or any decoded
    coordinate differs from the truth.

    ``reuse_codebook=k`` shares one codebook across groups of ``k``
    consecutive trials; the reported standard error then underestimates
    the ensemble variance.  Group ``g`` draws its codebook from block ``g``
    of the seed's stream, and each trial its message and channel uniforms
    from its own block of the stream's first child (see :mod:`rng`).  So
    group ``g`` shares the codebook that trial ``g`` draws without reuse,
    and every trial reads the message and channel it reads without reuse.
    Trials run in chunks of whole reuse groups, sized by
    :func:`rng.monte_carlo`.

    A chunk keeps its groups' satellite codebooks codeword-major (see
    :func:`_codebooks_from_uniforms`) and reads every table, codebooks
    included, by ``take``: rows by index or entries at flat offsets, never
    by numpy advanced indexing.  A trial passes stage 1 only where exactly
    one cloud fires and it is the true one, so the decoded cloud is the true
    cloud wherever stage 2 can matter, and stage 2 reads the true cloud.
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
    # gathering densities and comparing them trial by trial.  The encoder's
    # masses over (u, s, t) and each receiver's inner test, over (u, y, s),
    # are read flat, with one index
    clauses = system.tables.clauses(thresholds_for(sizes, gamma))
    pass_head = {r: ~clauses[f"head{r}"] for r in (1, 2)}
    pass_inner = {r: (~clauses[f"inner{r}"]).transpose(0, 2, 1).reshape(-1) for r in (1, 2)}
    zflat = zeta_table(system, sizes, gamma).reshape(-1)
    M, N, Nh, L, Lh = sizes.M, sizes.N, sizes.Nhat, sizes.L, sizes.Lhat
    x_flat = system.x_map.reshape(-1)
    _, ks, kt, ky1, ky2 = system.shape

    def body(uniforms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        # chunks start at group boundaries: each group's row holds the
        # codebook every trial of the group uses, and each trial's tail
        # holds its message and channel uniforms
        lead_uni, tails = uniforms
        n = tails.shape[0]
        u_cb, s_cb, t_cb = _codebooks_from_uniforms(sampler, sizes, lead_uni)
        rows = np.arange(n)
        lead = rows // reuse_codebook
        if random_message:
            radix = np.array([sizes.M0, sizes.M10, sizes.M20, N, L])
            # the uniform w * 2**-53 first, so that each digit reads the same double
            w0, w10, w20, a, b = np.minimum((tails[:, :-1] * 2.0**-53 * radix).astype(np.int64),
                                            radix - 1).T
            m_true = (w0 * sizes.M10 + w10) * sizes.M20 + w20
        else:
            m_true = a = b = np.zeros(n, dtype=np.int64)  # read only

        # codeword (a Nhat + h) of cloud m of group g sits at flat offset
        # (a Nhat + h) G M + g M + m of a satellite codebook
        gm = u_cb.size
        cw = lead * M + m_true
        u_sel = u_cb.take(cw).astype(np.intp)
        s_inner = s_cb.take((a * (Nh * gm) + cw)[:, None] + np.arange(0, Nh * gm, gm))
        t_inner = t_cb.take((b * (Lh * gm) + cw)[:, None] + np.arange(0, Lh * gm, gm))
        us = (u_sel * ks)[:, None] + s_inner
        us *= kt
        ust = (us[:, :, None] + t_inner[:, None, :]).reshape(n, -1)  # (n, Nhat Lhat)
        flat = zflat.take(ust).argmin(axis=1)
        x = x_flat.take(ust.take(rows * (Nh * Lh) + flat))

        y_flat = rng.sample_categorical(sampler.cdf_chan.take(x, axis=0),
                                        tails[:, -1]).astype(np.intp)
        y1, y2 = y_flat // ky2, y_flat % ky2

        def side(receiver, sat, y, truth_inner, cols, k, ky):
            # exactly one cloud passing, the true one, leaves the decoded
            # cloud equal to the true one, and the inner test runs on it; a
            # trial that fails stage 1 errs whatever stage 2 reads
            fires = _head_fires(pass_head[receiver], u_cb, sat, y, lead)
            ok_head = (fires.sum(axis=0) == 1) & fires.take(m_true * n + rows)
            uy = (u_sel * ky + y) * k
            # the true cloud's satellite codewords, (J, n) in (a, h) order:
            # exactly one passing, in the true row a, decodes a
            ivals = pass_inner[receiver].take(uy + sat.reshape(len(sat), -1).take(cw, axis=1))
            in_row = np.logical_or.reduce(ivals.reshape(-1, cols, n), axis=1)
            ok = ok_head & (ivals.sum(axis=0) == 1) & in_row.take(truth_inner * n + rows)
            return ~ok, ~ok_head

        err1, s1err1 = side(1, s_cb, y1, a, Nh, ks, ky1)
        err2, s1err2 = side(2, t_cb, y2, b, Lh, kt, ky2)
        return np.array([err1.sum(), err2.sum(), s1err1.sum(), s1err2.sum()], dtype=np.float64)

    totals = rng.monte_carlo(trials, seed, budget, body,
                             work_bytes=_trial_work_bytes(system, sizes, reuse_codebook),
                             fixed_bytes=_run_work_bytes(system),
                             group=reuse_codebook, tail=budget - cb_width, threads=threads)
    eps1, eps2, stage1_eps1, stage1_eps2 = (rng.estimate(tot, trials, seed) for tot in totals)
    return SimOutcome(eps1, eps2, bound, trials, seed, stage1_eps1, stage1_eps2)


def exact_errors(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> tuple[float, float]:
    """The exact codebook-ensemble error of each receiver of :func:`simulate`.

    Given the message, the sent cloud symbol u, the two sent rows and the
    output y, the other clouds and rows are i.i.d. and unread by the encoder,
    so receiver 1 decodes correctly with probability (1 - q(y))^(M-1) [one
    sent-row inner pass] ((1 - p_I)^k - [no sent-row head pass] p_O^k): q is
    the chance that another cloud fires, p_I that a codeword passes the inner
    test, p_O that it passes neither, k = (N - 1) Nhat.  Receiver 2 mirrors
    it, and the encoder takes the first row-major argmin of :func:`zeta_table`.
    Each error sums non-negative terms P (1 - P(correct | .)), clamped to [0, 1]."""
    tables, (ku, ks, kt, ky1, ky2) = system.tables, system.shape
    Nh, Lh = sizes.Nhat, sizes.Lhat
    # past 64 letters a row of two symbols or more is past the cap, so the
    # count of sent rows never grows into a huge integer
    r1, r2 = ks ** min(Nh, 64), kt ** min(Lh, 64)
    _check_cap("exact oracle", ku * r1 * r2 * max(Nh * Lh, ky1, ky2), ku * r1 * Nh * ky1,
               ku * r2 * Lh * ky2)
    clauses = tables.clauses(thresholds_for(sizes, gamma))
    srows, trows = (np.arange(k ** n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
                    for k, n in ((ks, Nh), (kt, Lh)))
    # the flat (u, s, t) offsets of the candidate pairs, (u, s row, t row, Nhat Lhat)
    ust = ((np.arange(ku)[:, None, None, None, None] * ks + srows[:, None, :, None]) * kt
           + trows[:, None, :]).reshape(ku, r1, r2, -1)
    pick = zeta_table(system, sizes, gamma).reshape(-1).take(ust).argmin(axis=3)[..., None]
    x = system.x_map.reshape(-1).take(np.take_along_axis(ust, pick, 3)[..., 0])
    weight = (tables.p_u[:, None, None] * tables.p_s_u[:, srows].prod(axis=2)[:, :, None]
              * tables.p_t_u[:, trows].prod(axis=2)[:, None, :])

    def power(p, e):  # a mass rounded past 1 is 1; past 2^1023 only p = 1 keeps any mass
        return np.minimum(p, 1.0) ** float(min(e, 2**1023))

    def error(r, sent, n, cols):
        head, inner = ~clauses[f"head{r}"], ~clauses[f"inner{r}"]  # passing tests over (u, s, y)
        # P(symbol | u) over (u, 1, s); times a mask over (u, s, y), a codeword's chance to hit it
        p_sym = (tables.p_s_u, tables.p_t_u)[r - 1][:, None, :]
        k = (n - 1) * cols  # the sent cloud's codewords outside the sent row
        miss = power(tables.p_u @ power(p_sym @ ~head, n * cols)[:, 0], sizes.M - 1)
        rest = (power(p_sym @ ~inner, k)
                - ~head[:, sent].any(axis=2) * power(p_sym @ ~(inner | head), k))
        correct = np.clip(miss * (inner[:, sent].sum(axis=2) == 1) * rest, 0.0, 1.0)
        wrong = (system.channel.rows.sum(axis=3 - r).take(x, axis=0)
                 * np.expand_dims(1.0 - correct, 3 - r)).sum(axis=3)
        return min(float((weight * wrong).sum()), 1.0)

    return error(1, srows, sizes.N, Nh), error(2, trows, sizes.L, Lh)


def mc_event_union(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                   trials: int, seed: int, threads: int = 1) -> rng.McEstimate:
    """Monte Carlo estimate of the five-event union probability under the
    design joint, a cross-check of the exact union term that no CLI path
    calls.  Each draw is tested against the clause tables, at ``row1`` or
    ``row2``, the flat offset of (u, s) or (u, t) in them, plus its output."""
    ku, ks, kt, ky1, ky2 = system.shape
    c = system.tables.clauses(thresholds_for(sizes, gamma))
    cross = c["cross"].reshape(-1)
    bad1 = (c["head1"] | c["inner1"]).reshape(-1)
    bad2 = (c["head2"] | c["inner2"]).reshape(-1)
    u_idx, s_idx, t_idx = np.indices((ku, ks, kt)).reshape(3, -1)
    row1 = (u_idx * ks + s_idx) * ky1
    row2 = (u_idx * kt + t_idx) * ky2
    cdf_ust = rng.thresholds(np.cumsum(system.joint_ust.probs.reshape(-1)))
    cdf_chan = _Sampler(system).cdf_chan
    x_flat = system.x_map.reshape(-1)

    def body(u: np.ndarray) -> float:
        ust = rng.sample_categorical(cdf_ust, u[:, 0]).astype(np.intp)
        y = rng.sample_categorical(cdf_chan.take(x_flat.take(ust), axis=0), u[:, 1])
        hit = cross.take(ust)
        hit |= bad1.take(row1.take(ust) + y // ky2)
        hit |= bad2.take(row2.take(ust) + y % ky2)
        return float(np.count_nonzero(hit))

    # per trial besides its uniform row: the drawn (u, s, t), its symbol and
    # channel cdf row, y, an output coordinate, a gathered offset and its sum
    # (8 bytes an index at most) and two booleans
    total = rng.monte_carlo(trials, seed, 2, body, work_bytes=50 + 8 * ky1 * ky2,
                            threads=threads)
    return rng.estimate(total, trials, seed)
