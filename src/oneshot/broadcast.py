"""Two-receiver broadcast with a common message: exact one-shot bound and
an executable random-coding simulator.

The scheme has a lower layer of ``M`` cloud codewords and, per cloud
codeword, inner codebooks of ``N x Nhat`` and ``L x Lhat`` satellite
codewords for the two receivers.  The encoder picks the inner pair
minimizing the mass of the bad output set; each decoder runs a two-stage
threshold search (cloud index, then satellite pair).

All density tables are derived from the design joint
``P(u,s,t) x channel(y1,y2 | x(u,s,t))``.  Output symbols outside the
design support get density ``-inf`` ("no evidence"), which keeps the
decoders total without affecting any exactly computed probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng
from .bounds import BoundReport, GammaSteps, check_bound_args, covering_ratio, doubleexp
from .errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    InputFormatError,
    UndefinedRowError,
)
from .probability import (Joint, Kernel, cond_info_density_table, input_array, integral,
                          log_ratio_table, product_extend)

#: cap on the size of the design joint over (u, s, t, y1, y2)
JOINT_CAP = 10**7
#: trials per simulate chunk, unless the chunk byte cap ``rng.CHUNK_BYTES`` binds first
SIM_CHUNK_TRIALS = 4096


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
        for name in ("M0", "M10", "M20", "N", "L", "Nhat", "Lhat"):
            if getattr(self, name) < 1:
                raise InputFormatError(f"sizes: {name} must be a positive integer")

    @property
    def M(self) -> int:
        return self.M0 * self.M10 * self.M20

    @property
    def M1(self) -> int:
        return self.M10 * self.N

    @property
    def M2(self) -> int:
        return self.M20 * self.L

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
        for name in ("M0", "M10", "M20", "N", "L", "Nhat", "Lhat"):
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
        if len(parts) != 7 or not all(p.lstrip("-").isdigit() for p in parts):
            raise InputFormatError(
                "sizes: expected 7 comma-separated integers M0,M10,M20,N,L,Nhat,Lhat"
            )
        return cls(*(int(p) for p in parts))

    def to_json(self) -> dict:
        return {
            "M0": self.M0, "M10": self.M10, "M20": self.M20,
            "N": self.N, "L": self.L, "Nhat": self.Nhat, "Lhat": self.Lhat,
        }


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
        if not self.channel.defined[np.unique(xm)].all():
            raise UndefinedRowError("channel row undefined for a symbol in the image of x_map")

    @property
    def shape(self) -> tuple[int, ...]:
        ku, ks, kt = self.joint_ust.shape
        ky1, ky2 = self.channel.out_shape
        return ku, ks, kt, ky1, ky2

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
    kx = system.channel.n_inputs
    xm = system.x_map
    out = xm
    for _ in range(n - 1):
        out = (
            out[:, None, :, None, :, None] * kx
            + xm[None, :, None, :, None, :]
        ).reshape(
            out.shape[0] * xm.shape[0],
            out.shape[1] * xm.shape[1],
            out.shape[2] * xm.shape[2],
        )
    return BroadcastSystem(joint, out, chan)


class Thresholds(NamedTuple):
    head1: float   # on i(US; Y1)
    head2: float   # on i(UT; Y2)
    inner1: float  # on i(S; Y1 | U)
    inner2: float  # on i(T; Y2 | U)
    cross: float   # on i(S; T | U)


#: each threshold is ``ln(sizes) + slope * gamma``
SLOPES = Thresholds(head1=1.0, head2=1.0, inner1=1.0, inner2=1.0, cross=-2.0)


def _size_logs(sizes: SchemeSizes) -> Thresholds:
    """The gamma-free part of each threshold."""
    return Thresholds(
        head1=math.log(sizes.M * sizes.Ntilde),
        head2=math.log(sizes.M * sizes.Ltilde),
        inner1=math.log(sizes.Ntilde),
        inner2=math.log(sizes.Ltilde),
        cross=math.log(sizes.Nhat * sizes.Lhat),
    )


def thresholds_for(sizes: SchemeSizes, gamma: float) -> Thresholds:
    """Decoding/encoding thresholds in nats: ``ln(sizes) + gamma`` for the
    head and inner tests, ``ln(Nhat Lhat) - 2 gamma`` for the cross test
    (``1.0 * gamma`` and ``-2.0 * gamma`` round exactly as ``gamma`` and
    the negated ``2.0 * gamma``).

    The inner thresholds use the full inner-book sizes (Ntilde, Ltilde)
    everywhere, matching the bound statement and both decoders.
    """
    check_bound_args(gamma)
    return Thresholds(*(c + slope * gamma for c, slope in zip(_size_logs(sizes), SLOPES)))


class DensityTables:
    """Marginals and density tables of the design joint, precomputed once
    per system (read them as :attr:`BroadcastSystem.tables`).

    Every table comes from :func:`~oneshot.probability.log_ratio_table`:
    finite on the support and ``-inf`` where the relevant joint marginal
    vanishes.
    """

    def __init__(self, system: BroadcastSystem):
        ku, ks, kt, ky1, ky2 = system.shape
        if ku * ks * kt * ky1 * ky2 > JOINT_CAP:
            raise EnumerationCapError(
                f"design joint with {ku * ks * kt * ky1 * ky2} entries exceeds the cap of {JOINT_CAP}"
            )
        chan = system.channel.matrix()[system.x_map]  # (u, s, t, y1, y2)
        self.full = system.joint_ust.probs[:, :, :, None, None] * chan
        self.p_ust = system.joint_ust.probs
        self.p_u = self.p_ust.sum(axis=(1, 2))
        self.p_us = self.p_ust.sum(axis=2)
        self.p_ut = self.p_ust.sum(axis=1)
        self.p_usy1 = self.full.sum(axis=(2, 4))
        self.p_uty2 = self.full.sum(axis=(1, 3))
        self.p_y1 = self.full.sum(axis=(0, 1, 2, 4))
        self.p_y2 = self.full.sum(axis=(0, 1, 2, 3))
        self.p_uy1 = self.full.sum(axis=(1, 2, 4))
        self.p_uy2 = self.full.sum(axis=(1, 2, 3))

        self.i_us_y1 = log_ratio_table((self.p_usy1,), (self.p_us[:, :, None], self.p_y1))
        self.i_ut_y2 = log_ratio_table((self.p_uty2,), (self.p_ut[:, :, None], self.p_y2))
        self.i_s_y1_u = log_ratio_table((self.p_usy1, self.p_u[:, None, None]),
                                        (self.p_us[:, :, None], self.p_uy1[:, None, :]))
        self.i_t_y2_u = log_ratio_table((self.p_uty2, self.p_u[:, None, None]),
                                        (self.p_ut[:, :, None], self.p_uy2[:, None, :]))
        self.i_s_t_u = cond_info_density_table(system.joint_ust)
        self._union_steps: dict[SchemeSizes, GammaSteps] = {}

    def clauses(self, thr: Thresholds) -> dict[str, np.ndarray]:
        """The five threshold events of the bound, each a boolean table over its
        own axes; ``CLAUSE_AXES`` spreads them over (u, s, t, y1, y2).  A
        ``-inf`` density falls in each ``<=`` clause, so the complements are
        exactly the decoders' passing tests."""
        return {name: test(getattr(self, table), getattr(thr, name))
                for name, (table, test) in CLAUSE_TESTS.items()}

    def union_mask(self, thr: Thresholds) -> np.ndarray:
        """The union of the five threshold events over (u, s, t, y1, y2)."""
        c = self.clauses(thr)
        return _bad_outputs(c) | c["cross"][CLAUSE_AXES["cross"]]

    def union_steps(self, sizes: SchemeSizes) -> GammaSteps:
        """The union probability's step table for ``sizes``, built once: its
        breakpoints are the critical gammas of every clause."""
        steps = self._union_steps.get(sizes)
        if steps is None:
            logs = _size_logs(sizes)
            steps = self._union_steps[sizes] = GammaSteps(
                [(getattr(self, table), test, getattr(logs, name), getattr(SLOPES, name))
                 for name, (table, test) in CLAUSE_TESTS.items()])
        return steps


#: each clause's density table and its test against the clause's threshold
CLAUSE_TESTS = {
    "head1": ("i_us_y1", np.less_equal),
    "head2": ("i_ut_y2", np.less_equal),
    "inner1": ("i_s_y1_u", np.less_equal),
    "inner2": ("i_t_y2_u", np.less_equal),
    "cross": ("i_s_t_u", np.greater),
}

#: the index that spreads each clause table over (u, s, t, y1, y2)
CLAUSE_AXES = {
    "head1": np.s_[:, :, None, :, None],
    "head2": np.s_[:, None, :, None, :],
    "inner1": np.s_[:, :, None, :, None],
    "inner2": np.s_[:, None, :, None, :],
    "cross": np.s_[:, :, :, None, None],
}


def _bad_outputs(c: dict[str, np.ndarray]) -> np.ndarray:
    """Where a receiver's head or inner clause holds, over (u, s, t, y1, y2)."""
    return ((c["head1"] | c["inner1"])[CLAUSE_AXES["head1"]]
            | (c["head2"] | c["inner2"])[CLAUSE_AXES["head2"]])


def zeta_table(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> np.ndarray:
    """Mass of the bad output set for every codeword triple (u, s, t)."""
    bad = _bad_outputs(system.tables.clauses(thresholds_for(sizes, gamma)))
    chan = system.channel.matrix()[system.x_map]  # (u, s, t, y1, y2)
    return (chan * bad).sum(axis=(3, 4))


def event_probabilities(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                        union_only: bool = False) -> dict[str, float]:
    """Exact probabilities of the five threshold events and their union
    under the design joint (only ``union`` with ``union_only``).  The union
    is summed over :meth:`DensityTables.union_mask` once per interval of
    the step table for ``sizes`` (:meth:`DensityTables.union_steps`)."""
    t = system.tables
    thr = thresholds_for(sizes, gamma)
    probs = {} if union_only else {
        name: float(t.full[np.broadcast_to(mask[CLAUSE_AXES[name]], t.full.shape)].sum())
        for name, mask in t.clauses(thr).items()}
    probs["union"] = t.union_steps(sizes)(gamma, lambda: float(t.full[t.union_mask(thr)].sum()))
    return probs


def broadcast_bound(system: BroadcastSystem, sizes: SchemeSizes, gamma: float) -> BoundReport:
    """One-shot achievability bound on the worse of the two error
    probabilities (CLI kind ``broadcast``).

    Terms: the two change-of-measure tails ``2 e^{-gamma}``, the
    double-exponential slack, the exact five-event union probability,
    and the inner covering ratio.
    """
    terms = (
        ("twoexp", 2.0 * math.exp(-gamma)),
        ("doubleexp", doubleexp(gamma)),
        ("union", event_probabilities(system, sizes, gamma, union_only=True)["union"]),
        ("ratio", covering_ratio(sizes.Nhat, sizes.Lhat, gamma)),
    )
    params = {"sizes": sizes.to_json(), "gamma": gamma}
    return BoundReport(terms, params)


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
    sampler = _Sampler(system, system.tables)
    u = rng.trial_uniforms(seed, trial, 1, _trial_budget(sizes, random_message))
    u_cb, s_cb, t_cb = _codebooks_from_uniforms(sampler, sizes, u[:, :_codebook_budget(sizes)])
    return Codebook(u_cb[0], s_cb[0], t_cb[0])


class _Sampler:
    """Cumulative mass vectors used by codebook/channel sampling."""

    def __init__(self, system: BroadcastSystem, tables: DensityTables):
        p_s_given_u = np.where(
            tables.p_u[:, None] > 0, tables.p_us / np.where(tables.p_u[:, None] > 0, tables.p_u[:, None], 1.0), 0.0
        )
        p_t_given_u = np.where(
            tables.p_u[:, None] > 0, tables.p_ut / np.where(tables.p_u[:, None] > 0, tables.p_u[:, None], 1.0), 0.0
        )
        self.cdf_u = np.cumsum(tables.p_u)
        self.cdf_s = np.cumsum(p_s_given_u, axis=1)
        self.cdf_t = np.cumsum(p_t_given_u, axis=1)
        ky1, ky2 = system.channel.out_shape
        self.ky2 = ky2
        self.cdf_chan = np.cumsum(system.channel.matrix().reshape(-1, ky1 * ky2), axis=1)


def _codebook_budget(sizes: SchemeSizes) -> int:
    return sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat)


def _trial_budget(sizes: SchemeSizes, random_message: bool) -> int:
    """Uniforms per :func:`simulate` trial: the codebook block, five
    message uniforms if the message is random, then the channel uniform."""
    return _codebook_budget(sizes) + (5 if random_message else 0) + 1


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


def _decode(cb_u: np.ndarray, sat: np.ndarray, head_table: np.ndarray,
            inner_table: np.ndarray, head_thr: float, inner_thr: float,
            y: int, sizes: SchemeSizes, inner_cols: int) -> tuple[int, int] | None:
    """Two-stage threshold search shared by both decoders.

    Returns (cloud index, inner message index) or None on failure
    (no candidate, or ambiguity at either stage).
    """
    vals = head_table[cb_u[:, None, None], sat, y]
    fires = (vals > head_thr).any(axis=(1, 2))
    if fires.sum() != 1:
        return None
    m = int(np.argmax(fires))
    inner_vals = inner_table[cb_u[m], sat[m], y]
    hits = inner_vals > inner_thr
    if hits.sum() != 1:
        return None
    flat = int(np.argmax(hits.reshape(-1)))
    return m, flat // inner_cols


def decode1(cb: Codebook, system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
            y1: int) -> DecodeResult | None:
    """Receiver-1 decoder; returns None as the decoding-failure flag."""
    t = system.tables
    thr = thresholds_for(sizes, gamma)
    got = _decode(cb.u, cb.s, t.i_us_y1, t.i_s_y1_u, thr.head1, thr.inner1,
                  y1, sizes, sizes.Nhat)
    if got is None:
        return None
    m, c = got
    return DecodeResult(*message_split(sizes, m), c)


def decode2(cb: Codebook, system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
            y2: int) -> DecodeResult | None:
    """Receiver-2 decoder (mirror of receiver 1 on the t-layer)."""
    t = system.tables
    thr = thresholds_for(sizes, gamma)
    got = _decode(cb.u, cb.t, t.i_ut_y2, t.i_t_y2_u, thr.head2, thr.inner2,
                  y2, sizes, sizes.Lhat)
    if got is None:
        return None
    m, e = got
    return DecodeResult(*message_split(sizes, m), e)


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
    Trials run in chunks of whole reuse groups, sized by :func:`rng.monte_carlo`.
    """
    if trials < 1:
        raise InputFormatError("trials must be >= 1")
    if reuse_codebook < 1:
        raise InputFormatError("reuse_codebook must be >= 1")
    tables = system.tables
    # evaluated first, so that a gamma the bound rejects costs no trials
    bound = broadcast_bound(system, sizes, gamma)
    cb_width = _codebook_budget(sizes)
    budget = _trial_budget(sizes, random_message)
    sampler = _Sampler(system, tables)
    thr = thresholds_for(sizes, gamma)
    # decoder tests thresholded once: gathering booleans is cheaper than
    # gathering densities and comparing them trial by trial
    c = tables.clauses(thr)
    pass_head1, pass_inner1 = ~c["head1"], ~c["inner1"]
    pass_head2, pass_inner2 = ~c["head2"], ~c["inner2"]
    ztable = zeta_table(system, sizes, gamma)
    N, Nh, L, Lh = sizes.N, sizes.Nhat, sizes.L, sizes.Lhat
    x_map = system.x_map
    ky2 = sampler.ky2

    def body(uni: np.ndarray) -> np.ndarray:
        n = uni.shape[0]
        # chunks start at group boundaries, so rows ::K are the group leaders;
        # only they draw a codebook, which every trial of the group then uses
        cb_uni = uni[::reuse_codebook, :cb_width]
        u_cb, s_cb, t_cb = _codebooks_from_uniforms(sampler, sizes, cb_uni)
        if reuse_codebook > 1:
            group = np.arange(n) // reuse_codebook
            u_cb, s_cb, t_cb = u_cb[group], s_cb[group], t_cb[group]
        rows = np.arange(n)
        if random_message:
            msg_uni = uni[:, -6:-1]
            w0 = np.minimum((msg_uni[:, 0] * sizes.M0).astype(np.int64), sizes.M0 - 1)
            w10 = np.minimum((msg_uni[:, 1] * sizes.M10).astype(np.int64), sizes.M10 - 1)
            w20 = np.minimum((msg_uni[:, 2] * sizes.M20).astype(np.int64), sizes.M20 - 1)
            a = np.minimum((msg_uni[:, 3] * N).astype(np.int64), N - 1)
            b = np.minimum((msg_uni[:, 4] * L).astype(np.int64), L - 1)
            m_true = (w0 * sizes.M10 + w10) * sizes.M20 + w20
        else:
            m_true = np.zeros(n, dtype=np.int64)
            a = np.zeros(n, dtype=np.int64)
            b = np.zeros(n, dtype=np.int64)

        u_sel = u_cb[rows, m_true]
        s_inner = s_cb[rows, m_true, a, :]      # (n, Nhat)
        t_inner = t_cb[rows, m_true, b, :]      # (n, Lhat)
        z = ztable[u_sel[:, None, None], s_inner[:, :, None], t_inner[:, None, :]]
        flat = z.reshape(n, -1).argmin(axis=1)
        ahat, bhat = flat // Lh, flat % Lh
        x = x_map[u_sel, s_inner[rows, ahat], t_inner[rows, bhat]]

        y_flat = rng.sample_categorical(sampler.cdf_chan[x], uni[:, -1])
        y1, y2 = y_flat // ky2, y_flat % ky2

        def side(sat, pass_head, pass_inner, y, truth_inner, cols):
            fires = pass_head[u_cb[:, :, None, None], sat, y[:, None, None, None]].any(axis=(2, 3))
            cnt = fires.sum(axis=1)
            m_hat = fires.argmax(axis=1)
            ok_head = (cnt == 1) & (m_hat == m_true)
            stage1_err = ~ok_head
            sat_m = sat[rows, m_hat]
            ivals = pass_inner[u_cb[rows, m_hat][:, None, None], sat_m, y[:, None, None]]
            pcnt = ivals.reshape(n, -1).sum(axis=1)
            inner_hat = ivals.reshape(n, -1).argmax(axis=1) // cols
            ok = ok_head & (pcnt == 1) & (inner_hat == truth_inner)
            return ~ok, stage1_err

        err1, s1err1 = side(s_cb, pass_head1, pass_inner1, y1, a, Nh)
        err2, s1err2 = side(t_cb, pass_head2, pass_inner2, y2, b, Lh)
        return np.array([err1.sum(), err2.sum(), s1err1.sum(), s1err2.sum()], dtype=np.float64)

    totals = rng.monte_carlo(trials, seed, budget, body, max_trials=SIM_CHUNK_TRIALS,
                             group=reuse_codebook, threads=threads)
    eps1, eps2, stage1_eps1, stage1_eps2 = (rng.estimate(tot, trials, seed) for tot in totals)
    return SimOutcome(eps1, eps2, bound, trials, seed, stage1_eps1, stage1_eps2)


def mc_event_union(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                   trials: int, seed: int, threads: int = 1) -> rng.McEstimate:
    """Monte Carlo estimate of the five-event union probability under the
    design joint (cross-check for the exact union term)."""
    tables = system.tables
    ku, ks, kt, ky1, ky2 = system.shape
    union_flat = tables.union_mask(thresholds_for(sizes, gamma)).reshape(ku * ks * kt, ky1 * ky2)
    cdf_ust = np.cumsum(tables.p_ust.reshape(-1))
    cdf_chan = _Sampler(system, tables).cdf_chan
    x_flat = system.x_map.reshape(-1)

    def body(u: np.ndarray) -> float:
        ust = rng.sample_categorical(cdf_ust, u[:, 0])
        y = rng.sample_categorical(cdf_chan[x_flat[ust]], u[:, 1])
        return float(union_flat[ust, y].sum())

    # per trial besides its uniform row: three drawn indices and a channel cdf row
    total = rng.monte_carlo(trials, seed, 2, body, work_bytes=24 + 8 * ky1 * ky2, threads=threads)
    return rng.estimate(total, trials, seed)
