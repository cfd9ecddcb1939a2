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
from typing import NamedTuple

import numpy as np

from . import rng
from .bounds import BoundReport, ratio_gap
from .errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    InputFormatError,
    UndefinedRowError,
)
from .oracle import McEstimate
from .probability import Joint, Kernel, _iid_power

#: cap on the size of the design joint over (u, s, t, y1, y2)
JOINT_CAP = 10**7


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
        try:
            return cls(**{k: int(doc[k]) for k in ("M0", "M10", "M20", "N", "L", "Nhat", "Lhat")})
        except KeyError as exc:
            raise InputFormatError(f"sizes: missing field {exc.args[0]!r}") from None

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

    @classmethod
    def from_json(cls, doc: dict) -> "BroadcastSystem":
        if not isinstance(doc, dict):
            raise InputFormatError("system: expected a JSON object")
        for key in ("p_ust", "x_map", "channel"):
            if key not in doc:
                raise InputFormatError(f"system: missing field {key!r}")
        return cls(
            Joint(np.asarray(doc["p_ust"], dtype=float)),
            np.asarray(doc["x_map"], dtype=np.int64),
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
    joint = Joint(_iid_power(system.joint_ust.probs, n))
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
    chan = Kernel(_iid_power(system.channel.matrix(), n),
                  _iid_power(system.channel.defined.astype(float), n) > 0.5)
    return BroadcastSystem(joint, out, chan)


class Thresholds(NamedTuple):
    head1: float   # on i(US; Y1)
    head2: float   # on i(UT; Y2)
    inner1: float  # on i(S; Y1 | U)
    inner2: float  # on i(T; Y2 | U)
    cross: float   # on i(S; T | U)


def thresholds_for(sizes: SchemeSizes, gamma: float) -> Thresholds:
    """Decoding/encoding thresholds in nats.

    The inner thresholds use the full inner-book sizes (Ntilde, Ltilde)
    everywhere, matching the bound statement and both decoders.
    """
    if not gamma > 0:
        raise InputFormatError("gamma must be > 0")
    return Thresholds(
        head1=math.log(sizes.M * sizes.Ntilde) + gamma,
        head2=math.log(sizes.M * sizes.Ltilde) + gamma,
        inner1=math.log(sizes.Ntilde) + gamma,
        inner2=math.log(sizes.Ltilde) + gamma,
        cross=math.log(sizes.Nhat * sizes.Lhat) - 2.0 * gamma,
    )


class DensityTables:
    """Marginals and density tables of the design joint, precomputed once.

    Density entries are finite on the support and ``-inf`` where the
    relevant joint marginal vanishes.
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

        self.i_us_y1 = self._density(self.p_usy1, self.p_us[:, :, None] * self.p_y1[None, None, :])
        self.i_ut_y2 = self._density(self.p_uty2, self.p_ut[:, :, None] * self.p_y2[None, None, :])
        self.i_s_y1_u = self._density(
            self.p_usy1 * self.p_u[:, None, None],
            self.p_us[:, :, None] * self.p_uy1[:, None, :],
        )
        self.i_t_y2_u = self._density(
            self.p_uty2 * self.p_u[:, None, None],
            self.p_ut[:, :, None] * self.p_uy2[:, None, :],
        )
        self.i_s_t_u = self._density(
            self.p_ust * self.p_u[:, None, None],
            self.p_us[:, :, None] * self.p_ut[:, None, :],
        )

    @staticmethod
    def _density(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        out = np.full(num.shape, -np.inf)
        sup = num > 0
        out[sup] = np.log(num[sup] / den[sup])
        return out

    def event_masks(self, thr: Thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean event tables: receiver-1 clauses (u,s,y1), receiver-2
        clauses (u,t,y2), and the cross-density clause (u,s,t)."""
        m1 = (self.i_us_y1 <= thr.head1) | (self.i_s_y1_u <= thr.inner1)
        m2 = (self.i_ut_y2 <= thr.head2) | (self.i_t_y2_u <= thr.inner2)
        m5 = self.i_s_t_u > thr.cross
        return m1, m2, m5


def zeta_table(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
               tables: DensityTables | None = None) -> np.ndarray:
    """Mass of the bad output set for every codeword triple (u, s, t)."""
    t = tables or DensityTables(system)
    thr = thresholds_for(sizes, gamma)
    m1, m2, _ = t.event_masks(thr)
    chan = system.channel.matrix()[system.x_map]  # (u, s, t, y1, y2)
    bad = m1[:, :, None, :, None] | m2[:, None, :, None, :]
    return (chan * bad).sum(axis=(3, 4))


def zeta(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
         u: int, s: int, t: int) -> float:
    """Bad-set mass for one codeword triple."""
    ku, ks, kt, _, _ = system.shape
    if not (0 <= u < ku and 0 <= s < ks and 0 <= t < kt):
        raise InputFormatError("zeta: symbol outside the design alphabets")
    return float(zeta_table(system, sizes, gamma)[u, s, t])


def event_probabilities(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                        tables: DensityTables | None = None) -> dict[str, float]:
    """Exact probabilities of the five threshold events and their union
    under the design joint."""
    t = tables or DensityTables(system)
    thr = thresholds_for(sizes, gamma)
    full = t.full
    e1 = t.i_us_y1[:, :, None, :, None] <= thr.head1
    e2 = t.i_ut_y2[:, None, :, None, :] <= thr.head2
    e3 = t.i_s_y1_u[:, :, None, :, None] <= thr.inner1
    e4 = t.i_t_y2_u[:, None, :, None, :] <= thr.inner2
    e5 = t.i_s_t_u[:, :, :, None, None] > thr.cross
    probs = {}
    union = np.zeros(full.shape, dtype=bool)
    for name, mask in (("head1", e1), ("head2", e2), ("inner1", e3), ("inner2", e4), ("cross", e5)):
        mask = np.broadcast_to(mask, full.shape)
        probs[name] = float(full[mask].sum())
        union |= mask
    probs["union"] = float(full[union].sum())
    return probs


def broadcast_bound(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                    tables: DensityTables | None = None) -> BoundReport:
    """One-shot achievability bound on the worse of the two error
    probabilities (CLI kind ``broadcast``).

    Terms: the two change-of-measure tails ``2 e^{-gamma}``, the
    double-exponential slack, the exact five-event union probability,
    and the inner covering ratio.
    """
    probs = event_probabilities(system, sizes, gamma, tables)
    nh, lh = sizes.Nhat, sizes.Lhat
    ratio = (min(nh, lh) - 1) / (nh * lh * ratio_gap(gamma))
    terms = (
        ("twoexp", 2.0 * math.exp(-gamma)),
        ("doubleexp", math.exp(-math.exp(gamma))),
        ("union", probs["union"]),
        ("ratio", ratio),
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
                    trial: int = 0) -> Codebook:
    """Draw one codebook from the generation law (cloud words i.i.d. from
    the u-marginal, satellites i.i.d. from the conditional rows)."""
    arrs = _sample_codebook_arrays(system, sizes, seed, trial, 1)
    return Codebook(arrs[0][0], arrs[1][0], arrs[2][0])


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


def _sample_codebook_arrays(system: BroadcastSystem, sizes: SchemeSizes, seed: int,
                            start: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tables = DensityTables(system)
    sampler = _Sampler(system, tables)
    u = rng.trial_uniforms(seed, start, n, _codebook_budget(sizes))
    return _codebooks_from_uniforms(sampler, sizes, u)


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
            y1: int, tables: DensityTables | None = None) -> DecodeResult | None:
    """Receiver-1 decoder; returns None as the decoding-failure flag."""
    t = tables or DensityTables(system)
    thr = thresholds_for(sizes, gamma)
    got = _decode(cb.u, cb.s, t.i_us_y1, t.i_s_y1_u, thr.head1, thr.inner1,
                  y1, sizes, sizes.Nhat)
    if got is None:
        return None
    m, c = got
    return DecodeResult(*message_split(sizes, m), c)


def decode2(cb: Codebook, system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
            y2: int, tables: DensityTables | None = None) -> DecodeResult | None:
    """Receiver-2 decoder (mirror of receiver 1 on the t-layer)."""
    t = tables or DensityTables(system)
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

    eps1_hat: McEstimate
    eps2_hat: McEstimate
    bound: BoundReport
    trials: int
    seed: int
    stage1_eps1: McEstimate
    stage1_eps2: McEstimate

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
    consecutive trials; the reported standard error then underestimates
    the ensemble variance.
    """
    if trials < 1:
        raise InputFormatError("trials must be >= 1")
    if reuse_codebook < 1:
        raise InputFormatError("reuse_codebook must be >= 1")
    tables = DensityTables(system)
    sampler = _Sampler(system, tables)
    thr = thresholds_for(sizes, gamma)
    ztable = zeta_table(system, sizes, gamma, tables)
    M, N, Nh, L, Lh = sizes.M, sizes.N, sizes.Nhat, sizes.L, sizes.Lhat
    budget = _codebook_budget(sizes) + 1 + (5 if random_message else 0)
    x_map = system.x_map
    ky2 = sampler.ky2

    def worker(start: int, n: int) -> np.ndarray:
        uni = rng.trial_uniforms(seed, start, n, budget)
        u_cb, s_cb, t_cb = _codebooks_from_uniforms(sampler, sizes, uni[:, :-1 - (5 if random_message else 0)])
        if reuse_codebook > 1:
            leaders = (np.arange(n) // reuse_codebook) * reuse_codebook
            u_cb, s_cb, t_cb = u_cb[leaders], s_cb[leaders], t_cb[leaders]
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

        def side(sat, head_tbl, inner_tbl, h_thr, i_thr, y, truth_inner, cols):
            vals = head_tbl[u_cb[:, :, None, None], sat, y[:, None, None, None]] > h_thr
            fires = vals.any(axis=(2, 3))
            cnt = fires.sum(axis=1)
            m_hat = fires.argmax(axis=1)
            ok_head = (cnt == 1) & (m_hat == m_true)
            stage1_err = ~ok_head
            sat_m = sat[rows, m_hat]
            ivals = inner_tbl[u_cb[rows, m_hat][:, None, None], sat_m, y[:, None, None]] > i_thr
            pcnt = ivals.reshape(n, -1).sum(axis=1)
            inner_hat = ivals.reshape(n, -1).argmax(axis=1) // cols
            ok = ok_head & (pcnt == 1) & (inner_hat == truth_inner)
            return ~ok, stage1_err

        err1, s1err1 = side(s_cb, tables.i_us_y1, tables.i_s_y1_u,
                            thr.head1, thr.inner1, y1, a, Nh)
        err2, s1err2 = side(t_cb, tables.i_ut_y2, tables.i_t_y2_u,
                            thr.head2, thr.inner2, y2, b, Lh)
        return np.array([err1.sum(), err2.sum(), s1err1.sum(), s1err2.sum()], dtype=np.float64)

    chunk = rng.chunk_size_for(4096, reuse_codebook)
    parts = rng.run_trials(trials, worker, chunk=chunk, threads=threads)
    totals = np.sum(parts, axis=0)
    est = lambda tot: McEstimate(tot / trials, rng.bernoulli_stderr(tot / trials, trials), trials, seed)
    return SimOutcome(
        eps1_hat=est(totals[0]),
        eps2_hat=est(totals[1]),
        bound=broadcast_bound(system, sizes, gamma, tables),
        trials=trials,
        seed=seed,
        stage1_eps1=est(totals[2]),
        stage1_eps2=est(totals[3]),
    )


def mc_event_union(system: BroadcastSystem, sizes: SchemeSizes, gamma: float,
                   trials: int, seed: int, threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of the five-event union probability under the
    design joint (cross-check for the exact union term)."""
    tables = DensityTables(system)
    thr = thresholds_for(sizes, gamma)
    ku, ks, kt, ky1, ky2 = system.shape
    e1 = tables.i_us_y1[:, :, None, :, None] <= thr.head1
    e2 = tables.i_ut_y2[:, None, :, None, :] <= thr.head2
    e3 = tables.i_s_y1_u[:, :, None, :, None] <= thr.inner1
    e4 = tables.i_t_y2_u[:, None, :, None, :] <= thr.inner2
    e5 = tables.i_s_t_u[:, :, :, None, None] > thr.cross
    union = np.zeros((ku, ks, kt, ky1, ky2), dtype=bool)
    for mask in (e1, e2, e3, e4, e5):
        union |= np.broadcast_to(mask, union.shape)
    union_flat = union.reshape(ku * ks * kt, ky1 * ky2)
    cdf_ust = np.cumsum(tables.p_ust.reshape(-1))
    chan_flat = system.channel.matrix().reshape(-1, ky1 * ky2)
    cdf_chan = np.cumsum(chan_flat, axis=1)
    x_flat = system.x_map.reshape(-1)

    def worker(start: int, n: int) -> float:
        u = rng.trial_uniforms(seed, start, n, 2)
        ust = rng.sample_categorical(cdf_ust, u[:, 0])
        y = rng.sample_categorical(cdf_chan[x_flat[ust]], u[:, 1])
        return float(union_flat[ust, y].sum())

    parts = rng.run_trials(trials, worker, threads=threads)
    total = sum(parts)
    mean = total / trials
    return McEstimate(mean, rng.bernoulli_stderr(mean, trials), trials, seed)
