"""References the library is checked against.

The broadcast evaluation reads only the law of (u, s, t) and the two
receiver marginals.  The references here build the dense design joint
``P(u,s,t) channel(y1,y2 | x(u,s,t))`` over all five axes and read every
quantity off it: the marginals, the density tables, the five clause
probabilities and their union, the encoder's bad-output masses and the info
vector.  The info vector is also composed as the library composed it on
:class:`~oneshot.probability.Joint` objects, each one checked.
They also hold the multiset count the exact oracles' caps are
checked against, the critical-gamma search run one test at a time on the
test as given, and the gamma search that calls the remainder at every
probe and builds a whole report at every breakpoint it walks.

The scalar replay of the broadcast scheme is here too: one codebook, drawn
from its reuse group's block of the seed's PCG64DXSM stream as
:func:`~oneshot.broadcast.simulate` reads it, the message and channel
uniforms from the trial's block of the stream's first spawned child, the
encoder and the two threshold decoders, one trial at a time.  It draws
numpy's own doubles from fresh bit generators and samples by a float binary
search on the float cdfs, so it shares neither the library's integer
uniforms nor its sampler.  The brute force of each receiver's exact error
over every whole codebook and output, built on the same encoder and
decoders, is here too.  So is the seven-variable
auxiliary-rate system whose projection is the closed form of
:mod:`oneshot.regions`.
"""

import bisect
import itertools
import math
import sys

import numpy as np

from oneshot.bounds import _GOLDEN, _bound_parts, _raw_sum
from oneshot.broadcast import CLAUSES, BroadcastSystem, SchemeSizes, thresholds_for, zeta_table
from oneshot.probability import (Joint, cond_info_density_table, cond_mutual_info,
                                 info_density_table, log_ratio_table, mutual_info)
from oneshot.regions import InfoVector


def multiset_count(M: int, k: int) -> int:
    """Number of codeword multisets: C(M + k - 1, M)."""
    return math.comb(M + k - 1, M)


def critical_gammas(values, test, c: float, slope: float) -> np.ndarray:
    """:func:`oneshot.bounds.critical_gammas` searched on ``test`` itself:
    for each value, the smallest positive double gamma at which ``test(v, c +
    slope * gamma)`` holds (0 if it holds at every positive gamma, ``inf`` if
    at none), galloping from the estimate's bit pattern and then bisecting,
    over the cells not yet bracketed only."""
    tiny, top = 1, int(np.float64(sys.float_info.max).view(np.int64))
    v = np.asarray(values, dtype=float).ravel()
    out = np.full(v.shape, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        def holds(vals, bits):
            return test(vals, c + slope * bits.view(np.float64))

        always = holds(v, np.full(v.shape, tiny))
        out[always] = 0.0
        todo = np.flatnonzero(~always & holds(v, np.full(v.shape, top)))
        vals = v[todo]
        below = np.nextafter(vals, -np.inf)
        side = np.where(test(vals, below) != test(vals, vals), below, np.nextafter(vals, np.inf))
        est = ((vals - c) + (side - vals) / 2) / slope
        bits = np.clip(est, 5e-324, sys.float_info.max).view(np.int64)
        down = holds(vals, bits)
        lo, hi = np.where(down, tiny, bits), np.where(down, bits, top)
        step = np.ones_like(bits)
        rest = np.flatnonzero(hi - lo > 1)
        while rest.size:
            l, h, s, d = lo[rest], hi[rest], step[rest], down[rest]
            probe = np.clip(np.where(s > 0, np.where(d, h - s, l + s), l + (h - l) // 2), l + 1, h - 1)
            ok = holds(vals[rest], probe)
            hi[rest] = np.where(ok, probe, h)
            lo[rest] = np.where(ok, l, probe)
            step[rest] = np.where(ok == d, 2 * s, 0)
            rest = rest[hi[rest] - lo[rest] > 1]
        out[todo] = hi.view(np.float64)
    return out.reshape(np.shape(values))


def unimodal_argmin(f, lo: float, hi: float) -> float:
    """:func:`oneshot.bounds._unimodal_argmin` calling ``f`` afresh at each
    probe, and again at every final candidate."""
    a, b = lo, hi
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while a < x1 < x2 < b:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return min((lo, a, x1, x2, b, hi), key=lambda x: (f(x), x))


def optimize_gamma(kind: str, instance, search_range):
    """:func:`oneshot.bounds.optimize_gamma` comparing whole reports: the
    remainder's minimizer, then the point just below each breakpoint left of
    it, right to left, until the remainder alone exceeds the best."""
    report, steps, terms, _ = _bound_parts(kind, instance)
    lo, hi = search_range

    def remainder(g):
        return _raw_sum(terms(g, 0.0))

    best_g = unimodal_argmin(remainder, lo, hi)
    best = report(best_g)
    points = steps.breakpoints
    for b in reversed(points[bisect.bisect_right(points, lo):bisect.bisect_right(points, best_g)]):
        g = math.nextafter(b, 0.0)
        if remainder(g) > best.raw_value:
            break
        candidate = report(g)
        if candidate.raw_value <= best.raw_value:
            best_g, best = g, candidate
    return best_g, best


#: how each clause table spreads over (u, s, t, y1, y2)
AXES = {
    "head1": np.s_[:, :, None, :, None],
    "head2": np.s_[:, None, :, None, :],
    "inner1": np.s_[:, :, None, :, None],
    "inner2": np.s_[:, None, :, None, :],
    "cross": np.s_[:, :, :, None, None],
}


def design_joint(system: BroadcastSystem) -> np.ndarray:
    """The design joint over (u, s, t, y1, y2)."""
    return system.joint_ust.probs[:, :, :, None, None] * system.channel.rows[system.x_map]


class DenseTables:
    """Marginals and density tables read off :func:`design_joint`."""

    def __init__(self, system: BroadcastSystem):
        self.rows = system.channel.rows[system.x_map]
        self.full = design_joint(system)
        p_ust = system.joint_ust.probs
        self.p_u = p_ust.sum(axis=(1, 2))
        self.p_us = p_ust.sum(axis=2)
        self.p_ut = p_ust.sum(axis=1)
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

    def clause_masks(self, thr: dict[str, float]) -> dict[str, np.ndarray]:
        """Each clause spread over (u, s, t, y1, y2)."""
        return {name: np.broadcast_to(c.test(getattr(self, c.table), thr[name])[AXES[name]],
                                      self.full.shape)
                for name, c in CLAUSES.items()}

    def union_mask(self, sizes: SchemeSizes, gamma: float) -> np.ndarray:
        """The union of the five clauses over (u, s, t, y1, y2)."""
        return np.logical_or.reduce(list(self.clause_masks(thresholds_for(sizes, gamma)).values()))

    def zeta(self, sizes: SchemeSizes, gamma: float) -> np.ndarray:
        """The channel mass over (u, s, t) of the outputs where a receiver's
        head or inner clause holds: the channel rows at ``x(u,s,t)`` summed
        over that five-axis mask."""
        m = self.clause_masks(thresholds_for(sizes, gamma))
        bad = m["head1"] | m["inner1"] | m["head2"] | m["inner2"]
        return (self.rows * bad).sum(axis=(3, 4))

    def event_probabilities(self, sizes: SchemeSizes, gamma: float) -> dict[str, float]:
        """The five clause probabilities and their union, each a masked sum
        of the design joint."""
        masks = self.clause_masks(thresholds_for(sizes, gamma))
        probs = {name: float(self.full[mask].sum()) for name, mask in masks.items()}
        probs["union"] = float(self.full[self.union_mask(sizes, gamma)].sum())
        return probs


def info_vector(system: BroadcastSystem) -> InfoVector:
    """The five informations read off the design joint."""
    full = Joint(design_joint(system)).probs
    j_01_y1, j_02_y2 = Joint(full.sum(axis=(2, 4))), Joint(full.sum(axis=(1, 3)))
    return InfoVector(
        I1=mutual_info(_merged_head(j_01_y1)),
        I2=mutual_info(_merged_head(j_02_y2)),
        J1=cond_mutual_info(j_01_y1, 0),
        J2=cond_mutual_info(j_02_y2, 0),
        K=cond_mutual_info(system.joint_ust, 0),
    )


def composed_info_vector(joint_u: Joint, x_map, channel) -> InfoVector:
    """The five informations composed on :class:`Joint` objects: each receiver
    marginal wrapped, its (us, y) merge for the head terms, and each
    information read off a :class:`Joint` by :func:`joint_mutual_info` or
    :func:`joint_cond_mutual_info`."""
    j_01_y1, j_02_y2 = map(Joint, BroadcastSystem(joint_u, x_map, channel).marginals)
    return InfoVector(
        I1=joint_mutual_info(_merged_head(j_01_y1)),
        I2=joint_mutual_info(_merged_head(j_02_y2)),
        J1=joint_cond_mutual_info(j_01_y1, 0),
        J2=joint_cond_mutual_info(j_02_y2, 0),
        K=joint_cond_mutual_info(joint_u, 0),
    )


def _merged_head(j_us_y: Joint) -> Joint:
    """The law of ((u, s), y) as a 2-axis :class:`Joint`, (u, s) merged row-major."""
    return Joint(j_us_y.probs.reshape(-1, j_us_y.shape[2]))


def joint_mutual_info(joint: Joint) -> float:
    """Mutual information read off the density table of a :class:`Joint`."""
    arr = joint.probs
    sup = arr > 0
    return float((arr[sup] * info_density_table(joint)[sup]).sum())


def joint_cond_mutual_info(joint: Joint, given_axis: int) -> float:
    """Conditional mutual information read off the conditional density table
    of a :class:`Joint` of the moved axes, which renormalizes them."""
    arr = np.moveaxis(joint.probs, given_axis, 0)
    sup = arr > 0
    return float((arr[sup] * cond_info_density_table(Joint(arr))[sup]).sum())


def stream_doubles(seed: int, first: int, k: int, child: bool = False) -> np.ndarray:
    """``k`` of numpy's own doubles from position ``first`` of the seed's
    stream, ``Generator(PCG64DXSM(seed))``, or with ``child`` of the stream
    of ``SeedSequence(seed).spawn(1)[0]``, each from a fresh bit generator."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(1)[0] if child else seed)
    bits.advance(first)
    return np.random.Generator(bits).random(k)


def categorical(cdf: np.ndarray, u) -> np.ndarray:
    """The number of entries of the float ``cdf`` that are ``<= u``, clamped
    to the last symbol: a float binary search."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def codebook_budget(sizes: SchemeSizes) -> int:
    """Uniforms of a codebook of :func:`~oneshot.broadcast.simulate`: the
    cloud words, then each cloud's satellite words."""
    return sizes.M * (1 + sizes.N * sizes.Nhat + sizes.L * sizes.Lhat)


def sample_codebook(system: BroadcastSystem, sizes: SchemeSizes, seed: int, group: int = 0,
                    stride: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The codebook :func:`~oneshot.broadcast.simulate` draws for reuse
    group ``group`` (trial ``group`` without reuse) under ``seed``: the cloud
    words ``u`` (M,) and the satellites ``s`` (M, N, Nhat) and ``t``
    (M, L, Lhat), each codeword from its own uniform, through the float cdfs
    of P_U and of the rows of P_{S|U} and P_{T|U} (all zeros for a cloud
    symbol of no mass).  The uniforms are the M cloud words, then the
    s-layer's words codeword by codeword (each codeword's M clouds
    together), then the t-layer's.  They start at ``group * stride`` of the
    seed's stream, by default at the group's block of
    :func:`codebook_budget` words."""
    M, ns, nt = sizes.M, sizes.M * sizes.N * sizes.Nhat, sizes.M * sizes.L * sizes.Lhat
    k = codebook_budget(sizes)
    uni = stream_doubles(seed, group * (k if stride is None else stride), k)
    p_ust = system.joint_ust.probs
    p_u = p_ust.sum(axis=(1, 2))
    u = categorical(np.cumsum(p_u), uni[:M])

    def layer(p_ux, draws, shape):
        rows = [np.cumsum(p_ux[w] / p_u[w]) if p_u[w] > 0 else np.zeros(p_ux.shape[1])
                for w in u]
        return np.array([categorical(r, d)
                         for r, d in zip(rows, draws.reshape(-1, M).T)]).reshape(M, *shape)

    s = layer(p_ust.sum(axis=2), uni[M:M + ns], (sizes.N, sizes.Nhat))
    t = layer(p_ust.sum(axis=1), uni[M + ns:M + ns + nt], (sizes.L, sizes.Lhat))
    return u, s, t


def message_index(sizes: SchemeSizes, w0: int, w10: int, w20: int) -> int:
    """Mixed-radix cloud index of the public parts, w0 most significant."""
    return (w0 * sizes.M10 + w10) * sizes.M20 + w20


def message_split(sizes: SchemeSizes, m: int) -> tuple[int, int, int]:
    """Inverse of :func:`message_index`."""
    return m // (sizes.M10 * sizes.M20), (m // sizes.M20) % sizes.M10, m % sizes.M20


def encode(cb, system: BroadcastSystem, sizes: SchemeSizes, zt: np.ndarray,
           m: int, a: int, b: int) -> tuple[int, int, int]:
    """The pair ``(ahat, bhat)`` of row ``a`` of cloud ``m``'s s-layer and row
    ``b`` of its t-layer minimizing the bad-set mass ``zt`` (the library's
    :func:`~oneshot.broadcast.zeta_table`), and the symbol ``x`` sent.  Ties
    of ζ in floating point resolve to the lexicographically smallest pair."""
    u, s, t = cb
    svals, tvals = s[m, a], t[m, b]
    z = zt[u[m], svals[:, None], tvals[None, :]]
    ahat, bhat = divmod(int(np.argmin(z.reshape(-1))), sizes.Lhat)
    return ahat, bhat, int(system.x_map[u[m], svals[ahat], tvals[bhat]])


def decode(cb, system: BroadcastSystem, sizes: SchemeSizes, gamma: float, y: int,
           receiver: int) -> tuple[int, int, int, int] | None:
    """Receiver ``receiver``'s decoder at its output ``y``: the one cloud some
    satellite of which passes the head test, then the one satellite of it
    passing the inner test, as ``(w0, w10, w20, inner)``; None if there is
    no candidate or more than one at either stage."""
    u, s, t = cb
    sat, cols = (s, sizes.Nhat) if receiver == 1 else (t, sizes.Lhat)
    thr = thresholds_for(sizes, gamma)
    head, inner = f"head{receiver}", f"inner{receiver}"
    # a test passes where its density exceeds the threshold: the clause fails
    head_vals = getattr(system.tables, CLAUSES[head].table)[u[:, None, None], sat, y]
    fires = (head_vals > thr[head]).any(axis=(1, 2))
    if fires.sum() != 1:
        return None
    m = int(np.argmax(fires))
    hits = getattr(system.tables, CLAUSES[inner].table)[u[m], sat[m], y] > thr[inner]
    if hits.sum() != 1:
        return None
    return (*message_split(sizes, m), int(np.argmax(hits.reshape(-1))) // cols)


def replay(system: BroadcastSystem, sizes: SchemeSizes, gamma: float, zt: np.ndarray, seed: int,
           trial: int, group: int, random_message: bool) -> tuple[bool, bool]:
    """Whether each receiver errs in ``trial`` of
    :func:`~oneshot.broadcast.simulate`, replayed by the functions above on
    the codebook of reuse group ``group`` and the trial's own message and
    channel uniforms from the child stream."""
    cb = sample_codebook(system, sizes, seed, group)
    tail = 5 * random_message + 1
    uni = stream_doubles(seed, trial * tail, tail, child=True)
    w0 = w10 = w20 = a = b = 0
    if random_message:
        radices = (sizes.M0, sizes.M10, sizes.M20, sizes.N, sizes.L)
        w0, w10, w20, a, b = (min(int(x * r), r - 1) for x, r in zip(uni[:-1], radices))
    _, _, x = encode(cb, system, sizes, zt, message_index(sizes, w0, w10, w20), a, b)
    y = int(categorical(np.cumsum(system.channel.rows[x].reshape(-1)), uni[-1]))
    y1, y2 = divmod(y, system.channel.out_shape[1])
    return (decode(cb, system, sizes, gamma, y1, 1) != (w0, w10, w20, a),
            decode(cb, system, sizes, gamma, y2, 2) != (w0, w10, w20, b))



def exact_errors_bruteforce(system: BroadcastSystem, sizes: SchemeSizes,
                            gamma: float) -> tuple[float, float]:
    """Each receiver's error by raw enumeration of every whole codebook and
    every output (cross-check for :func:`~oneshot.broadcast.exact_errors`).

    Each codebook of positive probability is encoded by :func:`encode` at
    the all-zeros message, with the library's
    :func:`~oneshot.broadcast.zeta_table`, and decoded by :func:`decode` at
    every output of each receiver's marginal channel row."""
    p_ust = system.joint_ust.probs
    p_u = p_ust.sum(axis=(1, 2))
    ku, ks, kt, _, _ = system.shape
    M, ns, nt = sizes.M, sizes.M * sizes.N * sizes.Nhat, sizes.M * sizes.L * sizes.Lhat
    assert ku**M * ks**ns * kt**nt <= 10**4, "too many codebooks to enumerate"
    live = np.where(p_u > 0, p_u, 1.0)[:, None]
    p_s, p_t = p_ust.sum(axis=2) / live, p_ust.sum(axis=1) / live
    rows = (system.channel.rows.sum(axis=2), system.channel.rows.sum(axis=1))
    zt = zeta_table(system, sizes, gamma)
    errors = [0.0, 0.0]
    for book in itertools.product(*(range(k) for k in [ku] * M + [ks] * ns + [kt] * nt)):
        u = np.array(book[:M])
        s = np.array(book[M:M + ns]).reshape(M, sizes.N, sizes.Nhat)
        t = np.array(book[M + ns:]).reshape(M, sizes.L, sizes.Lhat)
        p = p_u[u].prod() * p_s[u[:, None, None], s].prod() * p_t[u[:, None, None], t].prod()
        if p == 0.0:
            continue
        _, _, x = encode((u, s, t), system, sizes, zt, 0, 0, 0)
        for r in (1, 2):
            for y, w in enumerate(rows[r - 1][x]):
                if w > 0.0 and decode((u, s, t), system, sizes, gamma, y, r) != (0, 0, 0, 0):
                    errors[r - 1] += p * w
    return errors[0], errors[1]

#: the columns of :func:`auxiliary_system`, before its constant
AUX_VARIABLES = ("R0", "R1", "R2", "R11", "R22", "Rh1", "Rh2")


def auxiliary_system(iv: InfoVector) -> np.ndarray:
    """The auxiliary-rate system as 11 <=-rows ``[R0 R1 R2 R11 R22 Rh1 Rh2 |
    constant]``: per receiver, the private split at most the private rate,
    the head row against I and the satellite row against J; then the cross
    row Rh1 + Rh2 >= K and the four auxiliary rates >= 0, each negated."""
    rows = np.array([
        [0, -1, 0, 1, 0, 0, 0, 0.0],
        [0, 0, -1, 0, 1, 0, 0, 0.0],
        [1, 1, 1, 0, -1, 1, 0, iv.I1],
        [1, 1, 1, -1, 0, 0, 1, iv.I2],
        [0, 0, 0, 1, 0, 1, 0, iv.J1],
        [0, 0, 0, 0, 1, 0, 1, iv.J2],
        [0, 0, 0, 0, 0, 1, 1, iv.K],
        [0, 0, 0, 1, 0, 0, 0, 0.0],
        [0, 0, 0, 0, 1, 0, 0, 0.0],
        [0, 0, 0, 0, 0, 1, 0, 0.0],
        [0, 0, 0, 0, 0, 0, 1, 0.0],
    ])
    rows[6:] *= -1.0
    return rows
