"""Operations of the in-process workloads, with the output checks behind
``failed``.

``build(workload, doc, root)`` turns generated inputs into program objects
through public constructors (that is the workload's set-up) and returns the
deck: a list of ``(label, op)`` pairs, where ``op()`` is one operation and
raises :class:`CheckFailed` when an output check fails.  Every call into the
program goes through a module attribute at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os

import numpy as np

from oneshot import bounds, broadcast, cli, oracle, regions
from oneshot.probability import Joint, Kernel

from inputs import cli_outcome, out_path

#: brute force runs where |U|^M stays within this many raw codebooks
BRUTE_FORCE_MAX = 10**5
GAMMA_RANGE = (0.05, 6.0)


class CheckFailed(Exception):
    """An operation returned a value that failed its output check."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_mc(mean: float, stderr: float, trials: int, exact: float, what: str) -> None:
    """|MC - exact| <= 5 stderr + 1e-9; stderr is the larger of the reported
    one and the binomial one at the exact value, so an exact value near 0 or
    1 with an all-equal sample is not a false alarm."""
    se = max(stderr, math.sqrt(max(exact * (1.0 - exact), 0.0) / trials))
    _check(abs(mean - exact) <= 5.0 * se + 1e-9,
           f"{what}: MC {mean!r} vs exact {exact!r} (stderr {se!r})")


def _check_bounds(exact: float, reports, what: str) -> None:
    for name, rep in reports:
        _check(exact <= rep.clamped_value + 1e-12,
               f"{what}: exact {exact!r} above {name} bound {rep.clamped_value!r}")


# ---------------------------------------------------------------------------
# verify-ensemble
# ---------------------------------------------------------------------------


def _covering(joint, event, inst) -> None:
    M, L, g = inst["M"], inst["L"], inst["gamma"]
    spec = oracle.EnsembleSpec(joint, event, M, L)
    exact = oracle.exact_miss_prob(spec)
    if joint.shape[0] ** M <= BRUTE_FORCE_MAX:
        brute = oracle.exact_miss_prob_bruteforce(spec)
        _check(abs(brute - exact) <= 1e-12, f"brute force {brute!r} vs multisets {exact!r}")
    mc = oracle.mc_miss_prob(spec, inst["trials"], inst["mc_seed"])
    _check_mc(mc.mean, mc.stderr, mc.trials, exact, "mc_miss_prob")
    _, best = bounds.optimize_gamma("covering4", {"joint": joint, "event": event, "M": M, "L": L},
                                    GAMMA_RANGE)
    _check_bounds(exact, [
        ("covering1", bounds.mutual_covering_bound(joint, event, bounds.BoundParams(M, L, g))),
        ("covering4", bounds.simple_covering_bound(joint, event, M, L, g)),
        ("covering7", bounds.resolvability_covering_bound(joint, event, M, L, g)),
        ("covering4 at optimal gamma", best),
    ], "covering")


def _conditional(joint, event, inst) -> None:
    M, L, g = inst["M"], inst["L"], inst["gamma"]
    exact = oracle.exact_conditional_miss_prob(joint, event, M, L)
    mc = oracle.mc_conditional_miss_prob(joint, event, M, L, inst["trials"], inst["mc_seed"])
    _check_mc(mc.mean, mc.stderr, mc.trials, exact, "mc_conditional_miss_prob")
    _, best = bounds.optimize_gamma("covering5", {"joint": joint, "event": event, "M": M, "L": L},
                                    GAMMA_RANGE)
    _check_bounds(exact, [
        ("covering5", bounds.conditional_covering_bound(joint, event, M, L, g)),
        ("covering5 at optimal gamma", best),
    ], "conditional")


def _packing(joint, inst) -> None:
    exact = oracle.exact_packing_prob(joint, inst["M"], inst["N"], inst["gamma"])
    bound = bounds.packing_bound(inst["gamma"])
    _check(exact <= bound + 1e-12, f"packing: exact {exact!r} above bound {bound!r}")


def _resolvability(joint, inst) -> None:
    M, lam = inst["M"], inst["lam"]
    exact = oracle.resolvability_excess_exact(joint, M, lam)
    mc = oracle.mc_resolvability_excess(joint, M, lam, inst["trials"], inst["mc_seed"])
    _check_mc(mc.mean, mc.stderr, mc.trials, exact, "mc_resolvability_excess")
    _check_bounds(exact, [("resolvability", bounds.resolvability_excess_bound(joint, M, lam))],
                  "resolvability")


def _build_verify(doc, root):
    deck = []
    for i, inst in enumerate(doc["instances"]):
        joint = Joint(np.asarray(inst["joint"]))
        kind = inst["kind"]
        label = f"{kind}-{i}"
        if kind == "covering":
            op = functools.partial(_covering, joint, np.asarray(inst["event"], dtype=bool), inst)
        elif kind == "conditional":
            op = functools.partial(_conditional, joint, np.asarray(inst["event"], dtype=bool), inst)
        elif kind == "packing":
            op = functools.partial(_packing, joint, inst)
        else:
            op = functools.partial(_resolvability, joint, inst)
        deck.append((label, op))
    return deck


def repeated_row_share(doc) -> float:
    """Share of event-carrying instances whose event has two equal rows
    indexed by the codebook symbol (per conditioning symbol for 3-axis
    events): the property a covered-set DP can exploit."""
    flags = []
    for inst in doc["instances"]:
        if "event" in inst:
            ev = np.asarray(inst["event"], dtype=bool)
            slices = ev if ev.ndim == 3 else ev[None]
            flags.append(any(len(np.unique(rows, axis=0)) < len(rows) for rows in slices))
    return float(np.mean(flags))


# ---------------------------------------------------------------------------
# broadcast-sim
# ---------------------------------------------------------------------------


def _simulate(system, sizes, op) -> None:
    out = broadcast.simulate(system, sizes, op["gamma"], op["trials"], op["seed"],
                             reuse_codebook=op["reuse_codebook"],
                             random_message=op["random_message"])
    for name in ("eps1_hat", "eps2_hat", "stage1_eps1", "stage1_eps2"):
        mean = getattr(out, name).mean
        _check(0.0 <= mean <= 1.0, f"{name} = {mean!r} outside [0, 1]")
    _check(out.stage1_eps1.mean <= out.eps1_hat.mean, "receiver 1: stage-1 error above total")
    _check(out.stage1_eps2.mean <= out.eps2_hat.mean, "receiver 2: stage-1 error above total")


def _union(system, sizes, op) -> None:
    mc = broadcast.mc_event_union(system, sizes, op["gamma"], op["trials"], op["seed"])
    exact = broadcast.broadcast_bound(system, sizes, op["gamma"]).term("union")
    _check_mc(mc.mean, mc.stderr, mc.trials, exact, "mc_event_union")


def _build_broadcast(doc, root):
    with open(os.path.join(root, doc["config"])) as fh:
        system = broadcast.BroadcastSystem.from_json(json.load(fh))
    deck = []
    for i, op in enumerate(doc["ops"]):
        sizes = broadcast.SchemeSizes.from_string(op["sizes"])
        fn = _simulate if op["op"] == "simulate" else _union
        deck.append((f"{op['op']}-{op['sizes']}-{i}", functools.partial(fn, system, sizes, op)))
    return deck


# ---------------------------------------------------------------------------
# region-design
# ---------------------------------------------------------------------------


def _design(base, n, sizes, design, fractions) -> None:
    system = broadcast.product_extend_system(base, n) if n > 1 else base
    iv = regions.info_vector(system.joint_ust, system.x_map, system.channel)
    projection = regions.fme_project(iv)
    scale = max(iv.I1, iv.I2)
    for f0 in fractions:
        for f1 in fractions:
            for f2 in fractions:
                rates = regions.RateTriple(f0 * scale, f1 * scale, f2 * scale)
                direct = regions.region_contains(iv, rates)
                projected = regions.projection_contains(projection, rates)
                _check(direct == projected,
                       f"region_contains {direct} vs projection_contains {projected} at {rates}")
    for g in design["gammas"]:
        raw = broadcast.broadcast_bound(system, sizes, g).raw_value
        _check(math.isfinite(raw) and raw >= 0.0, f"broadcast bound {raw!r} at gamma {g!r}")
    if design["optimize"]:
        bounds.optimize_gamma("broadcast", {"system": system, "sizes": sizes}, GAMMA_RANGE)


def _build_region(doc, root):
    deck = []
    for i, d in enumerate(doc["designs"]):
        if d["type"] == "random":
            base = broadcast.BroadcastSystem(Joint(np.asarray(d["p_ust"])), np.asarray(d["x_map"]),
                                             Kernel(np.asarray(d["channel"]["rows"])))
            label = f"random-{i}"
        else:
            with open(os.path.join(root, d["config"])) as fh:
                base = broadcast.BroadcastSystem.from_json(json.load(fh))
            label = f"{os.path.basename(d['config'])}^{d['n']}-{i}"
        sizes = broadcast.SchemeSizes.from_string(d["sizes"])
        deck.append((label, functools.partial(_design, base, d["n"], sizes, d,
                                              doc["rate_fractions"])))
    return deck


# ---------------------------------------------------------------------------
# cli-cold, replayed in process (traced runs only)
# ---------------------------------------------------------------------------


def _replay(entry, root) -> None:
    path = out_path(entry["argv"])
    if path:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(root, path))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(entry["argv"]))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what `python -m oneshot` turns into exit 1
            code = 1
    reason = cli_outcome(entry, code, stderr.getvalue(), root)
    _check(reason is None, f"{entry['label']}: {reason}")


def _build_cli(doc, root):
    return [(e["label"], functools.partial(_replay, e, root)) for e in doc["cycle"]]


DECKS = {
    "verify-ensemble": _build_verify,
    "broadcast-sim": _build_broadcast,
    "region-design": _build_region,
    "cli-cold": _build_cli,
}


def build(workload: str, doc: dict, root: str):
    return DECKS[workload](doc, root)
