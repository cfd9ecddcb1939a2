"""Batch command-line front door.

Subcommands: ``bound``, ``verify``, ``simulate``, ``sweep``, ``region``.
JSON in, JSON or CSV out; identical inputs and seed give byte-identical
output regardless of the thread count.  Exit codes: 0 success, 1 an
enumeration cap was exceeded, 2 bad configuration or input schema.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, bounds, broadcast, oracle, regions
from .errors import EnumerationCapError, InputFormatError, OneshotError
from .probability import Joint

NATS_PER_BIT = math.log(2.0)

BOUND_KINDS = ("covering1", "covering4", "covering5", "covering7",
               "resolvability", "packing", "broadcast")
VERIFY_KINDS = ("covering", "covering5", "resolvability", "packing", "broadcast")


def _float_fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(text: str, out_path: str | None) -> None:
    """Write atomically: no partial files on error."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oneshot-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list], preamble: list[str] | None = None) -> str:
    lines = list(preamble or [])
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_float_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _payload(args, **extra) -> dict:
    return {
        "tool": "oneshot",
        "version": __version__,
        "seed": args.seed,
        **extra,
    }


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(f"{what}: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{what}: invalid JSON in {path}: {exc}") from None


def _load_joint(path: str) -> Joint:
    return Joint.from_json(_load_json(path, "--dist"))


def _load_event(path: str | None, shape) -> np.ndarray:
    if path is None:
        return bounds.full_event(shape)
    doc = _load_json(path, "--event")
    if isinstance(doc, dict) and "points" in doc:
        return bounds.event_from_points(shape, doc["points"])
    if isinstance(doc, dict) and "mask" in doc:
        doc = doc["mask"]
    mask = np.asarray(doc)
    if mask.shape != tuple(shape):
        raise InputFormatError(
            f"--event: mask shape {mask.shape} does not match the joint shape {tuple(shape)}"
        )
    return mask.astype(bool)


def _require(args, names: list[str], kind: str) -> None:
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_"), None) is None:
            raise InputFormatError(f"{name} is required for kind {kind!r}")


def _load_system(args) -> broadcast.BroadcastSystem:
    what = getattr(args, "kind", args.command)
    _require(args, ["--config"], what)
    return broadcast.BroadcastSystem.from_json(_load_json(args.config, "--config"))


def _load_sizes(args) -> broadcast.SchemeSizes:
    if getattr(args, "sizes_file", None):
        return broadcast.SchemeSizes.from_json(_load_json(args.sizes_file, "--sizes-file"))
    if getattr(args, "sizes", None):
        return broadcast.SchemeSizes.from_string(args.sizes)
    what = getattr(args, "kind", args.command)
    raise InputFormatError(f"--sizes or --sizes-file is required for {what!r}")


def _parse_delta(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(f'--delta: expected a number or "auto", got {text!r}') from None


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _evaluate_bound_from_args(args) -> bounds.BoundReport:
    kind = args.kind
    if kind in ("covering1", "covering4", "covering5", "covering7"):
        _require(args, ["--dist", "--M", "--L", "--gamma"], kind)
        joint = _load_joint(args.dist)
        if kind == "covering5" and joint.ndim != 3:
            raise InputFormatError("--dist: covering5 needs a 3-axis joint")
        event = _load_event(args.event, joint.shape)
        if kind == "covering1":
            params = bounds.BoundParams(args.M, args.L, args.gamma,
                                        _parse_delta(args.delta), args.union_form)
            return bounds.mutual_covering_bound(joint, event, params)
        if kind == "covering4":
            return bounds.simple_covering_bound(joint, event, args.M, args.L,
                                                args.gamma, args.union_form)
        if kind == "covering5":
            return bounds.conditional_covering_bound(joint, event, args.M, args.L, args.gamma)
        return bounds.resolvability_covering_bound(joint, event, args.M, args.L, args.gamma)
    if kind == "resolvability":
        _require(args, ["--dist", "--M", "--lam"], kind)
        return bounds.resolvability_excess_bound(_load_joint(args.dist), args.M, args.lam)
    if kind == "packing":
        _require(args, ["--gamma"], kind)
        return bounds.BoundReport((("bound", bounds.packing_bound(args.gamma)),),
                                  {"gamma": args.gamma})
    if kind == "broadcast":
        _require(args, ["--gamma"], kind)
        return broadcast.broadcast_bound(_load_system(args), _load_sizes(args), args.gamma)
    raise InputFormatError(f"unknown bound kind {kind!r}")


def cmd_bound(args) -> int:
    report = _evaluate_bound_from_args(args)
    if args.format == "json":
        text = _json_text(_payload(args, command="bound", kind=args.kind,
                                   report=report.to_json()))
    else:
        names = list(report.term_names())
        header = names + ["total", "clamped"]
        row = [report.term(n) for n in names] + [report.raw_value, report.clamped_value]
        pre = [f"# tool=oneshot version={__version__} command=bound kind={args.kind} seed={args.seed}"]
        text = _csv_text(header, [row], pre)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_rows_covering(args) -> list[dict]:
    joint = _load_joint(args.dist)
    event = _load_event(args.event, joint.shape)
    spec = oracle.EnsembleSpec(joint, event, args.M, args.L)
    rows: list[dict] = []
    exact = None
    try:
        exact = oracle.exact_miss_prob(spec)
        rows.append({"name": "exact", "value": exact})
    except EnumerationCapError as exc:
        print(f"warning: exact value skipped: {exc}", file=sys.stderr)
    mc = oracle.mc_miss_prob(spec, args.trials, args.seed, args.threads)
    rows.append({"name": "mc", "value": mc.mean, "stderr": mc.stderr, "trials": mc.trials})
    delta = _parse_delta(args.delta)
    evaluations = [
        ("covering1", bounds.mutual_covering_bound(
            joint, event, bounds.BoundParams(args.M, args.L, args.gamma, delta, args.union_form))),
        ("covering4", bounds.simple_covering_bound(joint, event, args.M, args.L,
                                                   args.gamma, args.union_form)),
        ("covering7", bounds.resolvability_covering_bound(joint, event, args.M, args.L, args.gamma)),
    ]
    for name, rep in evaluations:
        ref = exact if exact is not None else mc.mean - 4.0 * mc.stderr
        rows.append({
            "name": name,
            "value": rep.clamped_value,
            "violation": bool(ref > rep.clamped_value + 1e-12),
        })
    return rows


def _verify_rows_covering5(args) -> list[dict]:
    joint = _load_joint(args.dist)
    if joint.ndim != 3:
        raise InputFormatError("--dist: covering5 needs a 3-axis joint")
    event = _load_event(args.event, joint.shape)
    rows: list[dict] = []
    exact = None
    try:
        exact = oracle.exact_conditional_miss_prob(joint, event, args.M, args.L)
        rows.append({"name": "exact", "value": exact})
    except EnumerationCapError as exc:
        print(f"warning: exact value skipped: {exc}", file=sys.stderr)
    mc = oracle.mc_conditional_miss_prob(joint, event, args.M, args.L,
                                         args.trials, args.seed, args.threads)
    rows.append({"name": "mc", "value": mc.mean, "stderr": mc.stderr, "trials": mc.trials})
    rep = bounds.conditional_covering_bound(joint, event, args.M, args.L, args.gamma)
    ref = exact if exact is not None else mc.mean - 4.0 * mc.stderr
    rows.append({
        "name": "covering5",
        "value": rep.clamped_value,
        "violation": bool(ref > rep.clamped_value + 1e-12),
    })
    return rows


def _verify_rows_resolvability(args) -> list[dict]:
    joint = _load_joint(args.dist)
    rows: list[dict] = []
    exact = None
    try:
        exact = oracle.resolvability_excess_exact(joint, args.M, args.lam)
        rows.append({"name": "exact", "value": exact})
    except EnumerationCapError as exc:
        print(f"warning: exact value skipped: {exc}", file=sys.stderr)
    mc = oracle.mc_resolvability_excess(joint, args.M, args.lam,
                                        args.trials, args.seed, args.threads)
    rows.append({"name": "mc", "value": mc.mean, "stderr": mc.stderr, "trials": mc.trials})
    rep = bounds.resolvability_excess_bound(joint, args.M, args.lam)
    ref = exact if exact is not None else mc.mean - 4.0 * mc.stderr
    rows.append({
        "name": "resolvability",
        "value": rep.raw_value,
        "violation": bool(ref > rep.raw_value + 1e-12),
    })
    return rows


def _verify_rows_packing(args) -> list[dict]:
    joint = _load_joint(args.dist)
    rows: list[dict] = []
    exact = None
    try:
        exact = oracle.exact_packing_prob(joint, args.M, args.N, args.gamma)
        rows.append({"name": "exact", "value": exact})
    except EnumerationCapError as exc:
        print(f"warning: exact value skipped: {exc}", file=sys.stderr)
    bound = bounds.packing_bound(args.gamma)
    rows.append({
        "name": "packing",
        "value": bound,
        "violation": bool(exact is not None and exact > bound + 1e-12),
    })
    return rows


def _verify_rows_broadcast(args) -> list[dict]:
    system = _load_system(args)
    sizes = _load_sizes(args)
    outcome = broadcast.simulate(system, sizes, args.gamma, args.trials, args.seed,
                                 threads=args.threads)
    clamped = outcome.bound.clamped_value
    rows = [
        {"name": "eps1_hat", "value": outcome.eps1_hat.mean, "stderr": outcome.eps1_hat.stderr},
        {"name": "eps2_hat", "value": outcome.eps2_hat.mean, "stderr": outcome.eps2_hat.stderr},
        {"name": "broadcast", "value": clamped,
         "violation": bool(max(outcome.eps1_hat.mean - 4 * outcome.eps1_hat.stderr,
                               outcome.eps2_hat.mean - 4 * outcome.eps2_hat.stderr) > clamped + 1e-12)},
    ]
    union_mc = broadcast.mc_event_union(system, sizes, args.gamma, args.trials, args.seed,
                                        threads=args.threads)
    rows.append({"name": "union_exact", "value": outcome.bound.term("union")})
    rows.append({"name": "union_mc", "value": union_mc.mean, "stderr": union_mc.stderr,
                 "violation": bool(abs(union_mc.mean - outcome.bound.term("union"))
                                   > 4 * max(union_mc.stderr, 1e-12))})
    return rows


def cmd_verify(args) -> int:
    builders = {
        "covering": _verify_rows_covering,
        "covering5": _verify_rows_covering5,
        "resolvability": _verify_rows_resolvability,
        "packing": _verify_rows_packing,
        "broadcast": _verify_rows_broadcast,
    }
    needs = {
        "covering": ["--dist", "--M", "--L", "--gamma"],
        "covering5": ["--dist", "--M", "--L", "--gamma"],
        "resolvability": ["--dist", "--M", "--lam"],
        "packing": ["--dist", "--M", "--N", "--gamma"],
        "broadcast": ["--gamma"],
    }
    _require(args, needs[args.kind], args.kind)
    rows = builders[args.kind](args)
    if args.format == "json":
        text = _json_text(_payload(args, command="verify", kind=args.kind,
                                   trials=args.trials, rows=rows))
    else:
        header = ["name", "value", "stderr", "violation"]
        table = [[r["name"], r.get("value", ""), r.get("stderr", ""), r.get("violation", "")]
                 for r in rows]
        pre = [f"# tool=oneshot version={__version__} command=verify kind={args.kind} "
               f"seed={args.seed} trials={args.trials}"]
        text = _csv_text(header, table, pre)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    system = _load_system(args)
    sizes = _load_sizes(args)
    outcome = broadcast.simulate(system, sizes, args.gamma, args.trials, args.seed,
                                 threads=args.threads, reuse_codebook=args.reuse_codebook,
                                 random_message=args.random_message)
    if args.format == "json":
        text = _json_text(_payload(args, command="simulate", outcome=outcome.to_json()))
    else:
        header = ["name", "value", "stderr"]
        table = [
            ["eps1_hat", outcome.eps1_hat.mean, outcome.eps1_hat.stderr],
            ["eps2_hat", outcome.eps2_hat.mean, outcome.eps2_hat.stderr],
            ["bound_raw", outcome.bound.raw_value, ""],
            ["bound_clamped", outcome.bound.clamped_value, ""],
        ]
        pre = [f"# tool=oneshot version={__version__} command=simulate seed={args.seed} "
               f"trials={args.trials} gamma={_float_fmt(args.gamma)}"]
        text = _csv_text(header, table, pre)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    if not args.steps >= 2:
        raise InputFormatError("--steps must be >= 2")
    if not args.start < args.stop:
        raise InputFormatError("--from must be strictly less than --to")
    if args.param in ("gamma", "delta") and args.start <= 0:
        raise InputFormatError(f"--from: {args.param} grid must be positive")
    grid = np.linspace(args.start, args.stop, args.steps)

    if args.param == "delta" and args.kind != "covering1":
        raise InputFormatError("--param delta requires kind covering1")
    if args.param == "lambda" and args.kind != "resolvability":
        raise InputFormatError("--param lambda requires kind resolvability")
    if args.param == "gamma" and args.kind == "resolvability":
        raise InputFormatError("--param gamma does not apply to kind resolvability")

    reports = []
    for value in grid:
        value = float(value)
        if args.param == "gamma":
            args.gamma = value
        elif args.param == "delta":
            args.delta = repr(value)
        else:
            args.lam = value
        reports.append((value, _evaluate_bound_from_args(args)))

    names = list(reports[0][1].term_names())
    with_delta_col = args.kind == "covering1" and args.param != "delta"
    rows = []
    for value, rep in reports:
        row = [value]
        if with_delta_col:
            row.append(rep.params["delta"])
        row += [rep.term(n) for n in names] + [rep.raw_value, rep.clamped_value]
        rows.append(row)
    header = [args.param] + (["delta"] if with_delta_col else []) \
        + names + ["total", "clamped"]
    if args.format == "json":
        text = _json_text(_payload(args, command="sweep", kind=args.kind, param=args.param,
                                   rows=[dict(zip(header, row)) for row in rows]))
    else:
        text = _csv_text(header, rows)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    doc = _load_json(args.config, "--config")
    system = broadcast.BroadcastSystem.from_json(doc)
    iv = regions.info_vector(system.joint_ust, system.x_map, system.channel)
    if args.units == "bits":
        # the system is linear-homogeneous, so rescaling the vector (and
        # interpreting rates in bits) is an exact change of units
        iv = regions.InfoVector(*(getattr(iv, n) / NATS_PER_BIT
                                  for n in ("I1", "I2", "J1", "J2", "K")))
    if args.rates is None and not args.project:
        raise InputFormatError("--rates or --project is required")
    results: dict = {"info_vector": iv.to_json(), "units": args.units}
    if args.rates is not None:
        rates = regions.RateTriple.from_string(args.rates)
        inside = regions.region_contains(iv, rates)
        results["rates"] = {"R0": rates.R0, "R1": rates.R1, "R2": rates.R2}
        results["inside"] = bool(inside)
    if args.project:
        results["projection"] = regions.fme_project(iv).to_json()
    if args.format == "json":
        text = _json_text(_payload(args, command="region", results=results))
    else:
        rows = []
        if "inside" in results:
            rows.append(["inside", "inside" if results["inside"] else "outside"])
        if "projection" in results:
            rows += [["inequality", p] for p in results["projection"]["pretty"]]
        pre = [f"# tool=oneshot version={__version__} command=region seed={args.seed}"]
        text = _csv_text(["name", "value"], rows, pre)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    common.add_argument("--threads", type=int, default=1, help="worker threads for trials")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json; sweep defaults to csv)")
    common.add_argument("--out", default=None, help="output file (default stdout)")

    inst = argparse.ArgumentParser(add_help=False)
    inst.add_argument("--dist", help="JSON joint distribution file")
    inst.add_argument("--event", help="JSON event file (points or mask); default full space")
    inst.add_argument("--M", type=int)
    inst.add_argument("--L", type=int)
    inst.add_argument("--N", type=int)
    inst.add_argument("--gamma", type=float)
    inst.add_argument("--delta", default="auto", help='splitting parameter or "auto"')
    inst.add_argument("--lam", type=float, help="resolvability threshold ratio")
    inst.add_argument("--union-form", action="store_true",
                      help="merge the two probability terms into a union")
    inst.add_argument("--config", help="broadcast system JSON file")
    inst.add_argument("--sizes", help="M0,M10,M20,N,L,Nhat,Lhat")
    inst.add_argument("--sizes-file", help="sizes as a flat JSON object")

    parser = argparse.ArgumentParser(
        prog="oneshot",
        description="Finite-alphabet one-shot coding bounds, oracles, and simulators.",
    )
    parser.add_argument("--version", action="version", version=f"oneshot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[common, inst],
                             help="evaluate a closed-form bound")
    p_bound.add_argument("kind", choices=BOUND_KINDS)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", parents=[common, inst],
                              help="compare exact oracles, Monte Carlo, and bounds")
    p_verify.add_argument("kind", choices=VERIFY_KINDS)
    p_verify.add_argument("--trials", type=int, default=10000)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common, inst],
                           help="simulate the broadcast coding scheme")
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--reuse-codebook", type=int, default=1, metavar="K",
                       help="share one codebook across K consecutive trials")
    p_sim.add_argument("--random-message", action="store_true",
                       help="draw messages uniformly instead of the all-ones message")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common, inst],
                             help="sweep a bound parameter over a grid (CSV rows)")
    p_sweep.add_argument("--param", choices=("gamma", "delta", "lambda"), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("kind", choices=BOUND_KINDS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_region = sub.add_parser("region", parents=[common],
                              help="test rate membership or project the region")
    p_region.add_argument("--config", required=True,
                          help="design JSON (auxiliary joint, x_map, channel)")
    p_region.add_argument("--rates", help="R0,R1,R2")
    p_region.add_argument("--project", action="store_true",
                          help="emit the projected inequality system")
    p_region.add_argument("--units", choices=("nats", "bits"), default="nats",
                          help="unit for information values and rates")
    p_region.set_defaults(func=cmd_region)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "csv" if args.command == "sweep" else "json"
    if args.command == "simulate" and args.gamma is None:
        parser.error("--gamma is required for simulate")
    try:
        if getattr(args, "trials", 1) < 1:
            raise InputFormatError("--trials must be >= 1")
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OneshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
