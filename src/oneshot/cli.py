"""Batch command-line front door.

Subcommands: ``bound``, ``verify``, ``simulate``, ``sweep``, ``region``.
JSON in, JSON or CSV out; identical inputs and seed give byte-identical
output regardless of the thread count.  Exit codes: 0 success, 1 an
enumeration cap was exceeded, 2 bad configuration or input schema, 3 an
internal error (a fault in the program; the traceback is printed).

Parsing, ``--version``, ``--help`` and usage errors need only the standard
library: each subcommand imports the layers it runs, and numpy with them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import EnumerationCapError, InputFormatError, OneshotError, count_text

NATS_PER_BIT = math.log(2.0)

BOUND_KINDS = ("covering1", "covering4", "covering5", "covering7",
               "resolvability", "packing", "broadcast")
VERIFY_KINDS = ("covering", "covering5", "resolvability", "packing", "broadcast")
#: cap on the grid points of one sweep
SWEEP_STEPS_CAP = 10**5


def _float_fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(text: str, out_path: str | None) -> None:
    """Write atomically: no partial files on error."""
    if out_path is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oneshot-")
    except OSError as exc:
        raise InputFormatError(f"--out: cannot create a file in {directory}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):  # e.g. out_path is a directory
            raise InputFormatError(f"--out: cannot write {out_path}: {exc.strerror}") from None
        raise


def _write(args, fields: dict, header: list[str], rows: list[list], preamble: str | None) -> None:
    """Emit a result as JSON (``fields`` plus tool, version, seed and command)
    or as CSV: a ``# tool=oneshot version=… command=… <preamble>`` line
    unless ``preamble`` is None, then ``header`` and ``rows``."""
    import json

    if args.format == "json":
        doc = {"tool": "oneshot", "version": __version__, "seed": args.seed,
               "command": args.command, **fields}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [] if preamble is None else [
            f"# tool=oneshot version={__version__} command={args.command} {preamble}"]
        lines.append(",".join(header))
        lines += [",".join(_float_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)


def _load_json(path: str, what: str):
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(f"{what}: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{what}: invalid JSON in {path}: {exc}") from None


def _load_joint(args) -> Joint:
    """``--dist``, with the axis count ``args.kind`` needs: 3 for covering5,
    2 for every other kind."""
    from .probability import Joint

    joint = Joint.from_json(_load_json(args.dist, "--dist"))
    axes = 3 if args.kind == "covering5" else 2
    if joint.ndim != axes:
        raise InputFormatError(f"--dist: {args.kind} needs a {axes}-axis joint")
    return joint


def _load_event(path: str | None, shape) -> np.ndarray:
    import numpy as np

    from . import bounds
    from .probability import input_array

    if path is None:
        return bounds.full_event(shape)
    doc = _load_json(path, "--event")
    if isinstance(doc, dict) and "points" in doc:
        return bounds.event_from_points(shape, doc["points"])
    if isinstance(doc, dict) and "mask" in doc:
        doc = doc["mask"]
    mask = input_array(doc, "--event: mask", None)
    if mask.shape != tuple(shape):
        raise InputFormatError(
            f"--event: mask shape {mask.shape} does not match the joint shape {tuple(shape)}"
        )
    if mask.dtype.kind not in "biuf" or not np.all((mask == 0) | (mask == 1)):
        raise InputFormatError("--event: mask entries must be 0, 1, true or false")
    return mask.astype(bool)


def _require(args, names: list[str], kind: str) -> None:
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_"), None) is None:
            raise InputFormatError(f"{name} is required for kind {kind!r}")


def _load_system(args) -> broadcast.BroadcastSystem:
    from . import broadcast

    what = getattr(args, "kind", args.command)
    _require(args, ["--config"], what)
    return broadcast.BroadcastSystem.from_json(_load_json(args.config, "--config"))


def _load_sizes(args) -> broadcast.SchemeSizes:
    from . import broadcast

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


def _bound_from_args(args, param: str = "gamma"):
    """Load and validate a bound kind's inputs once; returns ``value ->
    BoundReport`` over ``param`` (gamma, delta or lambda), the other
    parameters read from ``args``.  Gamma goes through :func:`bounds.bound_at`."""
    from . import bounds

    kind = args.kind
    if kind in ("covering1", "covering4", "covering5", "covering7"):
        _require(args, ["--dist", "--M", "--L", "--gamma"], kind)
        joint = _load_joint(args)
        event = _load_event(args.event, joint.shape)
        if param == "delta":
            return lambda d: bounds.mutual_covering_bound(
                joint, event, bounds.BoundParams(args.M, args.L, args.gamma, d, args.union_form))
        instance = {"joint": joint, "event": event, "M": args.M, "L": args.L,
                    "union_form": args.union_form}
        if kind == "covering1":
            instance["delta"] = _parse_delta(args.delta)
        return bounds.bound_at(kind, instance)
    if kind == "resolvability":
        _require(args, ["--dist", "--M", "--lam"], kind)
        joint = _load_joint(args)
        return lambda lam: bounds.resolvability_excess_bound(joint, args.M, lam)
    if kind == "packing":
        _require(args, ["--gamma"], kind)
        return lambda g: bounds.BoundReport((("bound", bounds.packing_bound(g)),), {"gamma": g})
    if kind == "broadcast":
        _require(args, ["--gamma"], kind)
        return bounds.bound_at("broadcast", {"system": _load_system(args),
                                             "sizes": _load_sizes(args)})


def cmd_bound(args) -> int:
    report = _bound_from_args(args)(args.lam if args.kind == "resolvability" else args.gamma)
    names = list(report.term_names())
    _write(args, {"kind": args.kind, "report": report.to_json()}, names + ["total", "clamped"],
           [[report.term(n) for n in names] + [report.raw_value, report.clamped_value]],
           f"kind={args.kind} seed={args.seed}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


#: flags each verify kind requires
VERIFY_NEEDS = {
    "covering": ["--dist", "--M", "--L", "--gamma"],
    "covering5": ["--dist", "--M", "--L", "--gamma"],
    "resolvability": ["--dist", "--M", "--lam"],
    "packing": ["--dist", "--M", "--N", "--gamma"],
    "broadcast": ["--gamma"],
}


def _verify_pipeline(args):
    """Load the inputs of a verify kind; returns its exact oracle and its
    Monte Carlo estimator (None for packing), each giving ``[(row name,
    value)]``, and its ``[(name, bound value)]``, each as a callable for
    :func:`_verify_rows`."""
    run = (args.trials, args.seed, args.threads)
    if args.kind == "broadcast":
        from . import broadcast

        system, sizes, gamma = _load_system(args), _load_sizes(args), args.gamma

        def simulated():
            outcome = broadcast.simulate(system, sizes, gamma, *run)
            return [("eps1_hat", outcome.eps1_hat), ("eps2_hat", outcome.eps2_hat)]

        return (lambda: list(zip(("eps1", "eps2"), broadcast.exact_errors(system, sizes, gamma))),
                simulated, lambda: [("broadcast", broadcast.broadcast_bound(
                    system, sizes, gamma).clamped_value)])
    from . import bounds, oracle

    joint = _load_joint(args)
    M, L, gamma = args.M, args.L, args.gamma
    if args.kind == "packing":
        return (lambda: [("exact", oracle.exact_packing_prob(joint, M, args.N, gamma))], None,
                lambda: [("packing", bounds.packing_bound(gamma))])
    if args.kind == "resolvability":
        # compared raw: the 2/lam slack alone can exceed 1
        return (lambda: [("exact", oracle.resolvability_excess_exact(joint, M, args.lam))],
                lambda: [("mc", oracle.mc_resolvability_excess(joint, M, args.lam, *run))],
                lambda: [("resolvability",
                          bounds.resolvability_excess_bound(joint, M, args.lam).raw_value)])
    event = _load_event(args.event, joint.shape)
    if args.kind == "covering5":
        return (lambda: [("exact", oracle.exact_conditional_miss_prob(joint, event, M, L))],
                lambda: [("mc", oracle.mc_conditional_miss_prob(joint, event, M, L, *run))],
                lambda: [("covering5", bounds.conditional_covering_bound(
                    joint, event, M, L, gamma).clamped_value)])
    spec = oracle.EnsembleSpec(joint, event, M, L)

    def bound_values():
        instance = {"joint": joint, "event": event, "M": M, "L": L,
                    "delta": _parse_delta(args.delta), "union_form": args.union_form}
        return [(kind, bounds.evaluate_bound(kind, instance, gamma).clamped_value)
                for kind in ("covering1", "covering4", "covering7")]

    return (lambda: [("exact", oracle.exact_miss_prob(spec))],
            lambda: [("mc", oracle.mc_miss_prob(spec, *run))], bound_values)


def _verify_rows(exact, mc, bound_values) -> list[dict]:
    """The exact rows, then the Monte Carlo rows, then each bound flagged
    against the reference: the largest exact value, else the largest MC
    mean minus 4 standard errors, else nothing.  The bounds are evaluated
    first, so that a bad bound parameter is refused before the oracles run."""
    evaluated = bound_values()
    try:
        exact_rows = exact()
    except EnumerationCapError as exc:
        print(f"warning: exact value skipped: {exc}", file=sys.stderr)
        exact_rows = []
    rows = [{"name": name, "value": value} for name, value in exact_rows]
    refs = [value for _, value in exact_rows]
    for name, est in mc() if mc is not None else ():
        rows.append({"name": name, "value": est.mean, "stderr": est.stderr, "trials": est.trials})
        if not exact_rows:
            refs.append(est.mean - 4.0 * est.stderr)
    ref = max(refs, default=None)
    for name, value in evaluated:
        rows.append({"name": name, "value": value,
                     "violation": bool(ref is not None and ref > value + 1e-12)})
    return rows


def cmd_verify(args) -> int:
    _require(args, VERIFY_NEEDS[args.kind], args.kind)
    rows = _verify_rows(*_verify_pipeline(args))
    _write(args, {"kind": args.kind, "trials": args.trials, "rows": rows},
           ["name", "value", "stderr", "violation"],
           [[r["name"], r.get("value", ""), r.get("stderr", ""), r.get("violation", "")]
            for r in rows],
           f"kind={args.kind} seed={args.seed} trials={args.trials}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from . import broadcast

    system = _load_system(args)
    sizes = _load_sizes(args)
    outcome = broadcast.simulate(system, sizes, args.gamma, args.trials, args.seed,
                                 threads=args.threads, reuse_codebook=args.reuse_codebook,
                                 random_message=args.random_message)
    _write(args, {"outcome": outcome.to_json()}, ["name", "value", "stderr"], [
        ["eps1_hat", outcome.eps1_hat.mean, outcome.eps1_hat.stderr],
        ["eps2_hat", outcome.eps2_hat.mean, outcome.eps2_hat.stderr],
        ["bound_raw", outcome.bound.raw_value, ""],
        ["bound_clamped", outcome.bound.clamped_value, ""],
    ], f"seed={args.seed} trials={args.trials} gamma={_float_fmt(args.gamma)}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    import numpy as np

    if not args.steps >= 2:
        raise InputFormatError("--steps must be >= 2")
    if args.steps > SWEEP_STEPS_CAP:
        raise EnumerationCapError(f"--steps {count_text(args.steps)} exceeds the cap of {SWEEP_STEPS_CAP}")
    if not -math.inf < args.start < args.stop < math.inf:
        raise InputFormatError("--from must be strictly less than --to, both finite")
    if args.param in ("gamma", "delta") and args.start <= 0:
        raise InputFormatError(f"--from: {args.param} grid must be positive")
    grid = np.linspace(args.start, args.stop, args.steps)

    if args.param == "delta" and args.kind != "covering1":
        raise InputFormatError("--param delta requires kind covering1")
    if args.param == "lambda" and args.kind != "resolvability":
        raise InputFormatError("--param lambda requires kind resolvability")
    if args.param == "gamma" and args.kind == "resolvability":
        raise InputFormatError("--param gamma does not apply to kind resolvability")

    # the grid's first value stands in for the swept flag while loading
    setattr(args, "lam" if args.param == "lambda" else args.param, float(grid[0]))
    bound_at = _bound_from_args(args, args.param)
    if hasattr(bound_at, "steps"):  # a step table the grid walks: one value per interval
        bound_at.steps.breakpoints
    reports = [(float(value), bound_at(float(value))) for value in grid]

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
    _write(args, {"kind": args.kind, "param": args.param,
                  "rows": [dict(zip(header, row)) for row in rows]}, header, rows, None)
    return 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    from . import regions

    system = _load_system(args)
    iv = regions.info_vector(system.joint_ust, system.x_map, system.channel)
    if args.units == "bits":
        # the system is linear-homogeneous, so rescaling the vector (and
        # interpreting rates in bits) is an exact change of units
        iv = regions.InfoVector(*(getattr(iv, n) / NATS_PER_BIT
                                  for n in ("I1", "I2", "J1", "J2", "K")))
    if args.rates is None and not args.project:
        raise InputFormatError("--rates or --project is required")
    results: dict = {"info_vector": iv.to_json(), "units": args.units}
    rows = []
    if args.rates is not None:
        rates = regions.RateTriple.from_string(args.rates)
        inside = bool(regions.region_contains(iv, rates))
        results["rates"] = {"R0": rates.R0, "R1": rates.R1, "R2": rates.R2}
        results["inside"] = inside
        rows.append(["inside", "inside" if inside else "outside"])
    if args.project:
        results["projection"] = regions.fme_project(iv).to_json()
        rows += [["inequality", p] for p in results["projection"]["pretty"]]
    _write(args, {"results": results}, ["name", "value"], rows, f"seed={args.seed}")
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
    # BLAS reads its thread count when numpy loads: one thread unless the user
    # set it, since the small batched matmuls here run slower threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "csv" if args.command == "sweep" else "json"
    if args.command == "simulate" and args.gamma is None:
        parser.error("--gamma is required for simulate")
    try:
        from . import rng

        if getattr(args, "trials", 1) < 1:
            raise InputFormatError("--trials must be >= 1")
        if not 0 <= args.seed < 2**64:
            raise InputFormatError("--seed must be in [0, 2^64)")
        if not 1 <= args.threads <= rng.THREADS_CAP:
            raise InputFormatError(f"--threads must be in [1, {rng.THREADS_CAP}]")
        return args.func(args)
    except OneshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, EnumerationCapError) else 2
    except Exception:
        # a fault in the program, told apart from a cap (1) and bad input (2)
        import traceback

        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
