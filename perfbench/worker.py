"""Child process of the benchmark: set-up, timed passes, optional traced pass.

Started by ``run.py`` with the BLAS/OpenMP thread count pinned to 1.  It
imports ``oneshot``, builds the workload's inputs through public
constructors, prints one ``ready`` line (the parent times set-up up to that
line) and, unless ``--setup-only``, runs one untimed warm-up pass and then
whole passes over the deck until ``--seconds`` have elapsed.  With
``--trace 1`` it then runs exactly one traced pass, so the counts it reports
depend only on the seed.  The last stdout line is a JSON summary of raw
timings; ``run.py`` derives the metrics from it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def run_passes(deck, seconds: float, tracer=None, after_pass=None) -> dict:
    """Whole passes over the deck until ``seconds`` have elapsed (one pass if
    traced), calling ``after_pass()`` after each.  Returns latencies,
    failures, pass times and wall/CPU time."""
    latencies, failures, pass_s = [], [], []
    t0, c0 = time.perf_counter(), time.process_time()
    while True:
        tp = time.perf_counter()
        for label, op in deck:
            if tracer is not None:
                tracer.op_id = len(latencies)
            ts = time.perf_counter()
            try:
                op()
            except Exception as exc:  # a raised error or failed check fails the operation
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - ts)
        pass_s.append(time.perf_counter() - tp)
        if after_pass is not None:
            after_pass()
        if tracer is not None or time.perf_counter() - t0 >= seconds:
            break
    return {"latencies": latencies, "failures": failures, "pass_s": pass_s,
            "wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import oneshot  # noqa: F401  (timed: this is the package's import cost)
    import_s = time.perf_counter() - t0

    import ops

    with open(args.inputs) as fh:
        doc = json.load(fh)
    deck = ops.build(args.workload, doc, args.root)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    import hostref

    # one untimed pass first, so lazy initialisation and first-touch page
    # faults are not charged to the timed passes
    warmup = run_passes(deck, 0.0)
    hostref.probe()  # its first call warms caches; not a sample
    probes: list[float] = []
    timed = run_passes(deck, args.seconds / 2 if args.trace else args.seconds,
                       after_pass=lambda: probes.append(hostref.probe()))
    summary = {
        "deck_size": len(deck),
        "latencies": timed["latencies"],
        "pass_s": timed["pass_s"],
        "wall_s": timed["wall_s"],
        "cpu_s": timed["cpu_s"],
        "probe_s": probes,
        "attempted": len(deck) + len(timed["latencies"]),
        "failures": warmup["failures"] + timed["failures"],
    }
    if args.workload == "verify-ensemble":
        summary["repeated_row_share"] = ops.repeated_row_share(doc)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(deck, 0.0, tracer)
        finally:
            tracer.uninstall()
        summary["attempted"] += len(deck)
        summary["failures"] += traced["failures"]
        summary["traced_wall_s"] = traced["wall_s"]
        summary["layer"] = tracer.layer_metrics()
        summary["deterministic_counts"] = tracer.deterministic_counts()
        summary["span_names"] = sorted(set(tracer.calls))
        summary["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
