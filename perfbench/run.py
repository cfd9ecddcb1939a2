#!/usr/bin/env python3
"""Benchmark of the oneshot toolkit, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is ``cli-cold``, ``verify-ensemble``, ``broadcast-sim``,
``region-design`` or ``all``.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced pass.  The line before it is a full report (environment,
sample counts, failures, deterministic counts).  See README.md next to this
file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ".perfbench_out"
sys.path.insert(0, str(BENCH))

import hostref  # noqa: E402
import inputs  # noqa: E402
from tracing import CLI_SUBCOMMANDS, per_layer_spec  # noqa: E402

WORKLOADS = ("cli-cold", "verify-ensemble", "broadcast-sim", "region-design")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
#: end-to-end timings scaled by host_factor ** exponent (see hostref.py)
HOST_SCALED = {"setup_s": -1, "ops_per_s": 1, "op_p50_ms": -1, "op_p90_ms": -1}
#: set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: every child runs numpy's BLAS and any OpenMP pool on one thread
PINNED_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: a child that runs longer than this is killed and its operation fails
CHILD_TIMEOUT_S = 120
GENERATORS = {
    "verify-ensemble": inputs.verify_ensemble,
    "broadcast-sim": inputs.broadcast_sim,
    "region-design": inputs.region_design,
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, failed build)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(PINNED_THREADS) for var in _THREAD_VARS})
    return env


class Child:
    """A finished child process: exit code, output, wall time and rusage.

    With ``stdout_cb``, stdout is a pipe handed to ``stdout_cb(stream, t0)``
    and its return value is kept as ``result``.
    """

    def __init__(self, argv, *, env, stdout_cb=None, tag="child"):
        out_path = ROOT / OUT / f"{tag}.stdout"
        err_path = ROOT / OUT / f"{tag}.stderr"
        t0 = time.perf_counter()
        with open(err_path, "w") as err, \
                (open(out_path, "w") if stdout_cb is None else contextlib.nullcontext()) as out:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stderr=err,
                                    stdout=out if stdout_cb is None else subprocess.PIPE,
                                    text=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                if stdout_cb is not None:
                    self.result = stdout_cb(proc.stdout, t0)
                    proc.stdout.close()
                _, status, self.rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - t0
        self.stdout = out_path.read_text() if stdout_cb is None else ""
        self.stderr = err_path.read_text()

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime


def _build() -> None:
    """Check the checkout and byte-compile the package once, before timing."""
    if not (ROOT / "src" / "oneshot" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SetupError(f"no oneshot sources under {ROOT}: expected src/oneshot and configs/")
    (ROOT / OUT).mkdir(exist_ok=True)
    build = Child([sys.executable, "-m", "compileall", "-q", "src/oneshot"], env=_child_env(),
                  tag="build")
    if build.code != 0:
        raise SetupError(f"byte-compiling src/oneshot failed:\n{build.stdout}{build.stderr}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile_ms(latencies, q):
    if not latencies:
        return 0.0
    if len(latencies) == 1:
        return 1e3 * latencies[0]
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": cores,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": PINNED_THREADS,
        "pinned_vars": list(_THREAD_VARS),
        "seed": seed,
        "held_out_seed": inputs.HELD_OUT_SEED,
        "loop": "closed loop, one client, one process at a time",
        "note": (f"wall-clock thread scaling is not reported: the machine has {cores} shared "
                 "cores, so --threads > 1 timings measure contention, not scaling"),
    }


# ---------------------------------------------------------------------------
# in-process workloads (and the cli-cold replay): worker children
# ---------------------------------------------------------------------------


def _read_worker(stream, t0):
    ready_line = stream.readline()
    ready_at = time.perf_counter()
    rest = stream.read().strip().splitlines()
    ready = json.loads(ready_line) if ready_line.strip() else {}
    return {"setup_s": ready_at - t0, "import_s": ready.get("import_s"),
            "summary": json.loads(rest[-1]) if rest else None}


def _worker(workload, inputs_path, seconds, trace, spans=None, setup_only=False, tag="worker"):
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--inputs", inputs_path, "--root", str(ROOT), "--seconds", str(seconds),
            "--trace", str(trace)]
    if spans:
        argv += ["--spans", spans]
    if setup_only:
        argv.append("--setup-only")
    child = Child(argv, env=_child_env(), stdout_cb=_read_worker, tag=tag)
    info = child.result
    if child.code != 0 or info["import_s"] is None or (not setup_only and info["summary"] is None):
        raise RuntimeError(f"{workload} worker exited {child.code}:\n{child.stderr[-4000:]}")
    info["child"] = child
    return info


def run_workers(workload, doc, seed, seconds, trace, probes) -> tuple[list[dict], dict]:
    """SETUP_SAMPLES - 1 set-up-only children, then the measuring child; the
    host reference is timed into ``probes`` before each."""
    inputs_path = f"{OUT}/inputs-{workload}-{seed}.json"
    (ROOT / inputs_path).write_text(json.dumps(doc))
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        probes.append(hostref.probe())
        setups.append(_worker(workload, inputs_path, 0, 0, setup_only=True, tag=f"setup{i}"))
    probes.append(hostref.probe())
    spans = f"{OUT}/spans-{workload}-{seed}.jsonl" if trace else None
    main = _worker(workload, inputs_path, seconds, trace, spans=spans)
    probes.extend(main["summary"]["probe_s"])
    return setups + [main], main["summary"]


# ---------------------------------------------------------------------------
# cli-cold: fresh interpreter per operation
# ---------------------------------------------------------------------------


def _run_cli(entry):
    path = inputs.out_path(entry["argv"])
    if path:
        with contextlib.suppress(FileNotFoundError):
            (ROOT / path).unlink()
    child = Child([sys.executable, "-m", "oneshot", *entry["argv"]], env=_child_env(), tag="cli")
    reason = inputs.cli_outcome(entry, child.code, child.stderr, str(ROOT))
    return child, reason


def cli_setup_samples(probes) -> list:
    samples = []
    for i in range(SETUP_SAMPLES):
        probes.append(hostref.probe())
        child = Child([sys.executable, "-m", "oneshot", "--version"], env=_child_env(),
                      tag=f"setup{i}")
        if child.code != 0 or not child.stdout.startswith("oneshot "):
            raise RuntimeError(f"oneshot --version failed:\n{child.stderr}")
        samples.append(child)
    return samples


def cli_loop(cycle, seconds, probes) -> dict:
    """Closed loop over whole cycles: at least one, and another only while it
    is expected to end within ``seconds``, so every run times the same mix of
    invocations and its percentiles do not hinge on where the run was cut.
    The host reference is timed into ``probes`` after each invocation,
    outside its latency."""
    latencies, failures, children, by_sub = [], [], [], {s: [] for s in CLI_SUBCOMMANDS}
    replay_out = {}
    cycle_s = []
    t0 = time.perf_counter()
    while not cycle_s or time.perf_counter() - t0 + cycle_s[-1] <= seconds:
        tc = time.perf_counter()
        for entry in cycle:
            child, reason = _run_cli(entry)
            if entry["group"] == "replay" and reason is None:
                replay_out[entry["label"]] = (ROOT / inputs.out_path(entry["argv"])).read_bytes()
                if len(replay_out) == 2 and len(set(replay_out.values())) != 1:
                    reason = "--threads 1 and --threads 2 outputs differ"
            if reason is not None:
                failures.append(f"{entry['label']}: {reason}")
            latencies.append(child.wall_s)
            children.append(child)
            by_sub[entry["sub"]].append(child)
            probes.append(hostref.probe())
        cycle_s.append(time.perf_counter() - tc)
    return {"latencies": latencies, "failures": failures, "children": children,
            "by_sub": by_sub, "cycles": len(cycle_s),
            "replay_checked": len(replay_out) == 2}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def known_defects() -> dict[str, str]:
    """Each ROADMAP 5e input's outcome: why it still fails, or ``fixed``.

    Run once after the timed loop; these invocations are not operations of
    the workload, so they are in no metric and not in ``attempted``."""
    return {entry["label"]: _run_cli(entry)[1] or "fixed" for entry in inputs.cli_known_defects()}


def _timing_metrics(latencies, ops_per_s, per=None) -> dict[str, tuple[float, str, int]]:
    """Throughput and latency percentiles.  With ``per``, each percentile is
    taken within every block of ``per`` consecutive latencies (one pass over
    the deck) and the median over the blocks is reported, so a slow stretch
    of the shared host moves it less than a percentile of the pooled run."""
    n = len(latencies)
    blocks = [latencies[i:i + per] for i in range(0, n, per)] if per else [latencies]

    def pct(q):
        return _median([_percentile_ms(b, q) for b in blocks])

    return {"ops_per_s": (ops_per_s, "ops/s", n),
            "op_p50_ms": (pct(50), "ms", n),
            "op_p90_ms": (pct(90), "ms", n)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed)}
    metrics: dict[str, tuple[float, str, int]] = {}
    summary = None
    hostref.probe()  # its first call warms caches; not a sample
    probes: list[float] = []
    if workload == "cli-cold":
        cycle = inputs.cli_cycle(seed, OUT)
        report["cycle_length"] = len(cycle)
        setups = [] if trace else cli_setup_samples(probes)
        loop = cli_loop(cycle, seconds / 2 if trace else seconds, probes)
        lat = loop["latencies"]
        children = setups + loop["children"]
        attempted, failures = len(lat), loop["failures"]
        cpu_wall = (sum(c.cpu_s for c in loop["children"]) / sum(lat), len(lat))
        if trace:
            workers, summary = run_workers(workload, {"cycle": cycle}, seed, 0, 1, probes)
            children += [w["child"] for w in workers]
            attempted += summary["attempted"]
            failures = failures + summary["failures"]
        else:
            metrics["setup_s"] = (_median([c.wall_s for c in setups]), "s", len(setups))
            n = len(cycle)
            # cycle length over the median cycle's summed latencies, as the
            # in-process workloads take the deck size over the median pass
            cycle_lat = [sum(lat[i:i + n]) for i in range(0, len(lat), n)]
            metrics.update(_timing_metrics(lat, n / _median(cycle_lat), per=n))
        report["cycles"] = loop["cycles"]
        report["replay_checked"] = loop["replay_checked"]
        if not loop["replay_checked"]:
            failures.append("threads-replay: the --threads 1/2 pair did not run")
        report["known_defects"] = known_defects()
    else:
        workers, summary = run_workers(workload, GENERATORS[workload](seed), seed, seconds,
                                       int(trace), probes)
        children = [w["child"] for w in workers]
        attempted, failures = summary["attempted"], summary["failures"]
        cpu_wall = (summary["cpu_s"] / summary["wall_s"], len(summary["latencies"]))
        if not trace:
            metrics["setup_s"] = (_median([w["setup_s"] for w in workers]), "s", len(workers))
            # deck size over the median pass, so a slow stretch of the shared
            # host moves it less than a mean over the run would
            metrics.update(_timing_metrics(
                summary["latencies"], summary["deck_size"] / _median(summary["pass_s"]),
                per=summary["deck_size"]))
        report["passes"] = len(summary["pass_s"])
        report["deck_size"] = summary["deck_size"]
        if "repeated_row_share" in summary:
            report["repeated_row_share"] = summary["repeated_row_share"]

    host = _median(probes) / hostref.NOMINAL_S
    report["host_factor"] = host
    report["host_probes"] = len(probes)
    if trace:
        layer = dict(summary["layer"])
        imports = [w["import_s"] for w in workers]
        layer["cli.import_s"] = (_median(imports), len(imports))
        for sub in CLI_SUBCOMMANDS:
            subs = loop["by_sub"][sub] if workload == "cli-cold" else []
            layer[f"cli.{sub}.wall_ms"] = (1e3 * _median([c.wall_s for c in subs]), len(subs))
            layer[f"cli.{sub}.peak_rss_mb"] = (max((c.peak_rss_mb for c in subs), default=0.0),
                                               len(subs))
        layer["proc.cpu_wall_ratio"] = cpu_wall
        # one traced pass against the median untraced pass of the same deck
        layer["trace.overhead_frac"] = (1.0 - _median(summary["pass_s"]) / summary["traced_wall_s"],
                                        len(summary["pass_s"]))
        for name, unit in per_layer_spec():
            value, n = layer[name]
            metrics[name] = (value, unit, n)
        report["deterministic_counts"] = summary["deterministic_counts"]
        report["span_names"] = summary["span_names"]
        report["spans"] = summary["spans"]
        report["spans_file"] = f"{OUT}/spans-{workload}-{seed}.jsonl"
    else:
        # timings as on a host running the reference at its nominal speed
        report["raw"] = {name: metrics[name][0] for name in HOST_SCALED}
        for name, exponent in HOST_SCALED.items():
            value, unit, n = metrics[name]
            metrics[name] = (value * host**exponent, unit, n)
        # RUSAGE_CHILDREN's peak RSS, taken per child from wait4
        metrics["peak_rss_mb"] = (max(c.peak_rss_mb for c in children), "MB", len(children))
        report["cpu_wall_ratio"] = cpu_wall[0]

    metrics["failed_frac"] = (len(failures) / attempted, "ratio", attempted)
    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    })
    return report


def _print_table(report) -> None:
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    for name, m in report["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:8s} n={m['n']}")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    for label, outcome in report.get("known_defects", {}).items():
        print(f"known defect (checked once, not an operation) {label}: {outcome}")


def result_line(reports) -> dict:
    """The contract line: correctness, counts, and the metrics by name."""
    single = len(reports) == 1
    metrics = {}
    for r in reports:
        wanted = [n for n, _ in per_layer_spec()] if r["trace"] else [n for n, _ in END_TO_END]
        for name in wanted:
            m = r["metrics"][name]
            key = name if single else f"{r['workload']}/{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(not r["failures"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        _build()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_table(report)
        print(json.dumps({"report": report}))
        reports.append(report)
    print(json.dumps(result_line(reports)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
