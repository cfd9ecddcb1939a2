"""Smoke test of the benchmark itself, at minimal run length.

Run from the root of a checkout (takes about three minutes)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 3
E2E = [name for name, _ in run.END_TO_END] + ["failed_frac"]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if "__pycache__" in path.parts or not path.is_file():
            continue
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _run_all(trace: int):
    proc = _bench("--workload", "all", "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    reports = {}
    for line in lines[:-1]:
        if line.startswith('{"report"'):
            r = json.loads(line)["report"]
            reports[r["workload"]] = r
    return reports, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    before = _src_digest()
    untraced = _run_all(0)
    traced = _run_all(1)
    traced_again = _run_all(1)
    return {"src_before": before, "src_after": _src_digest(), "untraced": untraced,
            "traced": traced, "traced_again": traced_again}


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.per_layer_spec()
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_every_end_to_end_metric_has_unit_and_samples(runs):
    reports, result = runs["untraced"]
    assert set(reports) == set(run.WORKLOADS)
    for workload, report in reports.items():
        for name in E2E:
            m = report["metrics"][name]
            assert m["unit"] and m["n"] >= 1, (workload, name)
        assert report["environment"]["blas_threads"] == 1
        for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "seed"):
            assert key in report["environment"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for workload in run.WORKLOADS:
        assert reports[workload]["failed"] == 0, reports[workload]["failures"]
    cli = reports["cli-cold"]
    assert cli["replay_checked"]
    assert set(cli["known_defects"]) == {e["label"] for e in inputs.cli_known_defects()}


def test_traced_run_reports_layers_and_spans(runs):
    reports, result = runs["traced"]
    for workload, report in reports.items():
        for name, unit in tracing.per_layer_spec():
            m = report["metrics"][name]
            assert m["unit"] == unit and m["n"] >= 0, (workload, name)
        assert (ROOT / report["spans_file"]).is_file()
    seen = set().union(*(set(r["span_names"]) for r in reports.values()))
    wrapped = ({*tracing.TIMED, *tracing.AUXILIARY, *tracing.CATEGORICAL}
               | {f"probability.{n}" for n in tracing.PROBABILITY})
    assert wrapped <= seen, sorted(wrapped - seen)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_deterministic_counts_repeat_exactly(runs):
    first, _ = runs["traced"]
    second, _ = runs["traced_again"]
    for workload in run.WORKLOADS:
        assert first[workload]["deterministic_counts"] == second[workload]["deterministic_counts"]
    assert first["verify-ensemble"]["deterministic_counts"]["oracle.exact.multisets"] > 0
    assert first["broadcast-sim"]["deterministic_counts"]["rng.uniforms_generated"] > 0
    assert first["region-design"]["deterministic_counts"]["regions.lp_solves"] > 0


def test_src_is_not_modified(runs):
    assert runs["src_before"] == runs["src_after"]


@pytest.mark.parametrize("generate", [inputs.verify_ensemble, inputs.broadcast_sim,
                                      inputs.region_design])
def test_held_out_seed_changes_instances_not_sizes(generate):
    a, b = generate(SEED), generate(inputs.HELD_OUT_SEED)
    assert json.dumps(a) != json.dumps(b)
    assert generate(SEED) == a

    def sizes(doc):
        items = doc.get("instances") or doc.get("ops") or doc.get("designs")
        keys = ("kind", "M", "L", "N", "op", "sizes", "reuse_codebook", "random_message",
                "trials", "type", "n", "config")
        shape = [(tuple(sorted((k, str(v)) for k, v in item.items() if k in keys)),
                  str(sorted({k: len(v) for k, v in item.items() if k in ("joint", "p_ust")}.items())))
                 for item in items]
        return sorted(shape)

    assert sizes(a) == sizes(b)


def test_tracer_counts_survive_threads():
    """The traced cli replay runs --threads 2; counters must not lose updates."""
    import threading

    sys.path.insert(0, str(ROOT / "src"))
    from oneshot import rng

    tracer = tracing.Tracer()
    tracer.install()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [rng.trial_uniforms(1, 0, 1, 3)
                                                    for _ in range(500)])
                   for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
        tracer.uninstall()
    assert not hasattr(rng.trial_uniforms, "__wrapped__")
    assert tracer.calls["rng.trial_uniforms"] == 2000
    assert tracer.counts["rng.uniforms_generated"] == 2000 * 4


def test_refuses_a_directory_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "verify-ensemble", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
