"""Command-line interface: schemas, exit codes, determinism, file handling."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot import Joint, SchemeSizes, broadcast_bound, optimal_delta, optimize_gamma
from oneshot.bounds import event_from_points
from oneshot.broadcast import BroadcastSystem

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "oneshot", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def test_bound_covering4_json_shape():
    res = run_cli(
        "bound", "covering4",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "2", "--L", "4", "--gamma", "1",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    names = [t["name"] for t in doc["report"]["terms"]]
    assert names == ["miss", "excess", "ratio", "doubleexp"]
    assert doc["version"] and doc["tool"] == "oneshot"


def test_bound_covering1_auto_delta_resolution():
    res = run_cli(
        "bound", "covering1",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "2", "--L", "4", "--gamma", "1", "--delta", "auto",
    )
    doc = json.loads(res.stdout)
    assert doc["report"]["params"]["delta"] == pytest.approx(optimal_delta(2, 4, 1.0))


def test_bound_broadcast_matches_library():
    res = run_cli(
        "bound", "broadcast",
        "--config", str(CONFIGS / "broadcast_binary.json"),
        "--sizes", "1,1,1,1,1,2,2", "--gamma", "1",
    )
    doc = json.loads(res.stdout)
    with open(CONFIGS / "broadcast_binary.json") as fh:
        system = BroadcastSystem.from_json(json.load(fh))
    want = broadcast_bound(system, SchemeSizes.from_string("1,1,1,1,1,2,2"), 1.0)
    assert doc["report"]["raw_value"] == pytest.approx(want.raw_value, abs=1e-15)


def test_missing_flag_exits_2():
    res = run_cli("bound", "covering4", "--M", "2", "--L", "2", "--gamma", "1")
    assert res.returncode == 2
    assert "--dist" in res.stderr


def test_malformed_rates_exits_2():
    res = run_cli("region", "--config", str(CONFIGS / "region_binary.json"),
                  "--rates", "0.1,zap,0.2")
    assert res.returncode == 2
    assert "rates" in res.stderr


_COV_4X4 = ["--dist", str(CONFIGS / "joint_2x2.json"), "--event", str(CONFIGS / "event_diag.json"),
            "--M", "4", "--L", "4"]


@pytest.mark.parametrize("argv,names", [
    (["bound", "covering1", *_COV_4X4, "--gamma", "8"], "covering4"),
    (["bound", "covering4", *_COV_4X4, "--gamma", "1e-300"], "gamma"),
    (["verify", "covering", *_COV_4X4, "--gamma", "1", "--trials", "0"], "--trials"),
    (["bound", "covering4", *_COV_4X4, "--gamma", "inf"], "finite"),
], ids=["gamma-overflow", "gamma-tiny", "trials-zero", "gamma-inf"])
def test_numeric_extremes_exit_2_with_one_error_line(argv, names):
    res = run_cli(*argv)
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]


_IMPORT_PROBE = """
import json, sys
import oneshot, oneshot.cli
from oneshot import broadcast, regions
before = "scipy" in sys.modules
with open(sys.argv[1]) as fh:
    system = broadcast.BroadcastSystem.from_json(json.load(fh))
proj = regions.fme_project(regions.info_vector(system.joint_ust, system.x_map, system.channel))
rows = [[list(r.coeffs), r.sense, r.constant] for r in proj.rows]
print(json.dumps({"before": before, "after": "scipy" in sys.modules, "rows": rows}))
"""


def test_scipy_loaded_only_by_projection(monkeypatch):
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(CONFIGS / "region_bsc_copy.json")],
                         capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["before"] is False
    assert doc["after"] is True
    assert doc["rows"] == [[[0.0, -1.0, 0.0], "<=", 0.0],
                           [[0.0, 0.0, -1.0], "<=", 0.0],
                           [[1.0, 1.0, 1.0], "<=", 0.0]]
    # perfbench's tracer counts LP solves by rebinding regions.linprog, so
    # the lazy import must keep it a module attribute looked up per call
    from oneshot import regions

    real, calls = regions.linprog, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "linprog", counting)
    regions.fme_project(regions.InfoVector(0.3680642071684971, 0.0, 0.0, 0.0, 0.0))
    assert calls


def test_cap_exceeded_exits_1(tmp_path):
    # design joint beyond the enumeration cap: 15^3 * 60^2 > 1e7
    k, ky = 15, 60
    p = np.full((k, k, k), 1.0 / k**3)
    x_map = np.zeros((k, k, k), dtype=int).tolist()
    rows = [np.full((ky, ky), 1.0 / ky**2).tolist()]
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"p_ust": p.tolist(), "x_map": x_map,
                               "channel": {"rows": rows}}))
    res = run_cli("bound", "broadcast", "--config", str(cfg),
                  "--sizes", "1,1,1,1,1,1,1", "--gamma", "1")
    assert res.returncode == 1
    assert "cap" in res.stderr


def test_bound_covering5_and_resolvability_shapes():
    res = run_cli(
        "bound", "covering5",
        "--dist", str(CONFIGS / "joint_2x2x2.json"),
        "--event", str(CONFIGS / "event_2x2x2.json"),
        "--M", "2", "--L", "2", "--gamma", "1",
    )
    doc = json.loads(res.stdout)
    assert [t["name"] for t in doc["report"]["terms"]] == [
        "miss_or_excess", "ratio", "doubleexp"
    ]
    res2 = run_cli("bound", "resolvability",
                   "--dist", str(CONFIGS / "joint_2x2.json"), "--M", "4", "--lam", "3")
    doc2 = json.loads(res2.stdout)
    assert [t["name"] for t in doc2["report"]["terms"]] == ["excess", "slack"]
    assert doc2["report"]["raw_value"] == pytest.approx(2 / 3, abs=1e-12)


def test_verify_covering5_path():
    res = run_cli(
        "verify", "covering5",
        "--dist", str(CONFIGS / "joint_2x2x2.json"),
        "--event", str(CONFIGS / "event_2x2x2.json"),
        "--M", "2", "--L", "2", "--gamma", "1", "--trials", "3000", "--seed", "2",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["exact"]["value"] == pytest.approx(0.1409778906035397, abs=1e-12)
    assert not rows["covering5"]["violation"]


def test_verify_covering_has_exact_and_mc_rows():
    res = run_cli(
        "verify", "covering",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "2", "--L", "2", "--gamma", "1", "--trials", "2000", "--seed", "7",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    names = [r["name"] for r in doc["rows"]]
    assert names[:2] == ["exact", "mc"]
    assert all(not r.get("violation", False) for r in doc["rows"])


def test_verify_beyond_cap_degrades_gracefully(tmp_path):
    # alphabet 50 with 1200 codewords: far past the multiset cap
    dist = tmp_path / "wide.json"
    p = np.full((50, 2), 1.0 / 100.0)
    dist.write_text(json.dumps(p.tolist()))
    res = run_cli(
        "verify", "covering", "--dist", str(dist),
        "--M", "1200", "--L", "2", "--gamma", "1", "--trials", "500",
    )
    assert res.returncode == 0
    assert "warning" in res.stderr
    doc = json.loads(res.stdout)
    assert "exact" not in [r["name"] for r in doc["rows"]]


def test_verify_reruns_byte_identical_across_threads():
    args = (
        "verify", "resolvability",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--M", "3", "--lam", "2.5", "--trials", "4000", "--seed", "123",
    )
    a = run_cli(*args, "--threads", "1")
    b = run_cli(*args, "--threads", "8")
    c = run_cli(*args, "--threads", "1")
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_simulate_reruns_byte_identical_across_threads():
    args = (
        "simulate", "--config", str(CONFIGS / "broadcast_binary.json"),
        "--sizes-file", str(CONFIGS / "sizes_small.json"),
        "--gamma", "1", "--trials", "3000", "--seed", "99",
    )
    a = run_cli(*args, "--threads", "1")
    b = run_cli(*args, "--threads", "8")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_sweep_line_count_and_header():
    res = run_cli(
        "sweep", "--param", "gamma", "--from", "0.5", "--to", "1.5", "--steps", "2",
        "covering4",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "2", "--L", "2",
    )
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split(",")[0] == "gamma"


def test_sweep_auto_delta_ratio_finite():
    res = run_cli(
        "sweep", "--param", "gamma", "--from", "0.2", "--to", "3", "--steps", "16",
        "covering1",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "2", "--L", "4",
    )
    lines = res.stdout.strip().split("\n")
    header = lines[0].split(",")
    ratio_col = header.index("ratio")
    for line in lines[1:]:
        assert math.isfinite(float(line.split(",")[ratio_col]))


def test_sweep_minimum_consistent_with_optimizer():
    res = run_cli(
        "sweep", "--param", "gamma", "--from", "0.05", "--to", "4", "--steps", "64",
        "covering4",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--event", str(CONFIGS / "event_diag.json"),
        "--M", "3", "--L", "2",
    )
    lines = res.stdout.strip().split("\n")
    header = lines[0].split(",")
    total_col = header.index("total")
    sweep_min = min(float(line.split(",")[total_col]) for line in lines[1:])
    joint = Joint([[0.4, 0.1], [0.2, 0.3]])
    event = event_from_points((2, 2), [(0, 0), (1, 1)])
    _, rep = optimize_gamma("covering4", {"joint": joint, "event": event, "M": 3, "L": 2},
                            (0.05, 4.0), tolerance=1e-7)
    assert sweep_min >= rep.raw_value - 1e-9


def test_sweep_bad_range_exits_2():
    res = run_cli(
        "sweep", "--param", "gamma", "--from", "2", "--to", "1", "--steps", "4",
        "covering4", "--dist", str(CONFIGS / "joint_2x2.json"), "--M", "2", "--L", "2",
    )
    assert res.returncode == 2


def test_region_bsc_copy_closed_form_and_units():
    res = run_cli("region", "--config", str(CONFIGS / "region_bsc_copy.json"),
                  "--rates", "0,0,0")
    doc = json.loads(res.stdout)
    want = math.log(2) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
    assert doc["results"]["info_vector"]["I1"] == pytest.approx(want, abs=1e-12)
    assert doc["results"]["info_vector"]["J1"] == pytest.approx(0.0, abs=1e-12)
    res_bits = run_cli("region", "--config", str(CONFIGS / "region_bsc_copy.json"),
                       "--rates", "0,0,0", "--units", "bits")
    doc_bits = json.loads(res_bits.stdout)
    assert doc_bits["results"]["info_vector"]["I1"] == pytest.approx(
        want / math.log(2), abs=1e-12
    )


def test_region_membership_and_projection():
    res = run_cli("region", "--config", str(CONFIGS / "region_binary.json"),
                  "--rates", "0,0,0")
    doc = json.loads(res.stdout)
    assert doc["results"]["inside"] is True
    res2 = run_cli("region", "--config", str(CONFIGS / "region_binary.json"), "--project")
    doc2 = json.loads(res2.stdout)
    pretty = doc2["results"]["projection"]["pretty"]
    assert any("R0 + R1 + R2 <=" in line for line in pretty)


def test_out_file_written_atomically(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "bound", "covering4",
        "--dist", str(CONFIGS / "joint_2x2.json"),
        "--M", "2", "--L", "2", "--gamma", "1",
        "--out", str(out),
    )
    assert res.returncode == 0
    assert json.loads(out.read_text())["report"]["clamped_value"] <= 1.0
    # a failing run must not leave a partial file behind
    out2 = tmp_path / "missing.json"
    res2 = run_cli("bound", "covering4", "--M", "2", "--L", "2", "--gamma", "1",
                   "--out", str(out2))
    assert res2.returncode == 2
    assert not out2.exists()
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".oneshot-")]
