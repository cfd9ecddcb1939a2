"""Command-line interface: schemas, exit codes, determinism, file handling."""

import concurrent.futures
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oneshot import Joint, SchemeSizes, broadcast_bound, cli, optimal_delta, optimize_gamma, oracle, rng
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
    # e^-gamma overflows here: the gamma check must come before the terms
    (["bound", "broadcast", "--config", str(CONFIGS / "broadcast_binary.json"),
      "--sizes-file", str(CONFIGS / "sizes_small.json"), "--gamma", "-1000"], "gamma"),
    (["simulate", "--config", str(CONFIGS / "broadcast_binary.json"),
      "--sizes-file", str(CONFIGS / "sizes_small.json"), "--gamma", "-1000", "--trials", "10"], "gamma"),
], ids=["gamma-overflow", "gamma-tiny", "trials-zero", "gamma-inf", "broadcast-gamma-negative",
        "simulate-gamma-negative"])
def test_numeric_extremes_exit_2_with_one_error_line(argv, names):
    res = run_cli(*argv)
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]


_BINARY_SMALL = ["--config", str(CONFIGS / "broadcast_binary.json"),
                 "--sizes-file", str(CONFIGS / "sizes_small.json")]
_LARGE_GAMMA_COMMANDS = {
    "covering1": ["bound", "covering1", *_COV_4X4],
    "covering1-delta": ["bound", "covering1", *_COV_4X4, "--delta", "0.5"],
    "covering4": ["bound", "covering4", *_COV_4X4],
    "covering5": ["bound", "covering5", "--dist", str(CONFIGS / "joint_2x2x2.json"),
                  "--event", str(CONFIGS / "event_2x2x2.json"), "--M", "4", "--L", "4"],
    "covering7": ["bound", "covering7", *_COV_4X4],
    "broadcast": ["bound", "broadcast", *_BINARY_SMALL],
    "simulate": ["simulate", *_BINARY_SMALL, "--trials", "20"],
}


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("gamma", ["709", "710", "720", "1e3"])
@pytest.mark.parametrize("command", sorted(_LARGE_GAMMA_COMMANDS))
def test_large_gamma_saturates_or_exits_2(command, gamma, capsys, monkeypatch):
    # e^gamma overflows a double above gamma = 709.78: each bound either
    # saturates to a valid, finite JSON report or rejects gamma with one
    # error line, and simulate rejects before drawing any trial
    drawn = []
    uniforms = rng.trial_uniforms
    monkeypatch.setattr(rng, "trial_uniforms", lambda *a: drawn.append(a) or uniforms(*a))
    code = cli.main([*_LARGE_GAMMA_COMMANDS[command], "--gamma", gamma])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "gamma" in lines[0]
        assert not drawn
        return
    doc = _strict_json(out)
    report = doc["outcome"]["bound"] if command == "simulate" else doc["report"]
    terms = dict((t["name"], t["value"]) for t in report["terms"])
    assert all(math.isfinite(v) for v in terms.values())
    assert terms["doubleexp"] == 0.0


def test_large_gamma_outcomes(capsys):
    # the doubleexp term saturates where e^gamma overflows; the ratio terms
    # overflow a little later and are rejected there
    def code(command, gamma):
        return cli.main([*_LARGE_GAMMA_COMMANDS[command], "--gamma", gamma])

    assert [code(c, "710") for c in ("covering1-delta", "covering4", "covering5",
                                     "covering7", "broadcast", "simulate")] == [0, 0, 0, 2, 0, 0]
    assert [code(c, "720") for c in ("covering1-delta", "covering4", "broadcast")] == [0, 2, 2]


#: gamma log-spaced over [1e-300, 1e3], plus the overflow edges and non-finite values
_PROPERTY_GAMMAS = [repr(float(g)) for g in np.geomspace(1e-300, 1e3, 40)] + [
    "709", "710", "745", "inf", "nan"]
_PROPERTY_COMMANDS = {**_LARGE_GAMMA_COMMANDS, "packing": ["bound", "packing"]}
_TRIALS_COMMANDS = {
    "simulate": ["simulate", *_BINARY_SMALL, "--gamma", "1"],
    "verify-broadcast": ["verify", "broadcast", *_BINARY_SMALL, "--gamma", "1"],
    "verify-covering": ["verify", "covering", *_COV_4X4, "--gamma", "1"],
    "verify-covering5": ["verify", "covering5", *_LARGE_GAMMA_COMMANDS["covering5"][2:], "--gamma", "1"],
    "verify-packing": ["verify", "packing", "--dist", str(CONFIGS / "joint_2x2.json"),
                       "--M", "2", "--N", "2", "--gamma", "1"],
    "verify-resolvability": ["verify", "resolvability", "--dist", str(CONFIGS / "joint_2x2.json"),
                             "--M", "3", "--lam", "3"],
}


def _assert_clean_outcome(code: int, out: str, err: str) -> None:
    """Exit 0 with strict, finite JSON, or exit 2 with one ``error:`` line."""
    assert code in (0, 2)
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        _strict_json(out)


@pytest.mark.parametrize("command", sorted(_PROPERTY_COMMANDS))
def test_gamma_property_exit_0_or_2(command, capsys):
    for gamma in _PROPERTY_GAMMAS:
        code = cli.main([*_PROPERTY_COMMANDS[command], "--gamma", gamma])
        out, err = capsys.readouterr()
        _assert_clean_outcome(code, out, err)
        if not 0 < float(gamma) < math.inf:
            assert code == 2


@pytest.mark.parametrize("trials", ["0", "1"])
@pytest.mark.parametrize("command", sorted(_TRIALS_COMMANDS))
def test_trials_property_exit_0_or_2(command, trials, capsys):
    code = cli.main([*_TRIALS_COMMANDS[command], "--trials", trials])
    out, err = capsys.readouterr()
    _assert_clean_outcome(code, out, err)
    assert code == (2 if trials == "0" else 0)


_JOINT = str(CONFIGS / "joint_2x2.json")


@pytest.mark.parametrize("argv,names", [
    (["bound", "covering4", "--dist", _JOINT, "--M", "0", "--L", "3", "--gamma", "1"], "sizes"),
    (["verify", "packing", "--dist", _JOINT, "--M", "3", "--N", "0", "--gamma", "1"], "sizes"),
    (["verify", "resolvability", "--dist", _JOINT, "--M", "0", "--lam", "3", "--trials", "10"],
     "sizes"),
    (["bound", "resolvability", "--dist", _JOINT, "--M", "3", "--lam", "inf"], "finite"),
    (["bound", "covering1", *_COV_4X4, "--gamma", "1", "--delta", "inf"], "finite"),
    (["region", "--config", str(CONFIGS / "region_binary.json"), "--rates", "inf,0,0"], "finite"),
    (["sweep", "packing", "--param", "gamma", "--from", "0.1", "--to", "inf", "--steps", "3"],
     "finite"),
], ids=["covering-M0", "packing-N0", "resolvability-M0", "lam-inf", "delta-inf", "rates-inf",
        "sweep-to-inf"])
def test_bad_sizes_and_non_finite_values_exit_2(argv, names, capsys):
    code = cli.main(argv)
    _, err = capsys.readouterr()
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0]


@pytest.mark.parametrize("argv,names", [
    (["verify", "resolvability", "--dist", _JOINT, "--M", "3", "--lam", "1.5"], "lam"),
    (["verify", "covering", *_COV_4X4, "--gamma", "1", "--delta", "-1"], "delta"),
    (["verify", "covering", *_COV_4X4, "--gamma", "8"], "delta overflows"),
], ids=["lam", "delta", "auto-delta-overflow"])
def test_verify_refuses_bad_bound_params_before_the_oracles(argv, names, capsys, monkeypatch):
    def oracle_ran(*args, **kwargs):
        raise AssertionError("an oracle ran before the bound parameters were checked")

    for name in ("exact_miss_prob", "mc_miss_prob", "resolvability_excess_exact",
                 "mc_resolvability_excess"):
        monkeypatch.setattr(oracle, name, oracle_ran)
    code = cli.main([*argv, "--trials", "20000000"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0], err


#: a count whose products pass Python's 4,300-digit limit for int-to-str conversion
_HUGE_COUNT = "1" + "0" * 3000
_HUGE_SIM = ["--config", str(CONFIGS / "broadcast_binary.json"), "--gamma", "1", "--sizes"]
_WORK_CAPS = {
    **{f"trials-{name}": ([*argv, "--trials", "100000000000000"], "trials exceed the cap")
       for name, argv in _TRIALS_COMMANDS.items() if name != "verify-packing"},
    "sweep-steps": (["sweep", "packing", "--param", "gamma", "--from", "0.1", "--to", "1",
                     "--steps", "100000000000"], "--steps"),
    # huge counts print as a power of ten
    "trials-huge": ([*_TRIALS_COMMANDS["simulate"], "--trials", _HUGE_COUNT], "~10^3000 trials"),
    "reuse-huge": ([*_TRIALS_COMMANDS["simulate"], "--reuse-codebook", _HUGE_COUNT],
                   "reuse group of ~10^3000 trials"),
    "sweep-steps-huge": (["sweep", "packing", "--param", "gamma", "--from", "0.1", "--to", "1",
                          "--steps", _HUGE_COUNT], "--steps ~10^3000"),
    **{f"huge-{name}": ([*command, *_HUGE_SIM, sizes], "bytes of uniforms")
       for name, command, sizes in (
           ("clouds-simulate", ["simulate"], f"{_HUGE_COUNT},{_HUGE_COUNT},1,1,1,1,1"),
           ("clouds-verify-broadcast", ["verify", "broadcast"],
            f"{_HUGE_COUNT},{_HUGE_COUNT},1,1,1,1,1"),
           ("N-simulate", ["simulate"], f"1,1,1,{_HUGE_COUNT},1,1,1"))},
}


@pytest.mark.parametrize("case", sorted(_WORK_CAPS))
def test_work_caps_exit_1_before_any_work(case, capsys):
    # refused up front: no chunk of trials runs and no grid is allocated
    argv, names = _WORK_CAPS[case]
    code = cli.main(argv)
    _, err = capsys.readouterr()
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0], err
    assert len(lines[0]) < 200


def test_huge_draw_count_in_a_skipped_exact_value_prints_short(capsys):
    code = cli.main(["verify", "packing", "--dist", _JOINT, "--M", _HUGE_COUNT, "--N", "2",
                     "--gamma", "1", "--trials", "10"])
    _, err = capsys.readouterr()
    assert code == 0
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: exact value skipped"), err
    assert "~10^3000 draws" in lines[0] and len(lines[0]) < 200


_BLACKWELL = str(CONFIGS / "broadcast_blackwell.json")


@pytest.mark.parametrize("sizes,code", [("1,1,1,1,1,30,1", 0), ("1,1,1,1,1,1000000000000,1", 1),
                                        (f"1,1,1,1,1,{10**200},1", 1)],
                         ids=["2^30-rows", "10^12-letters", "10^200-letters"])
def test_verify_broadcast_past_the_oracle_cap(sizes, code, capsys):
    # 2^30 sent rows: the exact rows are skipped and Monte Carlo is the
    # reference; at 10^12 letters a row and more the row count is never
    # formed, and the simulator's chunk cap then refuses the run
    argv = ["verify", "broadcast", "--config", str(CONFIGS / "broadcast_binary.json"),
            "--sizes", sizes, "--gamma", "1", "--trials", "100", "--format", "json"]
    seen = cli.main(argv)
    out, err = capsys.readouterr()
    _assert_exit_contract(argv, seen, out, err)
    lines = err.strip().splitlines()
    assert seen == code
    assert lines[0].startswith("warning: exact value skipped: exact oracle with ")
    assert all(len(line) < 200 for line in lines)
    if code == 0:
        rows = _strict_json(out)["rows"]
        assert [row["name"] for row in rows] == ["eps1_hat", "eps2_hat", "broadcast"]
    else:
        assert lines[1].startswith("error: one trial needs")


def test_verify_broadcast_exact_zero_is_zero(capsys):
    # receiver 2 of the Blackwell design never errs with one codeword each
    code = cli.main(["verify", "broadcast", "--config", _BLACKWELL, "--sizes", "1,1,1,1,1,1,1",
                     "--gamma", "0.3", "--trials", "2000", "--seed", "4", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = {row["name"]: row for row in _strict_json(out)["rows"]}
    assert list(rows) == ["eps1", "eps2", "eps1_hat", "eps2_hat", "broadcast"]
    assert rows["eps1"]["value"] == pytest.approx(1 / 9, abs=1e-15)
    assert rows["eps2"]["value"] == 0.0 and math.copysign(1.0, rows["eps2"]["value"]) == 1.0
    assert '"value": 0.0' in out and "-0.0" not in out
    assert rows["eps2_hat"]["value"] == 0.0 and rows["eps2_hat"]["stderr"] == 0.0
    assert not rows["broadcast"]["violation"]

_IMPORT_PROBE = """
import json, sys
import oneshot, oneshot.cli
from oneshot import broadcast, regions
with open(sys.argv[1]) as fh:
    system = broadcast.BroadcastSystem.from_json(json.load(fh))
proj = regions.fme_project(regions.info_vector(system.joint_ust, system.x_map, system.channel))
rows = [[list(r.coeffs), r.constant] for r in proj.rows]
print(json.dumps({"scipy": "scipy" in sys.modules, "rows": rows}))
"""


def test_projection_never_loads_scipy(monkeypatch):
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(CONFIGS / "region_bsc_copy.json")],
                         capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["scipy"] is False
    assert doc["rows"] == [[[0.0, -1.0, 0.0], 0.0],
                           [[0.0, 0.0, -1.0], 0.0],
                           [[1.0, 1.0, 1.0], 0.0]]
    # perfbench's tracer counts LP solves by rebinding regions.linprog, so
    # the name must stay a module attribute looked up per call
    from oneshot import regions

    real, calls = regions.linprog, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "linprog", counting)
    regions.fme_project(regions.InfoVector(0.3680642071684971, 0.0, 0.0, 0.0, 0.0))
    assert calls


_MODULE_PROBE = """
import json, sys
from oneshot import cli
code = cli.main(sys.argv[1:])
loaded = [m for m in ("numpy.ma", "scipy") if m in sys.modules]
sys.stderr.write(json.dumps({"code": code, "loaded": loaded}))
"""


@pytest.mark.parametrize("argv", [
    ["region", "--config", str(CONFIGS / "region_binary.json"), "--project"],
    ["bound", "broadcast", "--config", str(CONFIGS / "broadcast_binary.json"),
     "--sizes-file", str(CONFIGS / "sizes_large.json"), "--gamma", "1.1"],
    ["verify", "covering", "--dist", str(CONFIGS / "joint_3x3.json"), "--M", "3", "--L", "2",
     "--gamma", "0.5", "--trials", "200"],
    ["verify", "covering5", "--dist", str(CONFIGS / "joint_2x2x2.json"),
     "--event", str(CONFIGS / "event_2x2x2.json"), "--M", "2", "--L", "2", "--gamma", "0.5",
     "--trials", "200"],
    ["verify", "packing", "--dist", str(CONFIGS / "joint_2x2.json"), "--M", "2", "--N", "2",
     "--gamma", "0.5"],
    ["simulate", "--config", str(CONFIGS / "broadcast_binary.json"),
     "--sizes-file", str(CONFIGS / "sizes_small.json"), "--gamma", "1.1", "--trials", "200"],
    ["sweep", "covering4", "--dist", str(CONFIGS / "joint_2x2.json"),
     "--event", str(CONFIGS / "event_diag.json"), "--M", "3", "--L", "2",
     "--param", "gamma", "--from", "0.1", "--to", "3", "--steps", "16"],
], ids=["region-project", "bound-broadcast", "verify-covering", "verify-covering5",
        "verify-packing", "simulate", "sweep"])
def test_cold_paths_skip_numpy_ma_and_scipy(argv):
    # numpy.ma (pulled in by 1-D np.unique) and scipy are cold-start costs
    # that no command needs
    res = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv],
                         capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stderr) == {"code": 0, "loaded": []}


def test_cap_exceeded_exits_1(tmp_path):
    # 15^3 * 60^2 > 1e7 design cells: every command reads only arrays of at
    # most 15^3 * 60 entries, so none of them is refused
    k, ky = 15, 60
    p = np.full((k, k, k), 1.0 / k**3)
    x_map = np.zeros((k, k, k), dtype=int).tolist()
    rows = [np.full((ky, ky), 1.0 / ky**2).tolist()]
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"p_ust": p.tolist(), "x_map": x_map,
                               "channel": {"rows": rows}}))
    assert run_cli("bound", "broadcast", "--config", str(cfg),
                   "--sizes", "1,1,1,1,1,1,1", "--gamma", "1").returncode == 0
    assert run_cli("region", "--config", str(cfg), "--project").returncode == 0
    for command in (["simulate"], ["verify", "broadcast"]):
        res = run_cli(*command, "--config", str(cfg), "--sizes", "1,1,1,1,1,1,1", "--gamma", "1",
                      "--trials", "10")
        assert res.returncode == 0, res.stderr
        _strict_json(res.stdout)
    # 22^2 auxiliary pairs against 21,000 outputs: a receiver marginal of
    # 10,164,000 entries
    cfg.write_text(json.dumps({"p_ust": np.full((22, 22, 1), 1 / 484).tolist(),
                               "x_map": np.zeros((22, 22, 1), dtype=int).tolist(),
                               "channel": {"rows": [np.full((21000, 1), 1 / 21000).tolist()]}}))
    res = run_cli("bound", "broadcast", "--config", str(cfg),
                  "--sizes", "1,1,1,1,1,1,1", "--gamma", "1")
    assert res.returncode == 1
    assert res.stderr.startswith("error: union kernel with 10164000 entries exceeds the cap")
    res = run_cli("region", "--config", str(cfg), "--project")
    assert res.returncode == 1
    assert res.stderr.startswith("error: receiver marginal with 10164000 entries exceeds the cap")


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
    # 40 distinct event rows over 24 columns with 1000 codewords: the
    # covered sets outgrow the DP cap long before the closure completes
    dist, event = tmp_path / "wide.json", tmp_path / "wide_event.json"
    dist.write_text(json.dumps(np.full((40, 24), 1.0 / 960.0).tolist()))
    mask = np.random.default_rng(0).random((40, 24)) < 0.3
    event.write_text(json.dumps(mask.tolist()))
    res = run_cli(
        "verify", "covering", "--dist", str(dist), "--event", str(event),
        "--M", "1000", "--L", "2", "--gamma", "1", "--trials", "500",
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
                            (0.05, 4.0))
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


def _config_with(path: str, edit) -> dict:
    doc = json.loads((CONFIGS / path).read_text())
    edit(doc)
    return doc


_SIZES = json.loads((CONFIGS / "sizes_small.json").read_text())
_ONE_SIZES = ["--sizes", "1,1,1,1,1,1,1", "--gamma", "1"]
_POINTS = ["bound", "covering4", "--dist", _JOINT, "--event", "{f}", "--M", "2", "--L", "2",
           "--gamma", "1"]

#: id -> (argv with {f} for the written file, its JSON content, a word the error names)
_BAD_INPUTS = {
    "ragged-dist": (["verify", "covering", "--dist", "{f}", "--M", "2", "--L", "2", "--gamma", "1"],
                    [[0.5, 0.25], [0.25]], "joint"),
    "text-dist": (["bound", "covering4", "--dist", "{f}", "--M", "2", "--L", "2", "--gamma", "1"],
                  [["a", "b"], ["c", "d"]], "joint"),
    "ragged-config": (["bound", "broadcast", "--config", "{f}", *_ONE_SIZES],
                      _config_with("broadcast_binary.json",
                                   lambda d: d["p_ust"][0].__setitem__(0, [0.15])), "joint"),
    "text-channel": (["simulate", "--config", "{f}", *_ONE_SIZES],
                     _config_with("broadcast_binary.json",
                                  lambda d: d["channel"]["rows"][0][0].__setitem__(0, "x")),
                     "kernel"),
    "ragged-x-map": (["region", "--config", "{f}", "--rates", "0,0,0"],
                     _config_with("region_binary.json",
                                  lambda d: d["x_map"][0].__setitem__(0, [0])), "x_map"),
    "point-out-of-range": (_POINTS, {"points": [[0, 2]]}, "event point"),
    "point-negative": (_POINTS, {"points": [[-1, -1]]}, "event point"),
    "point-short": (_POINTS, {"points": [[0]]}, "event point"),
    "point-long": (_POINTS, {"points": [[0, 0, 0]]}, "event point"),
    "point-text": (_POINTS, {"points": [["a", 0]]}, "event points"),
    "ragged-mask": (_POINTS, {"mask": [[True, False], [True]]}, "--event"),
    "mask-not-0-or-1": (_POINTS, {"mask": [[2, -1], [0.5, 0]]}, "--event"),
    "mask-text": (_POINTS, {"mask": [["1", "0"], ["0", "1"]]}, "--event"),
    "joint-as-mask": (_POINTS, json.loads((CONFIGS / "joint_2x2.json").read_text()), "--event"),
    "sizes-text": (["simulate", "--config", str(CONFIGS / "broadcast_binary.json"),
                    "--sizes-file", "{f}", "--gamma", "1"], {**_SIZES, "Nhat": "two"}, "Nhat"),
    "sizes-fraction": (["bound", "broadcast", "--config", str(CONFIGS / "broadcast_binary.json"),
                        "--sizes-file", "{f}", "--gamma", "1"], {**_SIZES, "Lhat": 2.5}, "Lhat"),
    "out-missing-dir": (["bound", "packing", "--gamma", "1", "--out", "{d}/missing/out.json"],
                        None, "--out"),
    "out-is-dir": (["bound", "packing", "--gamma", "1", "--out", "{d}"], None, "--out"),
    "x-map-fraction": (["region", "--config", "{f}", "--rates", "0,0,0"],
                       _config_with("region_binary.json",
                                    lambda d: d["x_map"][0][0].__setitem__(0, 0.7)), "x_map"),
    "point-fraction": (_POINTS, {"points": [[1.5, 0]]}, "event point"),
    "seed-negative": (["simulate", "--config", str(CONFIGS / "broadcast_binary.json"),
                       *_ONE_SIZES, "--trials", "10", "--seed", "-1"], None, "--seed"),
    "seed-2-64": (["verify", "covering", "--dist", _JOINT, "--M", "2", "--L", "2", "--gamma", "1",
                   "--trials", "10", "--seed", str(2**64)], None, "--seed"),
}
# sizes whose product, or one of them, is past the largest double
_HUGE = str(10**200)
_BINARY = str(CONFIGS / "broadcast_binary.json")
for _name, _argv in (
        ("bound-covering1", ["bound", "covering1", "--dist", _JOINT, "--M", _HUGE, "--L", _HUGE,
                             "--gamma", "1"]),
        ("bound-covering4", ["bound", "covering4", "--dist", _JOINT, "--M", _HUGE, "--L", _HUGE,
                             "--gamma", "1"]),
        ("bound-resolvability", ["bound", "resolvability", "--dist", _JOINT, "--M", str(10**400),
                                 "--lam", "3"]),
        ("verify-covering", ["verify", "covering", "--dist", _JOINT, "--M", _HUGE, "--L", _HUGE,
                             "--gamma", "1", "--trials", "10"]),
        ("sweep-covering4", ["sweep", "covering4", "--dist", _JOINT, "--M", _HUGE, "--L", _HUGE,
                             "--param", "gamma", "--from", "0.5", "--to", "1", "--steps", "2"]),
        ("bound-broadcast", ["bound", "broadcast", "--config", _BINARY,
                             "--sizes", f"1,1,1,1,1,{_HUGE},{_HUGE}", "--gamma", "1"])):
    _BAD_INPUTS[f"huge-sizes-{_name}"] = (_argv, None, "codebook sizes")
_BAD_INPUTS["sizes-non-ascii-digit"] = (
    ["bound", "broadcast", "--config", _BINARY, "--sizes", "1,1,1,1,1,1,\u00b2", "--gamma", "1"],
    None, "sizes")
# no value here starts a thread: each is refused before any work
for _threads in (0, -3, rng.THREADS_CAP + 1):
    _BAD_INPUTS[f"threads-{_threads}"] = (
        ["simulate", "--config", str(CONFIGS / "broadcast_binary.json"), *_ONE_SIZES,
         "--trials", "10", "--threads", str(_threads)], None, "--threads")
#: a 3-axis joint where each kind needs 2 axes
_JOINT3 = json.loads((CONFIGS / "joint_2x2x2.json").read_text())
for _argv in (["bound", "covering1", "--M", "2", "--L", "2", "--gamma", "1"],
              ["bound", "covering4", "--M", "2", "--L", "2", "--gamma", "1"],
              ["bound", "covering7", "--M", "2", "--L", "2", "--gamma", "1"],
              ["bound", "resolvability", "--M", "2", "--lam", "3"],
              ["verify", "packing", "--M", "2", "--N", "2", "--gamma", "1"],
              ["verify", "resolvability", "--M", "2", "--lam", "3", "--trials", "10"],
              ["sweep", "covering1", "--M", "2", "--L", "2", "--gamma", "1", "--param", "delta",
               "--from", "0.1", "--to", "1", "--steps", "3"]):
    _BAD_INPUTS[f"3-axis-{_argv[0]}-{_argv[1]}"] = (
        [*_argv, "--dist", "{f}"], _JOINT3, f"--dist: {_argv[1]} needs a 2-axis joint")


def test_integral_floats_pass_as_indices(tmp_path, capsys):
    # only a fractional part is refused: 3.0 and 1.0 index like 3 and 1
    outputs = []
    for x, point in ((3, [1, 0]), (3.0, [1.0, 0.0])):
        config, event = tmp_path / "config.json", tmp_path / "event.json"
        config.write_text(json.dumps(_config_with(
            "region_binary.json", lambda d: d["x_map"][1][1].__setitem__(1, x))))
        event.write_text(json.dumps({"points": [point]}))
        assert cli.main(["region", "--config", str(config), "--rates", "0,0,0"]) == 0
        assert cli.main([a.format(f=event) for a in _POINTS]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_dist_labels_key_is_ignored(tmp_path, capsys):
    # "labels" is read like any other extra key of a --dist object: not at all
    outputs = []
    for doc in ([[0.5, 0.5], [0, 0]], {"probs": [[0.5, 0.5], [0, 0]], "labels": 5}):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(doc))
        assert cli.main(["bound", "covering4", "--dist", str(dist), "--M", "2", "--L", "2",
                         "--gamma", "1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_masks_of_0_1_and_booleans_match_points(tmp_path, capsys):
    outputs = []
    for doc in ({"points": [[0, 0], [1, 1]]}, {"mask": [[1, 0], [0, 1]]},
                {"mask": [[True, False], [False, True]]}, [[1.0, 0.0], [0.0, 1.0]]):
        event = tmp_path / "event.json"
        event.write_text(json.dumps(doc))
        assert cli.main([a.format(f=event) for a in _POINTS]) == 0
        outputs.append(capsys.readouterr())
    assert all(out == outputs[0] for out in outputs)


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    argv, content, names = _BAD_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code = cli.main([a.format(f=path, d=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0], err
    assert not list(tmp_path.glob(".oneshot-*"))


def test_program_fault_exits_3_with_traceback(monkeypatch, capsys):
    # a fault in the program is told apart from a cap (1) and bad input (2)
    def fault(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_bound", fault)
    code = cli.main(["bound", "packing", "--gamma", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert err.strip().splitlines()[-1] == "error: internal error"


def test_interrupt_passes_through(monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_bound", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["bound", "packing", "--gamma", "1"])


#: values a numeric flag or JSON field is set to by the exit-contract fuzz
_EXTREMES = ["0", "-1", "1e-300", "1e300", "inf", "-inf", "nan", str(2**63), "710"]
#: flags that argparse reads as integers take only the integral extremes
_INT_FLAGS = {"--M", "--L", "--N", "--seed", "--threads", "--trials", "--steps",
              "--reuse-codebook"}
_INSIDE = str(CONFIGS / "broadcast_inside.json")
#: base argv of every fuzzed command, over all five subcommands
_FUZZ_BASES = [
    ["bound", "covering1", *_COV_4X4, "--gamma", "0.9", "--delta", "0.4"],
    ["bound", "covering4", *_COV_4X4, "--gamma", "1.1"],
    ["bound", "covering5", *_LARGE_GAMMA_COMMANDS["covering5"][2:], "--gamma", "0.8"],
    ["bound", "covering7", *_COV_4X4, "--gamma", "1.4"],
    ["bound", "resolvability", "--dist", _JOINT, "--M", "3", "--lam", "2.5"],
    ["bound", "packing", "--gamma", "1.5"],
    ["bound", "broadcast", "--config", _INSIDE, "--sizes", "1,1,1,1,1,2,2", "--gamma", "0.3"],
    ["verify", "covering", *_COV_4X4, "--gamma", "1", "--trials", "50", "--seed", "9"],
    ["verify", "covering5", *_LARGE_GAMMA_COMMANDS["covering5"][2:], "--gamma", "1",
     "--trials", "50"],
    ["verify", "resolvability", "--dist", _JOINT, "--M", "3", "--lam", "2.5", "--trials", "50"],
    ["verify", "packing", "--dist", _JOINT, "--M", "2", "--N", "2", "--gamma", "0.5"],
    ["verify", "broadcast", "--config", _INSIDE, "--sizes", "1,1,1,1,1,2,2", "--gamma", "0.02",
     "--trials", "50", "--seed", "5", "--threads", "1"],
    ["verify", "broadcast", "--config", str(CONFIGS / "broadcast_blackwell.json"),
     "--sizes", "1,1,1,1,1,2,2", "--gamma", "0.3", "--trials", "50", "--seed", "6"],
    ["simulate", "--config", _INSIDE, "--sizes", "1,1,1,1,1,2,2", "--gamma", "0.02",
     "--trials", "50", "--reuse-codebook", "4", "--random-message"],
    ["simulate", "--config", str(CONFIGS / "broadcast_binary.json"), "--sizes", "2,1,1,2,2,2,2",
     "--gamma", "0.5", "--trials", "60", "--seed", "3", "--threads", "1"],
    ["sweep", "covering4", *_COV_4X4, "--param", "gamma", "--from", "0.2", "--to", "3",
     "--steps", "5"],
    ["sweep", "covering1", *_COV_4X4, "--gamma", "0.7", "--param", "delta", "--from", "0.05",
     "--to", "2", "--steps", "4"],
    ["sweep", "resolvability", "--dist", _JOINT, "--M", "4", "--param", "lambda",
     "--from", "2.5", "--to", "12", "--steps", "6"],
    ["sweep", "broadcast", "--config", _INSIDE, "--sizes", "1,1,1,1,1,2,2", "--param", "gamma",
     "--from", "0.05", "--to", "4", "--steps", "3"],
    ["region", "--config", str(CONFIGS / "region_binary.json"), "--rates", "0.1,0.2,0.1"],
    ["region", "--config", _INSIDE, "--project", "--units", "bits"],
    # C(M + 1999, M) has more digits than Python will print
    ["verify", "resolvability", "--dist", "{wide}", "--M", "200000", "--lam", "3",
     "--trials", "2"],
]
_JSON_FLAGS = ("--dist", "--event", "--config")


def _wide_joint(tmp: Path) -> Path:
    """A uniform 2000 x 2 joint: too many codeword multisets to count in digits."""
    path = tmp / "wide.json"
    path.write_text(json.dumps(np.full((2000, 2), 1 / 4000).tolist()))
    return path


def _numeric_leaves(doc, path=()):
    """Paths of the numbers in a JSON document."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in _numeric_leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in _numeric_leaves(value, (*path, i))]
    return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def _mutate(gen: np.random.Generator, base: list[str], tmp: Path) -> list[str]:
    """``base`` with one numeric flag, one entry of ``--sizes`` or ``--rates``
    or one number of a JSON input set to an extreme value.  Every case stays
    cheap: at most 100 trials or more than ``TRIALS_CAP``, and at most 10
    sweep steps or more than ``SWEEP_STEPS_CAP``."""
    argv = list(base)
    flags = [i for i, a in enumerate(argv[:-1]) if a.startswith("--")
             and argv[i + 1][:1] in "0123456789" and a not in _JSON_FLAGS]
    files = [i for i, a in enumerate(argv[:-1]) if a in _JSON_FLAGS]
    i = int(gen.choice(flags + files))
    flag = argv[i]
    if flag in _JSON_FLAGS:
        doc = json.loads(Path(argv[i + 1]).read_text())
        leaves = _numeric_leaves(doc)
        *parents, last = leaves[gen.integers(len(leaves))]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = float(gen.choice(_EXTREMES))
        path = tmp / f"{flag.lstrip('-')}.json"
        path.write_text(json.dumps(doc))
        argv[i + 1] = str(path)
        return argv
    if flag in ("--sizes", "--rates"):
        fields = argv[i + 1].split(",")
        fields[gen.integers(len(fields))] = str(gen.choice(_EXTREMES))
        value = ",".join(fields)
    else:
        pool = [v for v in _EXTREMES if flag not in _INT_FLAGS or v.lstrip("-").isdigit()]
        if flag == "--trials":
            pool = [v for v in pool if int(v) <= 100 or int(v) > rng.TRIALS_CAP]
        if flag == "--steps":
            pool = [v for v in pool if int(v) <= 10 or int(v) > cli.SWEEP_STEPS_CAP]
        value = str(gen.choice(pool))
    # --flag=value, so that argparse does not read -inf as an option
    del argv[i:i + 2]
    return [*argv, f"{flag}={value}"]


def _assert_exit_contract(argv: list[str], code: int, out: str, err: str) -> None:
    """Exit 0 with strict JSON and no error line, or 1 or 2 with one error
    line and nothing on stdout; a program fault (exit 3) is a bug."""
    assert code in (0, 1, 2), (argv, err)
    lines = err.strip().splitlines()
    if code == 0:
        _strict_json(out)
        assert not any(line.startswith("error:") for line in lines), (argv, err)
    else:
        assert out == "", argv
        assert [line.startswith("error: ") for line in lines].count(True) == 1, (argv, err)
        assert all(line.startswith(("error: ", "warning: ")) for line in lines), (argv, err)


def test_exit_contract_fuzz(tmp_path, capsys, monkeypatch):
    # seeded mutations of valid commands: each exits 0 with strict JSON, or 1
    # or 2 with one error line; a program fault (exit 3) is a bug
    def no_threads(*args, **kwargs):
        raise AssertionError("a fuzz case started worker threads")

    # rng imports the pool where it starts threads, so it is guarded at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    wide = str(_wide_joint(tmp_path))
    gen = np.random.default_rng(2026)
    codes = []
    for case in range(300):
        base = [a.format(wide=wide) for a in _FUZZ_BASES[case % len(_FUZZ_BASES)]]
        argv = [*_mutate(gen, base, tmp_path), "--format", "json"]
        code = cli.main(argv)
        codes.append(code)
        _assert_exit_contract(argv, code, *capsys.readouterr())
    # the mutations reach every outcome of the contract
    assert {0, 1, 2} <= set(codes)


#: values the numeric-flag fuzz sets, with a 201-digit integer and a non-ASCII digit
_FLAG_EXTREMES = ["0", "-1", "nan", "inf", "1e-320", str(10**200), "\u00b2"]
_FLAG_TARGETS = ("--M", "--L", "--N", "--lam", "--gamma")


def _with_values(base: list[str], picks, value: str) -> list[str]:
    """``base`` with ``value`` at each pick: ``(i, None)`` for the flag at
    index ``i``, ``(i, k)`` for entry ``k`` of the ``--sizes`` at ``i``."""
    argv = list(base)
    for i, entry in picks:
        if entry is None:
            argv[i + 1] = value
        else:
            fields = argv[i + 1].split(",")
            fields[entry] = value
            argv[i + 1] = ",".join(fields)
    flags = {i for i, _ in picks}
    # --flag=value, so that argparse does not read -1 or -inf as an option
    return ([a for j, a in enumerate(argv) if j not in flags and j - 1 not in flags]
            + [f"{argv[i]}={argv[i + 1]}" for i in sorted(flags)])


def test_numeric_flag_fuzz(capsys):
    # one value on one or two of --M, --L, --N, --lam, --gamma and the --sizes
    # entries: two huge sizes overflow their product, a non-ASCII digit is not
    # an integer; none of it is a program fault (exit 3)
    gen = np.random.default_rng(2027)
    cases = []
    for base in _FUZZ_BASES:
        slots = [(i, None) for i, a in enumerate(base) if a in _FLAG_TARGETS]
        slots += [(i, k) for i, a in enumerate(base) if a == "--sizes" for k in range(7)]
        if slots and "{wide}" not in base:
            cases.append((base, slots))
    codes = []
    for case in range(150):
        base, slots = cases[case % len(cases)]
        count = min(len(slots), int(gen.integers(1, 3)))
        picks = [slots[j] for j in gen.choice(len(slots), size=count, replace=False)]
        argv = [*_with_values(base, picks, str(gen.choice(_FLAG_EXTREMES))), "--format", "json"]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses what an integer flag cannot read
            assert exc.code == 2, argv
            code = "usage"
            capsys.readouterr()
        else:
            _assert_exit_contract(argv, code, *capsys.readouterr())
        codes.append(code)
    assert {0, 2, "usage"} <= set(codes)


def _structural_design(name: str, gen: np.random.Generator) -> dict:
    """A seeded broadcast design config with one structural degeneracy.  The
    base has binary u, s and t and x = (u, s, t); receiver 1 sees (u, s) and
    receiver 2 sees (u, t), each through a random noisy 4-ary channel."""
    p = gen.dirichlet(np.full(8, 0.5)).reshape(2, 2, 2)
    x_map = np.arange(8).reshape(2, 2, 2)
    r1, r2 = (np.eye(4) + gen.uniform(0.0, 0.05, (4, 4)) for _ in range(2))
    if name == "dead-cloud":
        p[1] = 0.0
    elif name == "half-empty":
        p.reshape(-1)[gen.permutation(8)[:4]] = 0.0
    elif name == "many-to-one":
        x_map = x_map & 6  # t is never sent
    elif name == "deterministic":
        r1, r2 = np.eye(4)[gen.permutation(4)], np.eye(4)[gen.permutation(4)]
    elif name == "zero-entries":
        r1, r2 = ((gen.random((4, 4)) < 0.5) * r + np.eye(4) for r in (r1, r2))
    u, s, t = np.unravel_index(np.arange(8), (2, 2, 2))
    rows = (r1 / r1.sum(axis=1, keepdims=True))[2 * u + s][:, :, None] \
        * (r2 / r2.sum(axis=1, keepdims=True))[2 * u + t][:, None, :]
    return {"p_ust": (p / p.sum()).tolist(), "x_map": x_map.tolist(),
            "channel": {"rows": rows.tolist()}}


@pytest.mark.parametrize("name", ["dead-cloud", "half-empty", "many-to-one", "deterministic",
                                  "zero-entries"])
def test_structural_designs_keep_the_exit_contract(name, tmp_path, capsys):
    # the degenerate designs, where the bad-mass kernel and the clause tables
    # read zero laws, dead symbols and -inf densities
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(_structural_design(name, np.random.default_rng(31))))
    run = ["--sizes", "1,1,1,1,1,1,1", "--gamma", "0.01"]
    mc = ["--trials", "60", "--seed", "3"]
    for command in (["bound", "broadcast", *run], ["simulate", *run, *mc, "--random-message"],
                    ["verify", "broadcast", *run, *mc], ["region", "--project"]):
        argv = [*command, "--config", str(cfg), "--format", "json"]
        _assert_exit_contract(argv, cli.main(argv), *capsys.readouterr())


@pytest.mark.parametrize("M,code", [(10**6, 0), (10**7, 1)])
def test_wide_resolvability_skips_the_uncountable_exact_value(M, code, tmp_path, capsys):
    # the multiset count C(M + 1999, M) has over 4,300 digits: the cap is
    # decided without printing it, the exact row is skipped, and Monte Carlo
    # runs (10^6) or meets the chunk cap (10^7); it used to exit 3
    code_seen = cli.main(["verify", "resolvability", "--dist", str(_wide_joint(tmp_path)),
                          "--M", str(M), "--lam", "3", "--trials", "1", "--format", "json"])
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert code_seen == code, err
    assert lines[0].startswith("warning: exact value skipped") and "cap" in lines[0]
    if code == 0:
        assert len(lines) == 1
        assert [row["name"] for row in _strict_json(out)["rows"]] == ["mc", "resolvability"]
    else:
        assert out == "" and len(lines) == 2 and lines[1].startswith("error: one trial needs")
