"""Reference outputs of the CLI and the broadcast simulator, compared byte
for byte.

The files under ``tests/golden/`` hold the exact output of ``simulate`` and
``verify broadcast`` on the shipped binary system and on the shipped
design inside its own region (whose error rates and union term lie strictly
between 0 and 1), ``verify broadcast`` on the Blackwell design (whose exact
errors lie strictly between 0 and 1), plus ``SimOutcome`` JSON for the
three-letter asymmetric system.  Any change to codebook sampling, chunking or the
encode/decode kernel must reproduce them exactly, for every thread count.
They also hold ``bound`` for every kind in JSON and CSV, ``verify`` for
every covering, resolvability and packing kind, ``sweep`` for every kind
and parameter, ``region --project``, and ``region --rates`` verdicts on a
rate grid, so that changes to bound evaluation, the verify pipeline, the
output writer and region membership keep every output.

Regenerate only when an output change is intended and explained::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from oneshot import SchemeSizes, cli, simulate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
BINARY = str(ROOT / "configs" / "broadcast_binary.json")
INSIDE = str(ROOT / "configs" / "broadcast_inside.json")
BLACKWELL = str(ROOT / "configs" / "broadcast_blackwell.json")
SMALL = str(ROOT / "configs" / "sizes_small.json")
LARGE = str(ROOT / "configs" / "sizes_large.json")
JOINT = str(ROOT / "configs" / "joint_2x2.json")
EVENT = str(ROOT / "configs" / "event_diag.json")
JOINT3 = str(ROOT / "configs" / "joint_2x2x2.json")
SKEW = str(ROOT / "configs" / "joint_3x3.json")
NOISELESS = str(ROOT / "configs" / "noiseless_2x2.json")
EVENT3 = str(ROOT / "configs" / "event_2x2x2.json")
REGION = {"binary": str(ROOT / "configs" / "region_binary.json"),
          "bsc_copy": str(ROOT / "configs" / "region_bsc_copy.json")}
_COV = ["--dist", JOINT, "--event", EVENT, "--M", "4", "--L", "3"]

#: golden name -> CLI argv (without --threads/--out)
CLI_CASES = {
    "simulate_small": ["simulate", "--config", BINARY, "--sizes-file", SMALL,
                       "--gamma", "0.8", "--trials", "5000", "--seed", "4"],
    "simulate_large": ["simulate", "--config", BINARY, "--sizes-file", LARGE,
                       "--gamma", "1.3", "--trials", "5000", "--seed", "5"],
    "simulate_small_random": ["simulate", "--config", BINARY, "--sizes-file", SMALL,
                              "--gamma", "0.6", "--trials", "4500", "--seed", "6",
                              "--random-message"],
    "simulate_large_random": ["simulate", "--config", BINARY, "--sizes-file", LARGE,
                              "--gamma", "1.1", "--trials", "4500", "--seed", "7",
                              "--random-message"],
    "simulate_small_reuse4": ["simulate", "--config", BINARY, "--sizes-file", SMALL,
                              "--gamma", "0.9", "--trials", "5001", "--seed", "8",
                              "--reuse-codebook", "4"],
    "simulate_large_reuse4_random": ["simulate", "--config", BINARY, "--sizes-file", LARGE,
                                     "--gamma", "0.7", "--trials", "5001", "--seed", "9",
                                     "--reuse-codebook", "4", "--random-message"],
    "simulate_large_reuse4_csv": ["simulate", "--config", BINARY, "--sizes-file", LARGE,
                                  "--gamma", "1.7", "--trials", "4200", "--seed", "10",
                                  "--reuse-codebook", "4", "--format", "csv"],
    # unit sizes at a small gamma: both receivers sometimes decode correctly
    "simulate_unit": ["simulate", "--config", BINARY, "--sizes", "1,1,1,1,1,1,1",
                      "--gamma", "0.02", "--trials", "5000", "--seed", "14"],
    "simulate_unit_reuse4_random": ["simulate", "--config", BINARY, "--sizes", "1,1,1,1,1,1,1",
                                    "--gamma", "0.02", "--trials", "5003", "--seed", "15",
                                    "--reuse-codebook", "4", "--random-message"],
    # a design inside its own region: both errors and the union lie strictly inside (0, 1)
    "simulate_inside": ["simulate", "--config", INSIDE, "--sizes", "1,1,1,1,1,2,2",
                        "--gamma", "0.02", "--trials", "5000", "--seed", "23"],
    "simulate_inside_reuse4_random": ["simulate", "--config", INSIDE, "--sizes", "1,1,1,1,1,2,2",
                                      "--gamma", "0.02", "--trials", "5003", "--seed", "24",
                                      "--reuse-codebook", "4", "--random-message"],
    "verify_broadcast_inside": ["verify", "broadcast", "--config", INSIDE,
                                "--sizes", "1,1,1,1,1,2,2", "--gamma", "0.02",
                                "--trials", "5000", "--seed", "25"],
    # both exact errors strictly inside (0, 1): 23/27 and 7/9
    "verify_broadcast_blackwell": ["verify", "broadcast", "--config", BLACKWELL,
                                   "--sizes", "1,1,1,1,1,2,2", "--gamma", "0.3",
                                   "--trials", "5000", "--seed", "26"],
    "verify_broadcast_small": ["verify", "broadcast", "--config", BINARY, "--sizes-file", SMALL,
                               "--gamma", "1.2", "--trials", "5000", "--seed", "11"],
    "verify_broadcast_large": ["verify", "broadcast", "--config", BINARY, "--sizes-file", LARGE,
                               "--gamma", "0.5", "--trials", "5000", "--seed", "12"],
    "sweep_broadcast_gamma_small": ["sweep", "broadcast", "--config", BINARY, "--sizes-file", SMALL,
                                    "--param", "gamma", "--from", "0.2", "--to", "4", "--steps", "9"],
    "sweep_broadcast_gamma_large_json": ["sweep", "broadcast", "--config", BINARY,
                                         "--sizes-file", LARGE, "--param", "gamma",
                                         "--from", "0.05", "--to", "6", "--steps", "7",
                                         "--format", "json"],
    "sweep_covering1_gamma": ["sweep", "covering1", *_COV, "--param", "gamma",
                              "--from", "0.2", "--to", "3", "--steps", "8"],
    "sweep_covering1_delta": ["sweep", "covering1", *_COV, "--gamma", "0.7", "--union-form",
                              "--param", "delta", "--from", "0.05", "--to", "2", "--steps", "6"],
    "sweep_covering4_gamma": ["sweep", "covering4", *_COV, "--param", "gamma",
                              "--from", "0.2", "--to", "3", "--steps", "8"],
    "sweep_covering4_gamma_union_json": ["sweep", "covering4", *_COV, "--union-form",
                                         "--param", "gamma", "--from", "0.1", "--to", "2",
                                         "--steps", "5", "--format", "json"],
    "sweep_covering5_gamma": ["sweep", "covering5", "--dist", JOINT3, "--event", EVENT3,
                              "--M", "3", "--L", "4", "--param", "gamma",
                              "--from", "0.2", "--to", "3", "--steps", "8"],
    "sweep_covering7_gamma": ["sweep", "covering7", *_COV, "--param", "gamma",
                              "--from", "0.2", "--to", "3", "--steps", "8"],
    "sweep_packing_gamma": ["sweep", "packing", "--param", "gamma",
                            "--from", "0.5", "--to", "5", "--steps", "6"],
    "sweep_resolvability_lambda": ["sweep", "resolvability", "--dist", JOINT, "--M", "4",
                                   "--param", "lambda", "--from", "2.5", "--to", "12",
                                   "--steps", "6"],
    # sizes at which all three covering bounds stay below 1
    "verify_covering": ["verify", "covering", "--dist", JOINT, "--event", EVENT,
                        "--M", "20", "--L", "20", "--gamma", "1", "--trials", "3000",
                        "--seed", "16"],
    "verify_covering_delta_union": ["verify", "covering", "--dist", JOINT, "--event", EVENT,
                                    "--M", "60", "--L", "60", "--gamma", "1", "--delta", "300",
                                    "--union-form", "--trials", "3000", "--seed", "17"],
    "verify_covering5": ["verify", "covering5", "--dist", JOINT3, "--event", EVENT3,
                         "--M", "3", "--L", "4", "--gamma", "1", "--trials", "3000",
                         "--seed", "18"],
    "verify_covering5_csv": ["verify", "covering5", "--dist", JOINT3, "--event", EVENT3,
                             "--M", "5", "--L", "2", "--gamma", "0.6", "--trials", "2500",
                             "--seed", "19", "--format", "csv"],
    # a skewed joint, so that the synthesized law does exceed lam times the target
    "verify_resolvability": ["verify", "resolvability", "--dist", SKEW, "--M", "2",
                             "--lam", "2.5", "--trials", "3000", "--seed", "20"],
    "verify_resolvability_csv": ["verify", "resolvability", "--dist", SKEW, "--M", "3",
                                 "--lam", "2.2", "--trials", "2500", "--seed", "21",
                                 "--format", "csv"],
    # single codewords and a small gamma: the only sizes where the density reaches the threshold
    "verify_packing": ["verify", "packing", "--dist", JOINT, "--M", "1", "--N", "1",
                       "--gamma", "0.2"],
    "verify_packing_csv": ["verify", "packing", "--dist", NOISELESS, "--M", "1", "--N", "1",
                           "--gamma", "0.3", "--format", "csv"],
    "verify_broadcast_unit_csv": ["verify", "broadcast", "--config", BINARY,
                                  "--sizes", "1,1,1,1,1,1,1", "--gamma", "0.05",
                                  "--trials", "3000", "--seed", "22", "--format", "csv"],
    "region_binary_rates": ["region", "--config", REGION["binary"], "--rates", "0.1,0.2,0.1"],
    "region_bsc_copy_rates_bits": ["region", "--config", REGION["bsc_copy"], "--units", "bits",
                                   "--rates", "0,0,0"],
}
for _name, _path in (("small", SMALL), ("large", LARGE)):
    for _gamma in ("0.3", "1.2", "4"):
        CLI_CASES[f"bound_broadcast_{_name}_g{_gamma}"] = [
            "bound", "broadcast", "--config", BINARY, "--sizes-file", _path, "--gamma", _gamma]
#: bound name -> ``bound`` argv after the subcommand; each is recorded in json and csv
_BOUND_CASES = {
    "covering1_auto": ["covering1", *_COV, "--gamma", "0.9"],
    "covering1_delta_union": ["covering1", *_COV, "--gamma", "0.9", "--delta", "0.4",
                              "--union-form"],
    "covering4": ["covering4", *_COV, "--gamma", "1.1", "--seed", "3"],
    "covering4_union": ["covering4", *_COV, "--gamma", "1.1", "--union-form"],
    "covering5": ["covering5", "--dist", JOINT3, "--event", EVENT3, "--M", "3", "--L", "4",
                  "--gamma", "0.8"],
    "covering7": ["covering7", *_COV, "--gamma", "1.4"],
    "packing": ["packing", "--gamma", "1.5"],
    "resolvability": ["resolvability", "--dist", SKEW, "--M", "3", "--lam", "2.5"],
}
for _name, _argv in _BOUND_CASES.items():
    for _format in ("json", "csv"):
        CLI_CASES[f"bound_{_name}_{_format}"] = ["bound", *_argv, "--format", _format]
for _config, _path in REGION.items():
    for _units in ("nats", "bits"):
        CLI_CASES[f"region_{_config}_project_{_units}"] = [
            "region", "--config", _path, "--project", "--units", _units]
CLI_CASES["region_binary_project_csv"] = ["region", "--config", REGION["binary"], "--project",
                                          "--format", "csv"]
# the binary broadcast design lies outside its own region (K > J1 + J2), so its
# projection is the one row 0 <= J1 + J2 - K
CLI_CASES["region_broadcast_binary_project_nats"] = ["region", "--config", BINARY, "--project",
                                                     "--units", "nats"]
# the Blackwell design's projection at R0 = 0 is its capacity region:
# R1, R2 <= h(1/3) and R1 + R2 <= ln 3
CLI_CASES["region_broadcast_blackwell_project_nats"] = ["region", "--config", BLACKWELL,
                                                        "--project", "--units", "nats"]
CLI_CASES["region_broadcast_binary_project_csv"] = ["region", "--config", BINARY, "--project",
                                                    "--format", "csv"]

#: rate coordinates of the region --rates grid; 5e-10 and 2e-9 straddle the
#: membership tolerance at the facets through the origin
RATE_GRID = ("0", "5e-10", "2e-9", "0.1", "0.2", "0.3", "0.45")

#: golden name -> simulate keyword arguments on the asymmetric 3-letter system
LIB_CASES = {
    "asym3_plain": dict(sizes=(1, 1, 1, 1, 1, 2, 2), gamma=0.05, trials=4500, seed=13),
    "asym3_reuse7": dict(sizes=(1, 1, 1, 1, 1, 2, 2), gamma=0.05, trials=4500, seed=3,
                         reuse_codebook=7),
    "asym3_random": dict(sizes=(2, 1, 1, 2, 1, 2, 1), gamma=0.05, trials=4500, seed=9,
                         random_message=True),
    "asym3_reuse3_random": dict(sizes=(1, 2, 1, 2, 2, 2, 2), gamma=0.07, trials=4500, seed=21,
                                reuse_codebook=3, random_message=True),
}


def cli_output(name: str, threads: int, out: Path) -> bytes:
    code = cli.main([*CLI_CASES[name], "--threads", str(threads), "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def region_grid_output(config: str, units: str, out: Path) -> bytes:
    """Concatenated CSV verdicts of ``region --rates`` over the rate grid."""
    text = b""
    for r0 in RATE_GRID:
        for r1 in RATE_GRID:
            for r2 in RATE_GRID:
                code = cli.main(["region", "--config", REGION[config], "--units", units,
                                 "--rates", f"{r0},{r1},{r2}", "--format", "csv",
                                 "--out", str(out)])
                assert code == 0
                text += f"{r0},{r1},{r2}\n".encode() + out.read_bytes()
    return text


def lib_output(name: str, system, threads: int) -> bytes:
    kw = dict(LIB_CASES[name])
    sizes = SchemeSizes(*kw.pop("sizes"))
    out = simulate(system, sizes, threads=threads, **kw)
    return (json.dumps(out.to_json(), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_matches_golden(name, threads, tmp_path):
    want = (GOLDEN / f"{name}.out").read_bytes()
    assert cli_output(name, threads, tmp_path / "out") == want


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("config", sorted(REGION))
def test_region_grid_matches_golden(config, units, tmp_path):
    want = (GOLDEN / f"region_grid_{config}_{units}.out").read_bytes()
    assert region_grid_output(config, units, tmp_path / "out") == want


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(LIB_CASES))
def test_simulate_matches_golden(name, threads, asym_ext_system):
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert lib_output(name, asym_ext_system, threads) == want


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import asym_broadcast_system

    from oneshot.broadcast import product_extend_system

    GOLDEN.mkdir(exist_ok=True)
    for case in CLI_CASES:
        cli_output(case, 1, GOLDEN / f"{case}.out")
    for config in REGION:
        for units in ("nats", "bits"):
            path = GOLDEN / f"region_grid_{config}_{units}.out"
            path.write_bytes(region_grid_output(config, units, GOLDEN / "region_grid.tmp"))
    (GOLDEN / "region_grid.tmp").unlink()
    system = product_extend_system(asym_broadcast_system(), 3)
    for case in LIB_CASES:
        (GOLDEN / f"{case}.json").write_bytes(lib_output(case, system, 1))
    print(f"wrote {len(CLI_CASES) + len(LIB_CASES) + 2 * len(REGION)} files to {GOLDEN}")
