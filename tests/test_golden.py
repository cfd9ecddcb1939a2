"""Reference outputs of the broadcast simulator, compared byte for byte.

The files under ``tests/golden/`` hold the exact output of ``simulate`` and
``verify broadcast`` on the shipped binary system, plus ``SimOutcome`` JSON
for the three-letter asymmetric system (whose error rates lie strictly
between 0 and 1).  Any change to codebook sampling, chunking or the
encode/decode kernel must reproduce them exactly, for every thread count.

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
SMALL = str(ROOT / "configs" / "sizes_small.json")
LARGE = str(ROOT / "configs" / "sizes_large.json")

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
    "verify_broadcast_small": ["verify", "broadcast", "--config", BINARY, "--sizes-file", SMALL,
                               "--gamma", "1.2", "--trials", "5000", "--seed", "11"],
    "verify_broadcast_large": ["verify", "broadcast", "--config", BINARY, "--sizes-file", LARGE,
                               "--gamma", "0.5", "--trials", "5000", "--seed", "12"],
}

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
    system = product_extend_system(asym_broadcast_system(), 3)
    for case in LIB_CASES:
        (GOLDEN / f"{case}.json").write_bytes(lib_output(case, system, 1))
    print(f"wrote {len(CLI_CASES) + len(LIB_CASES)} files to {GOLDEN}")
