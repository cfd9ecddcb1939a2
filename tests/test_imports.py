"""Start-up: ``import oneshot`` is a lazy namespace, each subcommand
loads only the layers it runs, and BLAS threads are pinned before numpy loads.

Every case runs ``python -m oneshot`` in a fresh interpreter and reads
``sys.modules`` after it exits."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oneshot

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
LAYERS = ("probability", "bounds", "rng", "oracle", "broadcast", "regions")

#: runs ``python -m oneshot ARGV`` and writes its exit code, the loaded
#: modules and the BLAS thread variables as numpy's import found them to the
#: file named by the first argument
_PROBE = """
import os, runpy, sys
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
blas = {}

class AtNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not blas:
            blas.update((var, os.environ.get(var)) for var in BLAS)

sys.meta_path.insert(0, AtNumpyImport())
out = sys.argv.pop(1)
sys.argv[0] = "oneshot"
try:
    runpy.run_module("oneshot", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
import json
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules), "blas": blas}, fh)
"""

_COVERING = ["--dist", str(CONFIGS / "joint_2x2.json"), "--event", str(CONFIGS / "event_diag.json"),
             "--M", "3", "--L", "2"]
_BROADCAST = ["--config", str(CONFIGS / "broadcast_binary.json"),
              "--sizes-file", str(CONFIGS / "sizes_small.json"), "--gamma", "1.1"]


def _probe(argv, tmp_path, env=None) -> dict:
    out = tmp_path / "modules.json"
    res = subprocess.run([sys.executable, "-c", _PROBE, str(out), *argv],
                         capture_output=True, text=True, cwd=ROOT, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(out.read_text())


def _loaded(argv, tmp_path) -> tuple[int, set[str]]:
    doc = _probe(argv, tmp_path)
    return doc["code"], set(doc["modules"])


def _layers(modules: set[str]) -> set[str]:
    return {name for name in LAYERS if f"oneshot.{name}" in modules}


@pytest.mark.parametrize("argv,code", [
    (["--version"], 0),
    (["--help"], 0),
    (["bound", "--help"], 0),
    (["bound"], 2),
    (["bound", "covering9"], 2),
], ids=["version", "help", "bound-help", "missing-kind", "bad-kind"])
def test_parsing_loads_no_numpy_and_no_layer(argv, code, tmp_path):
    seen, modules = _loaded(argv, tmp_path)
    assert seen == code
    assert "numpy" not in modules
    assert _layers(modules) == set()
    assert "concurrent.futures" not in modules


@pytest.mark.parametrize("argv,layers", [
    (["bound", "covering4", *_COVERING, "--gamma", "1.1"], {"probability", "bounds", "rng"}),
    (["bound", "packing", "--gamma", "1.5"], {"probability", "bounds", "rng"}),
    (["sweep", "covering4", *_COVERING, "--param", "gamma", "--from", "0.1", "--to", "3",
      "--steps", "16"], {"probability", "bounds", "rng"}),
    (["verify", "covering", *_COVERING, "--gamma", "0.5", "--trials", "200"],
     {"probability", "bounds", "rng", "oracle"}),
    (["verify", "resolvability", "--dist", str(CONFIGS / "joint_2x2.json"), "--M", "3",
      "--lam", "2.5", "--trials", "200"], {"probability", "bounds", "rng", "oracle"}),
    (["bound", "broadcast", *_BROADCAST], {"probability", "bounds", "rng", "broadcast"}),
    (["simulate", *_BROADCAST, "--trials", "200"], {"probability", "bounds", "rng", "broadcast"}),
    (["verify", "broadcast", *_BROADCAST, "--trials", "200"],
     {"probability", "bounds", "rng", "broadcast"}),
    (["region", "--config", str(CONFIGS / "region_binary.json"), "--project"],
     {"probability", "bounds", "rng", "broadcast", "regions"}),
], ids=["bound-covering4", "bound-packing", "sweep-covering4", "verify-covering",
        "verify-resolvability", "bound-broadcast", "simulate", "verify-broadcast", "region"])
def test_subcommands_load_the_layers_they_run(argv, layers, tmp_path):
    # covering kinds load no broadcast, oracle or regions; the broadcast
    # commands no oracle or regions; region no oracle.  --threads 1 starts
    # no pool, so concurrent.futures stays unloaded
    code, modules = _loaded(argv, tmp_path)
    assert code == 0
    assert _layers(modules) == layers
    assert "concurrent.futures" not in modules


@pytest.mark.parametrize("trials,threads,pool", [
    (100, 2, False), (10000, 1, False), (10000, 2, True),
])
def test_the_thread_pool_loads_only_where_threads_start(trials, threads, pool, tmp_path):
    # 10,000 trials of a 2x2 covering check span two chunks of CHUNK_TRIALS
    argv = ["verify", "covering", *_COVERING, "--gamma", "0.5", "--trials", str(trials),
            "--threads", str(threads)]
    code, modules = _loaded(argv, tmp_path)
    assert code == 0
    assert ("concurrent.futures" in modules) == pool


def test_blas_threads_are_pinned_before_numpy_loads(tmp_path):
    # one thread unless the user set a count, which is kept
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OMP_NUM_THREADS"] = "2"
    doc = _probe(["bound", "broadcast", *_BROADCAST], tmp_path, env)
    assert doc["code"] == 0
    assert doc["blas"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                           "MKL_NUM_THREADS": "1"}


class TestLazyNamespace:
    def test_every_public_name_is_its_module_attribute(self):
        for name in oneshot.__all__:
            module = importlib.import_module(f"oneshot.{oneshot._EXPORTS[name]}")
            assert getattr(oneshot, name) is getattr(module, name), name
        assert set(oneshot.__all__) == set(oneshot._EXPORTS)

    def test_dir_covers_all(self):
        assert set(oneshot.__all__) <= set(dir(oneshot))
        assert "__version__" in dir(oneshot)

    def test_star_import(self):
        namespace: dict = {}
        exec("from oneshot import *", namespace)
        assert {n for n in namespace if n != "__builtins__"} == set(oneshot.__all__)
        assert namespace["simulate"] is oneshot.broadcast.simulate

    def test_a_rebound_module_attribute_is_seen_through_the_package(self, monkeypatch):
        # a tracer wraps module attributes; the package must not cache them
        from oneshot import broadcast

        def wrapped(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(broadcast, "simulate", wrapped)
        assert oneshot.simulate is wrapped

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            oneshot.nonesuch  # noqa: B018
