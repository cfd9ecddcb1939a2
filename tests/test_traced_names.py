"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/tracing.py`` patches module attributes of ``oneshot`` by name
for its traced pass, so deleting or renaming one of them breaks the
benchmark.  The benchmark's own smoke test takes minutes; this check reads
the tracer's name tables (without installing it) and takes milliseconds.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list[tuple[str, str]]:
    tracing = _tracing()
    names = [*tracing.TIMED.values(), *tracing.AUXILIARY.values()]
    names += [("probability", attr) for attr in tracing.PROBABILITY]
    return names + [("rng", "sample_categorical")]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"oneshot.{module}"), attr))
