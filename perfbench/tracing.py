"""Spans and counters recorded from outside the program, for traced runs.

The tracer replaces public functions of ``oneshot`` with timing wrappers at
every binding callers use (the defining module's attribute and each module
that imported the name), and restores the originals afterwards.  Spans are
kept in memory and written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans.  ``rng.run_trials`` is a
scheduling span: its time is not subtracted from its caller's self time, so
``broadcast.simulate.self_s`` is the encode/decode phase and the Monte Carlo
estimators' ``self_s`` is their per-trial event checking.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time
from collections import Counter

#: timed functions: metric prefix -> (module, attribute)
TIMED = {
    "oracle.exact_miss_prob": ("oracle", "exact_miss_prob"),
    "oracle.exact_miss_prob_bruteforce": ("oracle", "exact_miss_prob_bruteforce"),
    "oracle.exact_conditional_miss_prob": ("oracle", "exact_conditional_miss_prob"),
    "oracle.exact_packing_prob": ("oracle", "exact_packing_prob"),
    "oracle.resolvability_excess_exact": ("oracle", "resolvability_excess_exact"),
    "oracle.mc_miss_prob": ("oracle", "mc_miss_prob"),
    "oracle.mc_conditional_miss_prob": ("oracle", "mc_conditional_miss_prob"),
    "oracle.mc_resolvability_excess": ("oracle", "mc_resolvability_excess"),
    "rng.trial_uniforms": ("rng", "trial_uniforms"),
    "rng.run_trials": ("rng", "run_trials"),
    "broadcast.simulate": ("broadcast", "simulate"),
    "broadcast.DensityTables": ("broadcast", "DensityTables"),
    "broadcast.zeta_table": ("broadcast", "zeta_table"),
    "broadcast.event_probabilities": ("broadcast", "event_probabilities"),
    "broadcast.broadcast_bound": ("broadcast", "broadcast_bound"),
    "broadcast.product_extend_system": ("broadcast", "product_extend_system"),
    "broadcast.mc_event_union": ("broadcast", "mc_event_union"),
    "regions.info_vector": ("regions", "info_vector"),
    "regions.fme_project": ("regions", "fme_project"),
    "regions.region_contains": ("regions", "region_contains"),
    "regions.projection_contains": ("regions", "projection_contains"),
    "bounds.mutual_covering_bound": ("bounds", "mutual_covering_bound"),
    "bounds.simple_covering_bound": ("bounds", "simple_covering_bound"),
    "bounds.conditional_covering_bound": ("bounds", "conditional_covering_bound"),
    "bounds.resolvability_covering_bound": ("bounds", "resolvability_covering_bound"),
    "bounds.resolvability_excess_bound": ("bounds", "resolvability_excess_bound"),
    "bounds.optimize_gamma": ("bounds", "optimize_gamma"),
}
#: probability functions report calls and busy time only
PROBABILITY = ("info_density_table", "cond_info_density_table", "conditional",
               "mutual_info", "cond_mutual_info")
#: wrapped for spans, reported through other metrics
AUXILIARY = {
    "bounds.evaluate_bound": ("bounds", "evaluate_bound"),
    "regions.linprog": ("regions", "linprog"),
    "cli.main": ("cli", "main"),
}
#: sample_categorical has one binding; calls are split by the cdf's rank
CATEGORICAL = ("rng.sample_categorical_1d", "rng.sample_categorical_nd")
TRANSPARENT = frozenset({"rng.run_trials"})
EXACT = ("oracle.exact_miss_prob", "oracle.exact_miss_prob_bruteforce",
         "oracle.exact_conditional_miss_prob", "oracle.exact_packing_prob",
         "oracle.resolvability_excess_exact")
MC = ("oracle.mc_miss_prob", "oracle.mc_conditional_miss_prob", "oracle.mc_resolvability_excess")
CLI_SUBCOMMANDS = ("bound", "verify", "simulate", "sweep", "region")
#: Philox emits 4 doubles per counter block; a trial's width is padded to it
_PHILOX_BLOCK = 4

#: counts that depend only on the seed; two same-seed traced runs must agree
DETERMINISTIC = ("oracle.exact.multisets", "oracle.mc.trials", "rng.uniforms_generated",
                 "rng.uniform_bytes_computed", "broadcast.tables.entries", "regions.lp_solves")


def _timed_names() -> list[str]:
    """TIMED in report order, with the two sample_categorical names before
    the other rng functions."""
    names = list(TIMED)
    i = names.index("rng.trial_uniforms")
    return names[:i] + list(CATEGORICAL) + names[i:]


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    spec = [("cli.import_s", "s")]
    spec += [(f"cli.{sub}.wall_ms", "ms") for sub in CLI_SUBCOMMANDS]
    spec += [(f"cli.{sub}.peak_rss_mb", "MB") for sub in CLI_SUBCOMMANDS]
    spec.append(("cli.main.self_s", "s"))
    for name in _timed_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    for name in PROBABILITY:
        spec += [(f"probability.{name}.calls", "count"), (f"probability.{name}.busy_s", "s")]
    spec += [
        ("bounds.evaluate_bound.calls", "count"),
        ("oracle.exact.multisets", "count"),
        ("oracle.exact.multisets_per_s", "1/s"),
        ("oracle.exact.cap_errors", "count"),
        ("oracle.mc.trials", "count"),
        ("oracle.mc.trials_per_s", "1/s"),
        ("rng.uniforms_generated", "count"),
        ("rng.uniform_bytes_computed", "bytes"),
        ("rng.uniform_use_ratio", "ratio"),
        ("broadcast.simulate.trials", "count"),
        ("broadcast.simulate.trials_per_s", "1/s"),
        ("broadcast.simulate.codebook_use_ratio", "ratio"),
        ("broadcast.tables.entries", "count"),
        ("regions.lp_solves", "count"),
        ("regions.lp_busy_s", "s"),
        ("proc.cpu_wall_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return spec


class _Frame:
    __slots__ = ("span_id", "transparent", "child_s")

    def __init__(self, span_id: int, transparent: bool):
        self.span_id = span_id
        self.transparent = transparent
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder with per-name call, busy and self-time totals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list[tuple] = []

    def _stack(self) -> list[_Frame]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1].span_id if stack else None
        frame = _Frame(span_id, name in TRANSPARENT)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            with self._lock:
                self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            with self._lock:
                self.spans.append((span_id, name, t0, t1, parent, self.op_id))
                self.calls[name] += 1
                self.busy[name] += dur
                self.self_s[name] += dur - frame.child_s
            if not frame.transparent:
                for outer in reversed(stack):
                    outer.child_s += dur
                    if not outer.transparent:
                        break

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace every binding of ``original`` in the oneshot modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oneshot" or mod_name.startswith("oneshot.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _wrap(self, name: str, original, hook=None):
        tracer = self
        sig = inspect.signature(original) if hook else None

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with tracer._lock:  # run_trials may call from several threads
                    hook(tracer.counts, bound.arguments)
            return tracer.call(name, original, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function; :meth:`uninstall` restores them."""
        mods = {m: importlib.import_module(f"oneshot.{m}")
                for m in ("oracle", "rng", "broadcast", "regions", "bounds", "probability", "cli")}
        for name, (mod, attr) in {**TIMED, **AUXILIARY}.items():
            original = getattr(mods[mod], attr)
            self._patch_everywhere(original, self._wrap(name, original, _HOOKS.get(name)))
        for attr in PROBABILITY:
            original = getattr(mods["probability"], attr)
            self._patch_everywhere(original, self._wrap(f"probability.{attr}", original))

        categorical = mods["rng"].sample_categorical
        tracer = self

        @functools.wraps(categorical, updated=())
        def sample_categorical(cdf, u):
            name = CATEGORICAL[0] if cdf.ndim == 1 else CATEGORICAL[1]
            return tracer.call(name, categorical, (cdf, u), {})

        self._patch_everywhere(categorical, sample_categorical)

        # multisets are counted where the exact oracle enumerates them
        blocks = getattr(mods["oracle"], "_iter_count_blocks", None)
        if blocks is not None:
            @functools.wraps(blocks, updated=())
            def counted_blocks(*args, **kwargs):
                for block in blocks(*args, **kwargs):
                    tracer.counts["oracle.exact.multisets"] += len(block)
                    yield block

            self._patch_everywhere(blocks, counted_blocks)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, int]]:
        """Per-layer metrics measured by the tracer: name -> (value, samples)."""
        out: dict[str, tuple[float, int]] = {}
        for name in _timed_names():
            n = self.calls[name]
            out[f"{name}.calls"] = (n, n)
            out[f"{name}.busy_s"] = (self.busy[name], n)
            out[f"{name}.self_s"] = (self.self_s[name], n)
        for attr in PROBABILITY:
            name = f"probability.{attr}"
            out[f"{name}.calls"] = (self.calls[name], self.calls[name])
            out[f"{name}.busy_s"] = (self.busy[name], self.calls[name])
        c = self.counts
        exact_calls = sum(self.calls[n] for n in EXACT)
        exact_busy = sum(self.busy[n] for n in EXACT)
        mc_calls = sum(self.calls[n] for n in MC)
        mc_busy = sum(self.busy[n] for n in MC)
        sim_calls, sim_busy = self.calls["broadcast.simulate"], self.busy["broadcast.simulate"]
        uni_calls = self.calls["rng.trial_uniforms"]
        out.update({
            "cli.main.self_s": (self.self_s["cli.main"], self.calls["cli.main"]),
            "bounds.evaluate_bound.calls": (self.calls["bounds.evaluate_bound"],) * 2,
            "oracle.exact.multisets": (c["oracle.exact.multisets"], exact_calls),
            "oracle.exact.multisets_per_s": (_ratio(c["oracle.exact.multisets"], exact_busy), exact_calls),
            "oracle.exact.cap_errors": (sum(v for (n, e), v in self.errors.items()
                                            if n in EXACT and e == "EnumerationCapError"), exact_calls),
            "oracle.mc.trials": (c["oracle.mc.trials"], mc_calls),
            "oracle.mc.trials_per_s": (_ratio(c["oracle.mc.trials"], mc_busy), mc_calls),
            "rng.uniforms_generated": (c["rng.uniforms_generated"], uni_calls),
            "rng.uniform_bytes_computed": (8 * c["rng.uniforms_generated"], uni_calls),
            "rng.uniform_use_ratio": (_ratio(c["rng.uniforms_used"], c["rng.uniforms_generated"]),
                                      uni_calls),
            "broadcast.simulate.trials": (c["broadcast.simulate.trials"], sim_calls),
            "broadcast.simulate.trials_per_s": (_ratio(c["broadcast.simulate.trials"], sim_busy),
                                                sim_calls),
            "broadcast.simulate.codebook_use_ratio": (
                _ratio(c["broadcast.simulate.codebooks_used"], c["broadcast.simulate.trials"]),
                sim_calls),
            "broadcast.tables.entries": (c["broadcast.tables.entries"],
                                         self.calls["broadcast.DensityTables"]),
            "regions.lp_solves": (self.calls["regions.linprog"],) * 2,
            "regions.lp_busy_s": (self.busy["regions.linprog"], self.calls["regions.linprog"]),
        })
        return out

    def deterministic_counts(self) -> dict[str, int]:
        metrics = self.layer_metrics()
        return {name: int(metrics[name][0]) for name in DETERMINISTIC}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_uniforms(counts: Counter, a: dict) -> None:
    width = -(-a["k"] // _PHILOX_BLOCK) * _PHILOX_BLOCK
    counts["rng.uniforms_generated"] += a["n"] * width
    counts["rng.uniforms_used"] += a["n"] * a["k"]


def _count_mc(counts: Counter, a: dict) -> None:
    counts["oracle.mc.trials"] += a["trials"]


def _count_simulate(counts: Counter, a: dict) -> None:
    # chunks are multiples of the reuse group, so each group shares one codebook
    counts["broadcast.simulate.trials"] += a["trials"]
    counts["broadcast.simulate.codebooks_used"] += math.ceil(a["trials"] / a["reuse_codebook"])


def _count_tables(counts: Counter, a: dict) -> None:
    counts["broadcast.tables.entries"] += math.prod(a["system"].shape)


_HOOKS = {
    "rng.trial_uniforms": _count_uniforms,
    "oracle.mc_miss_prob": _count_mc,
    "oracle.mc_conditional_miss_prob": _count_mc,
    "oracle.mc_resolvability_excess": _count_mc,
    "broadcast.simulate": _count_simulate,
    "broadcast.DensityTables": _count_tables,
}
