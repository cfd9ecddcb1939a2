"""Finite-alphabet one-shot coding bounds and their verification machinery.

The package evaluates one-shot mutual covering, packing, and
resolvability bounds, an end-to-end two-receiver broadcast bound with a
random-coding simulator, and the induced achievable rate region -- all
over finite alphabets, validated against exact codebook-ensemble oracles
and seeded Monte Carlo.

``import oneshot`` loads none of its layers: each public name below is
looked up in its module on every access (PEP 562), which imports the
module on first use.  ``oneshot.cli`` loads numpy only once a subcommand
runs.
"""

__version__ = "0.1.0"

#: the public names, by the module that defines them
_MODULES = {
    "errors": ("AlphabetMismatchError", "EnumerationCapError", "InputFormatError",
               "OneshotError", "OutsideSupportError", "UndefinedRowError"),
    "probability": ("Dist", "Joint", "Kernel", "cond_info_density", "cond_mutual_info",
                    "conditional", "info_density", "marginal", "merge_axes", "mutual_info",
                    "product_extend", "rel_info"),
    "bounds": ("BoundParams", "BoundReport", "conditional_covering_bound", "event_from_points",
               "full_event", "mutual_covering_bound", "optimal_delta", "optimize_gamma",
               "packing_bound", "resolvability_covering_bound", "resolvability_excess_bound",
               "simple_covering_bound"),
    "oracle": ("EnsembleSpec", "exact_conditional_miss_prob", "exact_miss_prob",
               "exact_miss_prob_bruteforce", "exact_packing_prob", "mc_miss_prob",
               "mc_resolvability_excess", "resolvability_excess_exact"),
    "rng": ("McEstimate",),
    "broadcast": ("BroadcastSystem", "Codebook", "SchemeSizes", "SimOutcome", "broadcast_bound",
                  "decode", "encode", "product_extend_system", "sample_codebook", "simulate"),
    "regions": ("InfoVector", "LinearSystem", "RateTriple", "build_system", "fme_project",
                "info_vector", "region_contains"),
    "cli": ("main",),
}
#: public name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """A public name, read from its module, or a layer module by name.
    Nothing is cached in the package, so a rebinding of the module's
    attribute (such as a tracer's timing wrapper) is seen here too."""
    import importlib

    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
