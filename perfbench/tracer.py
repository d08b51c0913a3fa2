"""Outside-in layer trace of bfly: wraps public functions, keeps spans in memory.

`install()` replaces each function in LAYERS by a wrapper in every loaded
`bfly.*` namespace that holds it, because most calls go through
`from .groups import build_group`-style copies.  A span's self time is its
duration minus the durations of the spans it caused.  Counts that say how
much work a call did ("cells", "found", ...) are recorded beside it.
Nothing is written until `snapshot()` is read at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

MODULES = ("_kernels", "groups", "actions", "crossed", "extensions", "universal",
           "butterflies", "snf", "cohomology", "bridges", "serialize", "catalog",
           "verify", "cli")


def _cube(table, *_):
    return int(np.shape(table)[0]) ** 3


def _square(dom_table, *_):
    return int(np.shape(dom_table)[0]) ** 2


def _entries(a, *_):
    shape = np.shape(a)
    return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


def _fibre_candidates(e, g, *_):
    c, n = g.quotient_arrow.cod.order, g.middle.order
    return (n // c) ** c


# module -> function -> extra counts; an extra maps the call's arguments to
# an amount of work, or is None when it counts the results found.
LAYERS = {
    "_kernels": {"assoc_violation": {"cells": _cube},
                 "hom_violation": {"cells": _square},
                 "action_compat_violation": {}},
    "groups": {"build_group": {}, "build_hom": {}, "direct_product": {},
               "pullback": {}, "quotient_by": {}, "semidirect_product": {},
               "subgroup_from_elements": {}, "all_homs": {"found": None}},
    "actions": {"build_action": {}, "all_module_morphisms": {}},
    "extensions": {"baer_sum": {}, "pushforward_extension": {},
                   "fibre_morphisms": {"found": None}},
    "universal": {"extension_morphisms_over": {"candidates": _fibre_candidates,
                                               "found": None},
                  "xext_morphisms_over": {}},
    "butterflies": {"compose_butterflies": {}, "find_butterfly_iso": {"found": None},
                    "build_butterfly": {}, "tensor_xext": {}, "pushforward_xext": {},
                    "inverse_witness": {}, "phi": {}},
    "snf": {"smith_normal_form": {"entries": _entries}, "solve_integer": {}},
    "cohomology": {"cohomology": {}, "coboundary": {}, "cohomology_brute": {},
                   "z1": {}, "cyclic_decomposition": {}},
    "bridges": {"cocycle_of_extension": {}, "cocycle_of_crossed_extension": {},
                "extension_from_2cocycle": {}},
    "serialize": {"load_document": {}, "save_document": {}, "dumps": {}},
    "catalog": {"standard_modules": {}, "h2_catalog": {}, "h3_catalog": {}},
}

# Cache-aware layers: a call is a miss the first time its key is seen.
CACHED = {
    "cohomology.cohomology": lambda module, degree: (module, degree),
    "cohomology.cyclic_decomposition": lambda b: (b.table.tobytes(), b.order),
}


def _found(result) -> int:
    if result is None:
        return 0
    return len(result) if isinstance(result, list) else 1


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[list[float]] = []     # child time of each open span
        self._seen: dict[str, set] = {name: set() for name in CACHED}

    def _wrap(self, name: str, fn, extras: dict):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for key in extras:
            stats[key] = 0
        cache_key = CACHED.get(name)
        if cache_key is not None:
            stats["hits"] = stats["misses"] = 0
        stack, seen = self._stack, self._seen.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key, count in extras.items():
                if count is not None:
                    stats[key] += count(*args, **kwargs)
            if cache_key is not None:
                k = cache_key(*args, **kwargs)
                if k in seen:
                    stats["hits"] += 1
                else:
                    seen.add(k)
                    stats["misses"] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats["calls"] += 1
                stats["self_s"] += took - frame[0]
            if "found" in extras:
                stats["found"] += _found(result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(f"bfly.{name}") for name in MODULES]
        mods += [m for key, m in sys.modules.items()
                 if key.startswith("bfly.") and m not in mods]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"bfly.{mod_name}"]
            for fn_name, extras in funcs.items():
                fn = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, extras)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {name: dict(s) for name, s in self.stats.items()}


def cache_sizes() -> dict[str, int]:
    """Sizes reached by another path than the tracer, for the cross-check."""
    coh = sys.modules["bfly.cohomology"]
    return {"cohomology.cohomology": len(coh._COHOM_CACHE),
            "cohomology.cyclic_decomposition": coh._decompose_cached.cache_info().misses}


def cross_check(tracer: Tracer, before: dict[str, int]) -> list[str]:
    """Tracer misses must equal the growth of the program's own caches."""
    after = cache_sizes()
    errors = []
    for name, size in after.items():
        misses = tracer.stats[name]["misses"]
        if misses != size - before[name]:
            errors.append(f"{name}: tracer counted {misses} misses, "
                          f"cache grew by {size - before[name]}")
    return errors
