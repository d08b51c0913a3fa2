"""One group of verify checks, in a fresh process.

Usage: python3 perfbench/child.py GROUP SEED [--check] [--trace]

Imports bfly (the cold set-up, timed from the spawn time the parent puts
in PERFBENCH_SPAWN), runs the group's selection of verify checks
through `run_suite(suite, seed=SEED)`, and prints one JSON line with the
wall and CPU seconds of the selection's segments and of the reference
kernel (perfbench/reference.py) run between them.  With
--check it then compares bfly's answers with perfbench.oracle; with
--trace it records the layer trace of the timed part.
"""

from __future__ import annotations

import fnmatch
import json
import os
import resource
import sys
import time

HEAVY_MODULES = ("Z4-Z4-a0", "Z4-Z4-a1", "K4-Z4-a0", "K4-Z4-a1", "K4-Z4-a2", "K4-Z4-a3")

# Each group runs these suites, in this order, keeping the checks that
# match an "include" pattern and no "exclude" pattern.  `verify all` takes
# 180 s cold, far more than one run; README.md says what is left out and why.
SELECTION = {
    "constructions": {
        "butterfly-laws": (["butterfly:beta:*", "butterfly:from-morphism:*"], []),
        "phi": (["*"], [f"h3:phi-monoidal:{m}" for m in HEAVY_MODULES]),
        "inverse": (["*"], [f"*:{m}" for m in HEAVY_MODULES]),
        "h2-pi0": (["*"], [f"h2:baer-sum-adds-classes:{m}" for m in HEAVY_MODULES]),
    },
    "cohomology": {
        "oracle": (["*"], ["oracle:solver-matches-brute:degree-2"]),
        "class-coherence": (["*:Z2-*", "oracle:class:identity-family-trivial"], []),
    },
    "searches": {
        "pushforward-cokernel": (["*"], [f"*:{m}" for m in HEAVY_MODULES]),
        "opfibration": (["*"], ["h2:pushforward:cocartesian-universal-property"]),
        "h2-pi1": (["*"], []),
    },
}


def _selected(name: str, include, exclude) -> bool:
    match = lambda pats: any(fnmatch.fnmatchcase(name, p) for p in pats)  # noqa: E731
    return match(include) and not match(exclude)


def _detail_number(detail: str, prefix: str) -> int | None:
    if not detail.startswith(prefix):
        return None
    return int(detail[len(prefix):].split(";")[0].split()[0])


def independent_checks(group: str, results) -> list[str]:
    """Compare bfly's answers with orders computed apart from it."""
    import oracle
    from bfly.catalog import standard_modules
    from bfly.cohomology import cohomology

    mods = standard_modules()
    errors = oracle.mismatch("catalog modules", len(mods), oracle.catalog_module_count())
    want = {}
    for name, m in mods:
        data = oracle.module_from_tables(m.base.table, m.coeff.table, m.action.act)
        want[name] = oracle.expected_orders(data)
    if group == "cohomology":
        for name, m in mods:
            for d in (1, 2, 3):
                errors += oracle.mismatch(f"|H{d}({name})|", cohomology(m, d).order,
                                          want[name][f"h{d}"])
    for r in results:
        module = r.name.rsplit(":", 1)[-1]
        if r.name.startswith("h2:unit-automorphisms-match-z1:"):
            errors += oracle.mismatch(f"{r.name} |Z1|", _detail_number(r.detail, "both "),
                                      want[module]["z1"])
        elif r.name.startswith("oracle:class:realized:"):
            errors += oracle.mismatch(f"{r.name} |H3|", _detail_number(r.detail, "|H3|="),
                                      want[module]["h3"])
    return errors


def main() -> int:
    group, seed = sys.argv[1], int(sys.argv[2])
    check, trace = "--check" in sys.argv, "--trace" in sys.argv
    import bfly.verify as verify

    setup_s = time.time() - float(os.environ["PERFBENCH_SPAWN"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = before = None
    if trace:
        import tracer as tracing

        before = tracing.cache_sizes()
        tracer = tracing.Tracer()
        tracer.install()

    import reference

    selection = SELECTION[group]
    ran: set[str] = set()          # suites that ran at least one selected check
    # The timed work is cut, at check boundaries, into segments of at least
    # reference.SEGMENT_S, with the reference kernel run before the first
    # segment and after each one.  A segment's time is the suite work
    # (selected checks and the suites' own work between them) since the
    # last reference run.
    segments: list[tuple[float, float]] = []
    refs = [reference.run()]
    run_check = verify._check
    suite_now = [""]
    mark = [0.0, 0.0]

    def clock() -> tuple[float, float]:
        return time.perf_counter(), time.process_time()

    def end_segment(force: bool) -> None:
        w, c = clock()
        if force or w - mark[0] >= reference.SEGMENT_S:
            segments.append((w - mark[0], c - mark[1]))
            refs.append(reference.run())
            mark[:] = clock()

    def filtered_check(results, name, fn):
        include, exclude = selection[suite_now[0]]
        if _selected(name, include, exclude):
            ran.add(suite_now[0])
            run_check(results, name, fn)
        end_segment(False)

    verify._check = filtered_check
    results = []
    mark[:] = clock()
    for suite in selection:
        suite_now[0] = suite
        results += verify.run_suite(suite, seed=seed)
    end_segment(True)
    verify._check = run_check

    out = {"setup_s": setup_s, "segments": segments, "refs": refs,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "checks": len(results), "failed": sum(not r.passed for r in results)}
    errors = [f"FAIL {r.name} -- {r.detail}" for r in results if not r.passed]
    errors += [f"suite {s} ran no selected check" for s in selection if s not in ran]
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        errors += tracing.cross_check(tracer, before)
    if check:
        errors += independent_checks(group, results)
    out["errors"] = errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
