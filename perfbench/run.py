"""Benchmark of bfly: closed-loop workloads in cold child processes.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-constructions-searches, verify-cohomology, cli-documents
(see README.md).  One client runs one child process at a time and repeats
whole rounds of the same operations until the next round would not fit in
S seconds (at least one round).  Every child gets one
BLAS/OpenMP thread.  The work is timed in segments, each between two runs
of the reference kernel (reference.py) on the same CPU, and the times are
reported in units of that kernel's.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer trace of separate traced
rounds with --trace 1.  The line before it gives the same round times in
seconds.  Run files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import cli_workload  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from tracer import CACHED, LAYERS  # noqa: E402

# verify workloads: the check groups of child.SELECTION that one round runs,
# each in its own fresh child
VERIFY_GROUPS = {"verify-constructions-searches": ["constructions", "searches"],
                 "verify-cohomology": ["cohomology"]}
WORKLOADS = [*VERIFY_GROUPS, "cli-documents"]
CPUS = sorted(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Layers whose self time is reported as a per-layer metric: the ones every
# workload reaches, so that each reported time is a measurement.  The self
# time of every other layer is in the run's trace file.
SELF_TIMED = ("_kernels.assoc_violation", "_kernels.hom_violation",
              "_kernels.action_compat_violation", "groups.build_group", "groups.build_hom",
              "groups.direct_product", "groups.pullback", "groups.quotient_by",
              "groups.subgroup_from_elements", "groups.all_homs", "actions.build_action",
              "snf.smith_normal_form", "snf.solve_integer", "cohomology.cohomology",
              "cohomology.coboundary", "cohomology.cyclic_decomposition")


class Child:
    """One finished child process: exit code, output, wall and CPU seconds, peak RSS."""

    def __init__(self, argv: list[str], env: dict, out_dir: Path) -> None:
        out_path, err_path = out_dir / "child.out", out_dir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            env = dict(env, PERFBENCH_SPAWN=repr(time.time()))
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            # a blocking wait4 times the exit exactly; Popen.wait(timeout) polls
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            watchdog.cancel()
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.out = out_path.read_text()
        self.err = err_path.read_text()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def reference_child(env: dict, out_dir: Path) -> tuple[float, float]:
    """Wall and CPU seconds of one cold process that runs the reference kernel."""
    child = Child([sys.executable, str(HERE / "reference.py")], env, out_dir)
    if child.rc != 0:
        raise SystemExit(f"reference exit {child.rc}: {child.err.strip()[-400:]}")
    return child.wall_s, child.cpu_s


def rounds_fit(start: float, last_s: float, seconds: int) -> bool:
    return time.perf_counter() - start + last_s <= seconds


def pin_round(index: int) -> None:
    """Run round `index` and its children on one CPU, taking the CPUs in turn.

    On a shared host one CPU can be slowed for tens of seconds while the
    other is not; alternating lets every run see both.  The reference runs
    of a round share its CPU, so they see what its work sees.
    """
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


# --- verify-* ----------------------------------------------------------------------


def run_verify(args, out_dir: Path) -> tuple[dict, list[dict]]:
    env, rounds, errors, attempted, failed = child_env(), [], [], 0, 0
    start = time.perf_counter()
    while True:
        pin_round(len(rounds))
        rnd = {"spans": [], "setups": [], "rss_mb": 0.0, "trace": {}, "groups": {}}
        round_start = time.perf_counter()
        for group in VERIFY_GROUPS[args.workload]:
            argv = [sys.executable, str(HERE / "child.py"), group, str(args.seed)]
            argv += ["--check"] if not rounds else []
            argv += ["--trace"] if args.trace else []
            child = Child(argv, env, out_dir)
            try:
                result = json.loads(child.out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                raise SystemExit(f"verify child exit {child.rc}: {child.err.strip()[-400:]}")
            refs = result["refs"]
            rnd["spans"] += [(seg, refs[i], refs[i + 1]) for i, seg in enumerate(result["segments"])]
            rnd["setups"].append(result["setup_s"])
            rnd["rss_mb"] = max(rnd["rss_mb"], result["rss_mb"])
            if args.trace:
                rnd["groups"][group] = result["trace"]
                _add_trace(rnd["trace"], result["trace"])
            attempted, failed = attempted + result["checks"], failed + result["failed"]
            errors += result["errors"]
        rnd["wall_s"] = time.perf_counter() - round_start
        rounds.append(rnd)
        if not rounds_fit(start, rnd["wall_s"], args.seconds):
            break
    summary = {"attempted": attempted, "failed": failed, "errors": errors}
    return summary, rounds


# --- cli-documents -----------------------------------------------------------------


def bfly_argv(args, out_dir: Path, cmd_argv: list[str], ws: Path) -> list[str]:
    if args.trace:
        return [sys.executable, str(HERE / "tracecli.py"), str(out_dir / "trace.json"),
                "--workspace", str(ws), *cmd_argv]
    return [sys.executable, "-m", "bfly.cli", "--workspace", str(ws), *cmd_argv]


def run_cli(args, out_dir: Path) -> tuple[dict, list[dict]]:
    import numpy as np

    env, ws = child_env(), out_dir / "ws"
    setup = Child(bfly_argv(args, out_dir, ["catalog", "generate", "--json"], ws), env, out_dir)
    if setup.rc != 0:
        raise SystemExit(f"catalog generate failed: {setup.err.strip()[-400:]}")
    errors = _trace_errors(out_dir) if args.trace else []
    cat = cli_workload.Catalog.read(ws)
    errors += cat.errors(json.loads(setup.out)["written"])
    rng = np.random.default_rng(args.seed)
    cli_workload.generate(ws, rng)
    commands = cli_workload.build_round(cat, rng)

    rounds, log, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        pin_round(len(rounds))
        rnd = {"spans": [], "rss_mb": setup.rss_mb, "setups": [setup.wall_s], "trace": {},
               "kinds": {}}
        round_start = time.perf_counter()
        ref, work = reference_child(env, out_dir), (0.0, 0.0)
        for i, cmd in enumerate(commands):
            child = Child(bfly_argv(args, out_dir, cmd.argv, ws), env, out_dir)
            work = (work[0] + child.wall_s, work[1] + child.cpu_s)
            if work[0] >= reference.SEGMENT_S or i == len(commands) - 1:
                ref_before, ref = ref, reference_child(env, out_dir)
                rnd["spans"].append((work, ref_before, ref))
                work = (0.0, 0.0)
            if cmd.save and child.rc == 0:
                (ws / cmd.save).write_text(child.out)
            cmd_failed, cmd_errors = cmd.check(child.rc, child.out, child.err)
            attempted, failed = attempted + 1, failed + cmd_failed
            errors += [f"{cmd.kind} {' '.join(cmd.argv)}: {e}" for e in cmd_errors]
            log.append({"kind": cmd.kind, "argv": cmd.argv, "rc": child.rc,
                        "ms": 1000 * child.wall_s})
            rnd["rss_mb"] = max(rnd["rss_mb"], child.rss_mb)
            rnd["kinds"].setdefault(cmd.kind, []).append(child.wall_s)
            if args.trace:
                errors += _trace_errors(out_dir)
                _add_trace(rnd["trace"], json.loads((out_dir / "trace.json").read_text())["trace"])
        rnd["wall_s"] = time.perf_counter() - round_start
        rounds.append(rnd)
        if not rounds_fit(start, rnd["wall_s"], args.seconds):
            break
    (out_dir / "commands.json").write_text(json.dumps(log, indent=1) + "\n")
    summary = {"attempted": attempted, "failed": failed, "errors": errors}
    return summary, rounds


def _trace_errors(out_dir: Path) -> list[str]:
    return json.loads((out_dir / "trace.json").read_text())["errors"]


def _add_trace(total: dict, trace: dict) -> None:
    for name, stats in trace.items():
        into = total.setdefault(name, {})
        for key, value in stats.items():
            into[key] = into.get(key, 0) + value


# --- metrics -------------------------------------------------------------------------


def round_times(rnd: dict, k: int) -> tuple[float, float]:
    """One round's seconds of work, and its work in units of the reference kernel.

    Each span of work counts in units of the mean of the reference runs just
    before and after it, on the same CPU; k = 0 is wall time, k = 1 CPU time.
    """
    raw = sum(work[k] for work, _, _ in rnd["spans"])
    rel = sum(work[k] / ((before[k] + after[k]) / 2) for work, before, after in rnd["spans"])
    return raw, rel


def end_to_end(rounds: list[dict]) -> dict:
    """Medians over the run's rounds of one round's work in reference units."""
    setups = [s for r in rounds for s in r["setups"]]
    return {"setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_rel": {"value": statistics.median(round_times(r, 0)[1] for r in rounds),
                         "unit": "ref"},
            "cpu_rel": {"value": statistics.median(round_times(r, 1)[1] for r in rounds),
                        "unit": "ref"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in rounds), "unit": "MB"}}


def raw_seconds(rounds: list[dict]) -> dict:
    """Medians over the run's rounds of one round's work in seconds, as measured."""
    return {"wall_s": statistics.median(round_times(r, 0)[0] for r in rounds),
            "cpu_s": statistics.median(round_times(r, 1)[0] for r in rounds),
            "ref_wall_s": statistics.median(ref[0] for r in rounds for _, ref, _ in r["spans"])}


def per_layer(rounds: list[dict]) -> dict:
    """Per traced round, the median over rounds of each layer count and self time.

    `trace.wall_rel` is `wall_rel` measured the same way on the traced
    rounds, so its ratio to the untraced median is the tracing overhead;
    `trace.wall_s` is the same round time in seconds.
    """
    metrics = {"trace.wall_s": {"value": raw_seconds(rounds)["wall_s"], "unit": "s"},
               "trace.wall_rel": end_to_end(rounds)["wall_rel"]}
    for mod, funcs in LAYERS.items():
        for fn, extras in funcs.items():
            name = f"{mod}.{fn}"
            keys = ["calls", *extras]
            keys += ["hits", "misses"] if name in CACHED else []
            keys += ["self_s"] if name in SELF_TIMED else []
            for key in keys:
                value = statistics.median(r["trace"].get(name, {}).get(key, 0) for r in rounds)
                unit = "s" if key == "self_s" else "count"
                # metric names start with a letter: `_kernels` is reported as `kernels`
                metrics[f"{name.lstrip('_')}.{key}"] = {"value": value, "unit": unit}
    return metrics


def _shares(traces: list[dict]) -> dict:
    total: dict = {}
    for trace in traces:
        _add_trace(total, trace)
    traced = sum(s["self_s"] for s in total.values()) or 1.0
    return {name: dict(s, share=s["self_s"] / traced)
            for name, s in sorted(total.items(), key=lambda kv: -kv[1]["self_s"])}


def write_trace_report(path: Path, rounds: list[dict]) -> None:
    """Every layer's totals and self-time share, per check group, and the per-kind command p50."""
    report = {"rounds": len(rounds), "layers": _shares([r["trace"] for r in rounds])}
    groups = {g for r in rounds for g in r.get("groups", {})}
    report["groups"] = {g: _shares([r["groups"][g] for r in rounds]) for g in sorted(groups)}
    kinds: dict = {}
    for r in rounds:
        for kind, walls in r.get("kinds", {}).items():
            kinds.setdefault(kind, []).extend(walls)
    report["cli_p50_ms"] = {k: 1000 * statistics.median(v) for k, v in sorted(kinds.items())}
    path.write_text(json.dumps(report, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bfly" / "verify.py").is_file():
        print(f"error: no bfly sources under {SRC}", file=sys.stderr)
        return 2
    self_errors = oracle.self_test() + cli_workload.self_test()
    if self_errors:
        print("error: benchmark self-test failed: " + "; ".join(self_errors), file=sys.stderr)
        return 1
    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    runner = run_cli if args.workload == "cli-documents" else run_verify
    summary, rounds = runner(args, out_dir)
    for e in summary["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    (out_dir / "rounds.json").write_text(json.dumps(
        [{"spans": r["spans"], "setups": r["setups"]} for r in rounds]) + "\n")
    if args.trace:
        write_trace_report(out_dir / "trace-report.json", rounds)
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds)
    raw = " ".join(f"{k}={v:.4f}" for k, v in raw_seconds(rounds).items())
    print(f"{len(rounds)} rounds, {summary['attempted']} operations, per round {raw};"
          f" run files in {out_dir}")
    print(json.dumps({"correct": not summary["errors"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
