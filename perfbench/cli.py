"""Command line of the benchmark (see ``perfbench/README.md``).

``--trace 0`` runs one workload untraced: five set-ups, then passes until
``--seconds`` have been measured (and at least the workload's minimum pass
count), then the correctness checks outside the timed phase.  It prints
every end-to-end metric.  ``--trace 1`` runs the traced per-layer ledger of
every workload (each layer's metrics come from the workload that exercises
it) and prints every per-layer metric.  The last line of standard output is
always the JSON result; the exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import time
from typing import Dict, Tuple

from repro.core.seeding import derive_trial_seed
from repro.parallel import available_cpus

from perfbench import estimate_long, forgery_search, metrics, workloads, zoo_campaign
from perfbench.tracer import Tracer

MODULES = {module.NAME: module for module in (estimate_long, zoo_campaign, forgery_search)}
SETUPS = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _commit() -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def provenance(args) -> Dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": available_cpus(),
        "workers": zoo_campaign.WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def run_untraced(module, seed: int, seconds: float, tiny: bool) -> Tuple[Dict, Dict, int, int]:
    """Set up, measure passes for ``seconds``, check.

    Returns the end-to-end metrics, a few uncalibrated wall-clock figures
    for the human-readable report, and the checked / failed counts.
    """
    clock = metrics.SpeedProbe()
    setups = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            module.close(state)
        state, _wall, setup_s = clock.time(module.setup, tiny)
        setups.append(setup_s)
    passes = []
    try:
        start = time.perf_counter()
        while len(passes) < module.MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(module.run_pass(state, derive_trial_seed(seed, len(passes)), clock))
        attempted, failed = module.check(state, passes)
    finally:
        module.close(state)
    if hasattr(module, "report"):
        print(module.report(state, passes))
    wall = {
        "wall solve_s": statistics.median([answer["wall_s"] for answer in passes]),
        "speed factor": statistics.median(clock.factors),
        "passes": len(passes),
    }
    return metrics.end_to_end(setups, passes, module.WORKERS), wall, attempted, failed


def run_traced(seed: int, tiny: bool, label: str) -> Tuple[Dict, int, int]:
    """Every workload's per-layer ledger, with the benchmark's own spans."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    result: Dict[str, float] = {}
    attempted = failed = 0
    for module in MODULES.values():
        state = module.setup(tiny)
        try:
            values, more_attempted, more_failed = module.ledger(state, seed, tracer, OUT_DIR)
        finally:
            module.close(state)
        result.update(values)
        attempted += more_attempted
        failed += more_failed
    self_s = tracer.self_seconds()
    for name, *_rest in metrics.PER_LAYER:
        if name.startswith("self_s."):
            result[name] = self_s.get(name[len("self_s."):], 0.0)
    tracer.write(os.path.join(OUT_DIR, f"spans-{label}-{seed}.jsonl"))
    return result, attempted, failed


def _table(values: Dict[str, float], catalog) -> str:
    lines = []
    for name, unit, _better, extra, doc in catalog:
        if name in values:
            note = f"bound {extra}" if isinstance(extra, float) else f"-> {extra}"
            lines.append(f"  {name:40s} {values[name]:>16.6g} {unit:6s} {note}  ({doc})")
    return "\n".join(lines)


def _result(metrics_out: Dict[str, float], attempted: int, failed: int) -> Dict:
    for name, value in metrics_out.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name.rsplit("/", 1)[-1]]}
            for name, value in metrics_out.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: loose targets, few candidates")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the metric catalog and exit")
    parser.add_argument("--search-flips", action="store_true",
                        help="repeat the ranked search behind the pinned flips and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(metrics.manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.search_flips:
        workloads.search_all()
        return 0

    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    if args.trace:
        values, attempted, failed = run_traced(args.seed, args.tiny, args.workload)
        print("# per-layer ledger (traced run; -> the end-to-end metric@workload it should move)")
        print(_table(values, metrics.PER_LAYER))
    else:
        names = sorted(MODULES) if args.workload == "all" else [args.workload]
        values, attempted, failed = {}, 0, 0
        for name in names:
            measured, wall, more_attempted, more_failed = run_untraced(
                MODULES[name], args.seed, args.seconds, args.tiny)
            print(f"# {name}: end-to-end metrics (untraced; failed_share "
                  f"{more_failed}/{more_attempted} = {more_failed / more_attempted:g})")
            print(_table(measured, metrics.END_TO_END))
            print("# uncalibrated: " + ", ".join(f"{key} {value:.6g}" for key, value in wall.items()))
            prefix = f"{name}/" if args.workload == "all" else ""
            values.update({prefix + key: value for key, value in measured.items()})
            attempted += more_attempted
            failed += more_failed
    print(json.dumps(_result(values, attempted, failed)))
    return 0 if failed == 0 else 1
