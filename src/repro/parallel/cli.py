"""Command-line entry point for sharded estimates and campaigns.

Run as ``python -m repro.parallel.cli`` (with ``src`` on ``PYTHONPATH``):

- ``... list`` — the workload registry and executor backends;
- ``... estimate --workload spanning-tree --trials 20000 --workers 4
  --executor process`` — one sharded estimate, printed with its Wilson
  interval and shard provenance;
- ``... campaign --workloads spanning-tree,shared-coins --rng-modes
  compat,vector --trials 2000,8000 --out results/campaign.jsonl`` — a sweep
  streamed to a resumable JSON-lines sink (rerunning the same command picks
  up where it stopped).

Workload sizes pass through ``--size key=value`` pairs (repeatable), e.g.
``--size node_count=200 --size extra_edges=60``.  In a mixed campaign a
bare key applies to every workload *whose factory accepts it* (keys a
factory does not take are skipped with a warning, not a crash), and a
``workload:key=value`` prefix pins the size to one workload of the sweep:
``--workloads spanning-tree,k-flow --size spanning-tree:node_count=200
--size k-flow:k=3``.

``--cell-parallelism N`` runs N campaign cells concurrently over the one
worker pool.  A Wilson stop halts a run's shards the moment its booked
prefix converges, and the booked counts end exactly where the
single-process stop would (see ``docs/parallel.md``).

Adaptive budgets (see docs/parallel.md "Adaptive budgets"): ``campaign
--global-budget 20000 --target-halfwidth 0.03`` replaces per-cell budgets
with one allocator-managed pool that is re-granted to the widest cells
until every cell reaches the target.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.montecarlo import validate_halfwidth
from repro.engine.plan import RNG_MODES
from repro.obs.runtime import tracing
from repro.parallel.campaign import Campaign, JsonlSink, MemorySink, run_campaign
from repro.parallel.executors import (
    EXECUTORS,
    available_cpus,
    estimate_acceptance_sharded,
)
from repro.parallel.factories import WORKLOADS, workload_spec
from repro.parallel.shards import ShardPlanner


def _parse_sizes(
    pairs: Optional[Sequence[str]],
) -> Tuple[Dict[str, int], Dict[str, Dict[str, int]]]:
    """Split ``--size`` pairs into shared sizes and per-workload overrides.

    ``key=value`` applies to every workload (where applicable);
    ``workload:key=value`` applies to that workload only.
    """
    shared: Dict[str, int] = {}
    scoped: Dict[str, Dict[str, int]] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--size expects [workload:]key=value, got {pair!r}")
        workload, colon, scoped_key = key.partition(":")
        try:
            parsed = int(value)
        except ValueError:
            raise SystemExit(f"--size value must be an integer, got {pair!r}") from None
        if colon:
            if not scoped_key:
                raise SystemExit(f"--size expects [workload:]key=value, got {pair!r}")
            scoped.setdefault(workload, {})[scoped_key] = parsed
        else:
            shared[key] = parsed
    return shared, scoped


def _factory_size_keys(workload: str) -> set:
    factory, _randomness = WORKLOADS[workload]
    return set(inspect.signature(factory).parameters)


def _sizes_for(
    workload: str,
    shared: Dict[str, int],
    scoped: Dict[str, Dict[str, int]],
    strict: bool = False,
) -> Dict[str, int]:
    """The size kwargs one workload actually receives.

    In a *mixed* sweep, shared keys the workload's factory does not accept
    are dropped with a warning (``--workloads spanning-tree,k-flow --size
    node_count=200`` must not crash the flow factory).  With a single
    workload there is no ambiguity a shared key could be resolving —
    ``strict=True`` makes an inapplicable key fail fast like a scoped typo
    would, instead of silently benchmarking the default size.
    """
    accepted = _factory_size_keys(workload)
    sizes: Dict[str, int] = {}
    for key, value in shared.items():
        if key in accepted:
            sizes[key] = value
        elif strict:
            raise SystemExit(
                f"--size {key}= names a size the {workload!r} factory does "
                f"not accept (takes: {', '.join(sorted(accepted))})"
            )
        else:
            print(
                f"warning: --size {key}={value} does not apply to workload "
                f"{workload!r}; ignored",
                file=sys.stderr,
            )
    for key, value in scoped.get(workload, {}).items():
        if key not in accepted:
            raise SystemExit(
                f"--size {workload}:{key}= names a size the {workload!r} "
                f"factory does not accept (takes: {', '.join(sorted(accepted))})"
            )
        sizes[key] = value
    return sizes


def _parse_rng_modes(value: str) -> List[str]:
    modes = _csv(value)
    for mode in modes:
        if mode not in RNG_MODES:
            raise SystemExit(
                f"unknown rng mode {mode!r} (choose from {', '.join(RNG_MODES)})"
            )
    return modes


def _csv(value: str) -> List[str]:
    return [item for item in (part.strip() for part in value.split(",")) if item]


def _halfwidth_flag(flag: str):
    """An argparse ``type`` that bounds a halfwidth to the open (0, 0.5).

    The engine's :func:`~repro.engine.montecarlo.validate_halfwidth` test,
    reported as a usage error at parse time (``<= 0`` can never be
    satisfied, ``>= 0.5`` always is).
    """

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects a number, got {text!r}"
            ) from None
        try:
            return validate_halfwidth(value, flag)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default="serial",
        help="shard backend (default: serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker count for the process backend (default: all "
        f"{available_cpus()} available CPUs)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="fixed shard count (default: planner picks from workers/budget)",
    )
    parser.add_argument(
        "--stop-halfwidth",
        type=_halfwidth_flag("--stop-halfwidth"),
        default=None,
        help="Wilson early-exit half-width on the merged estimate "
        "(must lie in (0, 0.5))",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="progress deadline per shard in seconds; a shard silent that "
        "long is declared failed and retried or quarantined",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="re-dispatches per failed shard before quarantine; with 0 a "
        "shard's exception aborts the run (see docs/robustness.md)",
    )
    parser.add_argument(
        "--chaos-spec",
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault schedule, e.g. "
        "'seed=7,crash=0.3,slow=0.2,delay=0.01' "
        "(keys: seed, crash, kill, hang, slow, torn, sink, delay, hang-limit)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record a runtime trace (spans, events, metrics) into DIR; "
        "read it back with `python -m repro.obs report DIR` "
        "(see docs/observability.md)",
    )


def _tracing(args):
    """The ``--trace`` context: a live recorder, or a no-op without it."""
    return tracing(args.trace) if getattr(args, "trace", None) else nullcontext()


def _planner(args) -> Optional[ShardPlanner]:
    return None if args.shards is None else ShardPlanner(shard_count=args.shards)


def _build_executor(args):
    """The executor argument for the run, honouring ``--chaos-spec``.

    Without chaos this is just the backend name (the layers below resolve
    and own it).  With ``--chaos-spec`` the backend is resolved here,
    wrapped in a :class:`~repro.parallel.chaos.ChaosExecutor`, and returned
    with a cleanup callable the command must invoke in a ``finally``.
    """
    if not getattr(args, "chaos_spec", None):
        return args.executor, None
    from repro.parallel.chaos import ChaosExecutor, FaultPolicy
    from repro.parallel.executors import resolve_executor

    try:
        policy = FaultPolicy.parse(args.chaos_spec)
    except ValueError as exc:
        raise SystemExit(f"error: --chaos-spec: {exc}") from exc
    inner, _owned = resolve_executor(args.executor, args.workers)
    instance = ChaosExecutor(inner, policy)
    return instance, instance.close


def _cmd_list(_args) -> int:
    print("workloads:")
    for name, (factory, randomness) in sorted(WORKLOADS.items()):
        print(f"  {name:24s} randomness={randomness:7s} {factory.__module__}:{factory.__name__}")
    print(f"executors: {', '.join(sorted(EXECUTORS))}")
    print(f"available CPUs: {available_cpus()}")
    return 0


def _cmd_estimate(args) -> int:
    shared, scoped = _parse_sizes(args.size)
    unknown = set(scoped) - {args.workload}
    if unknown:
        raise SystemExit(
            f"--size scopes {sorted(unknown)} name workloads other than "
            f"{args.workload!r}"
        )
    spec = workload_spec(
        args.workload,
        rng_mode=args.rng_mode,
        **_sizes_for(args.workload, shared, scoped, strict=True),
    )
    executor, cleanup = _build_executor(args)
    try:
        with _tracing(args):
            sharded = estimate_acceptance_sharded(
                spec,
                args.trials,
                seed=args.seed,
                executor=executor,
                workers=args.workers,
                planner=_planner(args),
                stop_halfwidth=args.stop_halfwidth,
                shard_timeout=args.shard_timeout,
                max_retries=args.max_retries,
            )
    finally:
        if cleanup is not None:
            cleanup()
    print(f"{args.workload} [{spec.rng_mode}] -> {sharded}")
    if args.trace:
        print(f"trace -> {args.trace} (read: python -m repro.obs report {args.trace})")
    for result in sharded.shard_results:
        print(
            f"  shard {result.shard.index}: trials [{result.shard.start}, "
            f"{result.shard.stop}) ran {result.trials}, accepted {result.accepted}"
        )
    report = sharded.report
    print(
        f"  supervision: attempts={sum(report.attempts.values())} "
        f"retries={report.retries} timeouts={report.timeouts} "
        f"repairs={report.pool_repairs} "
        f"quarantined={len(report.quarantined)}"
    )
    for bad in report.quarantined:
        print(
            f"    quarantined {bad.shard} after {bad.attempts} attempts: "
            f"{bad.failures[-1].message}"
        )
    return 0


def _cmd_campaign(args) -> int:
    workloads = _csv(args.workloads)
    for workload in workloads:
        if workload not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {workload!r} (see `python -m repro.parallel.cli list`)"
            )
    shared, scoped = _parse_sizes(args.size)
    unknown = set(scoped) - set(workloads)
    if unknown:
        raise SystemExit(
            f"--size scopes {sorted(unknown)} name workloads not in this sweep "
            f"({', '.join(workloads)})"
        )
    entries = []
    strict = len(workloads) == 1  # one workload: an inapplicable key is a typo
    for workload in workloads:
        sizes = _sizes_for(workload, shared, scoped, strict=strict)
        entries.append((workload, sizes) if sizes else workload)
    campaign = Campaign.sweep(
        args.name,
        entries,
        rng_modes=tuple(_parse_rng_modes(args.rng_modes)),
        trial_budgets=tuple(int(t) for t in _csv(args.trials)),
        seeds=tuple(int(s) for s in _csv(args.seeds)),
        stop_halfwidth=args.stop_halfwidth,
    )
    if args.global_budget is not None:
        if args.global_budget <= 0:
            raise SystemExit(
                f"error: --global-budget must be positive, got {args.global_budget}"
            )
        if args.target_halfwidth is None:
            raise SystemExit("error: --global-budget requires --target-halfwidth")
    elif args.target_halfwidth is not None:
        raise SystemExit(
            "error: --target-halfwidth requires --global-budget "
            "(use --stop-halfwidth for a per-cell stop rule)"
        )
    sink = (
        JsonlSink(args.out, resume=not args.no_resume, fsync=args.fsync)
        if args.out
        else MemorySink()
    )
    skipped = sum(1 for cell in campaign.cells if sink.completed(cell))
    executor, cleanup = _build_executor(args)
    try:
        with _tracing(args):
            records = run_campaign(
                campaign,
                executor=executor,
                workers=args.workers,
                sink=sink,
                planner=_planner(args),
                cell_parallelism=args.cell_parallelism,
                on_cell_error=args.on_cell_error,
                cell_retries=args.cell_retries,
                shard_timeout=args.shard_timeout,
                max_retries=args.max_retries,
                global_budget=args.global_budget,
                target_halfwidth=args.target_halfwidth,
            )
    finally:
        if cleanup is not None:
            cleanup()
    failed = 0
    for record in records:
        if record.get("status") == "failed":
            failed += 1
            error = record.get("error", {})
            print(
                f"{record['cell']:48s} FAILED "
                f"{error.get('type', '?')}: {error.get('message', '')}"
            )
            continue
        print(
            f"{record['cell']:48s} p={record['probability']:.4f} "
            f"[{record['wilson_low']:.4f}, {record['wilson_high']:.4f}] "
            f"trials={record['trials']} shards={record['shards']} "
            f"{record['elapsed_sec']:.3f}s"
        )
    where = args.out if args.out else "(memory)"
    tail = f", {failed} failed" if failed else ""
    print(
        f"campaign {campaign.name!r}: {len(records)} cells run, "
        f"{skipped} resumed as complete{tail} -> {where}"
    )
    if args.global_budget is not None and records:
        consumed = sum(
            record.get("allocation", {}).get("consumed", 0) for record in records
        )
        converged = sum(
            1
            for record in records
            if record.get("allocation", {}).get("converged")
        )
        print(
            f"global budget: {consumed}/{args.global_budget} trials consumed, "
            f"{converged}/{len(records)} cells reached halfwidth "
            f"{args.target_halfwidth}"
        )
    if args.trace:
        print(f"trace -> {args.trace} (read: python -m repro.obs report {args.trace})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.cli",
        description="Sharded Monte-Carlo estimates and experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads and backends").set_defaults(
        func=_cmd_list
    )

    estimate = sub.add_parser("estimate", help="one sharded acceptance estimate")
    estimate.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    estimate.add_argument(
        "--rng-mode",
        default="vector",
        choices=RNG_MODES,
        help="randomness derivation mode (validated here, not deep in the engine)",
    )
    estimate.add_argument("--trials", type=int, required=True)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--size", action="append", metavar="[WORKLOAD:]KEY=VALUE")
    _add_executor_args(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    campaign = sub.add_parser("campaign", help="run a sweep of cells")
    campaign.add_argument("--name", default="cli-campaign")
    campaign.add_argument(
        "--workloads", required=True, help="comma-separated registry names"
    )
    campaign.add_argument(
        "--rng-modes",
        default="vector",
        help=f"comma-separated modes from {{{', '.join(RNG_MODES)}}}",
    )
    campaign.add_argument("--trials", default="1024", help="comma-separated budgets")
    campaign.add_argument("--seeds", default="0", help="comma-separated master seeds")
    campaign.add_argument("--size", action="append", metavar="[WORKLOAD:]KEY=VALUE")
    campaign.add_argument(
        "--cell-parallelism",
        type=int,
        default=1,
        help="independent cells scheduled concurrently over the one pool",
    )
    campaign.add_argument("--out", default=None, help="JSON-lines result path")
    campaign.add_argument(
        "--no-resume",
        action="store_true",
        help="truncate --out instead of skipping completed cells",
    )
    campaign.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the --out sink after every record (crash-consistent logs)",
    )
    campaign.add_argument(
        "--on-cell-error",
        choices=("raise", "skip", "retry"),
        default="raise",
        help="failing cell: abort the campaign (raise), record a "
        "status=failed record and continue (skip), or re-attempt then "
        "skip (retry)",
    )
    campaign.add_argument(
        "--cell-retries",
        type=int,
        default=1,
        help="re-attempts per failing cell under --on-cell-error retry",
    )
    campaign.add_argument(
        "--global-budget",
        type=int,
        default=None,
        metavar="TRIALS",
        help="one adaptive trial budget shared by every cell — the "
        "allocator starves converged cells and re-grants their budget to "
        "the widest intervals (requires --target-halfwidth)",
    )
    campaign.add_argument(
        "--target-halfwidth",
        type=_halfwidth_flag("--target-halfwidth"),
        default=None,
        help="Wilson half-width every cell should reach under "
        "--global-budget (must lie in (0, 0.5))",
    )
    _add_executor_args(campaign)
    campaign.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Configuration contradictions from the layers below (serial
        # backend with --workers 4, --cell-parallelism 0, ...) are usage
        # errors at this boundary, not tracebacks.
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
