#!/usr/bin/env python3
"""Sharded estimation and a small experiment campaign (PR 4's subsystem).

Three stops: (1) one sharded estimate whose merged counts are *identical*
to the single-process run — the seed-partition contract; (2) the same
estimate with a Wilson early exit cancelling outstanding shards; (3) a
declarative campaign sweeping workloads x rng modes x budgets over one
worker pool, streamed into an in-memory sink (swap in ``JsonlSink(path)``
for a resumable on-disk log, or drive the same sweep from the shell via
``python -m repro.parallel.cli``).

Run:  python examples/parallel_sweep.py
"""

from repro.engine import estimate_acceptance_fast
from repro.parallel import (
    Campaign,
    MemorySink,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)


def main() -> None:
    # A picklable workload spec: the factory reference + arguments workers
    # use to rebuild (and cache) the compiled plan on their side.
    spec = workload_spec(
        "spanning-tree", rng_mode="vector", node_count=48, extra_edges=12, seed=7
    )

    # --- 1. sharded == single-process, count for count
    single = estimate_acceptance_fast(spec.resolve(), 2000, seed=0)
    sharded = estimate_acceptance_sharded(
        spec, 2000, seed=0, executor="process", workers=2, shard_count=8
    )
    print(f"single process : {single}")
    print(f"sharded        : {sharded}")
    print(f"identical merge: {sharded.estimate == single}")

    # --- 2. cooperative early exit: confident after a fraction of the budget
    stopped = estimate_acceptance_sharded(
        spec, 50_000, seed=0, executor="process", workers=2,
        stop_halfwidth=0.02, min_trials=200,
    )
    print(
        f"early exit     : stop booked at trial {stopped.prefix.trials}; "
        f"{stopped.estimate.trials} of 50000 trials ran "
        f"(stopped_early={stopped.stopped_early})"
    )

    # --- 3. a campaign: workloads x rng modes x budgets over one pool
    campaign = Campaign.sweep(
        "example-sweep",
        [
            ("spanning-tree", {"node_count": 32, "extra_edges": 8}),
            ("shared-coins", {"node_count": 32, "extra_edges": 8}),
        ],
        rng_modes=("compat", "vector"),
        trial_budgets=(256,),
    )
    records = run_campaign(campaign, executor="serial", sink=MemorySink())
    print(f"\ncampaign {campaign.name!r}: {len(records)} cells")
    for record in records:
        print(
            f"  {record['cell']:44s} p={record['probability']:.3f} "
            f"[{record['wilson_low']:.3f}, {record['wilson_high']:.3f}] "
            f"{record['elapsed_sec'] * 1000:.0f} ms"
        )


if __name__ == "__main__":
    main()
