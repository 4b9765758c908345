"""The metric catalog, and the small statistics every workload shares.

The catalog is the single source of ``BENCHMARK.json``: ``python3
perfbench/run.py --write-manifest`` renders it, and the smoke test fails when
the committed file and the catalog disagree.

End-to-end metrics are what a user of the library sees (measured with the
benchmark's tracing off; times are calibrated by :class:`SpeedProbe`).
Every workload reports every one of them, so an
"answer" is defined per workload: one plan estimated to its Wilson stop
(``estimate-long``), one campaign cell record (``zoo-campaign``), one
candidate compiled and scored (``forgery-search``).  ``failed_share`` is not
a metric here because it reads 0 on a healthy run; it is carried by the
result line's ``failed`` / ``attempted`` counts instead.

Per-layer metrics come from the separate traced run.  Each names the
end-to-end metric and workload it should move (``maps_to``).
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Dict, List, Sequence

WORKLOADS = (
    ("estimate-long", "kernels do nearly all the work: five plans estimated to a Wilson stop "
                      "in one process, no executor"),
    ("zoo-campaign", "orchestration dominates: an adaptive supervised campaign over every "
                     "registered scheme on a two-worker process pool"),
    ("forgery-search", "the plan layer used the other way round: about two thirds of each "
                       "candidate is compile, one third is a 64-trial score"),
)

#: (name, unit, better, bound, definition)
END_TO_END = (
    ("solve_s", "s", "lower", 0.2,
     "median time of one pass, from the first call after set-up to its last answer"),
    ("setup_s", "s", "lower", 0.25,
     "median of five set-ups: workload build, prover, compile, executor start"),
    ("trials_per_s", "1/s", "higher", 0.2, "trials executed / pass time, median over passes"),
    ("trials_to_target", "count", "lower", 0.1,
     "median trials one pass consumes until every estimate reaches its target"),
    ("answers_per_s", "1/s", "higher", 0.2, "answers delivered / pass time, median over passes"),
    ("answer_ms_p50", "ms", "lower", 0.2, "median latency of one answer"),
    ("answer_ms_p90", "ms", "lower", 0.2, "90th-percentile latency of one answer"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak RSS of the benchmark process plus that of its workers"),
)

EL, ZOO, FS = "estimate-long", "zoo-campaign", "forgery-search"

#: (name, unit, better, maps_to, definition)
PER_LAYER = (
    # repro.engine.plan
    ("plan.compile_ms_p50", "ms", "lower", f"answers_per_s@{FS}, setup_s@{EL}",
     "VerificationPlan.compile per forgery candidate, median"),
    ("plan.compile_ms_p90", "ms", "lower", f"answers_per_s@{FS}, setup_s@{EL}",
     "VerificationPlan.compile per forgery candidate, 90th percentile"),
    ("plan.prepare_ms_p50", "ms", "lower", f"answers_per_s@{FS}, setup_s@{EL}",
     "plan.prepare() per forgery candidate, median"),
    ("plan.prepare_ms_p90", "ms", "lower", f"answers_per_s@{FS}, setup_s@{EL}",
     "plan.prepare() per forgery candidate, 90th percentile"),
    ("plan.compile_share", "share", "lower", f"answers_per_s@{FS}",
     "(compile + prepare) / candidate time in the forgery scan"),
    # repro.core.seeding and repro.engine.kernels, from the outside chunk replay
    ("seeding.slice_share", "share", "lower", f"solve_s@{EL}",
     "trial_seed_slice time / (slice + run_trials) time in the replay"),
    ("kernels.spanning-tree.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "run_trials(vectorize=True) rate on the faulted spanning-tree plan"),
    ("kernels.shared-coins.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "run_trials(vectorize=True) rate on the faulted shared-coins plan"),
    ("kernels.mst.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "run_trials(vectorize=True) rate on the faulted MST plan"),
    ("kernels.boosted.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "run_trials(vectorize=True) rate on the faulted boosted plan"),
    ("kernels.chunk_ms_p50", "ms", "lower", f"solve_s@{EL}",
     "one vectorized chunk of the replay, median"),
    ("kernels.chunk_ms_p90", "ms", "lower", f"solve_s@{EL}",
     "one vectorized chunk of the replay, 90th percentile"),
    ("kernels.busy_share", "share", "higher", f"solve_s@{EL}",
     "replay kernel time / estimator time, over the four vector plans"),
    # repro.engine.montecarlo
    ("montecarlo.spanning-tree.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "estimate_acceptance_fast rate on the faulted spanning-tree plan"),
    ("montecarlo.shared-coins.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "estimate_acceptance_fast rate on the faulted shared-coins plan"),
    ("montecarlo.mst.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "estimate_acceptance_fast rate on the faulted MST plan"),
    ("montecarlo.boosted.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "estimate_acceptance_fast rate on the faulted boosted plan"),
    ("montecarlo.noisy.trials_per_s", "1/s", "higher", f"solve_s@{EL}",
     "estimate_acceptance_fast rate on the noisy plan (generic scalar path)"),
    ("montecarlo.overhead_ratio", "ratio", "lower", f"solve_s@{EL}",
     "estimator time / (slice + kernel) replay time, over the four vector plans"),
    ("montecarlo.chunks", "count", "lower", f"solve_s@{EL}",
     "chunks one pass runs, all five plans"),
    # repro.core.verifier
    ("oracle.trials_per_s", "1/s", "higher", "none (single-threaded baseline)",
     "legacy estimate_acceptance on a short compat prefix of the spanning-tree plan"),
    # repro.engine.cache via repro.parallel.spec, merged from the workers
    ("plan_cache.hits", "count", "higher", f"solve_s@{ZOO}",
     "worker plan-cache hits in one campaign on a fresh pool"),
    ("plan_cache.misses", "count", "lower", f"solve_s@{ZOO}",
     "worker plan-cache misses (cold compiles) in one campaign on a fresh pool"),
    # repro.parallel.executors
    ("executors.pool_start_s", "s", "lower", f"setup_s@{ZOO}",
     "a fresh ProcessExecutor plus its first tiny run, median of three"),
    ("executors.shards", "count", "lower", f"solve_s@{ZOO}", "shards one campaign runs"),
    ("executors.shard_s_sum", "s", "lower", f"solve_s@{ZOO}",
     "worker-side shard seconds summed over one campaign"),
    ("executors.worker_busy_share", "share", "higher", f"trials_per_s@{ZOO}",
     "shard_s_sum / (workers x campaign time)"),
    ("executors.serial_solve_ratio", "ratio", "higher", f"solve_s@{ZOO}",
     "campaign time on SerialExecutor / on ProcessExecutor"),
    # repro.parallel.progress
    ("progress.router_dropped", "count", "lower", f"failed_share@{ZOO}",
     "router unknown + stale + malformed + callback_errors in one campaign"),
    ("progress.drain_thread_leaked", "count", "lower", f"failed_share@{ZOO}",
     "drain threads that outlived executor close"),
    # repro.parallel.supervision
    ("supervision.retries", "count", "lower", f"failed_share@{ZOO}", "shard retries"),
    ("supervision.timeouts", "count", "lower", f"failed_share@{ZOO}", "shard heartbeat timeouts"),
    ("supervision.quarantined", "count", "lower", f"failed_share@{ZOO}", "quarantined shards"),
    ("supervision.overhead_ratio", "ratio", "lower", f"solve_s@{ZOO}",
     "supervised / unsupervised campaign time"),
    # repro.parallel.controller
    ("controller.rounds", "count", "lower", f"solve_s@{ZOO}", "allocator rounds"),
    ("controller.grants", "count", "lower", f"solve_s@{ZOO}", "installments granted"),
    ("controller.granted_trials", "count", "lower", f"trials_to_target@{ZOO}",
     "trials granted"),
    ("controller.consumed_trials", "count", "lower", f"trials_to_target@{ZOO}",
     "trials consumed"),
    ("controller.useful_share", "share", "higher", f"trials_to_target@{ZOO}",
     "consumed / granted trials"),
    # repro.parallel.campaign
    ("campaign.cells", "count", "lower", f"solve_s@{ZOO}", "cell records one campaign writes"),
    ("campaign.installments", "count", "lower", f"solve_s@{ZOO}",
     "installments summed over every record's allocation history"),
    ("campaign.cell_s_p50", "s", "lower", f"answer_ms_p50@{ZOO}", "cell elapsed time, median"),
    ("campaign.cell_s_p90", "s", "lower", f"answer_ms_p90@{ZOO}",
     "cell elapsed time, 90th percentile"),
    # repro.obs: the benchmark's own tracing must cost nothing
    (f"obs.trace_overhead_ratio.{EL}", "ratio", "lower", "none (should stay near 1)",
     "traced / untraced pass time"),
    (f"obs.trace_overhead_ratio.{ZOO}", "ratio", "lower", "none (should stay near 1)",
     "campaign time under repro.obs.tracing / untraced"),
    (f"obs.trace_overhead_ratio.{FS}", "ratio", "lower", "none (should stay near 1)",
     "traced / untraced scan time"),
) + tuple(
    (f"self_s.{layer}", "s", "lower", maps_to,
     f"self time of the traced run's {layer} spans (span minus child spans)")
    for layer, maps_to in (
        ("montecarlo", f"solve_s@{EL}"),
        ("seeding", f"solve_s@{EL}"),
        ("kernels", f"solve_s@{EL}"),
        ("oracle", "none"),
        ("plan", f"answers_per_s@{FS}"),
        ("executors", f"setup_s@{ZOO}"),
        ("campaign", f"solve_s@{ZOO}"),
    )
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> Dict:
    """The ``BENCHMARK.json`` object this catalog defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _doc in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _maps, _doc in PER_LAYER
        ],
    }


#: The probe's time on the reference box (a 2-vCPU Xeon VM) in its fast
#: regime.  It only fixes the scale: calibrated seconds equal wall seconds
#: whenever the probe runs at this speed.
PROBE_NOMINAL_S = 0.004

_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407


def _probe_once() -> float:
    """One fixed numpy + pure-Python loop that uses no code of the repo."""
    import numpy

    start = time.perf_counter()
    words = numpy.arange(50_000, dtype=numpy.uint64)
    for _ in range(6):
        words = (words * numpy.uint64(_MULTIPLIER) + numpy.uint64(_INCREMENT)) % numpy.uint64(1000003)
    table = {}
    for i in range(20_000):
        table[i & 1023] = (i * i) % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Rescales wall time to a nominal machine speed.

    Shared virtual machines drift between speed regimes that last from
    seconds to minutes (15-second medians of one kernel spread by 16% on
    the reference box), which no amount of repetition inside one run
    averages out.  The probe times a fixed loop independent of the repo
    next to every answer and scales the answer's wall time by
    ``PROBE_NOMINAL_S / probe time``; on the reference box that cut the
    15-second spread of a kernel's time from 16% to 3%.  A change to the
    repo's code cannot move the probe, so it cannot hide a regression.
    """

    def __init__(self, every: float = 0.25):
        self.every = every
        self._probed_at = -math.inf
        self._factor = 1.0
        self.factors: List[float] = []

    def factor(self) -> float:
        """The current scale factor, re-probed when older than ``every`` s."""
        if time.perf_counter() - self._probed_at >= self.every:
            self._factor = PROBE_NOMINAL_S / min(_probe_once() for _ in range(3))
            self._probed_at = time.perf_counter()
            self.factors.append(self._factor)
        return self._factor

    def time(self, fn, *args):
        """``(result, wall seconds, calibrated seconds)`` of ``fn(*args)``."""
        before = self.factor()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, wall * (before + self.factor()) / 2


class WallClock:
    """A probe stand-in that leaves wall time unscaled (traced ledgers)."""

    def time(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, wall


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process plus ``workers`` times the largest reaped child.

    The kernel reports one peak for all reaped children (the largest), so a
    pool's workers are counted as ``workers`` copies of it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


def end_to_end(setups: List[float], passes: List[Dict], workers: int) -> Dict[str, float]:
    """Every end-to-end metric from the set-up times and the measured passes.

    A pass is ``{"seconds", "trials", "answers": [latency seconds, ...]}``.
    """
    latencies = [latency for p in passes for latency in p["answers"]]
    return {
        "solve_s": statistics.median([p["seconds"] for p in passes]),
        "setup_s": statistics.median(setups),
        "trials_per_s": statistics.median([p["trials"] / p["seconds"] for p in passes]),
        "trials_to_target": statistics.median([p["trials"] for p in passes]),
        "answers_per_s": statistics.median([len(p["answers"]) / p["seconds"] for p in passes]),
        "answer_ms_p50": 1000.0 * percentile(latencies, 50),
        "answer_ms_p90": 1000.0 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(workers),
    }
