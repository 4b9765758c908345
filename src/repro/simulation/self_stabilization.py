"""The self-stabilization loop: periodic verification, detection, recovery.

Proof-labeling schemes were born in the self-stabilization literature the
paper builds on ([1] local detection, [9] PLS vs silent self-stabilization,
[30] fast MST fault detection): a network maintains a distributed data
structure, transient faults silently corrupt it, and a periodic *local
detection* round — exactly one PLS/RPLS verification — triggers recovery.

This module simulates that loop faithfully and measures what a systems
operator would: **detection latency** (rounds from fault to first FALSE),
**false alarms** (FALSE on a legal state — provably zero for one-sided
schemes), and **availability** (fraction of rounds spent in a legal state).

The moving parts:

- the *detector* is any :class:`~repro.core.scheme.RandomizedScheme`;
  boosting it (:class:`~repro.core.boosting.BoostedRPLS`) trades certificate
  bits for detection latency — benchmark E19 sweeps that trade;
- the *fault injector* corrupts the configuration at scheduled rounds
  (states only — labels go stale, which is precisely what makes the fault
  detectable);
- the *recovery* procedure rebuilds a legal configuration and fresh labels,
  modeling the "launch a recovery procedure" reaction the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bitstrings import BitString
from repro.core.configuration import Configuration
from repro.core.scheme import RandomizedScheme
from repro.graphs.port_graph import Node

FaultInjector = Callable[[Configuration, int], Configuration]
LabelFaultInjector = Callable[
    [Dict[Node, BitString], Configuration, int], Dict[Node, BitString]
]
Recovery = Callable[[Configuration], Tuple[Configuration, Dict[Node, BitString]]]


@dataclass
class RoundRecord:
    """What happened in one simulated round."""

    round_index: int
    fault_injected: bool
    legal: bool
    detected: bool
    recovered: bool


@dataclass
class StabilizationTrace:
    """The full history of one simulation run."""

    records: List[RoundRecord] = field(default_factory=list)
    detection_latencies: List[int] = field(default_factory=list)
    false_alarms: int = 0
    undetected_faults: int = 0

    @property
    def rounds(self) -> int:
        return len(self.records)

    @property
    def availability(self) -> float:
        """Fraction of rounds spent in a legal state."""
        if not self.records:
            return 1.0
        return sum(1 for r in self.records if r.legal) / len(self.records)

    @property
    def mean_detection_latency(self) -> Optional[float]:
        if not self.detection_latencies:
            return None
        return sum(self.detection_latencies) / len(self.detection_latencies)


def run_self_stabilization(
    scheme: RandomizedScheme,
    configuration: Configuration,
    recovery: Recovery,
    fault_rounds: Dict[int, FaultInjector],
    total_rounds: int,
    seed: int = 0,
    label_fault_rounds: Optional[Dict[int, LabelFaultInjector]] = None,
    randomness: str = "edge",
    rng_mode: str = "compat",
    plan_cache: Optional["PlanCache"] = None,
) -> StabilizationTrace:
    """Simulate ``total_rounds`` of the verify-detect-recover loop.

    Two fault models, matching the transient-memory-fault setting of the
    self-stabilization literature:

    - ``fault_rounds`` corrupt the *output* (node states).  Labels are not
      refreshed — they were computed for the pre-fault state, which is what
      detection exploits.
    - ``label_fault_rounds`` corrupt the *proof* (stored labels) while the
      output stays legal.  These are only detectable through the randomized
      consistency checks (fingerprint/parity mismatches), so detection is
      probabilistic per round — the latency-vs-boosting trade lives here.

    Every round runs one randomized verification with a fresh seed (the
    SplitMix64 per-round derivation of :mod:`repro.core.seeding`).  On a
    FALSE at any node, recovery runs immediately (the repaired state is in
    force from the next round on).

    ``rng_mode`` selects the per-round coin derivation (``"compat"`` or
    the counter-based ``"vector"`` — see
    :mod:`repro.engine.plan`); it compiles into the plans this loop
    resolves, and the cache keys on it, so runs sharing one ``plan_cache``
    across modes can never serve each other's coin streams.

    Verification rounds run over a compiled
    :class:`~repro.engine.plan.VerificationPlan`, resolved through a
    value-keyed :class:`~repro.engine.cache.PlanCache` whenever a fault or
    recovery may have changed the configuration or the labels.  The
    fault/recovery cycle revisits the same handful of states (the legal
    state, each recurring corruption, the repaired state), so after the
    first cycle nearly every re-resolution is a cache hit and the loop pays
    just the per-round randomized work plus one value-key computation.
    Pass ``plan_cache`` to share compiled plans across runs (e.g. a
    boosting sweep over one workload); by default each run gets its own.
    """
    # Local imports: repro.core.verifier / repro.engine pull in
    # repro.simulation.metrics, so module-level imports here would close an
    # import cycle.
    from repro.core.seeding import derive_trial_seed
    from repro.engine.cache import PlanCache
    from repro.engine.plan import VerificationPlan

    cache = plan_cache if plan_cache is not None else PlanCache(maxsize=8)
    trace = StabilizationTrace()
    current = configuration
    labels = scheme.prover(configuration)
    fault_pending_since: Optional[int] = None
    label_fault_rounds = label_fault_rounds or {}
    plan: Optional[VerificationPlan] = None
    plan_stale = True

    for round_index in range(total_rounds):
        injected = False
        if round_index in fault_rounds:
            current = fault_rounds[round_index](current, round_index)
            if fault_pending_since is None:
                fault_pending_since = round_index
            injected = True
        if round_index in label_fault_rounds:
            labels = label_fault_rounds[round_index](labels, current, round_index)
            if fault_pending_since is None:
                fault_pending_since = round_index
            injected = True

        legal = scheme.predicate.holds(current)
        # Any injector or recovery run marks the plan stale — injectors and
        # recovery procedures are user-supplied callables with no purity
        # contract, so even one that mutates in place and returns the same
        # object triggers a re-resolution.  The cache key is computed from
        # the *current* values, so an in-place mutation changes the key and
        # compiles, while a state the loop has seen before (recovery
        # rebuilding the legal configuration, a recurring fault pattern)
        # hits and skips the compile entirely.
        if plan is None or plan_stale or injected:
            plan = cache.get(
                scheme,
                current,
                labels=labels,
                randomness=randomness,
                rng_mode=rng_mode,
            )
            plan_stale = False
        detected = not plan.run_trial(derive_trial_seed(seed, round_index))

        recovered = False
        if detected:
            if legal and fault_pending_since is None:
                trace.false_alarms += 1
            if fault_pending_since is not None:
                trace.detection_latencies.append(round_index - fault_pending_since)
                fault_pending_since = None
            current, labels = recovery(current)
            plan_stale = True
            recovered = True

        trace.records.append(
            RoundRecord(
                round_index=round_index,
                fault_injected=injected,
                legal=legal,
                detected=detected,
                recovered=recovered,
            )
        )

    if fault_pending_since is not None:
        trace.undetected_faults += 1
    return trace


@dataclass(frozen=True)
class StabilizationSummary:
    """The operator-facing metrics of one replica of the loop.

    The picklable digest a parallel replica ships back to the coordinator —
    a full :class:`StabilizationTrace` would drag every per-round record
    through the process boundary for no analytical gain.
    """

    run_index: int
    seed: int
    rounds: int
    availability: float
    detections: int
    mean_detection_latency: Optional[float]
    false_alarms: int
    undetected_faults: int


def summarize_trace(
    trace: StabilizationTrace, run_index: int = 0, seed: int = 0
) -> StabilizationSummary:
    """Collapse a trace into its :class:`StabilizationSummary`."""
    return StabilizationSummary(
        run_index=run_index,
        seed=seed,
        rounds=trace.rounds,
        availability=trace.availability,
        detections=len(trace.detection_latencies),
        mean_detection_latency=trace.mean_detection_latency,
        false_alarms=trace.false_alarms,
        undetected_faults=trace.undetected_faults,
    )


def _replica_worker(payload, should_stop, publish=None) -> StabilizationSummary:
    """One replica of the loop — runs on any repro.parallel backend.

    A replica runs to completion: it neither polls ``should_stop`` nor
    publishes progress.
    """
    setup, run_index, run_seed = payload
    kwargs = dict(setup(run_index, run_seed))
    kwargs.setdefault("seed", run_seed)
    trace = run_self_stabilization(**kwargs)
    return summarize_trace(trace, run_index=run_index, seed=kwargs["seed"])


def run_stabilization_replicas(
    setup: Callable[[int, int], Dict],
    runs: int,
    seed: int = 0,
    executor: object = "serial",
    workers: Optional[int] = None,
) -> List[StabilizationSummary]:
    """Run independent fault/recovery replicas across a worker pool.

    Detection latency and availability are random variables of the round
    coins and the fault pattern, so tight confidence intervals need many
    independent replicas — which are embarrassingly parallel.  ``setup``
    maps ``(run_index, run_seed)`` to the keyword arguments of
    :func:`run_self_stabilization` (anything omitted gets ``seed=run_seed``);
    per-replica seeds derive from the master ``seed`` through the SplitMix64
    trial mix, so replica ``i`` is the same run on every backend and worker
    count.  Results return sorted by ``run_index``.

    ``executor`` accepts the same name-or-instance argument as
    :func:`repro.parallel.estimate_acceptance_sharded`.  For the process
    backend ``setup`` must be a module-level callable building the whole
    workload in the worker (schemes, recovery procedures, and fault
    schedules are not shipped across the boundary — same rule as
    :class:`repro.parallel.PlanSpec` factories).
    """
    # Local import: repro.parallel is a downstream consumer of this module's
    # sibling metrics — importing it lazily keeps simulation importable
    # without the parallel subsystem in the loop.
    from repro.core.seeding import derive_trial_seed
    from repro.parallel.executors import resolve_executor

    if runs < 1:
        raise ValueError("runs must be positive")
    payloads = [
        (setup, run_index, derive_trial_seed(seed, run_index))
        for run_index in range(runs)
    ]
    instance, owned = resolve_executor(executor, workers)
    try:
        with instance.start_run(_replica_worker, payloads) as handle:
            summaries = list(handle.results())
    finally:
        if owned:
            instance.close()
    return sorted(summaries, key=lambda summary: summary.run_index)


def periodic_faults(
    injector: FaultInjector, period: int, total_rounds: int, start: int = 0
) -> Dict[int, FaultInjector]:
    """A fault schedule hitting every ``period`` rounds."""
    if period < 1:
        raise ValueError("period must be positive")
    return {r: injector for r in range(start, total_rounds, period)}


def seeded_injector(
    corrupt: Callable[[Configuration, int], Configuration]
) -> FaultInjector:
    """Adapt a ``corrupt(configuration, seed)`` helper into an injector that
    uses the round index as its seed (distinct faults each time)."""

    def inject(configuration: Configuration, round_index: int) -> Configuration:
        return corrupt(configuration, round_index)

    return inject


def bit_flip_label_injector(flips: int = 1) -> LabelFaultInjector:
    """A memory-fault model: flip ``flips`` random bits in one node's label."""

    def inject(
        labels: Dict[Node, BitString],
        configuration: Configuration,
        round_index: int,
    ) -> Dict[Node, BitString]:
        rng = random.Random(round_index)
        nodes = configuration.graph.nodes
        victim = nodes[rng.randrange(len(nodes))]
        label = labels[victim]
        if label.length == 0:
            return labels
        value = label.value
        for _ in range(flips):
            value ^= 1 << rng.randrange(label.length)
        mutated = dict(labels)
        mutated[victim] = BitString(value, label.length)
        return mutated

    return inject
