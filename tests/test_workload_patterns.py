"""Fault-arrival workload patterns and parallel self-stabilization replicas.

The generators in :mod:`repro.graphs.workloads` (uniform-random, bursty,
hotspot) feed the self-stabilization loop's fault schedules; the properties
that matter are *determinism* (two processes materializing a schedule from
the same seed agree exactly — campaign cells shard across workers) and
*shape* (bursts are bursts, hotspots are hot).  The replica runner
(:func:`repro.simulation.self_stabilization.run_stabilization_replicas`)
must produce backend-independent results for the same reason the sharded
estimator does: replica seeds derive from the master seed by counter.
"""

import pytest

from repro.core.compiler import FingerprintCompiledRPLS
from repro.graphs.generators import spanning_tree_configuration
from repro.graphs.workloads import (
    bursty_fault_schedule,
    hotspot_injector,
    hotspot_label_injector,
    hotspot_victims,
    uniform_random_fault_schedule,
)
from repro.parallel import SerialExecutor
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.simulation.self_stabilization import (
    run_self_stabilization,
    run_stabilization_replicas,
    summarize_trace,
)

NODE_COUNT = 12


def _noop_injector(configuration, round_index):
    return configuration


class TestUniformRandomSchedule:
    def test_deterministic_and_in_range(self):
        a = uniform_random_fault_schedule(_noop_injector, 200, 0.15, seed=3)
        b = uniform_random_fault_schedule(_noop_injector, 200, 0.15, seed=3)
        assert sorted(a) == sorted(b)
        assert all(0 <= r < 200 for r in a)

    def test_rate_extremes(self):
        assert uniform_random_fault_schedule(_noop_injector, 50, 0.0) == {}
        assert sorted(uniform_random_fault_schedule(_noop_injector, 5, 1.0)) == [
            0, 1, 2, 3, 4,
        ]

    def test_rate_roughly_honoured(self):
        schedule = uniform_random_fault_schedule(_noop_injector, 2000, 0.25, seed=1)
        assert 0.18 < len(schedule) / 2000 < 0.32

    def test_start_offset_and_validation(self):
        schedule = uniform_random_fault_schedule(
            _noop_injector, 100, 0.5, seed=2, start=90
        )
        assert all(90 <= r < 100 for r in schedule)
        with pytest.raises(ValueError):
            uniform_random_fault_schedule(_noop_injector, 10, 1.5)


class TestBurstySchedule:
    def test_burst_structure_without_jitter(self):
        schedule = bursty_fault_schedule(_noop_injector, 30, 3, 10)
        assert sorted(schedule) == [0, 1, 2, 10, 11, 12, 20, 21, 22]

    def test_jitter_stays_bounded_and_deterministic(self):
        a = bursty_fault_schedule(_noop_injector, 100, 2, 20, jitter=5, seed=7)
        b = bursty_fault_schedule(_noop_injector, 100, 2, 20, jitter=5, seed=7)
        assert sorted(a) == sorted(b)
        for round_index in a:
            offset = round_index % 20
            assert offset <= 5 + 1  # burst start jittered by <= 5, length 2

    def test_truncated_at_horizon(self):
        schedule = bursty_fault_schedule(_noop_injector, 11, 3, 10)
        assert sorted(schedule) == [0, 1, 2, 10]

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_fault_schedule(_noop_injector, 10, 0, 5)
        with pytest.raises(ValueError):
            bursty_fault_schedule(_noop_injector, 10, 5, 3)
        with pytest.raises(ValueError):
            bursty_fault_schedule(_noop_injector, 10, 1, 5, jitter=-1)


class TestHotspot:
    def test_hot_subset_deterministic_and_sized(self):
        nodes = list(range(40))
        hot = hotspot_victims(nodes, 0.1, seed=5)
        assert hot == hotspot_victims(nodes, 0.1, seed=5)
        assert len(hot) == 4
        assert hotspot_victims(nodes, 0.001, seed=5)  # never empty

    def test_injector_skews_onto_hot_set(self):
        configuration = spanning_tree_configuration(20, 5, seed=1)
        victims = []

        def record_victim(config, victim, rng):
            victims.append(victim)
            return config

        inject = hotspot_injector(
            record_victim, hotspot_fraction=0.1, hotspot_weight=0.9, seed=4
        )
        for round_index in range(300):
            inject(configuration, round_index)
        hot = set(hotspot_victims(list(configuration.graph.nodes), 0.1, seed=4))
        hot_hits = sum(1 for victim in victims if victim in hot)
        assert hot_hits / len(victims) > 0.75  # ~0.9 expected

    def test_injector_is_deterministic_per_round(self):
        configuration = spanning_tree_configuration(16, 4, seed=1)
        picks = {}

        def record(config, victim, rng):
            picks[len(picks)] = victim
            return config

        inject = hotspot_injector(record, seed=9)
        inject(configuration, 3)
        first = picks[0]
        inject(configuration, 3)
        assert picks[1] == first

    def test_label_injector_flips_exactly_one_label(self):
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        configuration = spanning_tree_configuration(NODE_COUNT, 3, seed=1)
        labels = scheme.prover(configuration)
        inject = hotspot_label_injector(flips=1, seed=2)
        mutated = inject(labels, configuration, round_index=0)
        changed = [node for node in labels if labels[node] != mutated[node]]
        assert len(changed) == 1
        again = inject(labels, configuration, round_index=0)
        assert again == mutated  # pure function of (seed, round)
        with pytest.raises(ValueError):
            hotspot_label_injector(flips=0)


class TestSchedulesDriveTheLoop:
    def _workload(self):
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        configuration = spanning_tree_configuration(NODE_COUNT, 3, seed=1)

        def recovery(current):
            fresh = spanning_tree_configuration(NODE_COUNT, 3, seed=1)
            return fresh, scheme.prover(fresh)

        return scheme, configuration, recovery

    def test_bursty_label_faults_detected(self):
        scheme, configuration, recovery = self._workload()
        trace = run_self_stabilization(
            scheme,
            configuration,
            recovery,
            fault_rounds={},
            label_fault_rounds=bursty_fault_schedule(
                hotspot_label_injector(seed=1), 40, 2, 10, seed=1
            ),
            total_rounds=40,
            rng_mode="vector",
        )
        assert trace.availability == 1.0  # label faults keep the output legal
        assert trace.detection_latencies  # ...but the checks catch them
        summary = summarize_trace(trace, run_index=0, seed=0)
        assert summary.detections == len(trace.detection_latencies)
        assert summary.rounds == 40


def _replica_setup(run_index, run_seed):
    """Module-level so the process backend can import it in workers."""
    scheme = FingerprintCompiledRPLS(SpanningTreePLS())
    configuration = spanning_tree_configuration(NODE_COUNT, 3, seed=1)

    def recovery(current):
        fresh = spanning_tree_configuration(NODE_COUNT, 3, seed=1)
        return fresh, scheme.prover(fresh)

    return dict(
        scheme=scheme,
        configuration=configuration,
        recovery=recovery,
        fault_rounds={},
        label_fault_rounds=bursty_fault_schedule(
            hotspot_label_injector(seed=run_index), 30, 2, 10, seed=run_index
        ),
        total_rounds=30,
        rng_mode="vector",
    )


class TestStabilizationReplicas:
    def test_serial_name_and_instance_agree(self):
        serial = run_stabilization_replicas(_replica_setup, 4, seed=3)
        instance = run_stabilization_replicas(
            _replica_setup, 4, seed=3, executor=SerialExecutor()
        )
        assert serial == instance
        assert [summary.run_index for summary in serial] == [0, 1, 2, 3]
        assert len({summary.seed for summary in serial}) == 4

    @pytest.mark.parallel_proc
    def test_process_backend_agrees(self):
        serial = run_stabilization_replicas(_replica_setup, 3, seed=3)
        processed = run_stabilization_replicas(
            _replica_setup, 3, seed=3, executor="process", workers=2
        )
        assert serial == processed

    def test_validation(self):
        with pytest.raises(ValueError):
            run_stabilization_replicas(_replica_setup, 0)
