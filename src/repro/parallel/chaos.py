"""Deterministic chaos injection for the sharded executor stack.

Robustness claims are only as good as the faults they were tested against,
so this module makes fault injection a *first-class, seeded, deterministic*
harness rather than a pile of ad-hoc monkeypatches:

- :class:`FaultPolicy` — a pure, seeded decision function: whether shard
  attempt ``(shard_index, attempt)`` gets a fault, and which kind, is a
  SplitMix64 mix of the policy seed — the same policy always produces the
  same fault schedule, which the tests assert directly.
- :class:`ChaosExecutor` — wraps any executor backend; each dispatched
  shard payload is (deterministically) assigned a fault instruction that a
  worker-side trampoline executes before/around the real shard body.  The
  injected schedule is recorded parent-side in ``injected``.
- :class:`ChaosSink` — wraps a campaign sink with deterministic write
  failures, for exercising the campaign degradation paths.

Fault kinds
-----------

``crash``
    The worker raises :class:`ChaosWorkerCrash` before running its shard —
    the garden-variety worker exception.
``kill``
    The worker process SIGKILLs itself (process backend; in-process
    backends degrade it to a crash because killing the host process would
    take the test suite with it).  This is the fault that breaks a
    ``ProcessPoolExecutor`` outright and exercises
    :meth:`~repro.parallel.executors.ProcessExecutor.repair`.
``hang``
    The worker stops making progress but keeps polling ``should_stop`` —
    a *cooperative* hang, reclaimable on every backend (an in-process
    shard runs on a thread, which CPython cannot kill; see
    :mod:`repro.parallel.supervision`).  A hung
    worker raises :class:`ChaosWorkerHang` once stopped, or after
    ``hang_limit`` as a backstop against leaking workers in tests.
``slow``
    The worker sleeps ``slow_delay`` seconds before running normally —
    stragglers, for exercising deadlines without failures.
``torn``
    The worker emits a torn/garbage progress message before running
    normally: a regressive partial through the publish channel and (on the
    process backend) a malformed item straight onto the progress queue —
    the router and the supervisor must shrug both off.

All rates are per *attempt*, so a retried shard redraws its fate — a crash
schedule with rate < 1 terminates with probability 1 under retry, and the
supervision tests pick seeds where it terminates within the retry budget.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.seeding import splitmix64
from repro.obs.runtime import get_metrics, record_event
from repro.parallel.shards import Shard

_FAULT_KINDS = ("crash", "kill", "hang", "slow", "torn")
_MASK64 = (1 << 64) - 1


class ChaosWorkerCrash(RuntimeError):
    """The injected worker exception."""


class ChaosWorkerHang(RuntimeError):
    """Raised by a cooperatively hung worker once it is told to stop."""


class ChaosSinkError(RuntimeError):
    """The injected sink write failure."""


@dataclass(frozen=True)
class FaultPolicy:
    """A seeded, pure fault schedule over ``(shard_index, attempt)``.

    Rates are probabilities in ``[0, 1]``; their sum must not exceed 1
    (the remainder is the no-fault outcome).  ``decide`` is a pure
    function — no internal state, no wall clock — so the schedule is
    reproducible from the seed alone.
    """

    seed: int = 0
    crash_rate: float = 0.0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    torn_rate: float = 0.0
    sink_error_rate: float = 0.0
    slow_delay: float = 0.02
    hang_limit: float = 10.0

    def __post_init__(self):
        rates = self._rates()
        for kind, rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        if sum(rate for _, rate in rates) > 1.0 + 1e-9:
            raise ValueError("fault rates must sum to at most 1")
        if not 0.0 <= self.sink_error_rate <= 1.0:
            raise ValueError("sink_error_rate must be in [0, 1]")
        if self.slow_delay < 0 or self.hang_limit <= 0:
            raise ValueError("slow_delay must be >= 0 and hang_limit > 0")

    def _rates(self) -> Tuple[Tuple[str, float], ...]:
        return (
            ("crash", self.crash_rate),
            ("kill", self.kill_rate),
            ("hang", self.hang_rate),
            ("slow", self.slow_rate),
            ("torn", self.torn_rate),
        )

    @staticmethod
    def _uniform(*words: int) -> float:
        mixed = 0
        for word in words:
            mixed = splitmix64((mixed ^ word) & _MASK64)
        return mixed / float(1 << 64)

    def decide(self, shard_index: int, attempt: int) -> Optional[str]:
        """The fault (or ``None``) for one shard attempt — pure and seeded.

        >>> policy = FaultPolicy(seed=1, crash_rate=1.0)
        >>> policy.decide(0, 0)
        'crash'
        >>> FaultPolicy(seed=1).decide(0, 0) is None
        True
        """
        draw = self._uniform(self.seed, 0x5348_4152_4421 + shard_index, attempt)
        cumulative = 0.0
        for kind, rate in self._rates():
            cumulative += rate
            if rate > 0.0 and draw < cumulative:
                return kind
        return None

    def decide_sink(self, write_index: int) -> bool:
        """Whether sink write number ``write_index`` (0-based) fails."""
        if self.sink_error_rate <= 0.0:
            return False
        draw = self._uniform(self.seed, 0x53_494E_4B21, write_index)
        return draw < self.sink_error_rate

    @classmethod
    def parse(cls, spec: str) -> "FaultPolicy":
        """Build a policy from a ``--chaos-spec`` string.

        Comma-separated ``key=value`` pairs; keys are ``seed``, the rate
        shorthands ``crash``/``kill``/``hang``/``slow``/``torn``/``sink``,
        and the tunables ``delay`` (slow_delay) / ``hang-limit``.

        >>> FaultPolicy.parse("seed=7,crash=0.25,slow=0.5,delay=0.01")
        ... # doctest: +ELLIPSIS
        FaultPolicy(seed=7, crash_rate=0.25, ...)
        """
        aliases = {
            "crash": "crash_rate",
            "kill": "kill_rate",
            "hang": "hang_rate",
            "slow": "slow_rate",
            "torn": "torn_rate",
            "sink": "sink_error_rate",
            "delay": "slow_delay",
            "hang-limit": "hang_limit",
            "hang_limit": "hang_limit",
        }
        kwargs: Dict[str, object] = {}
        for pair in spec.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(f"chaos spec expects key=value pairs, got {pair!r}")
            key = key.strip()
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key in aliases:
                kwargs[aliases[key]] = float(value)
            else:
                raise ValueError(
                    f"unknown chaos spec key {key!r} (choose from seed, "
                    f"{', '.join(sorted(set(aliases) - {'hang_limit'}))})"
                )
        return cls(**kwargs)


def _find_shard(payload) -> Optional[Shard]:
    """The :class:`Shard` inside an executor payload, if any."""
    if isinstance(payload, tuple):
        for element in payload:
            if isinstance(element, Shard):
                return element
    return None


def _chaos_body(wrapped, should_stop, publish=None):
    """Worker-side trampoline: execute the fault, then the real shard body.

    Module-level (and built from picklable parts) so it crosses the process
    boundary exactly like the real shard body does.
    """
    fn, kind, params, payload = wrapped
    if kind == "crash":
        raise ChaosWorkerCrash(f"injected crash (shard {params.get('shard_index')})")
    if kind == "kill":
        if params.get("in_process"):
            # Killing the host process would take the caller with it.
            raise ChaosWorkerCrash(
                f"injected kill degraded to crash in-process "
                f"(shard {params.get('shard_index')})"
            )
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - process dies
    if kind == "hang":
        deadline = time.monotonic() + params.get("hang_limit", 10.0)
        while not should_stop() and time.monotonic() < deadline:
            time.sleep(0.005)
        raise ChaosWorkerHang(f"injected hang (shard {params.get('shard_index')})")
    if kind == "slow":
        time.sleep(params.get("slow_delay", 0.02))
    if kind == "torn":
        shard_index = params.get("shard_index", 0)
        if publish is not None:
            # A regressive partial: cumulative trials going backwards.  It
            # reaches the supervisor as a heartbeat, never the counts.
            publish(shard_index, 0, -1)
        from repro.parallel import executors as _executors

        if _executors._WORKER_QUEUE is not None:
            # A malformed item straight onto the progress queue — the
            # router's drain loop must count and drop it, not die.
            _executors._WORKER_QUEUE.put(("torn-progress-message",))
    return fn(payload, should_stop, publish)


class ChaosExecutor:
    """Wrap an executor so dispatched shards suffer a seeded fault schedule.

    Fault decisions happen *parent-side* at dispatch time (pure in
    ``(shard_index, attempt)``), so the injected schedule is recorded in
    ``injected`` as ``(shard_index, attempt, kind)`` triples and is
    directly assertable — the determinism tests run the same policy twice
    and compare schedules.  Attempt numbers count this wrapper's dispatches
    per shard index, which under :class:`~repro.parallel.supervision.ShardSupervisor`
    coincide with the supervisor's attempt numbers.

    Payloads without a :class:`Shard` (or non-shard runs) pass through
    unfaulted.  Everything else — stop tokens, streaming, ``repair()`` —
    delegates to the wrapped executor.
    """

    def __init__(self, inner, policy: FaultPolicy):
        self.inner = inner
        self.policy = policy
        self.injected: List[Tuple[int, int, str]] = []
        self._attempts: Dict[int, int] = {}
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"chaos+{self.inner.name}"

    @property
    def workers(self) -> int:
        return self.inner.workers

    @property
    def in_process(self) -> bool:
        return getattr(self.inner, "in_process", True)

    def start_run(self, fn, payloads, on_progress=None):
        wrapped = []
        in_process = self.in_process
        for payload in payloads:
            shard = _find_shard(payload)
            kind = None
            params: Dict[str, object] = {"in_process": in_process}
            if shard is not None:
                with self._lock:
                    attempt = self._attempts.get(shard.index, 0)
                    self._attempts[shard.index] = attempt + 1
                kind = self.policy.decide(shard.index, attempt)
                params.update(
                    shard_index=shard.index,
                    slow_delay=self.policy.slow_delay,
                    hang_limit=self.policy.hang_limit,
                )
                if kind is not None:
                    with self._lock:
                        self.injected.append((shard.index, attempt, kind))
                    # Parent-side audit trail: every injected fault lands in
                    # the trace (and metrics), so a chaos run is auditable
                    # from its flight record alone.
                    record_event(
                        "chaos.inject",
                        {"fault": kind, "shard": shard.index, "attempt": attempt},
                    )
                    get_metrics().counter(f"chaos.injected.{kind}").inc()
            wrapped.append((fn, kind, params, payload))
        return self.inner.start_run(_chaos_body, wrapped, on_progress=on_progress)

    def progress_stats(self):
        stats = getattr(self.inner, "progress_stats", None)
        return stats() if stats is not None else None

    def repair(self) -> None:
        repair = getattr(self.inner, "repair", None)
        if repair is None:
            raise AttributeError(f"{self.inner.name} executor has no repair()")
        repair()

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "ChaosExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ChaosSink:
    """Wrap a campaign sink with deterministic write failures.

    Write number ``n`` (0-based, counted across the sink's lifetime) fails
    with :class:`ChaosSinkError` iff ``policy.decide_sink(n)`` — before the
    record reaches the wrapped sink, modelling a full disk / closed pipe at
    the worst moment.  ``completed`` delegates, so resume semantics are the
    wrapped sink's.
    """

    def __init__(self, inner, policy: FaultPolicy):
        self.inner = inner
        self.policy = policy
        self.writes = 0
        self.failed_writes = 0
        self._lock = threading.Lock()

    def completed(self, cell) -> bool:
        return self.inner.completed(cell)

    def write(self, record) -> None:
        with self._lock:
            index = self.writes
            self.writes += 1
            fail = self.policy.decide_sink(index)
            if fail:
                self.failed_writes += 1
        if fail:
            raise ChaosSinkError(f"injected sink failure on write {index}")
        self.inner.write(record)

    @property
    def records(self):
        return self.inner.records
