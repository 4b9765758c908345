"""Picklable plan descriptions: what crosses the process boundary.

A compiled :class:`~repro.engine.plan.VerificationPlan` is exactly the thing
you do *not* want to pickle to a worker process: it holds parsed hook
contexts, memoized numpy kernel state, and (by design) aliases into the
configuration it was built from — serializing all of that per shard would
cost more than it saves, and scheme instances carry no pickling contract at
all.  The sharded executor ships a :class:`PlanSpec` instead: a
module-qualified *factory reference* plus primitive arguments, from which
each worker rebuilds the scheme/configuration pair locally and compiles (or,
after the first shard, cache-hits) its own plan.

Two cache layers make re-resolution cheap:

- a per-process **workload memo** keyed by the spec's value keeps the
  factory's ``(scheme, configuration, labels)`` result alive, so the scheme
  *instance* is stable within a worker — which is what lets the second
  layer hit, since :class:`~repro.engine.cache.PlanCache` keys schemes by
  identity;
- the per-process :class:`~repro.engine.cache.PlanCache` itself, shared by
  every shard the worker executes, holding the compiled plans.

Factories must be module-level callables (importable by name from both the
parent and the workers) returning either ``(scheme, configuration)`` or
``(scheme, configuration, labels)``; with two elements the honest prover
labels are used.  Determinism contract: a factory called twice with the same
arguments must build value-identical workloads (same graph wiring, states,
and labels), so a spec resolves to decision-identical plans in every
process.  Every generator in :mod:`repro.graphs` satisfies this by taking
explicit seeds.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.engine.cache import PlanCache
from repro.engine.plan import VerificationPlan, check_rng_mode

# Per-process resolution state (see module docstring).  Deliberately
# process-global: with the default fork start method workers inherit a
# *copy*, and with spawn they start empty — either way each process owns an
# independent memo, which is the point.
_WORKLOAD_MEMO: Dict[Tuple, Tuple] = {}
_PLAN_CACHE = PlanCache(maxsize=32)


def _factory_path(factory: Callable) -> str:
    """The ``module:qualname`` reference of a module-level callable."""
    path = f"{factory.__module__}:{factory.__qualname__}"
    try:
        resolved = resolve_factory(path)
    except (ImportError, AttributeError):
        resolved = None
    if resolved is not factory:
        raise ValueError(
            f"factory {factory!r} is not importable as {path!r} — "
            "sharded specs need module-level callables"
        )
    return path


def resolve_factory(path: str) -> Callable:
    """Import the callable a ``module:qualname`` reference names."""
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed factory reference {path!r}")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"factory reference {path!r} resolves to a non-callable")
    return target


@dataclass(frozen=True)
class PlanSpec:
    """A value-semantic, picklable recipe for one compiled plan.

    ``factory`` is a ``module:qualname`` string; ``args``/``kwargs`` must be
    hashable primitives (they key the worker-side memo and appear verbatim
    in campaign records).  ``randomness`` and ``rng_mode`` complete the plan
    identity, exactly as they do in :class:`~repro.engine.cache.PlanCache`
    keys.  An unknown ``rng_mode`` raises :class:`ValueError` here, in the
    parent, rather than at :meth:`resolve` in a worker.
    """

    factory: str
    args: Tuple = ()
    kwargs: Tuple[Tuple[str, object], ...] = ()
    randomness: str = "edge"
    rng_mode: str = "compat"

    def __post_init__(self):
        check_rng_mode(self.rng_mode)

    @classmethod
    def of(
        cls,
        factory: Union[str, Callable],
        *args,
        randomness: str = "edge",
        rng_mode: str = "compat",
        **kwargs,
    ) -> "PlanSpec":
        """Build a spec from a callable (or reference) plus its arguments.

        >>> PlanSpec.of("repro.parallel.factories:compiled_spanning_tree",
        ...             node_count=16).factory
        'repro.parallel.factories:compiled_spanning_tree'
        """
        if callable(factory):
            factory = _factory_path(factory)
        else:
            resolve_factory(factory)  # fail fast on typos, in the parent
        return cls(
            factory=factory,
            args=tuple(args),
            kwargs=tuple(sorted(kwargs.items())),
            randomness=randomness,
            rng_mode=rng_mode,
        )

    def key(self) -> Tuple:
        """The hashable value identity of the spec (memo / resume key)."""
        return (self.factory, self.args, self.kwargs, self.randomness, self.rng_mode)

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly rendering for campaign records."""
        return {
            "factory": self.factory,
            "args": list(self.args),
            "kwargs": dict(self.kwargs),
            "randomness": self.randomness,
            "rng_mode": self.rng_mode,
        }

    def build_workload(self) -> Tuple:
        """Call the factory; returns ``(scheme, configuration, labels)``."""
        factory = resolve_factory(self.factory)
        result = factory(*self.args, **dict(self.kwargs))
        if not isinstance(result, tuple) or len(result) not in (2, 3):
            raise TypeError(
                f"factory {self.factory!r} must return (scheme, configuration) "
                f"or (scheme, configuration, labels), got {type(result).__name__}"
            )
        scheme, configuration = result[0], result[1]
        labels = result[2] if len(result) == 3 else scheme.prover(configuration)
        return scheme, configuration, labels

    def resolve(self, cache: Optional[PlanCache] = None) -> VerificationPlan:
        """The compiled plan for this spec, via the per-process caches.

        The workload memo pins the factory output (stable scheme identity);
        ``cache`` (default: the process-global plan cache) then serves the
        compiled plan.  Repeated shards of one spec in one worker pay a
        single compile.
        """
        memo_key = (self.factory, self.args, self.kwargs)
        workload = _WORKLOAD_MEMO.get(memo_key)
        if workload is None:
            workload = self.build_workload()
            _WORKLOAD_MEMO[memo_key] = workload
        scheme, configuration, labels = workload
        plans = cache if cache is not None else _PLAN_CACHE
        return plans.get(
            scheme,
            configuration,
            labels=labels,
            randomness=self.randomness,
            rng_mode=self.rng_mode,
        )


def clear_process_caches() -> None:
    """Drop the per-process workload memo and plan cache (test isolation)."""
    _WORKLOAD_MEMO.clear()
    _PLAN_CACHE.clear()


def process_cache_stats() -> Dict[str, int]:
    """Telemetry for the per-process resolution caches."""
    stats = _PLAN_CACHE.stats()
    stats["workloads"] = len(_WORKLOAD_MEMO)
    return stats
