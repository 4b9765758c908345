"""The batched verification engine — repeated verification, made cheap.

Why this package exists
-----------------------

The paper's randomized schemes carry *statistical* guarantees, so nearly
every experiment in this repository is a Monte-Carlo loop: run the same
``(scheme, configuration)`` verification round hundreds of times and count
acceptances.  The one-shot engine
(:func:`repro.core.verifier.verify_randomized`) is the faithful reference
implementation of one round, but it rebuilds everything from scratch per
call — prover labels, :class:`SchemeParams` (which re-encodes every node
state), per-node views, the message wiring, and each scheme's label parsing.
This package hoists all of that out of the trial loop.

When to use what
----------------

- ``verify_randomized(scheme, config, seed)`` — one round, full
  :class:`~repro.core.verifier.RandomizedRun` introspection (per-node
  outputs, certificates, bit accounting).  Use for single verifications,
  debugging, and anywhere certificates themselves are inspected.
- ``estimate_acceptance(scheme, config, trials, seed)`` — the legacy
  per-trial loop in :mod:`repro.core.verifier`.  It is the *reference
  oracle*: simple, obviously faithful, and kept unoptimized on purpose so
  the engine can be tested against it decision-for-decision.
- ``VerificationPlan.compile(...)`` + ``estimate_acceptance_fast(plan, ...)``
  — repeated verification of one ``(scheme, configuration, labels)`` pair.
  Same probability space and per-trial decisions as the reference oracle
  (default modes), an order of magnitude more trials per second; see
  ``BENCH_engine.json`` at the repository root for the measured trajectory.
  Schemes with engine hooks (the fingerprint compiler, ``DirectUnifRPLS``,
  ``BoostedRPLS`` over either, the shared-coins compiler) additionally
  parse labels once per plan instead of once per certificate call.

Knobs
-----

- ``rng_mode="compat"`` (default) reproduces the legacy string-seeded RNG
  streams bit-for-bit, on the scalar path; ``rng_mode="vector"`` draws
  through the counter-based SplitMix64 stream of :mod:`repro.core.seeding`
  — statistically equivalent, but a different point of the probability
  space for the same seed — whose query points batch as one numpy array op
  per Monte-Carlo chunk (scalar and vectorized executions bit-identical per
  trial; hook-path schemes only).  A plan compiled with ``rng_mode=...``
  makes that mode its default for every run.
- ``stop_halfwidth=...`` enables the confidence-interval early exit of
  :func:`estimate_acceptance_fast`, checked after every trial.  Trials run
  in chunks of ``montecarlo.DEFAULT_CHUNK`` on the kernels and
  ``montecarlo.SCALAR_CHUNK`` on the scalar paths; chunk size only affects
  throughput, so it is a constant, not a knob.
- ``vectorize=...`` selects the numpy trial-chunk kernel
  (:mod:`repro.engine.kernels`): fingerprint-certificate schemes run whole
  Monte-Carlo chunks as lookups in per-plan agree rows (one draw, one
  gather, one ``all``), decision-identical to the scalar path.  Auto-enabled
  under ``rng_mode="vector"`` when supported; compat never vectorizes.
- :class:`PlanCache` memoizes compiled plans by input *value* for drivers
  that revisit the same ``(scheme, configuration, labels)`` states — e.g.
  the self-stabilization loop's fault/recovery cycle.
- Plans with an unparseable hook label carry a compile-time verdict
  (``plan.constant_verdict is False``); estimators return the degenerate
  0.0 estimate without running trials.
- ``first_trial=...`` / ``should_stop=...`` are the shard hooks of the
  parallel subsystem: :mod:`repro.parallel` partitions a trial budget into
  counter ranges across serial/process backends, with the merged
  estimate exactly equal to the single-process one.
- :mod:`repro.engine.specs` is the declarative scheme registry: every
  scheme in the zoo as a :class:`VerdictSpec` (label parser + kernel
  family + parameters), resolvable to a guaranteed-fast-path plan via
  :func:`spec_plan`.  The differential identity matrix
  (``tests/test_verdict_specs.py``) is generated from this registry, so
  registered schemes stay bit-identical to the legacy oracle by
  construction and unregistered ones fail tier-1.

See ``docs/engine.md`` for the full architecture and hook contract, and
``docs/parallel.md`` for multi-core sharding and experiment campaigns.
"""

from repro.engine.cache import PlanCache
from repro.engine.montecarlo import estimate_acceptance_batched, estimate_acceptance_fast
from repro.engine.plan import VerificationPlan
from repro.engine.specs import (
    FAMILIES,
    UnknownSchemeError,
    VerdictSpec,
    build_scheme,
    clean_configuration,
    fault_configuration,
    get_spec,
    iter_specs,
    register,
    scheme_for,
    spec_names,
    spec_plan,
)

__all__ = [
    "FAMILIES",
    "PlanCache",
    "UnknownSchemeError",
    "VerdictSpec",
    "VerificationPlan",
    "build_scheme",
    "clean_configuration",
    "estimate_acceptance_batched",
    "estimate_acceptance_fast",
    "fault_configuration",
    "get_spec",
    "iter_specs",
    "register",
    "scheme_for",
    "spec_names",
    "spec_plan",
]
