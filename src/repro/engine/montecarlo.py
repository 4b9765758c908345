"""Batched Monte-Carlo acceptance estimation over a compiled plan.

:func:`estimate_acceptance_fast` is the drop-in high-throughput counterpart
of :func:`repro.core.verifier.estimate_acceptance`: same probability space,
same per-trial seed derivation (the SplitMix64 mix of
:mod:`repro.core.seeding`), same estimate — it just runs the trials over a
:class:`~repro.engine.plan.VerificationPlan` in chunks, with an optional
confidence-interval early exit (exact to the trial) and, where the scheme
supports it, the vectorized numpy trial-chunk kernel of
:mod:`repro.engine.kernels`.

Bit-identical vs. statistically equivalent
------------------------------------------

- **Bit-identical** (default ``rng_mode="compat"``):
  trial ``i`` runs with seed ``derive_trial_seed(seed, i)`` in both paths,
  and ``plan.run_trial`` reproduces the legacy RNG streams exactly, so the
  two paths agree on every individual accept/reject decision — the property
  tests assert this per trial, not just on the final counts.  Compat runs
  the scalar path only.
- **Statistically equivalent, fully batched** (``rng_mode="vector"``): the
  counter-based SplitMix64 stream of :mod:`repro.core.seeding` — another
  point of the same probability space, chosen so the *draws themselves*
  (not just the arithmetic) evaluate as one numpy array op per chunk.
  Every distributional statement (acceptance probability, soundness error)
  is unchanged, but individual decisions differ from compat mode.  The
  scalar :class:`~repro.core.seeding.CounterRng` path and the numpy kernel
  are bit-identical per trial; the cross-mode consistency suite pins both
  modes to the same acceptance probability within Wilson tolerance.

Wilson early exit
-----------------

When ``stop_halfwidth`` is given, the estimator stops at the first trial
``n >= min_trials`` whose Wilson score interval is at most ``2 *
stop_halfwidth`` wide.  The rule is checked per trial: the kernel path
scans a chunk's prefix counts with
:func:`~repro.simulation.metrics.wilson_widths` (bit-identical to
:func:`~repro.simulation.metrics.wilson_interval`), the scalar paths check
after each trial.  Chunk size therefore only affects throughput.  A
sharded run stops on the same trial: shard 0 runs this rule with the
run's ``prior`` counts, and the parent scans later shards' per-trial
verdicts with it (:mod:`repro.parallel.executors`).  Two guarantees make
this safe to use in experiments:

- early exit changes *which prefix* of the deterministic trial sequence is
  consumed, never any individual decision — re-running with ``trials`` set
  to the reported count reproduces the estimate exactly;
- the Wilson interval is valid at the extremes (0 and 1 acceptance), where
  the one-sided schemes in this repository actually operate, so the stop
  rule cannot fire on a degenerate normal-approximation interval.

Constant-False short-circuit
----------------------------

A plan whose hook contexts contain an unparseable label has a compile-time
verdict (``plan.constant_verdict is False``): the node that cannot parse its
own label rejects every trial.  The estimator returns the exact degenerate
estimate (``0.0`` over the requested trials, or over the prefix the Wilson
stop keeps) without running any — the same decisions the trial loop would
have produced, minus the loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.bitstrings import BitString
from repro.core.configuration import Configuration
from repro.core.scheme import RandomizedScheme
from repro.core.seeding import derive_trial_seed_array, trial_seed_slice
from repro.core.verifier import RandomnessMode
from repro.engine.plan import RngMode, VerificationPlan, check_kernel_mode
from repro.graphs.port_graph import Node

#: Trials per kernel (and constant-verdict) chunk: a kernel chunk costs
#: about 0.1 ms of fixed overhead plus 20-70 ns per trial, and the per-trial
#: cost stops falling near 3000.  Chunk size changes no verdict, count or
#: stop, only throughput and how often the hooks run; the estimator reads
#: both sizes at call time.
DEFAULT_CHUNK = 4096
#: Trials per scalar chunk, hence between ``should_stop`` polls and
#: ``progress`` updates.  A scalar trial costs about 1000 times a kernel
#: one (0.9 ms on the noisy plan), so a 4096-trial scalar chunk would go
#: seconds without a heartbeat.
SCALAR_CHUNK = 64
#: Trials before the Wilson stop may fire, in every estimator.
MIN_STOP_TRIALS = 128


def _vectorizes(plan: VerificationPlan, rng_mode: RngMode, vectorize: Optional[bool]) -> bool:
    """Whether an estimate runs ``plan``'s numpy kernel — the one rule.

    ``None`` takes the kernel whenever the plan has one and the mode is
    ``"vector"``; ``True`` requires both (raising :class:`ValueError`, so
    a caller that must not silently fall back learns before any trial
    runs); ``False`` never takes it.
    """
    if vectorize is None:
        return rng_mode == "vector" and plan.vector_ready
    if vectorize:
        check_kernel_mode(rng_mode)
        if not plan.vector_ready and plan.constant_verdict is None:
            raise ValueError(
                "vectorize=True but the plan has no vectorized kernel "
                "(numpy missing, or the scheme has no engine_vector_spec hook)"
            )
    return vectorize


def estimate_acceptance_fast(
    plan: VerificationPlan,
    trials: int,
    seed: int = 0,
    rng_mode: Optional[RngMode] = None,
    stop_halfwidth: Optional[float] = None,
    min_trials: int = MIN_STOP_TRIALS,
    vectorize: Optional[bool] = None,
    first_trial: int = 0,
    should_stop: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    on_verdicts: Optional[Callable[[Sequence[bool]], None]] = None,
    prior: Tuple[int, int] = (0, 0),
) -> "AcceptanceEstimate":
    """Estimate ``Pr[verifier accepts]`` by running ``trials`` plan rounds.

    Kernel and constant-verdict chunks run :data:`DEFAULT_CHUNK` trials,
    scalar chunks :data:`SCALAR_CHUNK` (the last one truncated to the
    budget).  When ``stop_halfwidth`` is given (it must lie in the open
    interval ``(0, 0.5)``), the estimator stops at the first trial ``n >=
    min_trials`` whose Wilson score interval is at most ``2 *
    stop_halfwidth`` wide and reports exactly those ``n`` trials, so the
    stopped estimate is the same at every chunk size.  Neither chunking nor
    early exit changes a trial's seed or decision, only which prefix of the
    trial sequence is used; chunk size also sets how often ``should_stop``
    and ``progress`` run.

    ``rng_mode=None`` (default) uses the plan's compiled default mode.

    ``vectorize`` selects the numpy trial-chunk kernel: ``None`` (default)
    uses it automatically in ``rng_mode="vector"`` whenever the plan
    supports it (``plan.vector_ready``), ``True`` requires it (raising
    :class:`ValueError` in compat mode or on unsupported plans — useful in
    tests and benchmarks that must not silently fall back), ``False``
    forces the scalar path.  The kernel never changes decisions, only
    throughput.

    The shard hooks (see :mod:`repro.parallel`):

    - ``first_trial`` offsets the trial counter — the call covers the
      counter range ``[first_trial, first_trial + trials)``, deriving
      exactly the seeds the unsharded run derives for those positions, so a
      partition of ``[0, N)`` across calls reproduces the single-call run
      verdict for verdict (and therefore count for count once merged);
    - ``should_stop`` is polled before every chunk; when it returns true
      the call returns the partial estimate of the chunks already run
      (possibly the empty zero-trial estimate).  Like the Wilson exit, a
      cooperative stop changes *which prefix* of the shard's deterministic
      trial sequence is consumed, never any individual decision;
    - ``on_verdicts`` receives, after every chunk, the per-trial verdicts
      the chunk counted, in trial order (a bool array on the kernel and
      constant paths, a list on the scalar ones).  Concatenated, they are
      the verdicts of the reported prefix — what a sharded run scans for
      the trial-exact stop;
    - ``prior`` is the ``(accepted, trials)`` of the counters before
      ``first_trial``: the stop rule applies to ``prior`` plus this call's
      counts, so a shard that follows them stops on the trial the whole
      run would.  A ``prior`` that already satisfies the rule runs no
      trial.  The returned estimate counts this call's trials only.

    ``progress`` is the streaming channel (see :mod:`repro.parallel.progress`):
    after every chunk it receives the *cumulative* ``(accepted, done)``
    counts of this call so far.  The channel is observational only: it
    never changes which trials run or what they decide, so a run with
    ``progress`` set is count-identical to the same run without it.  The
    supervisor of :mod:`repro.parallel.supervision` reads these updates as
    the shard's heartbeats.

    Plans with a compile-time verdict (``plan.constant_verdict``) run no
    trials: without a stop or ``on_verdicts`` they return the exact
    degenerate estimate over the requested trials (one ``progress`` update
    reports it); otherwise they walk the chunk loop on constant verdict
    arrays, so the stop keeps the same prefix and the hooks see the same
    chunks as for any other plan.
    """
    from repro.simulation.metrics import AcceptanceEstimate, wilson_stop_holds

    if trials <= 0:
        raise ValueError("trials must be positive")
    if first_trial < 0:
        raise ValueError("first_trial must be non-negative")
    check_prior(prior)
    if stop_halfwidth is not None:
        validate_halfwidth(stop_halfwidth, "stop_halfwidth")
    if rng_mode is None:
        rng_mode = plan.rng_mode
    use_vector = _vectorizes(plan, rng_mode, vectorize)
    constant = plan.constant_verdict
    prior_accepted, prior_trials = prior

    if constant is not None and stop_halfwidth is None and on_verdicts is None:
        accepted = trials if constant else 0
        if progress is not None:
            progress(accepted, trials)
        return AcceptanceEstimate(accepted=accepted, trials=trials)

    stop_width = None if stop_halfwidth is None else 2 * stop_halfwidth
    batched = use_vector or constant is not None
    size = DEFAULT_CHUNK if batched else SCALAR_CHUNK
    accepted = 0
    done = 0
    stopped = stop_halfwidth is not None and wilson_stop_holds(
        prior_accepted, prior_trials, stop_halfwidth, min_trials
    )
    while done < trials and not stopped:
        if should_stop is not None and should_stop():
            break
        # The final chunk is exactly the remaining trials, so the reported
        # count is the prefix actually consumed (pinned by the chunk-tail
        # regression tests).
        chunk = min(size, trials - done)
        start = first_trial + done
        if batched:
            if constant is not None:
                verdicts = _constant_verdicts(constant, chunk)
            else:
                verdicts = plan.trial_verdicts(
                    derive_trial_seed_array(seed, start, start + chunk), rng_mode, vectorize=True
                )
            kept, ran, stopped = _kernel_prefix(
                verdicts, prior_accepted + accepted, prior_trials + done, stop_width, min_trials
            )
            accepted += kept
            done += ran
            counted = verdicts[:ran]
        else:
            counted = []
            for verdict in plan.trial_verdicts(trial_seed_slice(seed, start, start + chunk), rng_mode):
                counted.append(verdict)
                accepted += verdict
                done += 1
                if stop_halfwidth is not None and wilson_stop_holds(
                    prior_accepted + accepted, prior_trials + done, stop_halfwidth, min_trials
                ):
                    stopped = True
                    break
        if on_verdicts is not None:
            on_verdicts(counted)
        if progress is not None:
            progress(accepted, done)
    return AcceptanceEstimate(accepted=accepted, trials=done)


def check_prior(prior: Tuple[int, int]) -> None:
    """Reject ``(accepted, trials)`` counts that no run can produce."""
    accepted, trials = prior
    if not 0 <= accepted <= trials:
        raise ValueError("prior must be valid (accepted, trials) counts")


def validate_halfwidth(value: float, name: str = "halfwidth") -> float:
    """Reject stop/target halfwidths outside the meaningful open interval.

    A halfwidth is half the width of a confidence interval on a proportion:
    ``<= 0`` (or ``nan``) can never be satisfied and ``>= 0.5`` is satisfied
    by the empty estimate — both are configuration mistakes, not stop rules.
    """
    if not (0 < value < 0.5):
        raise ValueError(f"{name} must be in the open interval (0, 0.5), got {value}")
    return value


def _constant_verdicts(verdict: bool, count: int):
    import numpy as np

    return np.full(count, bool(verdict))


def _kernel_prefix(verdicts, accepted: int, done: int, stop_width, min_trials: int):
    """``(accepts, trials, stopped)`` of the part of a verdict array to count.

    ``verdicts`` follows ``done`` trials with ``accepted`` accepts: a
    kernel chunk here, a window of a later shard's verdicts in the sharded
    stop's scan (:mod:`repro.parallel.executors`).

    The whole chunk, unless some prefix ends at a trial ``n >= min_trials``
    whose Wilson width, over the counts so far plus that prefix, is ``<=
    stop_width``: then the shortest such prefix, with ``stopped`` true.
    """
    running = verdicts.cumsum()
    if stop_width is not None:
        skip = max(0, min_trials - done - 1)  # positions with n < min_trials
        if skip < len(running):
            import numpy as np

            from repro.simulation.metrics import wilson_widths

            n = np.arange(done + skip + 1, done + len(running) + 1)
            hits = np.flatnonzero(wilson_widths(accepted + running[skip:], n) <= stop_width)
            if hits.size:
                last = skip + int(hits[0])
                return int(running[last]), last + 1, True
    return int(running[-1]), len(running), False


def executed_path(
    plan: VerificationPlan,
    rng_mode: Optional[RngMode] = None,
    vectorize: Optional[bool] = None,
) -> str:
    """The path :func:`estimate_acceptance_fast` runs ``plan``'s trials on.

    ``plan.kernel_path``, except that a kernel-capable plan runs
    ``"scalar"`` when the call does not vectorize: ``vectorize=False``, or
    the default ``None`` in compat mode.  Same rule, and same errors, as
    the estimator.
    """
    vectorizes = _vectorizes(plan, rng_mode or plan.rng_mode, vectorize)
    path = plan.kernel_path
    if path in ("table", "parity") and not vectorizes:
        return "scalar"
    return path


def estimate_acceptance_batched(
    scheme: RandomizedScheme,
    configuration: Configuration,
    trials: int,
    seed: int = 0,
    labels: Optional[Dict[Node, BitString]] = None,
    randomness: RandomnessMode = "edge",
    **options,
) -> "AcceptanceEstimate":
    """Compile a plan and estimate in one call — the convenience entry point.

    Equivalent to ``estimate_acceptance(scheme, configuration, trials, seed,
    labels, randomness)`` decision-for-decision; compile the plan yourself
    via :meth:`VerificationPlan.compile` when estimating repeatedly on the
    same pair.  Extra keyword ``options`` pass through to
    :func:`estimate_acceptance_fast`.
    """
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness
    )
    return estimate_acceptance_fast(plan, trials, seed=seed, **options)
