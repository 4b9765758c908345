"""``estimate-long``: five plans estimated to a Wilson stop, in one process.

Why: kernels do nearly all the work here and no executor runs, so a kernel
change (an agreement-table fingerprint kernel, say) should move ``solve_s``
while the orchestration layers stay out of the picture.

One pass estimates each plan with ``estimate_acceptance_fast`` until its
Wilson halfwidth reaches the plan's target.  Four plans are proof-faulted
and run in ``rng_mode="vector"``; the honest noisy plan is the only
two-sided one and the only one on the generic scalar path.  The halfwidths
keep every pass near four seconds with the noisy plan a small share, and
put each plan's trial count where Monte-Carlo noise stays small: the
spanning-tree and shared-coins stops see hundreds of accepts, while the MST
and boosted stops land where an accept is rare, so their trial counts
barely move with the seed.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core.seeding import trial_seed_slice
from repro.core.verifier import estimate_acceptance
from repro.engine import estimate_acceptance_fast
from repro.engine.kernels import run_chunk
from repro.engine.montecarlo import DEFAULT_CHUNK
from repro.parallel.controller import observed_halfwidth

from perfbench import metrics
from perfbench.workloads import BENCH_FLIPS, BENCH_PLANS, bench_fault, bench_plan, guard

NAME = "estimate-long"
MIN_PASSES = 3
WORKERS = 0

HALFWIDTHS = {
    "spanning-tree": 0.0035,
    "shared-coins": 0.0025,
    "mst": 0.012,
    "boosted": 0.0006,
    "noisy": 0.1,
}
#: The trial budget is only a backstop: every plan stops on its halfwidth.
MAX_TRIALS = 10_000_000
#: Trials per plan compared trial for trial against the scalar path.
IDENTITY_TRIALS = 256
#: The legacy oracle runs about 20 trials/s on the spanning-tree plan.
ORACLE_TRIALS = 16

VECTOR_PLANS = tuple(name for name in BENCH_PLANS if BENCH_PLANS[name][3] == "vector")


def setup(tiny: bool) -> Dict:
    plans = {}
    for name in BENCH_PLANS:
        plan = bench_plan(name)
        if name in BENCH_FLIPS:
            guard(plan, f"{NAME}/{name}")
        plans[name] = plan
    scale = 4.0 if tiny else 1.0
    return {
        "plans": plans,
        "halfwidths": {name: min(0.25, hw * scale) for name, hw in HALFWIDTHS.items()},
        "identity_trials": 32 if tiny else IDENTITY_TRIALS,
        "oracle_trials": 2 if tiny else ORACLE_TRIALS,
    }


def close(state: Dict) -> None:
    pass


def _estimate(state: Dict, name: str, seed: int):
    return estimate_acceptance_fast(
        state["plans"][name], MAX_TRIALS, seed=seed, stop_halfwidth=state["halfwidths"][name]
    )


def run_pass(state: Dict, seed: int, clock) -> Dict:
    answers: List[float] = []
    estimates = {}
    wall = 0.0
    for name in state["plans"]:
        estimate, answer_wall, answer_s = clock.time(_estimate, state, name, seed)
        wall += answer_wall
        answers.append(answer_s)
        estimates[name] = (estimate.accepted, estimate.trials)
    return {
        "seed": seed,
        "seconds": sum(answers),
        "wall_s": wall,
        "trials": sum(trials for _accepted, trials in estimates.values()),
        "answers": answers,
        "estimates": estimates,
    }


def _replay(plan, seed: int, trials: int, tracer=None, name: str = "") -> int:
    """Re-run the estimator's chunk sequence from outside; returns accepts.

    With a tracer, the seed derivation and the kernel call of every chunk
    get their own spans.
    """
    vectorize = plan.rng_mode == "vector"
    accepted = done = 0
    while done < trials:
        chunk = min(DEFAULT_CHUNK, trials - done)
        if tracer is None:
            accepted += plan.run_trials(
                trial_seed_slice(seed, done, done + chunk), vectorize=vectorize
            )
        else:
            with tracer.span("seeding", "trial_seed_slice"):
                seeds = trial_seed_slice(seed, done, done + chunk)
            with tracer.span("kernels", name):
                accepted += plan.run_trials(seeds, vectorize=vectorize)
        done += chunk
    return accepted


def _check_pass(state: Dict, answer: Dict, replay: bool) -> int:
    """Mismatches of one pass: stops short of target, and (optionally)
    replay recounts that differ from the estimator's counts."""
    failed = 0
    for name, (accepted, trials) in answer["estimates"].items():
        if observed_halfwidth(accepted, trials) > state["halfwidths"][name]:
            failed += 1
        if replay and _replay(state["plans"][name], answer["seed"], trials) != accepted:
            failed += 1
    return failed


def check(state: Dict, passes: List[Dict]):
    """Every pass reached its targets; the first pass recounts exactly from
    outside; and the vector kernel matches the scalar path trial for trial."""
    attempted = failed = 0
    for index, answer in enumerate(passes):
        attempted += len(answer["estimates"]) * (2 if index == 0 else 1)
        failed += _check_pass(state, answer, replay=index == 0)
    seeds = trial_seed_slice(passes[0]["seed"], 0, state["identity_trials"])
    for name in VECTOR_PLANS:
        plan = state["plans"][name]
        attempted += 1
        if [bool(x) for x in run_chunk(plan, seeds)] != [plan.run_trial(s) for s in seeds]:
            failed += 1
    return attempted, failed


def ledger(state: Dict, seed: int, tracer, out_dir) -> tuple:
    """The per-layer metrics of the engine stack, from one traced pass.

    Each plan runs untraced and traced (alternating which goes first, so
    neither profits from the other's warm caches), then is replayed from
    outside, back to back: the ratios between the three compare
    measurements taken at the same machine speed.
    """
    traced, plain_s, estimator_s = {}, 0.0, {}
    attempted = failed = 0
    for index, name in enumerate(state["plans"]):
        for run_traced in (index % 2, 1 - index % 2):
            if run_traced:
                with tracer.span("montecarlo", name) as span:
                    traced[name] = estimate = _estimate(state, name, seed)
                estimator_s[name] = span["seconds"]
            else:
                start = time.perf_counter()
                plain = _estimate(state, name, seed)
                plain_s += time.perf_counter() - start
        with tracer.span("replay", name):
            recount = _replay(state["plans"][name], seed, estimate.trials, tracer, name)
        attempted += 2
        failed += (plain.accepted, plain.trials) != (estimate.accepted, estimate.trials)
        failed += recount != estimate.accepted

    kernel_s = {name: sum(tracer.durations("kernels", name)) for name in VECTOR_PLANS}
    slice_s = sum(tracer.durations("seeding"))
    vector_estimator_s = sum(estimator_s[name] for name in VECTOR_PLANS)
    result = {
        f"kernels.{name}.trials_per_s": traced[name].trials / kernel_s[name]
        for name in VECTOR_PLANS
    }
    result.update({
        f"montecarlo.{name}.trials_per_s": traced[name].trials / estimator_s[name]
        for name in state["plans"]
    })
    chunk_ms = [1000.0 * s for name in VECTOR_PLANS for s in tracer.durations("kernels", name)]
    result.update({
        "seeding.slice_share": slice_s / (slice_s + sum(kernel_s.values())),
        "kernels.chunk_ms_p50": metrics.percentile(chunk_ms, 50),
        "kernels.chunk_ms_p90": metrics.percentile(chunk_ms, 90),
        "kernels.busy_share": sum(kernel_s.values()) / vector_estimator_s,
        "montecarlo.overhead_ratio": vector_estimator_s / (slice_s + sum(kernel_s.values())),
        "montecarlo.chunks": sum(-(-e.trials // DEFAULT_CHUNK) for e in traced.values()),
        f"obs.trace_overhead_ratio.{NAME}": sum(estimator_s.values()) / plain_s,
    })
    scheme, configuration, labels = bench_fault("spanning-tree")
    trials = state["oracle_trials"]
    with tracer.span("oracle", "estimate_acceptance") as span:
        estimate_acceptance(scheme, configuration, trials, seed=seed, labels=labels,
                            randomness=BENCH_PLANS["spanning-tree"][2])
    result["oracle.trials_per_s"] = trials / span["seconds"]
    return result, attempted, failed
