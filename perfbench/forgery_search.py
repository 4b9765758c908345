"""``forgery-search``: a serial scan for the most accepted single-bit forgery.

Why: this is the shape of a forgery generator, and it uses the plan layer
the other way round from ``estimate-long``: each candidate pays a full
``VerificationPlan.compile`` + ``prepare()`` for a short 64-trial score, so
compile is about two thirds of the time.  Work moved from per-trial into
compile (agreement tables, say) shows here as a cost.

One pass scans a seed-derived list of 160 single-bit flips of the honest
labels (60 on the spanning-tree plan, 50 on shared coins, 50 on the MST
plan), scores each with ``estimate_acceptance_fast`` over 64 vector-mode
trials, and reports the highest-scoring candidate (ties go to the earlier
one).  Candidate latency is multi-modal: about 90 flips cost ~12 ms (every
shared-coins flip, and the spanning-tree flips whose plan rejects every
trial, which score for free), the other spanning-tree flips ~16-25 ms, and
MST flips either ~40 ms (half of them score for free) or ~100 ms.  The mix
puts the median inside the ~12 ms group and the 90th percentile inside
the MST flips that run their trials, away from the edges between groups,
where a percentile would jump with the seed.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.core.seeding import trial_seed_slice
from repro.engine import VerificationPlan, estimate_acceptance_fast

from perfbench import metrics
from perfbench.workloads import BENCH_PLANS, flip

NAME = "forgery-search"
MIN_PASSES = 3
WORKERS = 0

MIX = {"spanning-tree": 60, "shared-coins": 50, "mst": 50}
SCORE_TRIALS = 64
#: Scalar recounts cost about 20x a vector score (0.5 s per MST candidate),
#: so each run recounts this many seed-chosen candidates per plan, plus
#: every pass's best candidate.
RECOUNT_PER_PLAN = 8


def setup(tiny: bool) -> Dict:
    bases = {}
    for name in MIX:
        factory, kwargs, randomness, _mode = BENCH_PLANS[name]
        scheme, configuration = factory(**kwargs)
        bases[name] = (scheme, configuration, scheme.prover(configuration), randomness)
    return {
        "bases": bases,
        "mix": {name: max(1, count // 10) for name, count in MIX.items()} if tiny else MIX,
        "recount": 1 if tiny else RECOUNT_PER_PLAN,
    }


def close(state: Dict) -> None:
    pass


def candidates(state: Dict, seed: int) -> List[Tuple[str, object, int]]:
    """The pass's ``(plan, victim, bit)`` list, derived from ``seed`` only.

    Stratified rather than uniform: the ``count`` flips of a plan take
    evenly spaced victims from a seeded offset, and the ``j``-th flip's bit
    falls in the ``j``-th of ``count`` equal slices of its label.  A
    candidate's cost depends on where in a label its bit sits (a flip in a
    field the node checks itself folds to a constant and scores for free),
    so stratifying keeps every pass's cost mix the same from seed to seed.
    """
    rng = random.Random(seed)
    chosen = []
    for name, count in state["mix"].items():
        _scheme, configuration, labels, _randomness = state["bases"][name]
        nodes = [node for node in configuration.graph.nodes if labels[node].length]
        offset = rng.randrange(len(nodes))
        for j in range(count):
            victim = nodes[(offset + j * len(nodes) // count) % len(nodes)]
            length = labels[victim].length
            chosen.append((name, victim, int((j + rng.random()) * length / count) % length))
    rng.shuffle(chosen)
    return chosen


def _compile(state: Dict, name: str, victim, bit: int) -> VerificationPlan:
    scheme, configuration, labels, randomness = state["bases"][name]
    return VerificationPlan.compile(
        scheme, configuration, labels=flip(labels, victim, bit),
        randomness=randomness, rng_mode="vector",
    )


def _score(plan: VerificationPlan, seed: int):
    return estimate_acceptance_fast(plan, SCORE_TRIALS, seed=seed)


def _candidate(state: Dict, seed: int, name: str, victim, bit: int):
    return _score(_compile(state, name, victim, bit).prepare(), seed)


def _traced_candidate(state: Dict, seed: int, name: str, victim, bit: int, tracer):
    with tracer.span("plan", "compile"):
        plan = _compile(state, name, victim, bit)
    with tracer.span("plan", "prepare"):
        plan.prepare()
    with tracer.span("montecarlo", "score"):
        return _score(plan, seed)


def run_pass(state: Dict, seed: int, clock) -> Dict:
    scores: List[int] = []
    answers: List[float] = []
    trials = 0
    wall = 0.0
    for name, victim, bit in candidates(state, seed):
        estimate, answer_wall, answer_s = clock.time(
            _candidate, state, seed, name, victim, bit)
        wall += answer_wall
        answers.append(answer_s)
        scores.append(estimate.accepted)
        trials += estimate.trials
    best = max(range(len(scores)), key=lambda index: (scores[index], -index))
    return {
        "seed": seed,
        "seconds": sum(answers),
        "wall_s": wall,
        "trials": trials,
        "answers": answers,
        "scores": scores,
        "best": best,
    }


def best_candidate(state: Dict, answer: Dict) -> Dict:
    """The pass's answer: the highest-scoring flip and its score."""
    name, victim, bit = candidates(state, answer["seed"])[answer["best"]]
    return {"plan": name, "victim": victim, "bit": bit, "score": answer["scores"][answer["best"]]}


def report(state: Dict, passes: List[Dict]) -> str:
    """One line per pass naming the forgery the scan found."""
    return "\n".join(
        f"# pass {index}: best forgery {best_candidate(state, answer)} of {SCORE_TRIALS} trials"
        for index, answer in enumerate(passes)
    )


def _recount_mismatches(state: Dict, answer: Dict, indices) -> Tuple[int, int]:
    listed = candidates(state, answer["seed"])
    seeds = trial_seed_slice(answer["seed"], 0, SCORE_TRIALS)
    failed = 0
    for index in indices:
        plan = _compile(state, *listed[index])
        if plan.run_trials(seeds, vectorize=False) != answer["scores"][index]:
            failed += 1
    return len(indices), failed


def check(state: Dict, passes: List[Dict]):
    """Scores agree with a scalar recount on a seed-chosen sample of each
    plan's candidates, and every pass's best candidate recounts too."""
    first = passes[0]
    listed = candidates(state, first["seed"])
    rng = random.Random(first["seed"])
    sample = []
    for name in state["mix"]:
        indices = [i for i, candidate in enumerate(listed) if candidate[0] == name]
        sample += rng.sample(indices, min(state["recount"], len(indices)))
    attempted, failed = _recount_mismatches(state, first, sample)
    for answer in passes:
        more_attempted, more_failed = _recount_mismatches(state, answer, [answer["best"]])
        attempted += more_attempted + len(answer["scores"])
        failed += more_failed + sum(
            1 for score in answer["scores"] if not 0 <= score <= SCORE_TRIALS)
    return attempted, failed


def ledger(state: Dict, seed: int, tracer, out_dir) -> tuple:
    """Per-candidate compile / prepare / score split, from one traced scan.

    Each candidate runs untraced and traced back to back (alternating which
    goes first, so neither profits from the other's warm caches), so the
    overhead ratio compares the two at the same machine speed.
    """
    plain_s = traced_s = 0.0
    attempted = failed = 0
    for index, (name, victim, bit) in enumerate(candidates(state, seed)):
        for run_traced in (index % 2, 1 - index % 2):
            if run_traced:
                with tracer.span(NAME, "candidate", plan=name) as span:
                    traced = _traced_candidate(state, seed, name, victim, bit, tracer)
                traced_s += span["seconds"]
            else:
                start = time.perf_counter()
                plain = _candidate(state, seed, name, victim, bit)
                plain_s += time.perf_counter() - start
        attempted += 1
        failed += plain.accepted != traced.accepted
    compile_ms = [1000.0 * s for s in tracer.durations("plan", "compile")]
    prepare_ms = [1000.0 * s for s in tracer.durations("plan", "prepare")]
    candidate_s = sum(tracer.durations(NAME, "candidate"))
    result = {
        "plan.compile_ms_p50": metrics.percentile(compile_ms, 50),
        "plan.compile_ms_p90": metrics.percentile(compile_ms, 90),
        "plan.prepare_ms_p50": metrics.percentile(prepare_ms, 50),
        "plan.prepare_ms_p90": metrics.percentile(prepare_ms, 90),
        "plan.compile_share": (sum(compile_ms) + sum(prepare_ms)) / 1000.0 / candidate_s,
        f"obs.trace_overhead_ratio.{NAME}": traced_s / plain_s,
    }
    return result, attempted, failed
