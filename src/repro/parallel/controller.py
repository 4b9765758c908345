"""Adaptive budget control: the campaign allocator.

The campaign allocator (:class:`CampaignAllocator`) manages one *global*
trial budget across all cells of a campaign.  It grants budget in
rounds: a cheap probe round first, then need-proportional rounds where
cells whose merged Wilson interval is still wide receive most of the
remaining pool and cells that reached the target halfwidth are starved
entirely.  Grants a converged cell did not consume flow back into the
pool automatically — the campaign layer only ever subtracts *consumed*
trials.  Each installment books the single-process Wilson stop's prefix
(:attr:`~repro.parallel.executors.ShardedEstimate.prefix`), and a cell
converges on the same rule (:func:`~repro.simulation.metrics.wilson_stop_holds`
with :data:`~repro.engine.montecarlo.MIN_STOP_TRIALS`), so a converged
cell's counts equal ``estimate_acceptance_fast(plan, budget, seed,
stop_halfwidth=target)`` on every backend and shard layout.

The allocator's sizes are module constants (:data:`MIN_INSTALLMENT`,
:data:`PROBE_TRIALS`, :data:`NEED_MARGIN`), as the estimator's chunk
sizes are (:data:`~repro.engine.montecarlo.DEFAULT_CHUNK`,
:data:`~repro.engine.montecarlo.SCALAR_CHUNK`).

Decision-validity contract
--------------------------

Every trial's verdict is a pure function of ``(master seed, trial
counter)`` (see :mod:`repro.core.seeding`), and the allocator only ever
decides *future counter ranges*: it extends a cell's consumed prefix
``[0, consumed)`` by the next installment ``[consumed, consumed +
grant)``.  Grants therefore change **how far each installment may run,
never any trial's verdict**, and the booked stop lands on the same trial
whatever they are; a retried shard (supervision) re-executes its original
range untouched because its payload was fixed at dispatch time.  The
controller test suite pins this contract.

Observability
-------------

Allocator decisions surface through :mod:`repro.obs`: each round emits a
``controller.round`` trace event with its grant table, convergence emits
``controller.converged``, and the ``controller.*`` counters
(``rounds``, ``grants``, ``granted_trials``, ``consumed_trials``,
``returned_trials``, ``converged_cells``) accumulate in the
metrics registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.engine.montecarlo import MIN_STOP_TRIALS, validate_halfwidth
from repro.obs.runtime import get_metrics, record_event
from repro.simulation.metrics import wilson_interval, wilson_stop_holds

#: The allocator's smallest grant while a cell's need estimate exceeds it.
MIN_INSTALLMENT = 64
#: Most trials a cell gets in the probe round: enough to clear the Wilson
#: stop's ``MIN_STOP_TRIALS`` gate.
PROBE_TRIALS = 2 * MIN_INSTALLMENT
#: Safety factor on a cell's estimated remaining need, so the installment
#: that should converge usually does.
NEED_MARGIN = 1.25


def observed_halfwidth(accepted: int, trials: int) -> float:
    """Half the Wilson interval width, ``inf`` before any trial has run."""
    if trials <= 0:
        return math.inf
    low, high = wilson_interval(accepted, trials)
    return (high - low) / 2


# ---------------------------------------------------------------------------
# the campaign allocator
# ---------------------------------------------------------------------------


@dataclass
class CellLedger:
    """One cell's consumption state inside a :class:`CampaignAllocator`.

    ``consumed`` is the length of the cell's executed counter prefix
    ``[0, consumed)``; the next installment always starts at ``consumed``,
    which is what makes every allocator decision a *future-range* decision
    (see the module docstring's validity contract).
    """

    name: str
    consumed: int = 0
    accepted: int = 0
    converged: bool = False
    failed: bool = False
    installments: List[Dict] = field(default_factory=list)

    @property
    def halfwidth(self) -> float:
        return observed_halfwidth(self.accepted, self.consumed)


class CampaignAllocator:
    """One global trial budget, granted to campaign cells in rounds.

    Round 1 probes every cell with at most :data:`PROBE_TRIALS` (enough for
    the Wilson stop's ``min_trials`` gate to clear) so lopsided cells converge
    and return the rest of their fair share to the pool.  Every later round
    estimates each unconverged cell's *remaining need* from the observed
    interval — Wilson halfwidth shrinks like ``1/sqrt(n)``, so a cell at
    halfwidth ``w`` after ``n`` trials needs roughly ``n * ((w/target)^2 -
    1)`` more — and grants the pool need-proportionally, widest cells
    first, each grant floored at :data:`MIN_INSTALLMENT` while the need
    estimate exceeds it (the need carries a :data:`NEED_MARGIN` factor).  Converged (and failed) cells receive nothing.

    The allocator only ever books *consumed* trials against the budget:
    an installment that converges mid-flight (the sharded Wilson stop)
    returns its unspent grant to the pool implicitly.  ``grants()`` returns
    an empty table when the pool is exhausted or no live cell remains —
    the campaign loop's termination condition.
    """

    def __init__(
        self,
        names: Sequence[str],
        global_budget: int,
        target_halfwidth: float,
    ):
        if not names:
            raise ValueError("allocator needs at least one cell")
        if len(set(names)) != len(names):
            raise ValueError("cell names must be unique")
        if global_budget <= 0:
            raise ValueError("global_budget must be positive")
        validate_halfwidth(target_halfwidth, "target_halfwidth")
        self.global_budget = int(global_budget)
        self.target_halfwidth = float(target_halfwidth)
        self.rounds = 0
        self._order = list(names)
        self.cells: Dict[str, CellLedger] = {
            name: CellLedger(name) for name in self._order
        }

    @property
    def consumed_total(self) -> int:
        return sum(cell.consumed for cell in self.cells.values())

    @property
    def remaining(self) -> int:
        return max(0, self.global_budget - self.consumed_total)

    def counts(self, name: str) -> Tuple[int, int]:
        """The cell's cumulative ``(accepted, consumed)`` counts so far."""
        cell = self.cells[name]
        return cell.accepted, cell.consumed

    def live(self) -> List[CellLedger]:
        """Cells still competing for budget, in declaration order."""
        return [
            self.cells[name]
            for name in self._order
            if not (self.cells[name].converged or self.cells[name].failed)
        ]

    def _need(self, cell: CellLedger, fair_share: int) -> int:
        """Estimated trials the cell still needs to reach the target."""
        halfwidth = cell.halfwidth
        if not math.isfinite(halfwidth):
            # Never probed (a starved round-1 straggler): fall back to an
            # even share of what is left.
            return max(MIN_INSTALLMENT, fair_share)
        ratio = halfwidth / self.target_halfwidth
        estimate = cell.consumed * (ratio * ratio - 1.0) * NEED_MARGIN
        return max(MIN_INSTALLMENT, math.ceil(estimate))

    def grants(self) -> Dict[str, int]:
        """The next round's grant table; empty means the campaign is done.

        The sum of the grants never exceeds the remaining pool, and is at
        least 1 whenever the table is non-empty — so consuming the grants
        strictly shrinks the pool and the round loop terminates.
        """
        live = self.live()
        pool = self.remaining
        if pool <= 0 or not live:
            return {}
        self.rounds += 1
        grants: Dict[str, int] = {}
        if self.rounds == 1:
            fair, extra = divmod(pool, len(live))
            for index, cell in enumerate(live):
                want = min(fair + (1 if index < extra else 0), PROBE_TRIALS)
                if want > 0:
                    grants[cell.name] = want
        else:
            fair_share = max(1, pool // len(live))
            needs = {cell.name: self._need(cell, fair_share) for cell in live}
            total_need = sum(needs.values())
            if total_need <= pool:
                grants = dict(needs)
            else:
                # Widest-first proportional split of the whole pool
                # (declaration order breaks halfwidth ties deterministically).
                ordered = sorted(
                    live,
                    key=lambda cell: (
                        -cell.halfwidth if math.isfinite(cell.halfwidth) else -math.inf,
                        self._order.index(cell.name),
                    ),
                )
                shares = {
                    cell.name: (pool * needs[cell.name]) // total_need
                    for cell in ordered
                }
                leftover = pool - sum(shares.values())
                for cell in ordered:
                    if leftover <= 0:
                        break
                    shares[cell.name] += 1
                    leftover -= 1
                grants = {name: n for name, n in shares.items() if n > 0}
        metrics = get_metrics()
        metrics.counter("controller.rounds").inc()
        metrics.counter("controller.grants").inc(len(grants))
        record_event(
            "controller.round",
            {
                "round": self.rounds,
                "pool": pool,
                "live_cells": len(live),
                "grants": dict(grants),
            },
        )
        return grants

    def settle(
        self, name: str, first_trial: int, granted: int, accepted: int, trials: int
    ) -> None:
        """Book one finished installment against the budget.

        ``first_trial`` must equal the cell's consumed prefix — installments
        extend the counter range contiguously, never rewrite it.  ``trials``
        may be short of ``granted`` (the stop fired); only the consumed part
        is charged, the rest stays in the pool.  The cell converges when the
        Wilson stop rule holds on its cumulative counts, ``MIN_STOP_TRIALS``
        gate included — the rule every other stop site applies.
        """
        cell = self.cells[name]
        if first_trial != cell.consumed:
            raise ValueError(
                f"installment for {name!r} starts at trial {first_trial}, but "
                f"the cell's consumed prefix ends at {cell.consumed}"
            )
        if trials < 0 or accepted < 0 or accepted > trials:
            raise ValueError("invalid installment counts")
        cell.consumed += trials
        cell.accepted += accepted
        cell.installments.append(
            {
                "round": self.rounds,
                "first_trial": first_trial,
                "granted": granted,
                "trials": trials,
                "accepted": accepted,
            }
        )
        metrics = get_metrics()
        metrics.counter("controller.granted_trials").inc(granted)
        metrics.counter("controller.consumed_trials").inc(trials)
        if granted > trials:
            metrics.counter("controller.returned_trials").inc(granted - trials)
        if not cell.converged and wilson_stop_holds(
            cell.accepted, cell.consumed, self.target_halfwidth, MIN_STOP_TRIALS
        ):
            cell.converged = True
            metrics.counter("controller.converged_cells").inc()
            record_event(
                "controller.converged",
                {
                    "cell": name,
                    "round": self.rounds,
                    "consumed": cell.consumed,
                    "halfwidth": cell.halfwidth,
                },
            )

    def fail(self, name: str) -> None:
        """Stop granting to a cell whose installments keep failing."""
        self.cells[name].failed = True
        record_event("controller.cell_failed", {"cell": name, "round": self.rounds})

    def history(self, name: str) -> Dict:
        """The cell's allocation record — enough to resume its counter range."""
        cell = self.cells[name]
        return {
            "global_budget": self.global_budget,
            "target_halfwidth": self.target_halfwidth,
            "converged": cell.converged,
            "rounds": self.rounds,
            "consumed": cell.consumed,
            "installments": list(cell.installments),
        }

    def summary(self) -> Dict:
        """Campaign-level totals for span attributes and CLI output."""
        cells = self.cells.values()
        return {
            "global_budget": self.global_budget,
            "target_halfwidth": self.target_halfwidth,
            "consumed": self.consumed_total,
            "remaining": self.remaining,
            "rounds": self.rounds,
            "cells": len(self.cells),
            "converged_cells": sum(1 for cell in cells if cell.converged),
            "failed_cells": sum(1 for cell in cells if cell.failed),
        }
