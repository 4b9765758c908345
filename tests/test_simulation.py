"""Tests for the simulation harness: adversaries, runner, metrics."""

import random

import pytest

from repro.core.bitstrings import BitString
from repro.core.compiler import FingerprintCompiledRPLS
from repro.graphs.generators import (
    corrupt_spanning_tree,
    cycle_configuration,
    line_configuration,
    spanning_tree_configuration,
    uniform_configuration,
)
from repro.schemes.acyclicity import AcyclicityPLS
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.schemes.uniformity import DirectUnifRPLS
from repro.simulation.adversary import (
    all_labels_up_to,
    exhaustive_forgery_search,
    honest_labels_on,
    perturb_labels,
    random_labels,
)
from repro.simulation.metrics import (
    AcceptanceEstimate,
    doubling_ratio,
    wilson_interval,
    wilson_widths,
)
from repro.simulation.runner import (
    BoostingRow,
    boosting_sweep,
    complexity_sweep,
    deterministic_soundness_report,
    format_table,
    grows_like_log,
    grows_like_loglog,
)


class TestAdversary:
    def test_random_labels_shape(self):
        config = line_configuration(5)
        labels = random_labels(config, bits=7, seed=1)
        assert all(label.length == 7 for label in labels.values())

    def test_perturb_changes_exactly_bits(self):
        labels = {0: BitString.from_int(0, 8), 1: BitString.from_int(0, 8)}
        mutated = perturb_labels(labels, flips=1, seed=2)
        flipped = sum(
            bin(mutated[node].value ^ labels[node].value).count("1")
            for node in labels
        )
        assert flipped == 1

    def test_perturb_empty_labels_noop(self):
        labels = {0: BitString.empty()}
        assert perturb_labels(labels, flips=3, seed=1) == labels

    def test_all_labels_enumeration(self):
        labels = list(all_labels_up_to(2))
        assert len(labels) == 1 + 2 + 4  # lengths 0, 1, 2

    def test_exhaustive_search_finds_nothing_on_illegal(self):
        config = cycle_configuration(3)
        assert exhaustive_forgery_search(AcyclicityPLS(), config, max_bits=2) is None

    def test_exhaustive_search_finds_accepting_on_legal(self):
        # Honest acyclicity labels are varuints, whose smallest encoding is
        # one 4-bit group — so the 4-bit search space contains them.
        config = line_configuration(3)
        found = exhaustive_forgery_search(AcyclicityPLS(), config, max_bits=4)
        assert found is not None

    def test_budget_enforced(self):
        config = cycle_configuration(4)
        with pytest.raises(RuntimeError):
            exhaustive_forgery_search(AcyclicityPLS(), config, max_bits=3, limit=10)

    def test_honest_labels_on(self):
        config = spanning_tree_configuration(10, 4, seed=1)
        scheme = SpanningTreePLS()
        assert honest_labels_on(scheme, config) == scheme.prover(config)


class TestMetrics:
    def test_wilson_basic(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_wilson_extremes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high < 0.15
        low, high = wilson_interval(50, 50)
        assert low > 0.85 and high == 1.0

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_wilson_widths_are_bit_identical_to_the_interval(self):
        rng = random.Random(5)
        cells = []
        for n in (1, 2, 3, 7, 127, 128, 129, 4096, 10**5, 10**6, 9_999_999, 10**7):
            for a in {0, 1, n // 3, n // 2, n - 1, n, rng.randrange(n + 1)}:
                if 0 <= a <= n:
                    cells.append((a, n))
        for _ in range(200):
            n = rng.randrange(1, 10**7 + 1)
            cells.append((rng.randrange(n + 1), n))
        successes, trials = zip(*cells)
        widths = wilson_widths(list(successes), list(trials))
        for (a, n), width in zip(cells, widths.tolist()):
            low, high = wilson_interval(a, n)
            assert width == high - low, (a, n)

    def test_acceptance_estimate(self):
        estimate = AcceptanceEstimate(accepted=45, trials=50)
        assert estimate.probability == 0.9
        assert estimate.at_least(0.85)
        assert not estimate.at_most(0.5)

    def test_doubling_ratio(self):
        assert doubling_ratio([1, 2, 4]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            doubling_ratio([1])
        with pytest.raises(ValueError):
            doubling_ratio([0, 1])


class TestRunner:
    def test_soundness_report(self):
        scheme = SpanningTreePLS()
        legal = spanning_tree_configuration(15, 6, seed=1)
        corrupted = corrupt_spanning_tree(legal, seed=2)
        report = deterministic_soundness_report(
            scheme,
            legal,
            {
                "honest-on-corrupted": {"configuration": corrupted},
                "stale-labels": {
                    "configuration": corrupted,
                    "labels": scheme.prover(legal),
                },
            },
        )
        assert report.legal_accepted
        assert report.all_illegal_rejected

    def test_complexity_sweep(self):
        rows = complexity_sweep(
            [8, 16],
            make_configuration=lambda n: line_configuration(n),
            make_pls=lambda n: AcyclicityPLS(),
            make_rpls=lambda n: FingerprintCompiledRPLS(AcyclicityPLS()),
        )
        assert len(rows) == 2
        assert all(row.deterministic_bits and row.randomized_bits for row in rows)
        assert rows[0].compression is not None

    def test_shape_checks(self):
        parameters = [16, 64, 256, 1024]
        logs = [4, 6, 8, 10]
        assert grows_like_log(parameters, logs)
        assert not grows_like_log(parameters, [p / 4 for p in parameters])
        assert grows_like_loglog(parameters, [2, 2.5, 3, 3.2])
        assert not grows_like_loglog(parameters, logs, slack=1.0)

    def test_boosting_sweep(self):
        from repro.core.boosting import BoostedRPLS

        illegal = uniform_configuration(8, 6, equal=False, seed=3)
        rows = boosting_sweep(
            make_boosted=lambda t: BoostedRPLS(DirectUnifRPLS(), t),
            illegal=illegal,
            labels_factory=lambda scheme: scheme.prover(illegal),
            repetitions_list=[1, 3],
            trials=50,
        )
        assert len(rows) == 2
        assert rows[1].certificate_bits > rows[0].certificate_bits
        assert rows[1].empirical_error <= rows[0].empirical_error + 0.1

    def test_format_table(self):
        table = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]
