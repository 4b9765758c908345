"""Tier-1 test configuration: the ``slow_stats`` / ``parallel_proc`` markers and ``set_chunk``.

The statistical RNG-quality / cross-mode harness has two depths: a quick
deterministic core that always runs (tier-1 must stay fast), and heavier
sweeps — more samples, more workloads, more trials — marked ``slow_stats``.
The heavy tier is skipped by default and enabled with ``--slow-stats``,
which is what ``make test-stats`` passes.

``parallel_proc`` marks tests that spin up real worker *processes*
(:class:`repro.parallel.ProcessExecutor`).  They are skipped on boxes
without at least two CPUs — where a process pool is pure overhead and some
CI sandboxes restrict forking — unless forced with
``REPRO_FORCE_PARALLEL_PROC=1`` (what ``make test-parallel`` sets, so the
process tier is exercised even on small machines).
"""

import os

import pytest


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pytest_addoption(parser):
    parser.addoption(
        "--slow-stats",
        action="store_true",
        default=False,
        help="run the full statistical RNG-quality / cross-mode harness",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow_stats: heavy statistical tests, skipped unless --slow-stats "
        "(run them via `make test-stats`)",
    )
    config.addinivalue_line(
        "markers",
        "parallel_proc: spawns worker processes; skipped when cpu_count() < 2 "
        "unless REPRO_FORCE_PARALLEL_PROC=1 (run via `make test-parallel`)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: chaos-harness tests that kill/hang real worker processes; "
        "skipped when cpu_count() < 2 unless REPRO_FORCE_PARALLEL_PROC=1 "
        "(run via `make test-chaos`)",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--slow-stats"):
        skip_stats = pytest.mark.skip(reason="needs --slow-stats (make test-stats)")
        for item in items:
            if "slow_stats" in item.keywords:
                item.add_marker(skip_stats)
    if _cpu_count() < 2 and not os.environ.get("REPRO_FORCE_PARALLEL_PROC"):
        skip_proc = pytest.mark.skip(
            reason="needs >= 2 CPUs (or REPRO_FORCE_PARALLEL_PROC=1; "
            "see `make test-parallel`)"
        )
        skip_chaos = pytest.mark.skip(
            reason="needs >= 2 CPUs (or REPRO_FORCE_PARALLEL_PROC=1; "
            "see `make test-chaos`)"
        )
        for item in items:
            if "parallel_proc" in item.keywords:
                item.add_marker(skip_proc)
            elif "chaos" in item.keywords:
                item.add_marker(skip_chaos)


@pytest.fixture
def set_chunk(monkeypatch):
    """``set_chunk(n)`` runs the estimator's chunks at ``n`` trials.

    Chunk size changes no verdict, count or stop, so it is a pair of engine
    constants (``DEFAULT_CHUNK`` on the kernels, ``SCALAR_CHUNK`` on the
    scalar paths) rather than a parameter; the chunk-boundary tests set
    both through this fixture.  It patches this process only: shards on a
    process pool run at the real sizes.
    """
    from repro.engine import montecarlo

    def set_size(size: int) -> None:
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", size)
        monkeypatch.setattr(montecarlo, "SCALAR_CHUNK", size)

    return set_size
