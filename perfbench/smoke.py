"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout, either as a script or under pytest:

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py -q

It checks that ``BENCHMARK.json`` matches the metric catalog, that every
workload emits every end-to-end metric and the traced run every per-layer
metric (each with its unit), that every correctness check passes, that a
scan finds the same best forgery twice, and that the command fails, without
a result line, where the checkout holds only the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import forgery_search, metrics  # noqa: E402

RUN = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny"]


def _result(args, cwd=ROOT):
    done = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _assert_catalog(emitted, catalog):
    assert sorted(emitted) == sorted(name for name, *_ in catalog)
    for name, unit, *_ in catalog:
        assert emitted[name]["unit"] == unit
        assert isinstance(emitted[name]["value"], (int, float))


def test_manifest_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == metrics.manifest()


def test_every_workload_emits_every_end_to_end_metric():
    for name, _why in metrics.WORKLOADS:
        _assert_catalog(_result(["--workload", name, "--trace", "0"]), metrics.END_TO_END)


def test_traced_run_emits_every_per_layer_metric():
    _assert_catalog(_result(["--workload", "zoo-campaign", "--trace", "1"]), metrics.PER_LAYER)


def test_forgery_scan_is_repeatable():
    state = forgery_search.setup(True)
    clock = metrics.WallClock()
    first, second = (forgery_search.run_pass(state, 11, clock) for _ in range(2))
    assert first["scores"] == second["scores"]
    assert forgery_search.best_candidate(state, first) == forgery_search.best_candidate(state, second)


def test_fails_without_the_program():
    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(RUN + ["--workload", "estimate-long"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in [value for key, value in sorted(globals().items()) if key.startswith("test_")]:
        test()
        print(f"ok {test.__name__}")
