# Convenience targets; everything runs from the repository root with the
# in-tree package on PYTHONPATH (no install required).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-specs test-stats test-parallel test-stream test-chaos test-controller test-obs bench bench-smoke bench-record bench-diff bench-gate perfbench perfbench-smoke

# Tier-1: the full test suite (includes the benchmark smoke harness and
# the verdict-spec differential matrix, see test-specs).  Heavy statistical
# tests (marker: slow_stats) are skipped here; run them with
# `make test-stats`.  Process-executor tests (marker: parallel_proc) skip
# themselves on single-CPU boxes; `make test-parallel` forces them.
test:
	$(PYTHON) -m pytest -x -q

# The verdict-spec tier on its own: the registry-generated differential
# identity matrix (every registered scheme x rng mode x workload kind,
# pinned per trial against the legacy oracle) plus the registry property
# tests.  Runs inside tier-1 too; this target is the fast loop when
# iterating on repro/engine/specs.py.  slow_stats stays excluded.
test-specs:
	$(PYTHON) -m pytest tests/test_verdict_specs.py -q

# The parallel tier: the sharded executor / campaign suites and the
# sharded-stop contract (booked counts equal the single-process Wilson
# stop) with the process-executor tests forced on even where
# cpu_count() < 2, plus the workload-pattern and chunk-tail regression
# suites (chunk sizes are engine constants; the tests set small ones
# in-process with the set_chunk fixture).
test-parallel:
	REPRO_FORCE_PARALLEL_PROC=1 $(PYTHON) -m pytest \
		tests/test_parallel.py tests/test_sharded_stop.py tests/test_chunk_tail.py \
		tests/test_workload_patterns.py -q

# The streaming tier: the per-chunk progress channel (the supervisor's
# heartbeats) + concurrent-cell suites, with the process-backend streaming
# tests forced on (mirrors test-parallel).
test-stream:
	REPRO_FORCE_PARALLEL_PROC=1 $(PYTHON) -m pytest \
		tests/test_streaming.py tests/test_parallel.py -q

# The robustness tier: worker supervision, deterministic retry, and the
# chaos-injection harness, with the process-backend chaos tests (markers:
# chaos, parallel_proc — real worker kills, pool repair) forced on even
# where cpu_count() < 2.
test-chaos:
	REPRO_FORCE_PARALLEL_PROC=1 $(PYTHON) -m pytest \
		tests/test_supervision.py tests/test_chaos.py -q

# The adaptive-budget tier: the campaign allocator (its sizes are
# constants in repro.parallel.controller) and the installment seam, plus
# the chunk-tail suite that pins the decision-validity contract (any chunk
# size -> per-trial verdicts bit-identical to the one-trial-chunk run),
# with process-backend tests forced on (mirrors test-parallel).
test-controller:
	REPRO_FORCE_PARALLEL_PROC=1 $(PYTHON) -m pytest \
		tests/test_controller.py tests/test_chunk_tail.py -q

# The observability tier: trace/metrics primitives, the router piggyback,
# the traced-chaos flight recorder, and the traced-vs-untraced bit-identity
# matrix, with the process-backend and chaos-marked tests forced on even
# where cpu_count() < 2 (mirrors test-parallel / test-chaos).
test-obs:
	REPRO_FORCE_PARALLEL_PROC=1 $(PYTHON) -m pytest \
		tests/test_obs.py tests/test_obs_identity.py -q

# The full statistical harness: RNG-quality chi-square / serial-correlation
# sweeps and the deep cross-mode (compat/vector) decision-consistency
# comparisons, plus the engine wiring smoke run.
test-stats:
	$(PYTHON) -m pytest tests/test_rng_quality.py tests/test_cross_mode_consistency.py --slow-stats -q
	$(PYTHON) benchmarks/smoke.py

# All experiments: regenerates benchmarks/results/*.txt and BENCH_engine.json.
# (bench_*.py does not match pytest's default test-file pattern, so the
# files are passed explicitly.)
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

# Fast wiring check for every engine-hooked benchmark workload (~seconds):
# fast-path compilation, oracle bit-identity, vectorized-kernel identity,
# and the bench-history regression gate (committed snapshot vs the last
# recorded benchmarks/history/ profile — a pure file comparison).
bench-smoke:
	$(PYTHON) benchmarks/smoke.py

# Append the current BENCH_engine.json snapshot to benchmarks/history/ as a
# per-commit profile.  `make bench` records one automatically after
# regenerating the snapshot; this target (re-)records by hand.
bench-record:
	$(PYTHON) -m repro.benchhistory record

# The perf-history diff: the latest recorded profile vs the one before it
# (pass args via the module directly for other pairs / --input snapshots).
bench-diff:
	$(PYTHON) -m repro.benchhistory diff

# The noise-aware regression gate on its own (also runs inside bench-smoke
# and tier-1): exit 1 if the snapshot degraded any recorded kernel.
bench-gate:
	$(PYTHON) -m repro.benchhistory gate

# The repo benchmark declared in BENCHMARK.json (see perfbench/README.md):
# time to a target Wilson halfwidth on faulted plans, three workloads; the
# last output line is the JSON result.  Not part of tier-1.
perfbench:
	$(PYTHON) perfbench/run.py

# The benchmark at tiny sizes (~1 min): every metric name and unit, the
# manifest, repeatability, and the bare-checkout failure.  Not part of tier-1.
perfbench-smoke:
	$(PYTHON) perfbench/smoke.py
