# Developer entry points.  `make test` is the tier-1 gate (what CI runs);
# `make bench-smoke` exercises the benchmark suite at a reduced trial
# budget, including the large-N scaling sweep.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all lint typecheck chaos stats serve-demo perfbench bench-smoke bench-smoke-ci bench-scaling bench-churn bench-traffic bench-pipeline bench-mobility bench-faults bench-obs bench-service bench-congestion help

help:
	@echo "make test           - tier-1 test suite (tests/ + benchmarks/, -x -q; slow cells skipped)"
	@echo "make test-all       - full suite including the slow scenario-matrix cells"
	@echo "make lint           - repro-lint static analysis (rules R001-R011; exits non-zero on findings)"
	@echo "make typecheck      - mypy strict on the typed core (net/, traffic/, core/); skipped if mypy absent"
	@echo "make chaos          - randomized fault campaign (500 events) with per-batch invariant checks"
	@echo "make stats          - instrumented quick traffic run: metrics registry + span flame summary"
	@echo "make serve-demo     - long-lived engine service demo: seeded event stream + checkpoints in ./service-demo"
	@echo "make perfbench      - end-to-end benchmark of BENCHMARK.json (WORKLOAD=all|route-5k|serve-400|mobility-2k|paper-sweep, SEED=1)"
	@echo "make bench-smoke    - benchmark suite at the reduced REPRO_TRIALS budget"
	@echo "make bench-smoke-ci - scaling + churn + traffic + pipeline + mobility + faults + obs + service + congestion benchmarks (the CI smoke job)"
	@echo "make bench-scaling  - the full N=200..5000 distance-oracle scaling sweep"
	@echo "make bench-churn    - full churn benchmark (N=2000, 50 failures, >=3x gate)"
	@echo "make bench-traffic  - full traffic benchmark (N=2000, 10k flows, >=10x gate)"
	@echo "make bench-pipeline - full construction sweep N=2000..10000 (>=5x clustering gate at N=5000)"
	@echo "make bench-mobility - full mobility benchmark (N=2000, 20 snapshots, >=3x delta gate)"
	@echo "make bench-faults   - fault-tolerance benchmark (loss tiers + crash campaign, >=1.5x retry gate)"
	@echo "make bench-obs      - observability overhead gate (traced vs untraced quick pipeline, <=2%)"
	@echo "make bench-service  - service growth benchmark (10^3 -> 10^4 joins under traffic, >=5x vs rebuild-per-join)"
	@echo "make bench-congestion - multipath balance benchmark (N=2000, 10k flows, >=20% fairness gate + delivery pushback)"

test:
	$(PYTHON) -m pytest -x -q

test-all:
	$(PYTHON) -m pytest -x -q -m ""

lint:
	$(PYTHON) -m repro.cli lint

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/net src/repro/traffic src/repro/core; \
	else \
		echo "typecheck: mypy not installed; skipping (CI runs it)"; \
	fi

chaos:
	$(PYTHON) -m repro.cli chaos --seed $${SEED:-7} --events $${EVENTS:-500}

stats:
	$(PYTHON) -m repro.cli stats

serve-demo:
	$(PYTHON) -m repro.cli serve --events $${EVENTS:-200} --seed $${SEED:-7} --dir $${DIR:-service-demo}

perfbench:
	$(PYTHON) -m perfbench.run --workload $${WORKLOAD:-all} --seed $${SEED:-1}

bench-smoke:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} $(PYTHON) -m pytest benchmarks -q

bench-smoke-ci:
	$(PYTHON) -m pytest benchmarks/test_bench_scaling.py benchmarks/test_bench_churn.py benchmarks/test_bench_traffic.py benchmarks/test_bench_pipeline.py benchmarks/test_bench_mobility.py benchmarks/test_bench_faults.py benchmarks/test_bench_obs.py benchmarks/test_bench_service.py benchmarks/test_bench_congestion.py -q

bench-scaling:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_scaling.py -q

bench-churn:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_churn.py -q

bench-traffic:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_traffic.py -q

bench-pipeline:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_pipeline.py -q -s

bench-mobility:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_mobility.py -q

bench-faults:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_faults.py -q

bench-obs:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_obs.py -q -s

bench-service:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_service.py -q

bench-congestion:
	REPRO_BENCH_FULL=1 REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_congestion.py -q
