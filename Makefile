PYTHON ?= python3
BENCH_SIZES ?= 32,64,128

.PHONY: install test bench bench-e2e bench-e2e-smoke bench-e2e-ab \
	examples lint stress faultcheck \
	faultcheck-restart serve-check clean

# fault-injection matrix: seeds x named schedules, each run asserting
# the crash-consistency invariant battery (see docs/testing.md)
FAULTCHECK_SEEDS ?= --seed 1 --seed 2 --seed 3
FAULTCHECK_OPS ?= 40

install:
	$(PYTHON) -m pip install -e .[test]

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_BENCH_SIZES_KIB=$(BENCH_SIZES) \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-sort=mean

# service-boundary benchmark (the contract of BENCHMARK.json): the
# real `repro serve` deployment, six workloads, every verdict and the
# final bytes checked against the in-process oracle
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# A/B of the same benchmark: BASE (a git revision) against the working
# tree, PAIRS alternating runs per workload with bytecode equalised;
# prints medians, quartiles, wins and a verdict per metric
BASE ?= HEAD
PAIRS ?= 10

bench-e2e-ab:
	$(PYTHON) scripts/e2e_ab.py --base $(BASE) --pairs $(PAIRS)

# static tooling (pip install -e .[lint]); constraint linting of the
# examples corpus runs with no extra dependencies
lint:
	$(PYTHON) -m ruff check src/
	$(PYTHON) -m mypy src/repro
	$(PYTHON) -m repro lint \
		--dtd examples/corpus/pub.dtd --dtd examples/corpus/rev.dtd \
		--constraints-file examples/corpus/constraints.txt \
		--pattern examples/corpus/submission.xml

# concurrency stress harness: N writer threads x M mixed legal/illegal
# updates against one shared DocumentStore, checked against a
# sequential oracle replay.  faulthandler dumps all thread stacks on a
# wedge; pytest-timeout (when installed) enforces a hard cap on top.
STRESS_TIMEOUT := $(shell $(PYTHON) -c "import importlib.util as u; \
	print('--timeout=600' if u.find_spec('pytest_timeout') else '')")

stress:
	REPRO_STRESS_THREADS=8 REPRO_STRESS_OPS=200 \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -X faulthandler -m pytest tests/test_concurrency.py \
		-q $(STRESS_TIMEOUT)

faultcheck:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro.cli faultcheck $(FAULTCHECK_SEEDS) \
		--ops $(FAULTCHECK_OPS) --repro-file FAULTCHECK_REPRO.txt

# kill-at-failpoint restart matrix: the durable service dies at each
# instrumented seam, restarts from snapshot + write-ahead log, and the
# recovered state is checked against the sequential oracle
faultcheck-restart:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro.cli faultcheck --crash-restart \
		$(FAULTCHECK_SEEDS) --ops $(FAULTCHECK_OPS) \
		--repro-file FAULTCHECK_REPRO.txt

# end-to-end suite for the networked sharded service: hash-ring
# properties plus the conformance/chaos battery (spawned worker
# processes behind the asyncio HTTP edge).  pytest-timeout (when
# installed) puts a hard cap on every test so a wedged worker can
# never hang the job.
SERVE_TIMEOUT := $(shell $(PYTHON) -c "import importlib.util as u; \
	print('--timeout=300' if u.find_spec('pytest_timeout') else '')")

serve-check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/test_hash_ring.py \
		tests/test_service_net.py -q $(SERVE_TIMEOUT)

examples:
	export PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}; \
		$(PYTHON) examples/quickstart.py && \
		$(PYTHON) examples/publication_registry.py && \
		$(PYTHON) examples/workload_policies.py && \
		$(PYTHON) examples/referential_integrity.py && \
		$(PYTHON) examples/conference_reviews.py 64

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
