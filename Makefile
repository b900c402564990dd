.PHONY: install test bench bench-repo bench-serving bench-harness bench-batch bench-serve bench-kernel bench-native bench-hierarchy bench-trend bench-all profile profile-serve profile-kernel profile-native profile-hierarchy experiments examples serve-demo gateway-demo obs-demo obs-guard capacity-plan lint all

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . --no-build-isolation || \
	  (echo "editable install unavailable; falling back to .pth" && \
	   echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth")

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) tools/bench_compare.py

# The repository benchmark (BENCHMARK.json): four oracle-checked
# workloads end to end, then a traced per-layer run (~2 min).
bench-repo:
	python3 bench/run.py --seed 0

# The serving-path workloads on the default backend, then without NumPy,
# then on the native kernel tier (its per-row share timing path):
# seed-0 golden digests plus the event-loop oracles (~1.5 min).
bench-serving:
	for backend in auto pure; do \
	  for workload in plan-hierarchy serve-flash; do \
	    REPRO_BACKEND=$$backend python3 bench/run.py --workload $$workload \
	      --seed 0 --seconds 2 --trace 0 || exit 1; \
	  done; \
	done
	for workload in plan-hierarchy serve-flash; do \
	  REPRO_KERNEL=native python3 bench/run.py --workload $$workload \
	    --seed 0 --seconds 2 --trace 0 || exit 1; \
	done

# The benchmark harness's own tests (~5 s).
bench-harness:
	$(PYTHON) -m pytest bench -q

bench-batch:
	$(PYTHON) tools/bench_compare.py --bench-path benchmarks/test_bench_batch.py --tag batch

bench-serve:
	$(PYTHON) tools/bench_compare.py --bench-path benchmarks/test_bench_serve_fastpath.py --tag serve

bench-kernel:
	$(PYTHON) tools/bench_compare.py --bench-path benchmarks/test_bench_kernel.py --tag kernel

bench-native:
	$(PYTHON) tools/bench_compare.py --bench-path benchmarks/test_bench_native.py --tag native

bench-hierarchy:
	$(PYTHON) tools/bench_compare.py --bench-path benchmarks/test_bench_hierarchy.py --tag hierarchy

# Per-tag mean-time trajectory across all committed BENCH_*.json
# recordings; fails on a >10% newest-vs-previous regression.
bench-trend:
	$(PYTHON) tools/bench_trend.py

bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

profile:
	$(PYTHON) tools/profile_hotpath.py

profile-serve:
	$(PYTHON) tools/profile_hotpath.py --target serve

profile-kernel:
	$(PYTHON) tools/profile_hotpath.py --target kernel

profile-native:
	$(PYTHON) tools/profile_hotpath.py --target kernel --tier native

profile-hierarchy:
	$(PYTHON) tools/profile_hotpath.py --target hierarchy

experiments:
	$(PYTHON) -m repro experiments

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) "$$f"; done

serve-demo:
	$(PYTHON) -m repro serve --sessions 6 --capacity-mbps 2.4 --seed 5

# A seeded loopback pair over real UDP: prints the live per-window
# CLF/ALF/b-hat trajectory and the differential verdict vs the simulator.
gateway-demo:
	$(PYTHON) -m repro gateway probe --seed 7
	$(PYTHON) -m repro gateway probe --seed 11 --reorder-span 5

obs-demo:
	$(PYTHON) -m repro obs dump figure8-pooled --quiet

obs-guard:
	$(PYTHON) tools/obs_overhead_guard.py --repeats 15

# Regenerate the committed capacity-planning manifest (seed-pinned; only
# wall timings move between machines).
capacity-plan:
	$(PYTHON) -m repro serve plan --seed 0 --out manifests/capacity_plan.json

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
	  $(PYTHON) -m ruff check . && $(PYTHON) -m ruff format --check .; \
	elif command -v ruff >/dev/null 2>&1; then \
	  ruff check . && ruff format --check .; \
	else \
	  echo "ruff is not installed; skipping lint (CI runs it)"; \
	fi

all: test lint bench
