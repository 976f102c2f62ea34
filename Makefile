PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-e2e-smoke bench-history

test:  ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

bench:  ## kernel microbenchmarks -> BENCH_kernels.json (perf trajectory across PRs)
	$(PYTHON) -m pytest benchmarks/bench_kernels.py --benchmark-only \
		--benchmark-json=BENCH_kernels.json
	@$(PYTHON) -c "import json; d=json.load(open('BENCH_kernels.json')); \
		print('\n'.join(f\"{b['name']}: {b['stats']['mean']*1e3:.3f} ms\" for b in d['benchmarks']))"

bench-e2e-smoke:  ## smoke test of the end-to-end benchmark (BENCHMARK.json; quick sizes)
	$(PYTHON) -m pytest benchmarks/e2e -q

bench-history:  ## append one row per e2e workload to BENCH_history.jsonl (LABEL="PR n")
	$(PYTHON) benchmarks/history.py --label "$(LABEL)"
