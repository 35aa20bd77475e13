.PHONY: install test bench figures examples clean

install:
	pip install -e .

# what CI's tests job runs; works on a fresh checkout (no install needed)
test:
	PYTHONPATH=src python -m pytest -x -q -W error::DeprecationWarning
	python -m pytest perfbench -q

bench:
	pytest benchmarks/ --benchmark-only

# regenerate every paper figure/table into benchmarks/results/
figures: bench
	@ls benchmarks/results/

examples:
	python examples/quickstart.py
	python examples/cluster_of_clusters.py
	python examples/multi_gateway_routing.py
	python examples/stencil_exchange.py
	python examples/mpi_allreduce.py
	python examples/rpc_task_farm.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
