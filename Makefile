# Convenience targets for the MUAA reproduction.

.PHONY: install test bench figures examples clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

figures:
	python -m repro reproduce --out benchmarks/results

examples:
	python examples/quickstart.py
	python examples/tokyo_checkins.py
	python examples/streaming_broker.py
	python examples/threshold_tuning.py
	python examples/moving_customers.py
	python examples/campaign_planning.py
	python examples/full_pipeline.py

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
