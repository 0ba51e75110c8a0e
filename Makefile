# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install test bench figures figures-fast sweep examples calibrate clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) perfbench/run.py --workload all

figures:
	$(PYTHON) -m repro figures

figures-fast:
	$(PYTHON) -m repro figures --jobs 4 --cache-dir .repro-cache

sweep:
	$(PYTHON) -m repro sweep --jobs 4 --cache-dir .repro-cache

examples:
	for e in examples/*.py; do echo "== $$e"; $(PYTHON) $$e; done

calibrate:
	$(PYTHON) -m repro calibrate

clean:
	rm -rf .pytest_cache .hypothesis .repro-cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
