# EndBox reproduction - common targets
PYTHON ?= python

.PHONY: install test lint check digest-smoke bench experiments experiments-quick security coverage clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# scans the library plus the simulation-domain script trees and leaves
# a SARIF report behind for CI annotation
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ benchmarks/ examples/ --sarif-out lint.sarif

# Pre-PR gate: secret-flow lint, the full test suite, a figure-10
# byte-identity smoke, the telemetry differential smoke (recording
# on vs off must not change a single packet byte), the
# shard-determinism smoke (2-shard merged digest == serial digest),
# the committed perf baseline (BENCH_micro.json must satisfy
# every per-stage criterion — see `python -m repro.perf`), and the
# perfbench self-test (fails when renamed IDS, Click or crypto entry
# points leave a span of the traced benchmark nothing to wrap), and the
# live digest smoke below.
# The second lint run is warm (the first one filled .lint_cache) and
# must come back under the 5 s latency budget.
check: lint
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ benchmarks/ examples/ --budget 5
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_fastpath.py -q -k "committed_bench_baseline"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_experiments_smoke.py -q -k "fig10 or deterministic"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_telemetry.py -q -k "identical_with_telemetry"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_faults.py -q -k "deterministic or byte_identical"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_sim_parallel.py -q -k "digest_matches_serial"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_fleet_scenario.py -q -k "rolling_restart_smoke"
	$(PYTHON) perfbench/run.py --self-test
	$(MAKE) --no-print-directory digest-smoke

# Live digest smoke: a fresh 3 s perfbench run per workload (seed 1,
# untraced) must be correct, fail exactly the pinned number of
# datagrams and print the pinned modeled-outcome digest.  The digest
# hashes the simulated outcome of the run, not its wall time, so a
# refactor or speedup must leave it alone.  Any change that does move
# modeled outcomes must update the pin here and explain why in
# CHANGES.md.  Each pin is workload=failed=digest.  fleet_rollout's 5
# failures are the modeled mid-hot-swap drops in
# EndBoxClient._enclave_burst; it keeps the multi-session CPU pool and
# the signed-rollout path live in the gate.  fleet_rollout adds about
# 9 s of wall time (2 vCPUs), for about 25 s in total.
PERFBENCH_DIGESTS = \
	small_fw=0=954a420e387f0bf7d9feeaff2a07b7975c54a38e0ad8ce8e2de2d5f525b096bd \
	bulk_nop=0=d13437724c432092320fc45838da3198045258c4a52b490704cc63c9782fef75 \
	fleet_rollout=5=cd034c18e640e42ce913be3d63efccce61cd02d5fb1afb3ac73e97bdcb169181

digest-smoke:
	@set -e; for pin in $(PERFBENCH_DIGESTS); do \
	  workload=$${pin%%=*}; rest=$${pin#*=}; failed=$${rest%%=*}; want=$${rest#*=}; \
	  out=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 3 --trace 0); \
	  summary=$$(echo "$$out" | tail -n 1); \
	  case "$$summary" in *'"correct": true'*) ;; *) echo "$$workload: not correct: $$summary"; exit 1;; esac; \
	  case "$$summary" in *"\"failed\": $$failed,"*) ;; *) echo "$$workload: failed datagrams (pinned $$failed): $$summary"; exit 1;; esac; \
	  echo "$$out" | grep -qx "modeled outcome digest $$want" || { \
	    echo "$$workload: modeled outcome digest moved (pinned $$want):"; \
	    echo "$$out" | grep "modeled outcome digest"; exit 1; }; \
	  echo "$$workload: correct, $$failed failed, digest $$want"; \
	done

# BENCH_micro.json is the committed regression baseline; refuse to
# clobber it unless the caller explicitly opts in with FORCE=1.
bench:
ifndef FORCE
	@test ! -f BENCH_micro.json || { \
	  echo "BENCH_micro.json is the committed baseline; rerun with 'make bench FORCE=1' to overwrite it."; \
	  exit 1; }
endif
	PYTHONPATH=src $(PYTHON) -m repro.perf --json BENCH_micro.json
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro.experiments.runner --all -o experiment_report.md

experiments-quick:
	$(PYTHON) -m repro.experiments.runner --all --quick

security:
	$(PYTHON) examples/security_evaluation.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .lint_cache src/repro.egg-info .benchmarks
	rm -f lint.sarif
