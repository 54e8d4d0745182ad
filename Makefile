PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint sanitize smoke-asyncio smoke-socket e2e-smoke trace bench bench-e2e bench-report bench-guard bench-scale bench-claims bench-tables bench-wire clean

## Tier-1: unit + integration tests (includes the behaviour guard below
## and the backend smokes, markers: asyncio_smoke, socket_smoke).
test:
	$(PYTHON) -m pytest -x -q

## Static determinism & protocol-safety analysis (docs/devtools.md):
## every per-file rule and whole-program pass, one mode, fails on any
## finding.
lint:
	$(PYTHON) -m tools.lint

## Runtime virtual-synchrony sanitizer suite (VS001…VS006 hooks).
sanitize:
	$(PYTHON) -m pytest tests/test_sanitizer.py -q

## Wall-clock smoke: the hier parity plan live on the asyncio engine,
## strict sanitizer attached, checked against its sim reference, under a
## hard timeout (a wall-clock run can hang in ways the simulator cannot
## — never let CI wait on it).
smoke-asyncio:
	timeout 60 $(PYTHON) -m repro live --workers 6 --time-scale 0.1

## Deployment smoke: both parity scenarios as three real OS processes
## over loopback UDP (tracker bootstrap, wire codec, per-node
## sanitizers), each checked against the sim reference and under the
## same hard timeout (docs/deployment.md).
smoke-socket:
	timeout 60 $(PYTHON) -m repro deploy --nodes 3 --scenario flat
	timeout 60 $(PYTHON) -m repro deploy --nodes 3 --scenario hier

## End-to-end harness self-test (benchmarks/e2e/test_smoke.py, ~22 s;
## tier-1 does not collect it): every workload at a small scale, both
## passes, catalog vs BENCHMARK.json.
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --self-test

## Causal-trace demo: one request + one treecast through a hierarchical
## service, audited against E1 (2r messages on a leaf) and E8 (log-depth stages);
## writes a Chrome trace-event JSON (chrome://tracing / perfetto).
trace:
	$(PYTHON) -m tools.trace_report --out trace_demo.json

## Paper experiments under pytest-benchmark.  (The thousand-node claim
## tables take minutes each — run those with `make bench-claims`.)
bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only -m "not scale_claims"

## E2/E3/E7 re-measured at n=1024 (bench_scale_claims.py — the flat
## 1024-member reference group alone takes several minutes to
## bootstrap).  Tables recorded in EXPERIMENTS.md "Claim tables at
## n=1024".
bench-claims:
	$(PYTHON) -m pytest benchmarks/bench_scale_claims.py -q --benchmark-only -s -m scale_claims

## The end-to-end request benchmark BENCHMARK.json declares: both
## passes of all four workloads, one JSON document each, the per-layer
## table on stderr (benchmarks/e2e/README.md).  Every perf or simplicity
## claim is made with this; nothing below gates speed.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --all

## Re-record the guard reference: all five fingerprints, into
## BENCH_core.json and nowhere else.  Run after a deliberate behaviour
## change, with the per-category reason for every changed fingerprint in
## EXPERIMENTS.md.  The lint preflight refuses to record a
## nondeterministic tree.
bench-report:
	$(PYTHON) -m tools.lint
	$(PYTHON) -m tools.perf_report --guard --update

## Behaviour gate: lint preflight, then rerun the five quick
## guard scenarios (four core, scale_n256) against BENCH_core.json —
## fails on any fingerprint change and names the counter that moved.
## Tier-1 runs the same check; speed is gated by `make bench-e2e` pairs,
## not here.
bench-guard:
	$(PYTHON) -m tools.lint
	$(PYTHON) -m tools.perf_report --guard

## Scaling-curve report (docs/hierarchy.md): the load-driven recursive
## hierarchy at n=1024/2048/4096 with heartbeats off — events/sec, tree
## shape, reorg counts and routing-disruption windows per size, plus the
## sanitized n=1024 acceptance run.  Writes BENCH_scale.json, a pure
## report (its n=256 guard fingerprint lives in BENCH_core.json).
bench-scale:
	$(PYTHON) -m tools.perf_report --scale

## Real-UDP wire report (docs/deployment.md): the hierarchical parity
## scenario (16 workers) as a 4-node loopback cluster, frames/bytes on
## the wire per checked delivery, gated on parity with the sim
## reference.  Writes BENCH_wire.json.
bench-wire:
	$(PYTHON) -m tools.perf_report --wire

## Regenerate the experiment-table capture under docs/ (single pass,
## timing loop disabled, hash seed pinned).  A root-level
## bench_tables.txt from a raw pytest redirect is scratch — gitignored.
bench-tables:
	$(PYTHON) -m tools.perf_report --tables docs/bench_tables.txt

clean:
	rm -rf .pytest_cache .benchmarks
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
