GO ?= go

.PHONY: all fmt fmt-check vet lint build test race bench bench-telemetry bench-faults bench-parallel bench-prof bench-obs bench-vaxd bench-fusion bench-fusion-hooks bench-all bench-smoke bench-harness vaxd-smoke experiments clean

all: fmt-check vet lint build test

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Full static-analysis gate: go vet, the repo's Go-invariant
# multichecker (internal/golint via cmd/vaxvet), and the control-store
# analyzer (internal/ulint via cmd/vaxlint) proving complete CPI
# attribution over the shipped microprogram.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/vaxvet
	$(GO) run ./cmd/vaxlint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# The telemetry-overhead gate; compare against the "telemetry layer"
# entry of BENCH_history.json.
bench-telemetry:
	$(GO) test -run xxx -bench BenchmarkTelemetry -benchtime 20x -count 3 .

# The fault-hook overhead gate; compare against the "fault-injection
# hooks" entry of BENCH_history.json (disabled hooks must stay within 1%
# of the telemetry-era baseline).
bench-faults:
	$(GO) test -run xxx -bench BenchmarkFaults -benchtime 20x -count 3 .

# The parallel-run scaling curve and hot-loop throughput gate; compare
# against the "parallel composite" entry of BENCH_history.json (which
# records the measurement method).
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkParallelRun|BenchmarkSimulatorThroughput' -benchtime 10x -count 3 .

# The profiler-overhead gate; compare against the "host-time profiler"
# entry of BENCH_history.json (the disabled sampler hook must stay
# within 1% of the fault-era baseline).
bench-prof:
	$(GO) test -run xxx -bench BenchmarkProf -benchtime 20x -count 3 .

# The A/B gates below build the package's test binary once and hand
# vaxbench -compare two arms (binary:regex). vaxbench runs the
# interleaved A/B itself — 12 single-process rounds per arm at 25x,
# order swapped halfway, pooled medians — and adjudicates at the
# target's threshold. An A/B writes no ledger unless given -history, so
# none of these targets touches BENCH_history.json.
AB_BIN = /tmp/vax780_ab.test

# The trace-recorder gate: BenchmarkObs prices a run with the span
# recorder detached (the disabled path — every call site is one nil
# pointer test) and attached (span construction, exact flow
# attribution, JSONL export, wall strip — the work a vaxd job does to
# stage trace.jsonl). The attached recorder must stay within 25% of a
# detached run; the "trace recorder" entry of BENCH_history.json
# records the adjudication. The <1% disabled-path gate is
# cross-revision and lives in CI (recorder-overhead job: base
# BenchmarkFaults/off, BenchmarkProf/off and BenchmarkObs/off against
# head's, adjudicated at 5%).
bench-obs:
	$(GO) test -c -o $(AB_BIN) .
	$(GO) run ./cmd/vaxbench -compare -threshold 25 \
		'$(AB_BIN):^BenchmarkObs$$/^off$$' '$(AB_BIN):^BenchmarkObs$$/^on$$'

# The fusion-speedup gate: BenchmarkFusion prices the no-hook hot loop
# interpreted (NoFusion, the OLD arm) and fused (the default, NEW) over
# one shared generated trace. The superword engine must never be slower
# than the interpreter it replaces; a 3% threshold keeps shared-runner
# noise (one 100ms CPU-steal burst inflates a whole process sample) from
# tripping the gate. The "superword engine" entries of
# BENCH_history.json record the adjudications and the fusion verdict.
# The A/B's own entry goes to a scratch ledger for CI's drift check.
bench-fusion:
	$(GO) test -c -o $(AB_BIN) .
	rm -f /tmp/vax780_fusion_ab.json
	$(GO) run ./cmd/vaxbench -compare -threshold 3 -history /tmp/vax780_fusion_ab.json -label bench-fusion \
		'$(AB_BIN):^BenchmarkFusion$$/^off$$' '$(AB_BIN):^BenchmarkFusion$$/^on$$'

# The hooks-cell fusion gate: the same A/B as bench-fusion but with the
# full telemetry layer attached (interval recorder, Chrome tracer,
# flight recorder) — the cell that interpreted 100% of its cycles
# before the effect-summary engine proved superword replay legal under
# hooks. Fusing under telemetry must never be slower than interpreting
# under telemetry; the "fusion under hooks" entry of BENCH_history.json
# records the speedup.
bench-fusion-hooks:
	$(GO) test -c -o $(AB_BIN) .
	$(GO) run ./cmd/vaxbench -compare -threshold 3 \
		'$(AB_BIN):^BenchmarkFusionHooks$$/^off$$' '$(AB_BIN):^BenchmarkFusionHooks$$/^on$$'

# The service cache-hit gate; compare against the "vaxd cache-hit seed"
# entry of BENCH_history.json (a
# regression past the generous threshold means resubmissions started
# re-simulating instead of hitting the content-addressed store).
bench-vaxd:
	$(GO) test -run xxx -bench BenchmarkCacheHit -benchtime 200x -count 3 ./internal/jobs

# End-to-end service smoke: build vaxd, start it on a scratch data
# dir, run the walkthrough client twice — the second submission must
# be answered from the content-addressed cache — then SIGTERM the
# daemon and require a clean drained exit.
vaxd-smoke:
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/vaxd ./cmd/vaxd; \
	$(GO) build -o $$dir/vaxdclient ./examples/vaxdclient; \
	$$dir/vaxd -addr 127.0.0.1:8788 -data $$dir/data & pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -fs -o /dev/null http://127.0.0.1:8788/healthz 2>/dev/null && break; \
		sleep 0.1; \
	done; \
	$$dir/vaxdclient -addr 127.0.0.1:8788 -n 5000 -workloads TIMESHARING-A; \
	out=$$($$dir/vaxdclient -addr 127.0.0.1:8788 -n 5000 -workloads TIMESHARING-A); \
	echo "$$out" | grep -q 'cached=true' || \
		{ echo "vaxd-smoke: resubmission was not served from cache"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; \
	echo "vaxd-smoke: ok (cache hit + clean drain)"

# The longitudinal record: run the three per-change benchmark suites
# and append one dated medians entry to BENCH_history.json (cmd/vaxbench).
# LABEL names the change being measured.
bench-all:
	$(GO) test -run xxx -bench 'BenchmarkTelemetry|BenchmarkFaults|BenchmarkParallelRun|BenchmarkProf|BenchmarkObs' \
		-benchtime 20x -count 3 . | $(GO) run ./cmd/vaxbench -label "$(LABEL)"

# CI's cheap variant: one iteration of each suite piped through the
# vaxbench parser (into a throwaway history) to prove the toolchain works.
bench-smoke:
	@rm -f /tmp/vaxbench_smoke.json
	$(GO) test -run xxx -bench 'BenchmarkTelemetry|BenchmarkFaults|BenchmarkParallelRun|BenchmarkProf|BenchmarkObs' \
		-benchtime 1x -count 1 . | $(GO) run ./cmd/vaxbench -history /tmp/vaxbench_smoke.json -label smoke

# The benchmark harness (bench/) is a module of its own, so the root
# fmt-check, vet and test targets do not reach it: format-check, vet
# and test it here. `bash bench/run.sh` runs the benchmark itself.
bench-harness:
	@out=$$(cd bench && gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed in bench/ on:"; echo "$$out"; exit 1; fi
	cd bench && $(GO) vet ./... && $(GO) test ./...

experiments:
	$(GO) run ./cmd/vaxtables -n 200000 -o EXPERIMENTS.md

clean:
	$(GO) clean ./...
