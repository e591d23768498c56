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

# The telemetry-overhead gate; compare against BENCH_telemetry.json.
bench-telemetry:
	$(GO) test -run xxx -bench BenchmarkTelemetry -benchtime 20x -count 3 .

# The fault-hook overhead gate; compare against BENCH_faults.json
# (disabled hooks must stay within 1% of the telemetry-era baseline).
bench-faults:
	$(GO) test -run xxx -bench BenchmarkFaults -benchtime 20x -count 3 .

# The parallel-run scaling curve and hot-loop throughput gate; compare
# against BENCH_parallel.json (which records the measurement method).
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkParallelRun|BenchmarkSimulatorThroughput' -benchtime 10x -count 3 .

# The profiler-overhead gate; compare against BENCH_prof.json (the
# disabled sampler hook must stay within 1% of the fault-era baseline).
bench-prof:
	$(GO) test -run xxx -bench BenchmarkProf -benchtime 20x -count 3 .

# The trace-recorder gate: BenchmarkObs prices a run with the span
# recorder detached (the disabled path — every call site is one nil
# pointer test) and attached (span construction, exact flow
# attribution, JSONL export, wall strip — the work a vaxd job does to
# stage trace.jsonl). The two arms alternate at process granularity
# with the order swapped halfway — the interleaved A/B method recorded
# in BENCH_obs.json — then reduce to pooled medians and adjudicate via
# vaxbench -compare: the attached recorder must stay within 25%% of a
# detached run. The <1%% disabled-path gate is cross-revision and
# lives in CI (recorder-overhead job: base BenchmarkObs/off — or the
# fault/prof-era baselines before this layer existed — against head's,
# adjudicated at the same threshold as bench-faults/bench-prof).
bench-obs:
	@set -e; \
	$(GO) test -c -o /tmp/vax_obs.test .; \
	: > /tmp/obs_off.txt; : > /tmp/obs_on.txt; \
	for i in 1 2 3 4 5 6; do \
		/tmp/vax_obs.test -test.run xxx -test.bench '^BenchmarkObs$$/^off$$' -test.benchtime 10x >> /tmp/obs_off.txt; \
		/tmp/vax_obs.test -test.run xxx -test.bench '^BenchmarkObs$$/^on$$' -test.benchtime 10x >> /tmp/obs_on.txt; \
	done; \
	for i in 1 2 3 4 5 6; do \
		/tmp/vax_obs.test -test.run xxx -test.bench '^BenchmarkObs$$/^on$$' -test.benchtime 10x >> /tmp/obs_on.txt; \
		/tmp/vax_obs.test -test.run xxx -test.bench '^BenchmarkObs$$/^off$$' -test.benchtime 10x >> /tmp/obs_off.txt; \
	done; \
	rm -f /tmp/obs_detached.json /tmp/obs_attached.json; \
	$(GO) run ./cmd/vaxbench -history /tmp/obs_detached.json -label detached < /tmp/obs_off.txt; \
	sed 's|^BenchmarkObs/on|BenchmarkObs/off|' /tmp/obs_on.txt \
		| $(GO) run ./cmd/vaxbench -history /tmp/obs_attached.json -label attached; \
	$(GO) run ./cmd/vaxbench -compare -threshold 25 /tmp/obs_detached.json /tmp/obs_attached.json

# The fusion-speedup gate: BenchmarkFusion prices the no-hook hot loop
# fused (the default) and interpreted (NoFusion) over one shared
# generated trace. The two variants alternate at process granularity,
# order swapped halfway — the interleaved A/B method recorded in
# BENCH_fusion.json — then reduce to pooled medians and adjudicate via
# vaxbench -compare: the superword engine must never be slower than
# the interpreter it replaces. Twelve pooled-median samples a side and
# a 3%% threshold keep shared-runner noise (one 100ms CPU-steal burst
# inflates a whole process sample) from tripping the gate; the
# authoritative base-vs-head adjudication lives in BENCH_fusion.json.
bench-fusion:
	@set -e; \
	$(GO) test -c -o /tmp/vax_fusion.test .; \
	: > /tmp/fusion_on.txt; : > /tmp/fusion_off.txt; \
	for i in 1 2 3 4 5 6; do \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusion$$/^on$$' -test.benchtime 10x >> /tmp/fusion_on.txt; \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusion$$/^off$$' -test.benchtime 10x >> /tmp/fusion_off.txt; \
	done; \
	for i in 1 2 3 4 5 6; do \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusion$$/^off$$' -test.benchtime 10x >> /tmp/fusion_off.txt; \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusion$$/^on$$' -test.benchtime 10x >> /tmp/fusion_on.txt; \
	done; \
	rm -f /tmp/fusion_interp.json /tmp/fusion_fused.json; \
	sed 's|^BenchmarkFusion/off|BenchmarkFusion/on|' /tmp/fusion_off.txt \
		| $(GO) run ./cmd/vaxbench -history /tmp/fusion_interp.json -label interpreted; \
	$(GO) run ./cmd/vaxbench -history /tmp/fusion_fused.json -label fused < /tmp/fusion_on.txt; \
	$(GO) run ./cmd/vaxbench -compare -threshold 3 /tmp/fusion_interp.json /tmp/fusion_fused.json

# The hooks-cell fusion gate: the same interleaved A/B as bench-fusion
# but with the full telemetry layer attached (interval recorder, Chrome
# tracer, flight recorder) — the cell that interpreted 100%% of its
# cycles before the effect-summary engine proved superword replay legal
# under hooks. The adjudication is the same no-regression tripwire:
# fusing under telemetry must never be slower than interpreting under
# telemetry; the recorded speedup lives in BENCH_fusion.json.
bench-fusion-hooks:
	@set -e; \
	$(GO) test -c -o /tmp/vax_fusion.test .; \
	: > /tmp/fusionh_on.txt; : > /tmp/fusionh_off.txt; \
	for i in 1 2 3 4 5 6; do \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusionHooks$$/^on$$' -test.benchtime 10x >> /tmp/fusionh_on.txt; \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusionHooks$$/^off$$' -test.benchtime 10x >> /tmp/fusionh_off.txt; \
	done; \
	for i in 1 2 3 4 5 6; do \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusionHooks$$/^off$$' -test.benchtime 10x >> /tmp/fusionh_off.txt; \
		/tmp/vax_fusion.test -test.run xxx -test.bench '^BenchmarkFusionHooks$$/^on$$' -test.benchtime 10x >> /tmp/fusionh_on.txt; \
	done; \
	rm -f /tmp/fusionh_interp.json /tmp/fusionh_fused.json; \
	sed 's|^BenchmarkFusionHooks/off|BenchmarkFusionHooks/on|' /tmp/fusionh_off.txt \
		| $(GO) run ./cmd/vaxbench -history /tmp/fusionh_interp.json -label interpreted-hooks; \
	$(GO) run ./cmd/vaxbench -history /tmp/fusionh_fused.json -label fused-hooks < /tmp/fusionh_on.txt; \
	$(GO) run ./cmd/vaxbench -compare -threshold 3 /tmp/fusionh_interp.json /tmp/fusionh_fused.json

# The service cache-hit gate; compare against BENCH_vaxd.json (a
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
