GO ?= go
ROCE = $(GO) run ./cmd/roce

.PHONY: all check build test test-race vet fuzz audit chaos transports health rollout tenants bench report examples clean

all: build vet test

# Tier-1 gate: every PR must keep this green (see README). Order
# matters — gofmt and vet catch mistakes the compiler accepts (vet runs
# once per module: bench/ is a separate module the root `go vet ./...`
# stops at), build catches packages tests don't import, then the full
# test suite, then the benchmark module's own tests (the root
# `go test ./...` never reaches them either), then the golden experiments
# replayed under the runtime invariant auditor, then the quick chaos
# campaign (fault injection with safeguard scoring; exits nonzero if an
# expected safeguard fails to fire), then the quick transport matrix,
# the fleet health report, the staged-rollout campaign and the tenant
# matrix, each rendered once per format. `go test ./...` has already
# checked their byte-determinism and their goldens; these targets keep
# the commands' exit status and write the scorecards CI archives.
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd bench && $(GO) test ./...
	$(ROCE) audit
	$(ROCE) chaos-quick
	$(MAKE) transports
	$(MAKE) health
	$(MAKE) rollout
	$(MAKE) tenants

# Fleet health reports (see EXPERIMENTS.md "Fleet health"): both
# scenarios through the full health plane — scraper, SLO burn-rate
# engine, pingmesh heatmap. Text and JSON are each rendered once; the
# JSON lands in health-report.json for CI to archive
# (TestHealthReportsByteDeterministic checks both are byte-identical
# run to run). -fail-on-breach=false because the pfc-storm scenario
# breaching its SLOs is the expected result, not a gate failure.
health:
	$(ROCE) health -fail-on-breach=false
	$(ROCE) health -fail-on-breach=false -json > health-report.json

# Fault-injection campaigns (see EXPERIMENTS.md "Chaos campaigns").
# `make chaos` runs the small CI matrix; CAMPAIGN=full sweeps the whole
# fault library across the protected, unprotected and clos fleets.
chaos:
ifeq ($(CAMPAIGN),full)
	$(ROCE) chaos
else
	$(ROCE) chaos-quick
endif

# Three-way transport matrix (see EXPERIMENTS.md "Lossless vs lossy"):
# the same scenarios under PFC+DCQCN and both IRN variants. The default
# quick grid (storm + incast) runs once: every lossy cell must be
# pause-free and every victim must recover (the command exits nonzero
# otherwise); TestQuickMatrixDeterministicAndSafe checks that it renders
# byte-identically run to run. TRANSPORTS=full sweeps all four
# scenarios once.
transports:
ifeq ($(TRANSPORTS),full)
	$(ROCE) transports
else
	$(ROCE) transports-quick
endif

# Staged config-rollout campaign (see EXPERIMENTS.md "Config
# rollouts"): good and bad payloads pushed through the canary → tor →
# podset → fleet wave ladder with health-gated soaks and automatic
# rollback. The JSON scorecard is rendered once into
# rollout-scorecard.json for CI to archive, then the text once; the
# rollout TestGoldenJSON pins the JSON against
# internal/rollout/testdata/golden.json. The command exits nonzero if
# any case misses its expected outcome.
rollout:
	$(ROCE) rollout -json > rollout-scorecard.json
	$(ROCE) rollout

# Multi-tenant QoS matrix (see EXPERIMENTS.md "Multi-tenant
# isolation"): GPU collective and storage tenants solo, mixed, and
# mixed under a mid-run shared-PG fat-finger. The JSON scorecard is
# rendered once into tenants-scorecard.json for CI to archive, then the
# text once; the tenant TestGoldenJSON pins the JSON against
# internal/tenant/testdata/golden.json. The command exits nonzero when
# isolation fails under the configured mix, when the misconfig is not
# demonstrably worse, or when no safeguard catches it.
tenants:
	$(ROCE) tenants -json > tenants-scorecard.json
	$(ROCE) tenants

# Fuzz each reference-model target for 15 s. Plain `go test` replays
# only the seed corpora under testdata/fuzz/; this explores past them.
# A failing input is written to its target's testdata/fuzz/ directory;
# check it in there once fixed, so `go test` replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMMU$$' -fuzztime 15s ./internal/buffer
	$(GO) test -run '^$$' -fuzz '^FuzzRateArithmetic$$' -fuzztime 15s ./internal/simtime
	$(GO) test -run '^$$' -fuzz '^FuzzKernelOrder$$' -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzRouteTable$$' -fuzztime 15s ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzRegistry$$' -fuzztime 15s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzHistogram$$' -fuzztime 15s ./internal/stats

# Runtime invariant audit alone: the gate run of every scenario that
# takes an observer (livelock, deadlock, storm, incident) with the
# lossless/DCQCN auditor attached; exits nonzero on any violation.
audit:
	$(ROCE) audit

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The simulator is single-threaded by design; the race detector guards
# against accidental goroutine use creeping into the kernel. The race
# detector slows the experiment replays 5-10x, so the per-package
# timeout is raised above `go test`'s 10m default.
test-race:
	$(GO) test -race -timeout 30m ./...

# Regenerates every paper figure at scaled size with metrics in the
# benchmark output (see EXPERIMENTS.md for the mapping).
bench:
	$(GO) test -bench=. -benchmem ./...

# Consolidated reproduction report (fast experiments;
# REPORT=report-all adds the heavyweight figures too).
REPORT ?= report
report:
	$(ROCE) $(REPORT)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/keyvalue
	$(GO) run ./examples/searchservice
	$(GO) run ./examples/incidentdrill
	$(GO) run ./examples/verbsapi

clean:
	rm -f capture.pcap test_output.txt bench_output.txt
	rm -f *.pprof cpu.prof mem.prof health-report.json rollout-scorecard.json
	rm -f tenants-scorecard.json
