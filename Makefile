GO ?= go

.PHONY: check build vet test race lint-examples campaign-smoke fleet-smoke bench-snapshot bench-compare bench-compare-test fuzz-smoke cover

# The CI gate: everything a PR must pass.
check: vet build test race lint-examples campaign-smoke fleet-smoke bench-compare-test

build:
	$(GO) build ./...

# Static analysis: go vet always; staticcheck (pinned) when installed —
# the container-friendly gate. CI installs the pinned version and runs both.
STATICCHECK_VERSION ?= 2025.1.1
vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "vet: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

# The root package's end-to-end assertions take ~17 min under the race
# detector, past the default 10-minute per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Strict-lint the built-in cores and the bundled example netlists; the
# seeded-defect fixtures under cmd/netlistlint/testdata are exercised (and
# expected to fail) by that package's tests, not here.
lint-examples:
	$(GO) run ./cmd/netlistlint -strict -cpu avr
	$(GO) run ./cmd/netlistlint -strict -cpu msp430
	$(GO) run ./cmd/netlistlint -strict -verilog cmd/netlistlint/testdata/clean.v

# End-to-end crash-resume drill: interrupt a short campaign mid-flight,
# resume from its journal, and require the exact uninterrupted result.
# Also scrapes a live /metrics endpoint during a campaign.
campaign-smoke:
	./scripts/campaign_smoke.sh

# Distributed fault-tolerance drill: coordinator + workers with a zombie
# lease and a SIGKILLed worker; the merged journal must be diff-clean
# against an uninterrupted single-process run.
fleet-smoke:
	./scripts/fleet_smoke.sh

# Refresh a committed benchmark snapshot (default: the BENCH_0.json
# baseline; BENCH_OUT=BENCH_1.json snapshots the current tree next to it).
# Knobs: BENCH=regex BENCHTIME=10x COUNT=3 make bench-snapshot
BENCH_OUT ?= BENCH_0.json
bench-snapshot:
	./scripts/bench_snapshot.sh $(BENCH_OUT)

# Snapshot the current tree and compare it against the newest committed
# baseline (highest-numbered BENCH_N.json, so benchmarks added after
# BENCH_0 are compared too), warning on >15% ns/op regressions. The
# campaign hot-path benchmarks (BENCH_STRICT_RE) fail the run outright on
# regression or when missing from the snapshot; everything else stays
# advisory (STRICT=1 fails on any).
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCH_STRICT_RE ?= ^BenchmarkCampaign
bench-compare:
	./scripts/bench_snapshot.sh /tmp/bench_now.json
	STRICT_RE='$(BENCH_STRICT_RE)' ./scripts/bench_compare.sh $(BENCH_BASELINE) /tmp/bench_now.json

# Table test of the bench-compare gate itself on small fixture snapshots:
# pass, strict regression, missing strict and missing advisory benchmarks.
bench-compare-test:
	./scripts/bench_compare_test.sh

# Short native-fuzzing smoke: each target gets a few seconds on top of its
# seeded corpus. Full fuzzing sessions use `go test -fuzz ... -fuzztime 5m`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadRaw -fuzztime 10s ./internal/verilog
	$(GO) test -run '^$$' -fuzz FuzzMATESetRoundTrip -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzBDDEval -fuzztime 10s ./internal/exact
	$(GO) test -run '^$$' -fuzz FuzzGatherScatterW -fuzztime 10s ./internal/sim

# Coverage over the library packages (the cmd/ mains are exercised by the
# smoke scripts, not unit tests).
cover:
	$(GO) test -short -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) tool cover -func=cover.out | tail -1
