# Development entry points. `make check` is the full gate CI runs.

GO ?= go

# Packages with worker pools / goroutine fan-out: the race-detector set.
RACE_PKGS = ./internal/burst ./internal/poolsim ./internal/rs ./internal/syssim ./internal/cluster ./internal/runctl ./internal/obs

.PHONY: check build vet lint test race stress bench bench-check bench-json bench-engines fuzz obs-smoke chaos race-oracle

## check: build + vet + mlecvet + tests + race tests — the CI gate.
check: build vet lint test bench-check race stress obs-smoke chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repository's own static-analysis suite (see internal/lint).
## The committed baseline ratchets per-analyzer finding counts (they may
## fall, never rise) and the timeout is the CI budget: a run that cannot
## finish in 60s is itself a regression and exits 2. hotbce and hotinline
## read the compiler's own verdicts: the first run compiles the hot
## packages with -d=ssa/check_bce -m=2, later runs replay the
## diagnostics from the build cache.
lint:
	$(GO) run ./cmd/mlecvet -baseline lint/baseline.json -timeout 60s ./...

## race-oracle: cross-check the concurrency analyzers (lockcheck,
## atomicmix, goleak, waitgroupcapture) against the race detector. Generates a stress harness for every //mlec:guardedby
## annotation, runs the annotated packages' tests under -race in a
## throwaway GOCACHE, and fails on any data race the static suite
## cannot claim; CI uploads the unexplained reports as an artifact.
race-oracle:
	$(GO) run ./cmd/mlecvet -race-oracle ./...

test:
	$(GO) test ./...

## race: race-detect the concurrent simulator packages.
race:
	$(GO) test -race $(RACE_PKGS)

## stress: repeat the cancellation / checkpoint-resume tests under the
## race detector — mid-run cancels exercise the pool drain paths that a
## single pass can miss.
stress:
	$(GO) test -race -count=3 -run 'Cancel|Resume|Partial|Context|Pool' \
		./internal/runctl ./internal/poolsim ./internal/burst ./internal/syssim

## obs-smoke: prove observability is inert. Builds mlecdur/mlecburst,
## byte-compares fixed-seed stdout with the full -obs/-progress/
## -trace-out stack on vs off, validates the trace file, and scrapes a
## live endpoint: /metrics through the strict Prometheus parser (the
## burst trial counter must be counting) and /progress for the task.
obs-smoke:
	$(GO) test -count=1 -run 'TestCLIInertness|TestEndpointServes' ./internal/obs

## chaos: the deterministic fault-injection matrix (see
## internal/faultinject). Builds mlecdur/mlecburst with -race and
## asserts that fixed-seed campaigns with injected worker panics, torn
## checkpoint writes, and a deliberately corrupted checkpoint
## generation all converge to stdout byte-identical to the fault-free
## run. CHAOS_REPORT collects per-case verdicts (the CI artifact).
CHAOS_REPORT ?= chaos-report.txt
chaos:
	rm -f $(CHAOS_REPORT)
	CHAOS_REPORT=$(abspath $(CHAOS_REPORT)) $(GO) test -count=1 -run 'TestChaos' ./internal/faultinject
	@cat $(CHAOS_REPORT)

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

## bench-check: the repository benchmark (bench/, a module of its own
## that build, test and lint above do not descend into) still builds
## against this checkout, passes its own tests and the analyzers. It
## times calls into a fixed list of entry points (bench/README.md, "The
## stable call surface"); a change that reshapes one fails here.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run mlec/cmd/mlecvet ./...

## bench-json: append a run to the committed kernel ledger
## (BENCH_gf256.json): GB/s and allocs/op for the gf256 primitives and
## the RS encode/reconstruct paths. LABEL names the run; APPEND=1 keeps
## the runs already in the file so before/after pairs sit side by side.
## The ledgers record a trajectory; whether a change moved a number is
## decided by bench/'s -compare on alternating prebuilt pairs
## (bench/README.md), not by comparing one run with a committed one.
LABEL ?= dev
bench-json:
	$(GO) run ./cmd/mlecbench kernels -label $(LABEL) -out BENCH_gf256.json $(if $(APPEND),-append)

## bench-engines: append a run to the committed engine ledger
## (BENCH_engines.json): events per wall second for the pinned-seed
## poolsim / syssim / burst campaigns, counted by the engines' own obs
## counters. Same LABEL/APPEND discipline as bench-json.
bench-engines:
	$(GO) run ./cmd/mlecbench engines -label $(LABEL) -out BENCH_engines.json $(if $(APPEND),-append)

## fuzz: short fuzzing smoke of the hand-written parsers (failure-trace
## files, //lint:allow directives) and of the burst sampler and the
## codecs against their references. `go test -fuzz` accepts a single
## target per invocation, hence one line each.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=10s ./internal/failure
	$(GO) test -run='^$$' -fuzz=FuzzParseAllowDirective -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzTaintEngine -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzEscapeEngine -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzLockStateEngine -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzLoadCheckpoint -fuzztime=10s ./internal/runctl
	$(GO) test -run='^$$' -fuzz=FuzzSampleLayoutMatchesReference -fuzztime=10s ./internal/burst
	$(GO) test -run='^$$' -fuzz=FuzzCodecMatchesReference -fuzztime=10s ./internal/gf256
