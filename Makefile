# Development entry points. `make check` is the full gate CI runs.

GO ?= go

# Packages with worker pools / goroutine fan-out, and the packages whose
# state those workers share (obs, faultinject, runctl's error slot): the
# race-detector set. The race detector is the repository's one
# concurrency check, so each shared-state package carries tests that
# drive its methods from several goroutines at once.
RACE_PKGS = ./internal/burst ./internal/poolsim ./internal/rs ./internal/syssim ./internal/cluster ./internal/runctl ./internal/obs ./internal/faultinject

.PHONY: check build vet lint test examples race stress bench bench-smoke bench-check fuzz obs-smoke chaos

## check: build + vet + mlecvet + tests + race tests — the CI gate.
check: build vet lint test examples bench-smoke bench-check race stress obs-smoke chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repository's own static-analysis suite (see internal/lint).
## The committed baseline ratchets per-analyzer finding counts (they may
## fall, never rise) and the timeout is the CI budget: a run that cannot
## finish in 60s is itself a regression and exits 2. hotalloc, hotbce
## and hotinline read the compiler's own verdicts: the first run compiles
## the hot packages with -d=ssa/check_bce -m=2, later runs replay the
## diagnostics from the build cache.
lint:
	$(GO) run ./cmd/mlecvet -baseline lint/baseline.json -timeout 60s ./...

test:
	$(GO) test ./...

## examples: run every examples/ program; each must exit 0 (go build
## ./... only compiles them).
examples:
	set -e; for d in examples/*/; do echo "== go run ./$${d%/}"; $(GO) run ./$${d%/}; done

## race: race-detect the concurrent simulator packages and the state
## their workers share, and the experiments that share products between
## concurrent workers: syssim, whose four schemes run at once and share
## their dealt pools, and the heatmaps, whose panels score one campaign's
## layouts (the rest of internal/experiments fans out only through the
## packages above).
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'SysSim|Heatmap' ./internal/experiments

## stress: repeat the cancellation and checkpoint-resume tests under
## the race detector — mid-run cancels exercise the pool drain paths
## that a single pass can miss.
stress:
	$(GO) test -race -count=3 -run 'Cancel|Resume|Partial|Context|Pool|Checkpoint' \
		./internal/runctl ./internal/poolsim ./internal/burst ./internal/syssim

## obs-smoke: prove observability is inert. Builds mlecdur/mlecburst,
## byte-compares fixed-seed stdout with the full -progress/-trace-out/
## -span-out/-run-report/-profile-dir stack on vs off and across a failed
## checkpoint save and its resume, validates the trace, span and report
## files, and checks that the progress line reaches stderr and the run
## report counts the engine's work.
obs-smoke:
	$(GO) test -count=1 -run 'TestCLIInertness' ./internal/obs

## chaos: the deterministic fault-injection matrix (see
## internal/faultinject). Builds mlecdur/mlecburst with -race and
## asserts that fixed-seed campaigns whose worker panics or errors, or
## whose checkpoint write tears, after a checkpoint save fail, then
## resume to stdout byte-identical to the fault-free run, and that a
## deliberately corrupted checkpoint generation converges to the same
## bytes. CHAOS_REPORT collects per-case verdicts (the CI artifact).
CHAOS_REPORT ?= chaos-report.txt
chaos:
	rm -f $(CHAOS_REPORT)
	CHAOS_REPORT=$(abspath $(CHAOS_REPORT)) $(GO) test -count=1 -run 'TestChaos' ./internal/faultinject
	@cat $(CHAOS_REPORT)

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

## bench-smoke: run every Benchmark* body exactly once (the gf256 Apply
## and lrc global-solve micro-benchmarks no bench/ metric times, and
## mlecvet's whole-repo run), so a benchmark whose setup or call site
## broke fails the gate instead of only compiling.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

## bench-check: the repository benchmark (bench/, a module of its own
## that build, test and lint above do not descend into) still builds
## against this checkout, passes its own tests and the analyzers. It
## times calls into a fixed list of entry points (bench/README.md, "The
## stable call surface"); a change that reshapes one fails here.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run mlec/cmd/mlecvet ./...

## fuzz: short fuzzing smoke of the hand-written parsers (failure-trace
## files, //lint:allow directives) and of the burst sampler, the
## declustered stripe dealer, the bit-sliced pool state, the codecs and
## the lazily seeded rngsplit.Source against their references (math/rand
## for the last), and of the cluster's degraded read under
## arbitrary disk failures. `go test -fuzz` accepts a single
## target per invocation, hence one line each.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=10s ./internal/failure
	$(GO) test -run='^$$' -fuzz=FuzzParseAllowDirective -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzTaintEngine -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzHotalloc -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzLoadCheckpoint -fuzztime=10s ./internal/runctl
	$(GO) test -run='^$$' -fuzz=FuzzSampleLayout -fuzztime=10s ./internal/burst
	$(GO) test -run='^$$' -fuzz=FuzzDeclusteredStripes -fuzztime=10s ./internal/placement
	$(GO) test -run='^$$' -fuzz=FuzzPoolMatchesReference -fuzztime=10s ./internal/poolsim
	$(GO) test -run='^$$' -fuzz=FuzzCodecMatchesReference -fuzztime=10s ./internal/gf256
	$(GO) test -run='^$$' -fuzz=FuzzClusterReadAfterFailures -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s ./internal/mathx/rngsplit
