# Developer entry points. Stdlib-only Go; no external tools needed.

GO ?= go
FUZZTIME ?= 30s
# Minimum acceptable total statement coverage (see "coverage"). The
# repo sits at ~80.8%; the floor leaves headroom for flaky exclusions
# while still catching a PR that lands a large untested subsystem.
COVERAGE_BASELINE ?= 78.0

.PHONY: all build vet vet-custom lint-programs test race bench bench-json bench-baseline fmt-check fuzz-smoke verify serve-smoke serve-load explain-golden metrics-lint flight-soak wal-soak coverage

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom analyzers (internal/lint via cmd/vet-unchained): stage loops
# must poll context cancellation, tuple payloads must not be mutated
# outside internal/tuple. See docs/ANALYSIS.md.
vet-custom:
	$(GO) build -o bin/vet-unchained ./cmd/vet-unchained
	$(GO) vet -vettool=$(CURDIR)/bin/vet-unchained ./...

# Run the static analyzer (-lint) over every shipped program; exits
# non-zero if any acquires an error-severity diagnostic.
lint-programs:
	@for p in programs/*.dl; do \
		$(GO) run ./cmd/datalog -program $$p -lint >/dev/null || exit 1; done
	@for p in programs/*.wl; do \
		$(GO) run ./cmd/datalog -program $$p -language while -lint >/dev/null || exit 1; done
	@echo "lint-programs: all programs clean"

# Fail if any file needs gofmt; print the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the machine-readable experiment report (quick sizes).
bench-json:
	$(GO) run ./cmd/unchained-bench -quick -json BENCH_PR10.json

# Compare a fresh quick run against the checked-in report; exits
# non-zero when an experiment or benchmark slowed down by >25%.
bench-baseline:
	$(GO) run ./cmd/unchained-bench -quick -baseline BENCH_PR10.json -tolerance 0.25

# Run each native fuzz target briefly ("go test -fuzz" accepts one
# target per invocation). Override FUZZTIME for longer local hunts.
fuzz-smoke:
	$(GO) test ./internal/parser -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/parser -run='^$$' -fuzz='^FuzzParseFacts$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/while -run='^$$' -fuzz='^FuzzWhileParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/analyze -run='^$$' -fuzz='^FuzzAnalyze$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tuple -run='^$$' -fuzz='^FuzzRelation$$' -fuzztime=$(FUZZTIME)
	$(GO) test . -run='^$$' -fuzz='^FuzzOptimize$$' -fuzztime=$(FUZZTIME)

# Durability soak under the race detector: replay the write-ahead log
# through every injected kill point (≥50, including mid-record torn
# writes) and through a SIGKILL'd child process; recovered state must
# match the survived prefix exactly each time. The CI "durability" job
# runs this on every push.
wal-soak:
	$(GO) test -race -count=1 -run 'TestWALKillPointSoak|TestWALSIGKILLSoak' -v ./internal/store/

# Total-coverage gate: fail if statement coverage across ./... drops
# below COVERAGE_BASELINE percent. Writes coverage.out for the CI
# artifact upload (go tool cover -html=coverage.out to browse).
coverage:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "coverage: total $$total% (floor $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage: $$total% is below the $(COVERAGE_BASELINE)% floor"; exit 1; }

# Render the win-game derivation explanation and diff it against the
# checked-in golden — catches drift in either the WFS engine or the
# trace narrative (see docs/OBSERVABILITY.md).
explain-golden:
	$(GO) run ./cmd/datalog -program programs/win.dl -facts programs/facts/game_e32.facts \
		-semantics wellfounded -explain | diff -u cmd/datalog/testdata/golden/win_explain.txt -

# Boot the HTTP daemon on a loopback port and run the smoke sequence:
# /healthz, one terminating eval, one deadline-bounded eval (must be
# interrupted with partial stats), /statsz counters.
serve-smoke:
	$(GO) run ./cmd/unchained-serve -selftest

# Drive the daemon past saturation with the in-process load generator:
# admission must shed (429 + Retry-After), queue waits must bound p99,
# no unexpected 5xx, and the daemon's counters must match the client's
# observations. See docs/PARALLEL.md.
serve-load:
	$(GO) run ./cmd/unchained-bench -serve -serve-duration 5s

# Boot a loopback daemon, drive traffic over every metric family, and
# lint the live /metrics exposition with the hand-rolled checker
# (internal/promlint): stable HELP/TYPE, no duplicate series, counter
# naming, histogram completeness, bounded label cardinality.
metrics-lint:
	$(GO) run ./cmd/unchained-serve -metrics-lint

# Saturate the daemon under the race detector: the flight recorder's
# ring, top-K heap, and tenant table all take concurrent writes while
# /debug/flight readers page through them.
flight-soak:
	$(GO) test -race -run 'TestFlight|TestLiveExposition' ./internal/serve/ ./internal/promlint/
	$(GO) run -race ./cmd/unchained-bench -serve -serve-duration 5s

# Tier-1 verification (see ROADMAP.md) plus the custom analyzers and
# the program-library lint sweep.
verify: fmt-check build vet vet-custom test race lint-programs
