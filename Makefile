GO ?= go

.PHONY: build test race vet fmt staticcheck check bench bench-core bench-diff bench-smoke bench-serve-smoke demo serve-smoke chaos fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file under the repository
# root (servebench included) is not gofmt-formatted. It changes
# nothing; run `gofmt -w` on the files it names.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -l reports unformatted files:"; \
		echo "$$out"; \
		exit 1; \
	fi

# staticcheck runs honest-to-goodness staticcheck when the binary is
# on PATH and is a no-op otherwise, so `make check` works on machines
# without it installed.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# serve-smoke boots clio serve, drives a create/corr/walk/illustrate
# round-trip over HTTP, kills the server with SIGKILL mid-session,
# verifies the journal replays it on restart, and checks graceful
# shutdown.
serve-smoke:
	sh scripts/serve_smoke.sh

# chaos runs the deterministic fault-injection suite under the race
# detector with a pinned seed, so any failure replays exactly.
chaos:
	CLIO_CHAOS_SEED=1 $(GO) test -race -run 'Chaos|Journal|Budget|Mode|Prob' ./internal/fault ./internal/fd ./internal/workspace ./internal/serve ./internal/csvio ./internal/discovery ./internal/spill ./internal/algebra ./internal/budget

# fuzz runs every Fuzz* target of the module (servebench, a module of
# its own, excluded) for FUZZTIME each, one `go test -fuzz` call per
# target because go test fuzzes one target at a time. It needs no
# network. It is not part of check, which stays seeded and
# reproducible; the seed corpora already run under `go test`.
FUZZTIME ?= 3s

fuzz:
	@set -e; \
	for file in $$(grep -rl --include='*_test.go' --exclude-dir=servebench '^func Fuzz' . | sort); do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' $$file); do \
			echo "fuzz $$(dirname $$file) $$name"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$(dirname $$file); \
		done; \
	done

# check is the tier-1 verification gate: gofmt, vet, staticcheck (when
# installed), build, tests, race tests, the chaos suite, the serve
# smoke test, a one-iteration pass over the execution-core benchmark
# workloads, and the serve benchmark's smoke tests.
check: fmt vet staticcheck build test race chaos serve-smoke bench-smoke bench-serve-smoke

bench:
	$(GO) run ./cmd/cliobench -quick

# bench-core measures the streaming execution core (E10: D(G), join,
# minimum-union and distinct micro-workloads) and writes the numbers
# quoted in the PR to BENCH_core.json.
bench-core:
	$(GO) run ./cmd/cliobench -exp E10 -json BENCH_core.json

# bench-diff is the regression gate: a fresh full-size E10 run
# compared cell-by-cell against the committed BENCH_core.json medians,
# failing on any >25% regression. Run it before committing a core
# change; refresh the baseline with bench-core when a change is
# intentional.
bench-diff:
	$(GO) run ./cmd/cliobench -exp E10 -diff BENCH_core.json

# bench-smoke runs each E10 workload exactly once — a fast liveness
# check that the benchmark harness itself still works — and diffs the
# run against the committed baseline in structural mode (every
# baseline cell must still exist; timings are not enforced at smoke
# sizes).
bench-smoke:
	$(GO) run ./cmd/cliobench -exp E10 -quick -once -diff BENCH_core.json

# bench-serve-smoke runs the serve-session benchmark's smoke tests.
# servebench is a Go module of its own, so `go test ./...` at the root
# never reaches them; they fail when the spans or counters its fold
# reads disappear.
bench-serve-smoke:
	cd servebench && $(GO) test ./...

demo:
	$(GO) run ./cmd/cliodemo
