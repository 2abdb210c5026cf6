GO ?= go

.PHONY: all check build vet lint lint-fix-check test test-shuffle test-race test-386 prop fuzz-smoke bench bench-json bench-gate bench-ab bench-harness serve-smoke report examples clean

all: build vet lint test test-race report serve-smoke

# Fast pre-commit gate: compile, vet, determinism lint, unit tests (no race
# detector), a shuffled re-run (test-order independence), the cold-vs-cached
# report identity check, the service-mode smoke (humnetd + humnetload
# determinism end-to-end), and the benchmark harness's vet and tests.
check: build vet lint test test-shuffle report serve-smoke bench-harness

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Run the repo's determinism linters (internal/analysis via cmd/humnetlint):
# rangemap, wildrand, errdrop, paraccum plus the interprocedural aliasret,
# ctxflow, atomicmix, undoscope. Exits nonzero on findings. Use
# `go run ./cmd/humnetlint -json` for machine-readable output (CI
# annotation) and //humnet:allow <rule> -- <reason> for documented
# exceptions; see DESIGN.md "Determinism invariants" and §9.
lint:
	$(GO) run ./cmd/humnetlint

# Apply the linters' suggested fixes (aliasret copy-on-return, ctxflow
# context forwarding) in place, then verify a second pass edits nothing:
# fixes must be idempotent. CI runs this in a scratch worktree.
lint-fix-check:
	$(GO) run ./cmd/humnetlint -fix
	$(GO) run ./cmd/humnetlint -fix 2>&1 | grep -q "applied 0 fix edit(s) in 0 file(s)"
	$(GO) build ./...
	$(GO) test ./...

test:
	$(GO) test ./...

# Re-run the suite with shuffled test and subtest order: no test may depend
# on state another test left behind (golden caches, package-level registries,
# tempdirs). The seed is printed on failure for reproduction.
test-shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# Run the whole suite under the race detector; the parallel engine and its
# call sites (graph centrality, bootstrap CIs, ixp sweeps) must stay clean.
test-race:
	$(GO) test -race ./...

# The whole suite built for 32-bit x86: catches int-width assumptions (a
# constant or total that overflows a 32-bit int, the 4-byte routing cells'
# limits) that a 64-bit run never sees. cgo is off because the net
# package's cgo resolver does not cross-compile; the suite needs no cgo.
test-386:
	CGO_ENABLED=0 GOARCH=386 $(GO) test ./...

# Deep property-based run: every TestProp* invariant suite (internal/proptest
# driver) at PROPTEST_N iterations per property instead of the small default
# budget. Failures print a PROPTEST_REPLAY token that re-executes exactly the
# shrunk counterexample; see DESIGN.md "Dynamic invariants".
PROPTEST_N ?= 2000
prop:
	PROPTEST_N=$(PROPTEST_N) $(GO) test -run 'TestProp' ./internal/...

# Short native-fuzz pass over every Fuzz* target (seeds + FUZZTIME of
# mutation each). The targets are found from the `func Fuzz...`
# declarations in each package's *_test.go files, so a new target cannot be
# left out. `go test -fuzz` takes one target per invocation, hence the loop.
# Not part of `make check`; CI runs it as its own job.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; pkgs=$$($(GO) list -f '{{.ImportPath}}:{{.Dir}}' ./...); n=0; \
	for p in $$pkgs; do \
		for fn in $$(cat "$${p#*:}"/*_test.go 2>/dev/null | sed -nE 's/^func (Fuzz[A-Za-z0-9_]+)\(.*/\1/p'); do \
			echo "fuzz-smoke: $$fn ($${p%%:*})"; \
			$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $${p%%:*}; \
			n=$$((n + 1)); \
		done; \
	done; \
	[ $$n -gt 0 ] || { echo "fuzz-smoke: no Fuzz targets found" >&2; exit 1; }

# Time every experiment's registered scenario (E1-E16, the A1/A3 ablations)
# plus the root graph benchmarks. Nothing is printed: the tables come from
# `make report` (cmd/reportgen).
bench:
	$(GO) test -bench=. -benchmem .

# Record the routing-engine + E1-E10 benchmark baseline into
# BENCH_bgpsim.json (ns/op, B/op, allocs/op per benchmark) and the timeline
# replay baseline into BENCH_timeline.json (plus events/sec and cells/event
# custom metrics for the flap-storm and composed replays; the 10k-AS
# flap-storm replay records the steady-state allocation of Apply/Revert at
# scale, undo records included). Every benchmark
# runs five times (-count 5); benchjson folds the repeats into one row of
# medians with the ns/op min/max and the sample count. Five samples of the
# 50k/100k-AS convergences outlast go test's default 10-minute timeout, hence
# -timeout 0. The baselines are
# committed; re-run after perf-relevant changes and diff. BENCHTIME=1x gives
# a quick single-iteration snapshot. BENCHREGEXP covers the engine scales,
# the incremental-vs-cold delta pair, and the event-driven sweep pairs;
# ROOTREGEXP the E1-E10 scenarios, biblio-graph and the k-core decomposition.
BENCHTIME ?= 1s
BENCHREGEXP = ^(BenchmarkConverge|BenchmarkDelta|BenchmarkSweep|BenchmarkLeakSweepEndToEnd|BenchmarkRunLeakSweep)
ROOTREGEXP = ^(BenchmarkE([1-9]|10)[A-Z]|BenchmarkBiblioGraph$$|BenchmarkKCore$$)
TIMELINEREGEXP = ^(BenchmarkReplayFlapStorm|BenchmarkReplayFlapStormScale|BenchmarkComposedReplay)$$
bench-json:
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(BENCHREGEXP)' \
		-benchmem -benchtime $(BENCHTIME) -count 5 -timeout 0 ./internal/bgpsim >>$$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) test -run '^$$' -bench '$(ROOTREGEXP)' \
		-benchmem -benchtime $(BENCHTIME) -count 5 -timeout 0 . >>$$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchjson -out BENCH_bgpsim.json <$$tmp; \
	rm -f $$tmp
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(TIMELINEREGEXP)' \
		-benchmem -benchtime $(BENCHTIME) -count 5 -timeout 0 ./internal/timeline >>$$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchjson -out BENCH_timeline.json <$$tmp; \
	rm -f $$tmp

# Re-run the same benchmarks and gate them against the committed baselines:
# any benchmark whose ns/op regressed more than MAXREGRESS percent, or whose
# B/op regressed more than a fixed 10 percent, fails.
# Benchmarks that exist on only one side (added/retired) are reported, never
# fatal. CI runs this with a looser threshold to absorb shared-runner noise.
MAXREGRESS ?= 25
bench-gate:
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(BENCHREGEXP)' \
		-benchmem -benchtime $(BENCHTIME) ./internal/bgpsim >>$$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) test -run '^$$' -bench '$(ROOTREGEXP)' \
		-benchmem -benchtime $(BENCHTIME) . >>$$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchjson -compare BENCH_bgpsim.json -max-regress $(MAXREGRESS) <$$tmp \
		|| { rm -f $$tmp; exit 1; }; \
	rm -f $$tmp
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(TIMELINEREGEXP)' \
		-benchmem -benchtime $(BENCHTIME) ./internal/timeline >>$$tmp || { rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchjson -compare BENCH_timeline.json -max-regress $(MAXREGRESS) <$$tmp \
		|| { rm -f $$tmp; exit 1; }; \
	rm -f $$tmp

# Paired A/B evidence for the working tree against PARENT (a git revision):
# export PARENT's tree into a temporary directory (git archive, so nothing is
# registered in the repository), build both sides' internal/bgpsim test
# binaries, run them alternately PAIRS times at -count 1 over BENCHREGEXP
# (the first side alternates too), fold each side with cmd/benchjson -out,
# and print cmd/benchjson -compare of the change's runs against the parent's
# folded medians. Tooling for a change's evidence, not a gate and not in CI;
# narrow BENCHREGEXP to the rows a change claims, for example
# make bench-ab PARENT=HEAD~ BENCHREGEXP='^BenchmarkConverge(Phases|Scale)$$'.
# ABDIR, when set, keeps both sides' raw runs and folded JSON there.
PARENT ?= HEAD
PAIRS ?= 6
ABDIR ?=
bench-ab:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/parent"; git archive $(PARENT) | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) test -c -o "$$tmp/parent.test" ./internal/bgpsim); \
	$(GO) test -c -o "$$tmp/change.test" ./internal/bgpsim; \
	run() { (cd "$$2/internal/bgpsim" && "$$tmp/$$1.test" -test.run '^$$' -test.bench '$(BENCHREGEXP)' \
		-test.benchmem -test.benchtime $(BENCHTIME) -test.count 1 -test.timeout 0) >>"$$tmp/$$1.txt"; }; \
	for i in $$(seq 1 $(PAIRS)); do \
		echo "bench-ab: pair $$i of $(PAIRS)"; \
		if [ $$((i % 2)) -eq 1 ]; then run parent "$$tmp/parent"; run change .; \
		else run change .; run parent "$$tmp/parent"; fi; \
	done; \
	$(GO) run ./cmd/benchjson -out "$$tmp/parent.json" <"$$tmp/parent.txt"; \
	$(GO) run ./cmd/benchjson -out "$$tmp/change.json" <"$$tmp/change.txt"; \
	[ -z "$(ABDIR)" ] || cp "$$tmp"/*.txt "$$tmp"/*.json "$(ABDIR)"; \
	echo "bench-ab: $(PAIRS) pairs, $(PARENT) -> working tree"; \
	$(GO) run ./cmd/benchjson -compare "$$tmp/parent.json" -max-regress $(MAXREGRESS) <"$$tmp/change.txt"

# Vet and test the benchmark harness. bench/ is its own module (it imports
# this one through a replace directive), so the root `go test ./...` never
# builds it; this target catches an API change that breaks the harness.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One-command Markdown report of all measured tables, generated twice through
# the experiment registry's result cache — once cold, once warm — and compared
# byte-for-byte. A diff means a scenario broke the determinism contract or the
# cache round-trip lost precision; either is a bug. The warm run's -cache-stats
# line (all hits, zero misses) is the proof it re-rendered without re-executing.
report:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/reportgen -cache-dir $$tmp/cache -cache-stats -out $$tmp/cold.md || { rm -rf $$tmp; exit 1; }; \
	$(GO) run ./cmd/reportgen -cache-dir $$tmp/cache -cache-stats -out $$tmp/warm.md || { rm -rf $$tmp; exit 1; }; \
	cmp $$tmp/cold.md $$tmp/warm.md || { echo "report: warm-cache output differs from cold run" >&2; rm -rf $$tmp; exit 1; }; \
	cp $$tmp/cold.md REPORT.md; \
	rm -rf $$tmp; \
	echo "wrote REPORT.md (cold and cached runs byte-identical)"

# Service-mode smoke: start humnetd on an ephemeral port over a fresh disk
# cache, replay a short deterministic Zipf trace twice with humnetload, and
# assert (a) byte-identical response digests across the two replays and
# (b) via /metrics that repeated (id, seed, params) triples executed their
# scenario exactly once (coalescing + LRU + disk cache). Wired into `check`.
serve-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/humnetd ./cmd/humnetd || { rm -rf $$tmp; exit 1; }; \
	$(GO) build -o $$tmp/humnetload ./cmd/humnetload || { rm -rf $$tmp; exit 1; }; \
	$$tmp/humnetd -addr 127.0.0.1:0 -addr-file $$tmp/addr -cache-dir $$tmp/cache 2>$$tmp/daemon.log & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "serve-smoke: humnetd did not start:" >&2; cat $$tmp/daemon.log >&2; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	$$tmp/humnetload -addr $$(cat $$tmp/addr) -n 2000 -variants 2 -repeat 2 -workers 16 \
		-scenarios E7,E8,E9,E10,E17,E19,E20 -expect-single-exec \
		|| { echo "serve-smoke: humnetload failed" >&2; cat $$tmp/daemon.log >&2; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null; rm -rf $$tmp; \
	echo "serve-smoke ok (deterministic responses, single execution per triple)"

examples:
	@for ex in examples/*/; do \
		echo "== $$ex =="; \
		$(GO) run ./$$ex >/dev/null || exit 1; \
	done; echo "all examples ran"
