GO ?= go

.PHONY: all vet lint build test alloc-guard inline-guard race bench bench-smoke bench-pair trace-verify chaos verify-protocol check

all: check

vet:
	$(GO) vet ./...

# lint fails on unformatted files (gofmt prints nothing when clean) and
# runs go vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# alloc-guard runs, by name, the guards that the allocation and
# reclamation paths make no Go-heap allocation: a warmed Mutator.Alloc
# of a pointer-free object allocates nothing (block publications and
# collection requests included), the block-free primitive allocates
# nothing, and a warmed partial collection allocates the same small
# constant whether it frees 10 000 cells or 100 000. A reintroduced
# per-object, per-batch or per-cycle allocation fails here rather than
# in a benchmark.
alloc-guard:
	$(GO) test -count=1 -run 'TestMutatorAllocAllocatesNoGoMemory|TestSweepBlockAllocatesNothing|TestSweepAllocatesNoGoMemory' ./internal/heap ./internal/gc

# inline-guard fails unless the compiler still inlines the trace's hot
# calls: (*Collector).shade must be inlinable (cost 77 against the
# inliner's budget of 80) and inlined into markBlack's per-son loop in
# trace.go, and (*Heap).Header must be inlined into drain in trace.go,
# where the batched drain's stage 1 issues its members' header loads
# back to back. Once, at cost 131, shade silently stopped inlining and
# the trace lost 15 % per object; this turns that into a build failure.
# It guards the create's first attempt the same way: the facade's
# Alloc and AllocCtx must stay inlinable (a call less per create), and
# (*Mutator).first must inline heap.ClassFor (the one-load size-class
# lookup) and (*Mutator).charge (cost 80, at the budget; out of line,
# BenchmarkAllocPointerFree lost ~10 %).
inline-guard:
	@out=$$($(GO) build -gcflags=-m=2 . ./internal/gc 2>&1); \
	first=$$(awk '/^func \(m \*Mutator\) first\(/ { s = NR } s && /^}/ { print s, NR; exit }' internal/gc/mutator.go); \
	if ! echo "$$out" | grep -q 'can inline (\*Collector)\.shade'; then \
		echo "inline-guard: (*Collector).shade is no longer inlinable"; \
		echo "$$out" | grep '(\*Collector)\.shade'; exit 1; \
	fi; \
	if ! echo "$$out" | grep -qE 'trace\.go:[0-9]+:[0-9]+: inlining call to \(\*Collector\)\.shade'; then \
		echo "inline-guard: markBlack no longer inlines (*Collector).shade"; exit 1; \
	fi; \
	if ! echo "$$out" | grep -qE 'trace\.go:[0-9]+:[0-9]+: inlining call to heap\.\(\*Heap\)\.Header'; then \
		echo "inline-guard: drain no longer inlines (*Heap).Header"; exit 1; \
	fi; \
	for f in Alloc AllocCtx; do \
		if ! echo "$$out" | grep -qE "gengc\.go:[0-9]+:[0-9]+: can inline \(\*Mutator\)\.$$f with"; then \
			echo "inline-guard: the facade's (*Mutator).$$f is no longer inlinable"; exit 1; \
		fi; \
	done; \
	for callee in 'heap.ClassFor' '(*Mutator).charge'; do \
		if ! echo "$$out" | grep -F "inlining call to $$callee" | \
			awk -F: -v r="$$first" 'BEGIN { split(r, l, " ") } $$1 ~ /mutator\.go$$/ && $$2 >= l[1] && $$2 <= l[2] { ok = 1 } END { exit !ok }'; then \
			echo "inline-guard: (*Mutator).first no longer inlines $$callee"; exit 1; \
		fi; \
	done; \
	echo "inline-guard: OK"

# The concurrency-heavy subset under the race detector: the
# one-collector engine tests (determinism across identical runs, the
# white-box drain over a 20 000-node graph, drain spans and the
# TraceDrain seam), the mutator-vs-collector stress and race
# interleaving tests, the allocator stress test that churns allocations
# while minor and full cycles run, and the sweep-vs-owner race on one
# block's color entries and counts, plus the expvar scrape-agreement
# test, whose mid-flight /metrics scrapes run against four churning
# mutators and live collection cycles.
race:
	$(GO) test -race -run 'Race|Stress|Parallel|TestMetricsExpvarRoundTrip' ./...

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# bench-smoke runs the tests of the repository benchmark (benchmark/ is
# a module of its own, so the root `go test ./...` does not reach it):
# a seconds-long smoke of every workload against this checkout, the
# BENCHMARK.json ↔ command consistency check and input determinism.
bench-smoke:
	cd benchmark && $(GO) test ./...

# bench-pair is the paired-run procedure behind every performance
# number in CHANGES.md (scripts/benchpair.sh): PAIRS alternating
# parent/change runs of one repository-benchmark workload, then each
# side's median and quartiles per end-to-end metric, the pairs won and
# the better / worse / unresolved verdict. Minutes per workload and
# nothing else may run meanwhile, so it is not part of `make check`.
#   make bench-pair PARENT=HEAD~1 WORKLOAD=young_churn [PAIRS=10] [SEED=19991231]
bench-pair:
	bash scripts/benchpair.sh $(PARENT) $(WORKLOAD) $(or $(PAIRS),10) $(SEED)

# verify-protocol runs the deterministic protocol-verification harness
# (cmd/gcverify, internal/modelcheck). Positive leg: every named
# scenario's interleavings are enumerated bounded-exhaustively
# (preemption bound 1, depth 400) under the virtual scheduler and must
# be violation-free. Negative leg: dropping §7.1's allocation-color
# acceptance from the sync-window barrier (-break no-sync-accept) must
# be caught on sync-store-race with a minimized schedule, and the
# written replay must reproduce the violation when re-executed — the
# harness has to be able to find the bug class it exists for, or a
# green positive leg means nothing.
verify-protocol:
	$(GO) run ./cmd/gcverify -scenario all
	@tmp=$$(mktemp -d); rc=0; \
	if $(GO) run ./cmd/gcverify -scenario sync-store-race -break no-sync-accept -out $$tmp/replay.json >$$tmp/neg.txt 2>&1; then \
		echo "verify-protocol: FAILED — the removed §7.1 acceptance was not caught"; cat $$tmp/neg.txt; rc=1; \
	elif $(GO) run ./cmd/gcverify -replay $$tmp/replay.json >$$tmp/rep.txt 2>&1; then \
		echo "verify-protocol: FAILED — replay did not reproduce the violation"; cat $$tmp/rep.txt; rc=1; \
	else \
		echo "verify-protocol: OK (bug caught, minimized, and replay reproduced)"; \
	fi; \
	rm -rf $$tmp; exit $$rc

# chaos runs a short fixed-seed fault-injection campaign in every mode:
# the generational collector under the race detector, the
# non-generational and aging collectors without it. Every schedule
# (stalls, a slow collector, transient OOM, the allocstorm campaign
# against the tiered allocation path, failing sink, close race, server
# storm) must finish with zero Verify/self-check violations. The fixed
# seed keeps the fault schedule reproducible run to run.
chaos:
	$(GO) run -race ./cmd/gcchaos -seed 1
	$(GO) run ./cmd/gcchaos -seed 1 -mode non
	$(GO) run ./cmd/gcchaos -seed 1 -mode aging

# trace-verify round-trips the observability pipeline end to end: run a
# small traced workload (gctrace's default generational mode), then
# require the trace to hold at least one cycle event and gcreport to
# parse the JSONL and render the pause CDF, the phase breakdown, the
# card and demographics figures populated from the cycle records the
# trace carries, and the per-mutator pause table, with neither pause
# table empty. Anagram at -scale 0.05 allocates about 4.9 MB: against
# the default 4 MB young generation its one partial can lose the race
# with Close, which drops an unstarted cycle, and leave no cycle in the
# trace. With -young 1 the run crosses the partial trigger about four
# times (4.9 MB / 1 MB), so the trace holds cycles whatever the last
# one does.
trace-verify:
	@tmp=$$(mktemp -d) && rc=0; \
	{ $(GO) run ./cmd/gctrace -profile Anagram -scale 0.05 -young 1 -trace $$tmp/trace.jsonl >/dev/null 2>&1 \
	  && { n=$$(grep -c '"ev":"cycle"' $$tmp/trace.jsonl); [ "$$n" -gt 0 ] \
	       || { echo "trace-verify: the trace holds $$n cycle events, want at least 1"; false; }; } \
	  && $(GO) run ./cmd/gcreport $$tmp/trace.jsonl > $$tmp/report.txt \
	  && grep -q 'Pause-time CDF' $$tmp/report.txt \
	  && grep -q 'Cycle phase breakdown' $$tmp/report.txt \
	  && grep -q 'scans=' $$tmp/report.txt \
	  && grep -q 'promoted=' $$tmp/report.txt \
	  && grep -q 'Per-mutator pauses' $$tmp/report.txt \
	  && ! grep -q 'no pause events in trace' $$tmp/report.txt \
	  && echo "trace-verify: OK ($$(wc -l < $$tmp/trace.jsonl | tr -d ' ') events)"; } \
	|| { rc=$$?; echo "trace-verify: FAILED"; cat $$tmp/report.txt 2>/dev/null; }; \
	rm -rf $$tmp; exit $$rc

check: lint build test alloc-guard inline-guard bench-smoke race chaos trace-verify verify-protocol
