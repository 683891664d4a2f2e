GO ?= go

.PHONY: build test race vet fmt deprecations chaos spillgate fuzzgate fusegate servegate durgate incgate check bench ledger bench-pair

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fails if non-test code picks up the deprecated engine constructors
# (use NewEngine with options); the definitions themselves and the
# facade re-exports are allowed. Likewise for the deprecated streaming
# surface — the positional NewStreamingJobLegacy constructor and the
# job-level Feed*/TryFeed methods (use the options constructor and
# job.Source(...) Feeders): here even tests must migrate, except the
# one sanctioned compat test that pins the delegation behavior.
deprecations:
	@out=$$(grep -rn --include='*.go' \
		--exclude='*_test.go' \
		-E 'NewEngine(To|Observed|ObservedTo)\(' . \
		| grep -v '^\./internal/temporal/engine\.go:' \
		| grep -v '^\./timr\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "deprecated engine constructors in non-test code:"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rn --include='*.go' \
		-E 'NewStreamingJobLegacy\(|(job|j|legacy)\.(Feed|FeedBatch|FeedColBatch|TryFeed)\(' . \
		| grep -v '^\./internal/core/streaming\.go:' \
		| grep -v '^\./internal/core/legacy_compat_test\.go:' \
		| grep -v '^\./timr\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "deprecated streaming surface (use NewStreamingJob options + job.Source feeders):"; \
		echo "$$out"; exit 1; fi

# Chaos equivalence under the race detector: streaming jobs with
# injected partition crashes (multiple seeds) must match the crash-free
# run bit-for-bit, and checkpoint roundtrips must be byte-identical.
chaos:
	$(GO) test -race -count=1 -run 'TestStreamingChaos|TestCheckpoint' ./internal/core/ ./internal/temporal/

# Out-of-core equivalence under the race detector: the BT pipeline with
# the memory budget squeezed to a few KB (and with spilling forced) must
# match the all-resident run bit-for-bit, as must a chained two-fragment
# TiMR plan across budgets.
spillgate:
	$(GO) test -race -count=1 -run 'TestPipelineLowBudget|TestSpillBudgetEquivalence|TestMemoryBudgetOutputEquivalence' ./internal/bt/ ./internal/core/ ./internal/mapreduce/

# Short fuzz sweep over every decoder that parses untrusted bytes: the
# row codec, the columnar block format, and checkpoint images. Corrupt
# input must error — never panic, never over-allocate. 10s per target
# keeps the gate fast; longer runs reuse the same corpus.
fuzzgate:
	$(GO) test -run '^$$' -fuzz 'FuzzRowCodecRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzColBlockRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzSummaryRoundtrip' -fuzztime 10s ./internal/bt/

# Fusion equivalence under the race detector: every fused/interpreted
# differential — engine-level (row, columnar, fallback shapes, snapshot
# interchange), TiMR columnar reducer feeds, streaming columnar chaos,
# and the end-to-end BT pipeline — must be bit-identical.
fusegate:
	$(GO) test -race -count=1 -run 'TestFused' ./internal/temporal/ ./internal/core/ ./internal/bt/

# Elastic-serving equivalence under the race detector: live partition
# migration (forced splits/merges, mid-interval, composed with crash
# chaos, and policy-driven) must be bit-identical to the static run,
# and the serving tier's delivered scores must not change under
# placement, pacing, or admission bounds.
servegate:
	$(GO) test -race -count=1 -run 'TestMigration|TestAutoRebalance|TestServe' ./internal/core/ ./internal/serve/

# Durability under the race detector: the durable checkpoint store's
# commit protocol and fault injection (torn writes, ENOSPC, bit flips —
# 30% fault rate across multiple seeds), plus the kill-and-restart
# drills — core and serving tier — which must recover bit-identically,
# including through generation fallback after corruption.
durgate:
	$(GO) test -race -count=1 -run 'TestDurable|TestFaultFS' ./internal/dur/ ./internal/core/ ./internal/serve/

# Incremental-refresh equivalence under the race detector: the 7-day
# sliding-window drill (delta ingest byte-identical to full recompute
# every day), the engine-pipeline pinning of the mergeable summaries,
# the kill-and-restart resume through a >=30%-fault-rate store with
# quarantine fallback, and the warm-start parity gate.
incgate:
	$(GO) test -race -count=1 -run 'TestRefresh' ./internal/bt/

# The full pre-merge gate. Perf changes are additionally measured with
# `make ledger` / `make bench-pair` (not part of check: benchmark timings
# are host-dependent and would make the gate flaky).
check: vet fmt deprecations race chaos spillgate fuzzgate fusegate servegate durgate incgate

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# The benchmark ledger (bench/README.md); results in bench/out/result.json.
ledger:
	$(GO) run ./bench

# What bench/README prescribes for a claimed gain: ten alternating ledger
# runs from a checkout of the parent commit and from this tree (pair r uses
# seed r, the parent first on odd r), a -compare per pair. The claimed
# metric must read "better" in nine, none "worse". About half an hour.
#
# With WORKLOAD=<name>, each side of each pair is instead the one invocation
# the acceptance driver makes for that workload (-seconds 12 -trace 0), and
# the two last-line JSON records are printed per pair: a one-workload claim
# in about seven minutes.
bench-pair:
	@test -d "$(PARENT)/bench" || { echo "usage: make bench-pair PARENT=<checkout of the parent commit> [WORKLOAD=<name>]"; exit 2; }
	@out=$$PWD/bench/out/pair; rm -rf $$out; mkdir -p $$out; for r in 1 2 3 4 5 6 7 8 9 10; do \
		sides="parent change"; [ $$((r % 2)) = 1 ] || sides="change parent"; \
		for side in $$sides; do dir=.; [ $$side = change ] || dir="$(PARENT)"; \
			if [ -n "$(WORKLOAD)" ]; then \
				(cd "$$dir" && $(GO) run ./bench -workload $(WORKLOAD) -seed $$r -seconds 12 -trace 0) >$$out/$$side-$$r.log 2>&1; \
			else \
				(cd "$$dir" && $(GO) run ./bench -runs 1 -seed $$r -json $$out/$$side-$$r.json) >$$out/$$side-$$r.log 2>&1; \
			fi || echo "pair $$r: the $$side run exited non-zero, see $$out/$$side-$$r.log"; \
		done; \
		echo "== pair $$r (A = parent, B = change)"; \
		if [ -n "$(WORKLOAD)" ]; then \
			for side in parent change; do printf '%-7s' $$side; tail -n 1 $$out/$$side-$$r.log; done; \
		else \
			$(GO) run ./bench -compare $$out/parent-$$r.json $$out/change-$$r.json; \
		fi; \
	done
