GO ?= go

.PHONY: build test race vet fmt fuzzgate check bench ledger bench-pair

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

# Short fuzz sweep over every decoder that parses untrusted bytes: the
# row codec, checkpoint images, durable frames and bt summaries. Corrupt
# input must error — never panic, never over-allocate. 10s per target
# keeps the gate fast; longer runs reuse the same corpus.
fuzzgate:
	$(GO) test -run '^$$' -fuzz 'FuzzRowCodecRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzSummaryRoundtrip' -fuzztime 10s ./internal/bt/

# The full pre-merge gate. `race` runs every test, the bit-identity
# differentials included, under the race detector (DESIGN.md names the
# -run regex of each family). Perf changes are additionally measured with
# `make ledger` / `make bench-pair` (not part of check: benchmark timings
# are host-dependent and would make the gate flaky).
check: vet fmt race fuzzgate

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
