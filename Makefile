GO ?= go

.PHONY: build test race vet fmt fuzzgate check bench ledger bench-pair pair-table

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with a parallel phase run at GOMAXPROCS 1 and at 4. Every
# such phase runs on par.ForEach: a map-reduce stage's map and reduce
# tasks (mapreduce), a punctuation wave's partitions (core, serve, and
# the refresher's resident front job in bt), and a refresh ingest's
# window models (bt). A partition's engine lives across waves, and each
# wave may drive it from another worker. At GOMAXPROCS 1 the pool runs on
# the caller's goroutine only, so both the sequential and the pooled path
# are raced, whatever the host's core count.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v -e '/internal/core$$' -e '/internal/serve$$' -e '/internal/bt$$' -e '/internal/mapreduce$$' -e '/internal/par$$')
	$(GO) test -race -cpu 1,4 ./internal/core ./internal/serve ./internal/bt ./internal/mapreduce ./internal/par

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short fuzz sweep over every decoder that parses untrusted bytes: the
# row codec, checkpoint images, durable frames, streaming snapshots, bt
# summaries and the map phase's spill frame walker. Corrupt input must error — never panic,
# never over-allocate. FuzzCompile holds the StreamSQL compiler to the
# same rule for any query text. FuzzCoalesce is the one differential
# among them: any small event list coalesces to what the reference
# implementation makes of it. 10s per target keeps the gate fast; longer
# runs reuse the same corpus.
fuzzgate:
	$(GO) test -run '^$$' -fuzz 'FuzzRowCodecRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzCoalesce' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzSummaryRoundtrip' -fuzztime 10s ./internal/bt/
	$(GO) test -run '^$$' -fuzz 'FuzzSpillFrames' -fuzztime 10s ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz 'FuzzCompile' -fuzztime 10s ./internal/tsql/

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
# in about seven minutes. The target then closes with the verdict table
# (PAIR_TABLE below): per end-to-end metric of BENCHMARK.json the median
# [q1, q3] of each side, the relative change of the medians, pairs won /
# lost / tied in the metric's "better" direction, whether the medians are
# further apart than the parent's own quartile distance, and a failed /
# correct tally. `make pair-table [PAIR_DIR=<dir of logs>]` prints it again.
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
	@[ -z "$(WORKLOAD)" ] || $(MAKE) --no-print-directory pair-table

# The last line of bench/out/pair/<side>-<r>.log is that run's JSON record;
# directions and bounds come from BENCHMARK.json's end_to_end block.
define PAIR_TABLE
function quant(a, n, p,    h, lo) { h = 1 + (n - 1) * p; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
function sorted(side, m, out,    n, i, r, v) {
	n = 0
	for (r in pairs) if ((side, r, m) in val) {
		v = val[side, r, m]
		for (i = ++n; i > 1 && out[i - 1] > v; i--) out[i] = out[i - 1]
		out[i] = v
	}
	return n
}
FILENAME ~ /BENCHMARK.json$$/ {
	if ($$0 ~ /"end_to_end"/) e2e = 1; else if ($$0 ~ /"per_layer"/) e2e = 0
	if (e2e && match($$0, /"name": "[^"]+"/)) { name = substr($$0, RSTART + 9, RLENGTH - 10); metrics[++nm] = name }
	if (e2e && match($$0, /"better": "[^"]+"/)) better[name] = substr($$0, RSTART + 11, RLENGTH - 12)
	if (e2e && match($$0, /"bound": [0-9.]+/)) bound[name] = substr($$0, RSTART + 9, RLENGTH - 9)
	next
}
{ last[FILENAME] = $$0 }
END {
	for (f in last) {
		n = split(f, parts, "/"); split(parts[n], sr, /[-.]/); side = sr[1]; r = sr[2]; line = last[f]
		runs[side]++; pairs[r]
		if (line ~ /"correct":true/) correct[side]++
		if (match(line, /"failed":[0-9]+/)) failed[side] += substr(line, RSTART + 9, RLENGTH - 9)
		if (match(line, /"attempted":[0-9]+/)) attempted[side] += substr(line, RSTART + 12, RLENGTH - 12)
		for (i = 1; i <= nm; i++) if (match(line, "\"" metrics[i] "\":[{]\"value\":[-0-9.e+]+"))
			val[side, r, metrics[i]] = substr(line, RSTART + length(metrics[i]) + 12, RLENGTH - length(metrics[i]) - 12) + 0
	}
	printf "%-13s %-6s %34s %34s %8s  %-13s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change", "won/lost/tied", "verdict"
	for (i = 1; i <= nm; i++) {
		m = metrics[i]; split("", a); split("", b); na = sorted("parent", m, a); nb = sorted("change", m, b)
		if (na == 0 || nb == 0) { printf "%-13s no data\n", m; continue }
		ma = quant(a, na, .5); mb = quant(b, nb, .5); iqr = quant(a, na, .75) - quant(a, na, .25)
		won = lost = tied = 0
		for (r in pairs) if (("parent", r, m) in val && ("change", r, m) in val) {
			d = val["change", r, m] - val["parent", r, m]; if (better[m] == "lower") d = -d
			if (d > 0) won++; else if (d < 0) lost++; else tied++
		}
		rel = ma ? (mb - ma) / ma : 0; gain = better[m] == "lower" ? -rel : rel; apart = mb - ma; if (apart < 0) apart = -apart
		verdict = "within bound"
		if (gain < -bound[m]) verdict = "WORSE than bound"
		else if (won * 10 >= (won + lost) * 9 && won > 0 && apart > iqr) verdict = "better (>= 9/10, medians apart > parent IQR)"
		else if (iqr > bound[m] * ma) verdict = "unresolved (parent IQR > bound)"
		printf "%-13s %-6s %10.6g [%9.6g, %9.6g] %10.6g [%9.6g, %9.6g] %+7.1f%%  %2d/%d/%-8d %s\n", m, better[m], ma, quant(a, na, .25), quant(a, na, .75), mb, quant(b, nb, .25), quant(b, nb, .75), 100 * rel, won, lost, tied, verdict
	}
	for (k = 1; k <= 2; k++) { side = k == 1 ? "parent" : "change"
		printf "%-7s runs %d, correct %d, operations failed %d of %d\n", side, runs[side], correct[side], failed[side], attempted[side] }
}
endef
export PAIR_TABLE

PAIR_DIR ?= bench/out/pair
pair-table:
	@awk "$$PAIR_TABLE" BENCHMARK.json $(PAIR_DIR)/parent-*.log $(PAIR_DIR)/change-*.log
