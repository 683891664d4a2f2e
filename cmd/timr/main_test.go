package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The CLI is driven as a user drives it: built once into a temp dir, run
// on the workload it generates in-process.
func buildTimr(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "timr")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runTimr(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var so, se bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("timr %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return so.String(), se.String(), exit
}

// meteredIn reports whether the -metrics table has a row for an operator
// of the given kind with a non-zero events_in.
func meteredIn(table, kind string) bool {
	return regexp.MustCompile(`\.op\d\d\.` + kind + `\s+events_in\s+[1-9]`).MatchString(table)
}

func TestRunMetricsMeterTheKernel(t *testing.T) {
	bin := buildTimr(t)

	// clickcount filters at the top level; its window sits in the GroupApply
	// sub-plan, which is not metered.
	stdout, stderr, exit := runTimr(t, bin, "run", "-q", "clickcount", "-metrics")
	if exit != 0 {
		t.Fatalf("timr run exited %d\n%s", exit, stderr)
	}
	if len(strings.Fields(stdout)) == 0 {
		t.Error("timr run -q clickcount printed no result rows")
	}
	if !meteredIn(stderr, "Select") || !meteredIn(stderr, "GroupApply") {
		t.Errorf("-metrics table lacks Select / GroupApply rows with events_in > 0:\n%s", stderr)
	}

	// An ungrouped windowed count keeps Select and AlterLifetime in one
	// top-level kernel: both members must report what they saw.
	stdout, stderr, exit = runTimr(t, bin, "run", "-metrics",
		"-sql", "SELECT COUNT(*) AS C FROM events WHERE StreamId = 1 WINDOW 6h")
	if exit != 0 {
		t.Fatalf("timr run -sql exited %d\n%s", exit, stderr)
	}
	if len(strings.Fields(stdout)) == 0 {
		t.Error("timr run -sql printed no result rows")
	}
	for _, kind := range []string{"Select", "AlterLifetime", "Aggregate"} {
		if !meteredIn(stderr, kind) {
			t.Errorf("-metrics table lacks a %s row with events_in > 0:\n%s", kind, stderr)
		}
	}
}

// meterLine matches a -metrics table row of an engine operator's or a
// source's meter (groups_live aside: it is last-write-wins across a
// stage's reducers), in the table's own spacing.
var meterLine = regexp.MustCompile(`^\S+\s+(events_in|events_out|ctis|events|state|wm_lag|groups_reclaimed|cti_broadcasts|cti_swallowed|fragments)\s+-?\d+$`)

// TestRunMetersPinned: `timr run -q bt -metrics` reports every operator
// meter as the build before engine-local meters did (testdata pins it):
// each reducer's engine folds its counts into the shared scope once per
// entry, and no value moves.
func TestRunMetersPinned(t *testing.T) {
	bin := buildTimr(t)
	_, stderr, exit := runTimr(t, bin, "run", "-q", "bt", "-metrics")
	if exit != 0 {
		t.Fatalf("timr run -q bt exited %d\n%s", exit, stderr)
	}
	var got strings.Builder
	for _, line := range strings.Split(stderr, "\n") {
		if meterLine.MatchString(line) {
			got.WriteString(strings.Join(strings.Fields(line), " ") + "\n")
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "bt-meters.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("meters differ from the pinned ones\ngot:\n%swant:\n%s", got.String(), want)
	}
}

func TestBareTimrIsUsageError(t *testing.T) {
	stdout, stderr, exit := runTimr(t, buildTimr(t), "-q", "clickcount")
	if exit != 2 {
		t.Errorf("bare timr exited %d, want 2", exit)
	}
	if stdout != "" || !strings.Contains(stderr, "usage: timr <run|serve|refresh>") {
		t.Errorf("bare timr: stdout %q, stderr %q; want the usage text on stderr only", stdout, stderr)
	}
}

// TestUsageFlagsAreDefined: every -flag on a `timr <sub>` line of the
// package comment's Usage block (continuation lines included) is defined
// by that subcommand's FlagSet.
func TestUsageFlagsAreDefined(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	_, usage, ok := strings.Cut(doc, "// Usage:\n")
	if !ok {
		t.Fatal("main.go's package comment has no Usage block")
	}
	sets := map[string]*flag.FlagSet{"run": runFlags(nil), "serve": serveFlags(nil), "refresh": refreshFlags(nil)}
	flagRE := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	var sub string
	checked := 0
	for _, line := range strings.Split(usage, "\n") {
		line = strings.TrimPrefix(line, "//")
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "timr" {
			sub = f[1]
			if sets[sub] == nil {
				t.Errorf("usage line %q names no subcommand", line)
			}
		}
		for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
			checked++
			if fs := sets[sub]; fs != nil && fs.Lookup(m[1]) == nil {
				t.Errorf("usage documents timr %s -%s, which its FlagSet does not define", sub, m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flag found in the Usage block")
	}
}

func TestUnknownSubcommandIsUsageError(t *testing.T) {
	_, stderr, exit := runTimr(t, buildTimr(t), "bogus")
	if exit != 2 || !strings.Contains(stderr, "usage: timr <run|serve|refresh>") {
		t.Errorf("timr bogus exited %d with stderr %q; want 2 and the usage text", exit, stderr)
	}
}

func TestServeResumesFromDurdir(t *testing.T) {
	bin := buildTimr(t)
	dir := filepath.Join(t.TempDir(), "d")
	const resumed = "serve: resumed from durable checkpoints"

	stdout, stderr, exit := runTimr(t, bin, "serve", "-requests", "2000", "-durdir", dir)
	if exit != 0 {
		t.Fatalf("timr serve exited %d\n%s", exit, stderr)
	}
	if !strings.Contains(stdout, "serve: requests=2000") || strings.Contains(stderr, resumed) {
		t.Errorf("first run: want a report over 2000 requests and no resume\nstdout: %s\nstderr: %s", stdout, stderr)
	}

	stdout, stderr, exit = runTimr(t, bin, "serve", "-requests", "2000", "-durdir", dir)
	if exit != 0 {
		t.Fatalf("second timr serve exited %d\n%s", exit, stderr)
	}
	if !strings.Contains(stdout, "serve: requests=") || !strings.Contains(stderr, resumed) {
		t.Errorf("second run: want a report and %q\nstdout: %s\nstderr: %s", resumed, stdout, stderr)
	}
}

// dropNewestGeneration deletes the newest generation's file, leaving dir
// as a run killed before its last commit would.
func dropNewestGeneration(t *testing.T, dir string) {
	t.Helper()
	ckpts, err := filepath.Glob(filepath.Join(dir, "gen-*.ckpt"))
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("%s holds %d generations (%v), want at least 2", dir, len(ckpts), err)
	}
	sort.Strings(ckpts)
	if err := os.Remove(ckpts[len(ckpts)-1]); err != nil {
		t.Fatal(err)
	}
}

// finalLine returns the run's closing "refresh: days=" report.
func finalLine(stdout string) string {
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "refresh: days=") {
			return line
		}
	}
	return ""
}

func TestRefreshResumesFromDurdir(t *testing.T) {
	bin := buildTimr(t)
	dir := filepath.Join(t.TempDir(), "d")

	stdout, stderr, exit := runTimr(t, bin, "refresh", "-days", "3", "-durdir", dir)
	if exit != 0 {
		t.Fatalf("timr refresh exited %d\n%s", exit, stderr)
	}
	if n := strings.Count(stdout, "refresh: day="); n != 3 || strings.Contains(stderr, "refresh: resumed from") {
		t.Errorf("first run: %d day lines, want 3 and no resume\nstdout: %s\nstderr: %s", n, stdout, stderr)
	}
	want := finalLine(stdout)
	if want == "" {
		t.Fatalf("first run printed no final report\nstdout: %s", stdout)
	}

	// Killed before its last commit, the same command resumes, ingests
	// the lost day, and ends where the uninterrupted run did.
	dropNewestGeneration(t, dir)
	stdout, stderr, exit = runTimr(t, bin, "refresh", "-days", "3", "-durdir", dir)
	if exit != 0 {
		t.Fatalf("resumed timr refresh exited %d\n%s", exit, stderr)
	}
	if n := strings.Count(stdout, "refresh: day="); n != 1 || !strings.Contains(stderr, "refresh: resumed from") {
		t.Errorf("resumed run: %d day lines, want exactly 1 after a resume\nstdout: %s\nstderr: %s", n, stdout, stderr)
	}
	if got := finalLine(stdout); got != want {
		t.Errorf("resumed run ends with %q, the uninterrupted run with %q", got, want)
	}

	// Another -days generates another log: a resume must refuse it.
	stdout, stderr, exit = runTimr(t, bin, "refresh", "-days", "4", "-durdir", dir)
	if exit == 0 || !strings.Contains(stderr, "holds a 3-day log, this run asks for -days 4") {
		t.Errorf("resume with -days 4 exited %d, want non-zero and the -days error\nstdout: %s\nstderr: %s", exit, stdout, stderr)
	}
}

// TestSQLCompileErrorExitsCleanly: a query the binder rejects ends the run
// with exit 1 and the binder's error, not a panic's goroutine dump.
func TestSQLCompileErrorExitsCleanly(t *testing.T) {
	_, stderr, exit := runTimr(t, buildTimr(t), "run", "-sql", "SELECT UserId, UserId FROM events")
	if exit != 1 || !strings.Contains(stderr, `duplicate column "UserId"`) || strings.Contains(stderr, "goroutine ") {
		t.Fatalf("timr run -sql with a duplicate column exited %d, want 1 with the error and no goroutine trace:\n%s", exit, stderr)
	}
}

// TestBTRefusesAShortHorizon: -q bt trains on half the input's horizon,
// its largest Time plus one. An input with no events, or whose largest
// Time is 0, leaves no training period: the run exits 1 with an error
// that says so, not a panic.
func TestBTRefusesAShortHorizon(t *testing.T) {
	bin := buildTimr(t)
	const header = "Time\tStreamId\tUserId\tKwAdId\n"
	for _, c := range []struct{ name, body, want string }{
		{"header only", header, "holds no events"},
		{"one row at Time 0", header + "0\t1\t7\t3\n", "largest Time is 0"},
	} {
		in := filepath.Join(t.TempDir(), "events.tsv")
		if err := os.WriteFile(in, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, exit := runTimr(t, bin, "run", "-q", "bt", "-in", in)
		if exit != 1 || !strings.Contains(stderr, c.want) || strings.Contains(stderr, "panic:") {
			t.Errorf("%s: timr run -q bt exited %d, want 1 with %q and no panic:\n%s", c.name, exit, c.want, stderr)
		}
	}
}

// TestBTTrainPeriodTakesTheLargestTime: the horizon is the largest Time,
// wherever its row sits, not the last row's.
func TestBTTrainPeriodTakesTheLargestTime(t *testing.T) {
	rows, err := loadRows(strings.NewReader("Time\tStreamId\tUserId\tKwAdId\n5\t0\t1\t2\n9\t1\t1\t2\n3\t0\t2\t2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := btTrainPeriod(rows); err != nil || p != 5 {
		t.Fatalf("btTrainPeriod = %d, %v; want 5, half of the horizon 10", p, err)
	}
}

// FuzzLoadRows: -in names a file from outside the program, so any bytes
// parse to rows or an error, never a panic, and rows that parse give
// -q bt a training period of at least one tick and at most the largest
// Time, or btTrainPeriod's refusal.
func FuzzLoadRows(f *testing.F) {
	f.Add([]byte("Time\tStreamId\tUserId\tKwAdId\n5\t0\t1\t2\n9\t1\t1\t2\n3\t0\t2\t2\n"))
	f.Add([]byte("Time\tStreamId\tUserId\tKwAdId\n"))
	f.Add([]byte("0\t1\t7\t3\n"))
	f.Add([]byte("1\t0\t0\t0\n-4\t0\t0\t0\n"))
	f.Add([]byte("9223372036854775807\t0\t0\t0\n"))
	f.Add([]byte("1\t2\t3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := loadRows(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range rows {
			if len(r) != 4 {
				t.Fatalf("row %v has %d columns", r, len(r))
			}
		}
		p, err := btTrainPeriod(rows)
		if err != nil {
			return
		}
		last := rows[0][0].AsInt()
		for _, r := range rows {
			last = max(last, r[0].AsInt())
		}
		if p < 1 || p > last {
			t.Fatalf("training period %d for a largest Time of %d", p, last)
		}
	})
}
