package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
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

func TestBareTimrIsUsageError(t *testing.T) {
	stdout, stderr, exit := runTimr(t, buildTimr(t), "-q", "clickcount")
	if exit != 2 {
		t.Errorf("bare timr exited %d, want 2", exit)
	}
	if stdout != "" || !strings.Contains(stderr, "usage: timr <run|serve|refresh>") {
		t.Errorf("bare timr: stdout %q, stderr %q; want the usage text on stderr only", stdout, stderr)
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

func TestRefreshResumesFromDurdir(t *testing.T) {
	bin := buildTimr(t)
	dir := filepath.Join(t.TempDir(), "d")

	stdout, stderr, exit := runTimr(t, bin, "refresh", "-days", "2", "-durdir", dir)
	if exit != 0 {
		t.Fatalf("timr refresh exited %d\n%s", exit, stderr)
	}
	if n := strings.Count(stdout, "refresh: day="); n != 2 || strings.Contains(stderr, "refresh: resumed from") {
		t.Errorf("first run: %d day lines, want 2 and no resume\nstdout: %s\nstderr: %s", n, stdout, stderr)
	}

	stdout, stderr, exit = runTimr(t, bin, "refresh", "-days", "3", "-durdir", dir)
	if exit != 0 {
		t.Fatalf("second timr refresh exited %d\n%s", exit, stderr)
	}
	if n := strings.Count(stdout, "refresh: day="); n != 1 || !strings.Contains(stderr, "refresh: resumed from") {
		t.Errorf("second run: %d day lines, want exactly 1 after a resume\nstdout: %s\nstderr: %s", n, stdout, stderr)
	}

	// A full refresh recomputes from the raw log, which is not persisted:
	// resumed, it must refuse rather than drop the days before the restart.
	dir = filepath.Join(t.TempDir(), "full")
	small := []string{"refresh", "-users", "300", "-keywords", "300", "-mode", "full", "-durdir", dir}
	if _, stderr, exit := runTimr(t, bin, append(small, "-days", "2")...); exit != 0 {
		t.Fatalf("timr refresh -mode full exited %d\n%s", exit, stderr)
	}
	stdout, stderr, exit = runTimr(t, bin, append(small, "-days", "3")...)
	if exit == 0 || !strings.Contains(stderr, "full recompute needs the whole raw history") {
		t.Errorf("resumed -mode full exited %d, want non-zero and the history error\nstdout: %s\nstderr: %s", exit, stdout, stderr)
	}
}
