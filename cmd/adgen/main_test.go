package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestAdgenWritesTheRowsItReports builds adgen and runs it as a user does:
// the events file holds the unified-schema header and exactly the row
// count adgen reports, and the truth sidecar lists planted correlations.
func TestAdgenWritesTheRowsItReports(t *testing.T) {
	dir, bin := buildAdgen(t)
	events, truth := filepath.Join(dir, "f"), filepath.Join(dir, "g")
	out, err := exec.Command(bin, "-users", "50", "-days", "1", "-o", events, "-truth", truth).CombinedOutput()
	if err != nil {
		t.Fatalf("adgen: %v\n%s", err, out)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] != "Time\tStreamId\tUserId\tKwAdId" {
		t.Fatalf("header = %q", lines[0])
	}
	var n, users, days int
	var seed int64
	if _, err := fmt.Sscanf(string(out), "wrote %d events (%d users, %d days, seed %d)", &n, &users, &days, &seed); err != nil {
		t.Fatalf("adgen reported %q: %v", out, err)
	}
	if n == 0 || len(lines)-1 != n || users != 50 || days != 1 {
		t.Fatalf("adgen reported %d events for %d users over %d days, the file holds %d rows", n, users, days, len(lines)-1)
	}
	if sidecar, err := os.ReadFile(truth); err != nil || !strings.HasPrefix(string(sidecar), "pos\t") {
		t.Fatalf("truth sidecar %q: %v", sidecar, err)
	}
}

// TestAdgenExhaustedVocabulary: twelve ad classes over a 60-keyword
// vocabulary leave some class's keyword pool empty; adgen still writes
// its events and exits 0.
func TestAdgenExhaustedVocabulary(t *testing.T) {
	dir, bin := buildAdgen(t)
	events := filepath.Join(dir, "f")
	out, err := exec.Command(bin, "-users", "50", "-days", "1", "-ads", "12", "-keywords", "60", "-o", events).CombinedOutput()
	if err != nil {
		t.Fatalf("adgen: %v\n%s", err, out)
	}
	var n int
	if _, err := fmt.Sscanf(string(out), "wrote %d events", &n); err != nil || n == 0 {
		t.Fatalf("adgen reported %q: %v", out, err)
	}
}

// buildAdgen builds the command into a fresh temp dir and returns both.
func buildAdgen(t *testing.T) (dir, bin string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "adgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}
