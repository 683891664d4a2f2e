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
	dir := t.TempDir()
	bin := filepath.Join(dir, "adgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
