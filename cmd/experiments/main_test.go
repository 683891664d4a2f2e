package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runExperiments builds the command into a temp dir and runs it with args,
// returning stdout, stderr and the exit code.
func runExperiments(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var so, se bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("experiments %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return so.String(), se.String(), exit
}

func TestQuickEx3PrintsTableAndOptimizerNote(t *testing.T) {
	stdout, stderr, exit := runExperiments(t, "-quick", "ex3")
	if exit != 0 {
		t.Fatalf("experiments -quick ex3 exited %d\n%s", exit, stderr)
	}
	for _, want := range []string{
		"## ex3 — Example 3",
		"naive {UserId,Keyword} then {UserId}",
		"optimized single fragment {UserId}",
		"note: cost-based optimizer picks the single-fragment plan",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	stdout, stderr, exit := runExperiments(t, "-quick", "nosuch")
	if exit != 2 || !strings.Contains(stderr, `unknown experiment "nosuch"`) || stdout != "" {
		t.Fatalf("experiments nosuch exited %d, want 2 with the error and no output\nstdout: %s\nstderr: %s", exit, stdout, stderr)
	}
}
