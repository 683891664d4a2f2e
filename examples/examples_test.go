// Package examples holds no library code: it is the test that builds and
// runs every example program under this directory.
package examples

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// examples are the example programs, each a main package in its own
// directory.
var examples = []string{"quickstart", "btpipeline", "keywordtrends", "networklogs", "realtime"}

// TestExamplesRun builds every example and runs it as a user would: each
// must exit 0, and realtime must report that its live, offline and
// partitioned runs agree.
func TestExamplesRun(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range examples {
		args = append(args, "./"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range examples {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s: %v\nstdout:\n%s\nstderr:\n%s", name, err, stdout.String(), stderr.String())
			continue
		}
		if name != "realtime" {
			continue
		}
		for _, line := range []string{
			"real-time and offline results agree",
			"distributed streaming execution matches too",
		} {
			if !strings.Contains(stdout.String(), line) {
				t.Errorf("realtime did not print %q:\n%s", line, stdout.String())
			}
		}
	}
}
