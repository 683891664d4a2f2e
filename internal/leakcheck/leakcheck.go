// Package leakcheck is the test helper behind the rule that no goroutine
// outlives the call that started it: a streaming wave, a serving run, a
// killed run, an error exit.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settleWithin bounds how long goroutines that are on their way out get
// to finish: a goroutine that has closed its last channel may not have
// returned yet.
const settleWithin = 5 * time.Second

// Goroutines records the current goroutine count and returns a check that
// fails t, with every goroutine's stack, unless the count settles back to
// at most that baseline within a deadline. The check may be called any
// number of times, e.g. after every wave of a run.
func Goroutines(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settleWithin)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("%d goroutines still running, %d before the call:\n%s", runtime.NumGoroutine(), base, buf)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
