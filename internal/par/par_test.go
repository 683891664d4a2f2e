package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timr/internal/leakcheck"
)

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]:").
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// ForEach visits every index once, reports the lowest failing index's
// error whatever order the workers ran in, and re-raises a worker's
// panic on the caller after every worker has returned.
func TestForEach(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	var visits [64]atomic.Int32
	err := ForEach(runtime.GOMAXPROCS(0), len(visits), func(i int) error {
		visits[i].Add(1)
		if i == 41 || i == 17 {
			return fmt.Errorf("part %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "part 17" {
		t.Fatalf("got error %v, want part 17's", err)
	}
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}

	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
	}()
	_ = ForEach(4, 8, func(i int) error {
		if i == 5 {
			panic("boom")
		}
		return nil
	})
	t.Fatal("ForEach returned after a worker panicked")
}

// One worker is the caller alone: every index runs on its goroutine, in
// index order.
func TestForEachOneWorkerIsCaller(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	caller := goid()
	var order []int
	if err := ForEach(1, 16, func(i int) error {
		if id := goid(); id != caller {
			t.Errorf("index %d ran on goroutine %d, want the caller's %d", i, id, caller)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("run order %v, want 0..15", order)
		}
	}
}

// No more than min(workers, n) calls are ever in flight, on no more than
// that many goroutines.
func TestForEachBoundsConcurrency(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	for _, c := range []struct{ workers, n int }{{2, 20}, {4, 20}, {8, 3}, {3, 3}} {
		var mu sync.Mutex
		inFlight, peak := 0, 0
		ids := map[int]bool{}
		if err := ForEach(c.workers, c.n, func(int) error {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			ids[goid()] = true
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		limit := min(c.workers, c.n)
		if peak > limit {
			t.Errorf("workers=%d n=%d: %d calls in flight, want at most %d", c.workers, c.n, peak, limit)
		}
		if len(ids) > limit {
			t.Errorf("workers=%d n=%d: ran on %d goroutines, want at most %d", c.workers, c.n, len(ids), limit)
		}
	}
}

// Every index runs exactly once, for any worker count against any n,
// none and more workers than indexes included.
func TestForEachRunsEachIndexOnce(t *testing.T) {
	defer leakcheck.Goroutines(t)()
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 257} {
			visits := make([]atomic.Int32, n)
			if err := ForEach(workers, n, func(i int) error {
				visits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, v)
				}
			}
		}
	}
}
