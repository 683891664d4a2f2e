// Package par is the one worker pool every parallel phase runs on: the
// map and reduce tasks of a map-reduce stage, a streaming punctuation
// wave, a refresh ingest's per-user front partitions and window models,
// and the workload generator's users. It is the paper's bounded pool of
// machines (§III-C.1), with the caller's goroutine as one of them.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n) on min(workers, n)
// goroutines, the caller's among them, each taking the next i from a
// shared index; a worker count of 1 or less starts no goroutine. Calls
// share nothing fn writes but their own index's slot. Every index runs
// once, whatever an earlier one returned, and the error of the lowest
// failing index is returned. A worker that panics takes no further
// index; the first panic is re-raised on the caller once every worker
// has returned.
func ForEach(workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	low, lowErr := n, error(nil)
	var once sync.Once
	var failed any
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { failed = r })
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := fn(i); err != nil {
				mu.Lock()
				if i < low {
					low, lowErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
	return lowErr
}
