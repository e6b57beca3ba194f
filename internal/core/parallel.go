package core

import (
	"runtime"
	"sync"
)

// ForEach runs n independent tasks, task(0) … task(n-1), on a bounded pool
// of workers goroutines and returns when all have finished. workers <= 0
// selects GOMAXPROCS; workers == 1 degenerates to a plain sequential loop.
//
// ForEach is the execution layer behind the experiment runners' fan-outs
// (the Figure 4 tuning runs and matrix cells, the Table 4 method
// replications, each tuning run's candidate evaluations, the Figure 7
// variants). The determinism contract every caller must uphold:
//
//   - each task owns its state (the labs it builds, with their engines
//     and rng streams) and writes only to its own index-addressed result
//     slot, so no task can observe another's progress;
//   - any shared inputs (a LabConfig, a best-configuration map from an
//     earlier phase) are treated as read-only.
//
// Under that contract the results are bit-for-bit identical at every
// worker count, including workers == 1 versus the pre-pool sequential
// code, because scheduling order can only permute *when* slots are
// filled, never *what* is written to them.
//
// If a task panics, the remaining tasks still run to completion and the
// first recorded panic value is re-raised on the calling goroutine, so a
// panicking task behaves like it would in a sequential loop rather than
// crashing the process from a worker goroutine.
func ForEach(workers, n int, task func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}

	var (
		panicMu    sync.Mutex
		firstPanic any
		panicked   bool
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked = true
					firstPanic = r
				}
				panicMu.Unlock()
			}
		}()
		task(i)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if panicked {
		panic(firstPanic)
	}
}
