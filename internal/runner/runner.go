// Package runner is the shared bounded worker pool behind Clara's
// embarrassingly parallel loops: clara.AdviseContext fans out per target,
// partial.AnalyzeContext per cut, the eval accuracy grid per
// NF×target×workload cell, and microbench.RunContext per probe. It provides
// index-based fan-out with
//
//   - deterministic result ordering: results land at the index of the work
//     item that produced them, so parallel runs are byte-identical to the
//     sequential loop they replace;
//   - bounded concurrency: at most `workers` goroutines run at once
//     (0 or negative selects GOMAXPROCS, 1 degenerates to the sequential
//     loop); and
//   - first-error propagation: the first failure cancels the shared context,
//     in-flight items finish, queued items are skipped, and the error is
//     returned.
//
// Work functions must be re-entrant: they may run concurrently with each
// other and must not mutate shared state without synchronization.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// Parallelism resolves a worker-count request: values < 1 select
// GOMAXPROCS, everything else passes through.
func Parallelism(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded pool and returns
// the results in index order. workers < 1 selects GOMAXPROCS. On the first
// error the shared context is cancelled, remaining queued items are skipped,
// and the error is returned; fn should honor ctx for long-running items.
// With no error, results[i] holds fn's value for item i regardless of
// execution interleaving.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = Parallelism(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		// Degenerate sequential path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			r, err := fn(ctx, i)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     int // next unclaimed work index
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				i, ok := claim()
				if !ok {
					return
				}
				r, err := fn(cctx, i)
				if err != nil {
					fail(err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	// The parent context may have been cancelled without any fn erroring.
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}
