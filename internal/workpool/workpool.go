// Package workpool is the one parallel-for of the repository, shared by
// the Monte-Carlo campaign engine, the virtual-time load generator, the
// coverage-guided fuzzer and the evaluation harness (whose concurrent
// machines run one unit per worker): N self-contained work units
// (replications, shards or measurements) dispatched to a bounded pool of
// goroutines, with one fatal error cancelling the rest and context
// cancellation stopping the feed without counting as a failure.
//
// The pool carries no results — each engine writes its unit's outcome into
// its own preallocated slot (unit i is executed exactly once, so distinct
// slots never race) and merges in unit order after Run returns. That merge
// order, not the pool, is what makes every engine's aggregate independent
// of scheduling.
package workpool

import (
	"context"
	"errors"
	"sync"
)

// Run dispatches unit indices 0..units-1 to a pool of workers goroutines.
// run's contract: return nil when the unit completed (including units whose
// failure the engine accounts out-of-band, like oracle infrastructure
// errors); any other error cancels the pool and is returned. A
// cancellation-class error while ctx is already cancelled stops the worker
// without marking a failure — a cancellation-class error on a live ctx is a
// unit-internal failure and aborts like any other.
//
// Run returns the first fatal error, or ctx.Err() when the context was
// cancelled, or nil. Units that never ran simply left their slots untouched;
// partial merges over those slots are the caller's cancellation story.
func Run(ctx context.Context, units, workers int, run func(ctx context.Context, unit int) error) error {
	return RunRange(ctx, 0, units, workers, run)
}

// RunRange is Run over the unit subrange [lo, hi) — the leasing seam the
// distributed fabric shards on. Unit indices keep their global meaning (a
// worker handed the lease [8, 12) runs units 8..11, so per-unit derived
// state like rng streams and budget shares is identical to the single-range
// run).
func RunRange(ctx context.Context, lo, hi, workers int, run func(ctx context.Context, unit int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fatalErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range jobs {
				if ctx.Err() != nil {
					return
				}
				err := runTimed(ctx, unit, run)
				if err == nil {
					continue
				}
				if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					return
				}
				mu.Lock()
				if fatalErr == nil {
					fatalErr = err
					cancel()
				}
				mu.Unlock()
				return
			}
		}()
	}
feed:
	for unit := lo; unit < hi; unit++ {
		select {
		case jobs <- unit:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if fatalErr != nil {
		return fatalErr
	}
	return ctx.Err()
}

// Share splits an aggregate count across units: unit i of n gets the i'th
// near-equal part of total — the budget-partition helper every sharded
// engine uses.
func Share(total, i, n int) int {
	share := total / n
	if i < total%n {
		share++
	}
	return share
}
