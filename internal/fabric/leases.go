package fabric

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/obs"
)

// lease is one half-open shard range awaiting (re-)dispatch.
type lease struct {
	lo, hi  int
	retries int
}

// doneMsg reports one finished dispatch back to the engine loop.
type doneMsg struct {
	l       lease
	w       *worker
	err     error
	elapsed time.Duration
}

// RunRanges is the daemon's range runner (daemon.RangeRunner): it drives
// shards [0, shards) to completion across the attached workers —
// partition into leases, dispatch one lease per idle worker, collect, and
// re-issue lost leases (bounded by cfg.Retries, with exponential backoff)
// until every shard has reported. run runs one attempt; its call issues
// the shard request on the claimed worker. RunRanges returns nil only when
// all shards completed exactly; the merge's duplicate-insensitivity covers
// re-issued leases whose first attempt had silently succeeded. Lease events
// land in ctx's flight-recorder trace — the daemon job's.
//
// Error classification is the fault model's heart:
//   - A worker-reported job error (bad-request, internal, quota) is fatal:
//     every worker would fail the same way, so the job fails now.
//   - Backpressure (busy) requeues the lease without blaming the worker.
//   - A transport error, shutdown, or lease timeout is infrastructure
//     loss: the worker is declared dead and the lease re-issued elsewhere.
//   - Coordinator cancellation propagates as ctx.Err().
func (c *Coordinator) RunRanges(ctx context.Context, shards int, run func(lo, hi int, call func(method string, params, result any) error) error) error {
	if shards <= 0 {
		return fmt.Errorf("fabric: job has no shards")
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := obs.TraceFrom(ctx)

	pending := c.partition(shards)
	done := make(chan doneMsg)
	inflight := 0

	// collect ingests one finished dispatch; it returns a fatal error to
	// surface, or nil to keep going.
	var fatal error
	collect := func(msg doneMsg) {
		inflight--
		if msg.err == nil {
			c.release(msg.w, msg.l.hi-msg.l.lo, msg.elapsed)
			c.met.leaseLatency.Record(uint64(msg.elapsed))
			tr.Event("lease done", 0, leaseRange(msg.l.lo, msg.l.hi))
			return
		}
		switch classify(msg.err, lctx) {
		case outcomeCanceled:
			if fatal == nil {
				fatal = ctx.Err()
				if fatal == nil {
					fatal = msg.err
				}
			}
		case outcomeFatal:
			if fatal == nil {
				fatal = fmt.Errorf("fabric: lease [%d,%d) on %s: %w", msg.l.lo, msg.l.hi, msg.w.name, msg.err)
			}
			cancel()
		case outcomeBusy:
			// The worker is healthy but its admission queue was full:
			// requeue without blaming it.
			c.release(msg.w, 0, 0)
			c.met.leasesReassigned.Inc()
			pending = append(pending, msg.l)
		case outcomeInfra:
			c.markDead(msg.w)
			l := msg.l
			l.retries++
			if l.retries > c.cfg.retries() {
				if fatal == nil {
					fatal = fmt.Errorf("fabric: lease [%d,%d) failed after %d reassignments: %w",
						l.lo, l.hi, l.retries-1, msg.err)
				}
				cancel()
				return
			}
			c.met.leasesReassigned.Inc()
			tr.Event("lease re-issue", 0, leaseRange(l.lo, l.hi))
			c.logf("fabric: re-issuing lease [%d,%d) (attempt %d) after %s: %v",
				l.lo, l.hi, l.retries+1, msg.w.name, msg.err)
			// Exponential backoff before the re-issue; bounded by Retries,
			// so the inline sleep cannot stall collection for long.
			select {
			case <-time.After(backoff << (l.retries - 1)):
			case <-lctx.Done():
			}
			pending = append(pending, l)
		}
	}

	for len(pending) > 0 || inflight > 0 {
		// A canceled job (its time box ended) dispatches nothing more; the
		// in-flight leases come back with the work they did.
		if fatal == nil && ctx.Err() != nil {
			fatal = ctx.Err()
		}
		if fatal != nil && inflight == 0 {
			break
		}
		// Dispatch as many pending leases as there are idle live workers.
		for fatal == nil && len(pending) > 0 {
			w := c.claimIdle()
			if w == nil {
				break
			}
			l := pending[0]
			pending = pending[1:]
			inflight++
			c.met.leasesIssued.Inc()
			tr.Event("lease dispatch", 0, leaseRange(l.lo, l.hi))
			go func(l lease, w *worker) {
				start := time.Now()
				err := run(l.lo, l.hi, func(method string, params, result any) error {
					return c.callLease(lctx, w, method, params, result)
				})
				done <- doneMsg{l: l, w: w, err: err, elapsed: time.Since(start)}
			}(l, w)
		}
		if inflight == 0 {
			if fatal != nil {
				break
			}
			// No live worker to dispatch to: wait for a join (a rejoining
			// `psspd -worker` wakes us) or give up with the caller.
			select {
			case <-ctx.Done():
				return fmt.Errorf("fabric: %d shard(s) unassigned, no live workers: %w",
					remaining(pending), ctx.Err())
			case <-c.wake:
			}
			continue
		}
		select {
		case msg := <-done:
			collect(msg)
		case <-c.wake:
			// A worker joined mid-job; loop to dispatch onto it.
		}
	}
	return fatal
}

// remaining counts the shards still covered by pending leases.
func remaining(pending []lease) int {
	n := 0
	for _, l := range pending {
		n += l.hi - l.lo
	}
	return n
}

// partition splits [0, shards) into ascending leases of the configured (or
// auto) size.
func (c *Coordinator) partition(shards int) []lease {
	size := c.cfg.LeaseShards
	if size <= 0 {
		// Auto: four leases per live worker, so losing one costs a quarter
		// of a worker's share and stragglers rebalance.
		workers := c.live()
		if workers < 1 {
			workers = 1
		}
		size = shards / (4 * workers)
		if size < 1 {
			size = 1
		}
	}
	var out []lease
	for lo := 0; lo < shards; lo += size {
		hi := lo + size
		if hi > shards {
			hi = shards
		}
		out = append(out, lease{lo: lo, hi: hi})
	}
	return out
}

// leaseOutcome classifies a failed dispatch.
type leaseOutcome int

const (
	outcomeFatal leaseOutcome = iota
	outcomeBusy
	outcomeInfra
	outcomeCanceled
)

// classify maps a lease error onto the fault model. lctx is the job's
// lease context: cancellation-class errors only count as cancellation when
// we canceled, otherwise a worker shutting down mid-lease reports
// canceled/shutdown codes and must be treated as infrastructure loss.
func classify(err error, lctx context.Context) leaseOutcome {
	if lctx.Err() != nil {
		return outcomeCanceled
	}
	var rpc *client.RPCError
	if errors.As(err, &rpc) {
		switch rpc.Code {
		case daemon.CodeBadRequest, daemon.CodeInternal, daemon.CodeQuota:
			return outcomeFatal
		case daemon.CodeBusy:
			return outcomeBusy
		}
		// canceled/shutdown without our cancellation: the worker is going
		// away — infrastructure loss.
		return outcomeInfra
	}
	return outcomeInfra
}

// callLease issues one shard RPC with the lease watchdog armed: if the
// worker streams no progress events (the heartbeat every shard job emits)
// for LeaseTimeout, its connection is severed, which surfaces here as a
// transport error and routes through the reassignment path.
func (c *Coordinator) callLease(ctx context.Context, w *worker, method string, params, result any) error {
	timeout := c.cfg.leaseTimeout()
	tr := obs.TraceFrom(ctx)
	watchdog := time.AfterFunc(timeout, func() {
		c.met.watchdogResets.Inc()
		tr.Event("watchdog fired", 0, w.name)
		w.c.Close()
	})
	defer watchdog.Stop()
	return w.c.Call(ctx, method, params, result,
		client.WithTenant(c.cfg.Tenant),
		client.WithEvents(func(daemon.ProgressEvent) { watchdog.Reset(timeout) }))
}
