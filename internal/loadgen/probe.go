package loadgen

import (
	"context"
	"errors"

	"repro/internal/attack"
	"repro/internal/rng"
)

// probeSource turns an attack.Strategy into an incremental payload stream so
// the engine can interleave its probes with benign traffic. The strategy
// runs unmodified on its own goroutine against a channel-backed oracle:
// every Oracle.Try becomes one scheduled request — the payload crosses to
// the engine, which serves it at the workload's pace and sends the
// survived/crashed verdict back. When a replication finishes (success or
// exhausted budget), the next one starts on the next derived rng stream, so
// a probe class never runs dry.
//
// The handoff is strictly synchronous (unbuffered channels, one outstanding
// probe), which keeps the payload sequence a deterministic function of
// (seed, verdict history) — exactly what shard determinism needs.
type probeSource struct {
	payloads chan []byte
	results  chan bool
	done     chan struct{}
	cancel   context.CancelFunc

	// replications and successes are written only by the strategy
	// goroutine; stop()'s <-done is the happens-before edge that lets the
	// engine read them.
	replications int
	successes    int
}

// newProbeSource starts the strategy loop. seed derives each replication's
// guess randomness: replication r draws from rng.NewStream(seed, r).
func newProbeSource(ctx context.Context, strat attack.Strategy, cfg attack.Config, seed uint64) *probeSource {
	ctx, cancel := context.WithCancel(ctx)
	ps := &probeSource{
		payloads: make(chan []byte),
		results:  make(chan bool),
		done:     make(chan struct{}),
		cancel:   cancel,
	}
	go func() {
		defer close(ps.done)
		for rep := uint64(0); ; rep++ {
			res, err := strat.Attack(ctx, &chanOracle{ctx: ctx, ps: ps}, cfg, rng.NewStream(seed, rep))
			if err != nil {
				return // cancelled (the only error a chanOracle produces)
			}
			ps.replications++
			if res.Success {
				ps.successes++
			}
		}
	}()
	return ps
}

// chanOracle is the strategy-side half of the handoff.
type chanOracle struct {
	ctx context.Context
	ps  *probeSource
}

// Try implements attack.Oracle: publish the payload, wait for the engine's
// verdict. The engine is done with payload (the fork server copied it into
// its worker) before it sends the verdict, so nothing retains it after Try
// returns.
func (o *chanOracle) Try(payload []byte) (bool, error) {
	select {
	case o.ps.payloads <- payload:
	case <-o.ctx.Done():
		return false, o.ctx.Err()
	}
	select {
	case ok := <-o.ps.results:
		return ok, nil
	case <-o.ctx.Done():
		return false, o.ctx.Err()
	}
}

// errProbeExhausted reports a strategy goroutine that exited while the
// engine still wanted probes — impossible for the registered strategies
// (their replication loop only exits on cancellation), so it flags a broken
// custom Strategy rather than a scenario condition.
var errProbeExhausted = errors.New("loadgen: probe strategy stopped producing payloads")

// next returns the adversary's next probe payload.
func (ps *probeSource) next(ctx context.Context) ([]byte, error) {
	select {
	case p := <-ps.payloads:
		return p, nil
	case <-ps.done:
		return nil, errProbeExhausted
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// observe reports the served probe's fate back to the strategy: survived
// means the worker answered without crashing.
func (ps *probeSource) observe(ctx context.Context, survived bool) error {
	select {
	case ps.results <- survived:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop cancels the strategy loop, waits for it to exit, and returns the
// completed replication and success counts.
func (ps *probeSource) stop() (replications, successes int) {
	ps.cancel()
	<-ps.done
	return ps.replications, ps.successes
}
