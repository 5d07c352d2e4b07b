// Package fabric is the distributed evaluation layer: a coordinator is a
// psspd daemon whose whole attack, loadtest and fuzz jobs run their plan's
// shard ranges as leases on psspd workers instead of in process. It
// partitions each range into leases, dispatches them over the
// newline-delimited JSON-RPC protocol, and hands the returned per-shard
// partials to the plan's merge — so a campaign, load sweep, or fuzzing
// report produced across any number of worker processes is byte-identical
// to the single-process run at the same seed.
//
// Everything but the ranges is the daemon's: validation, seeds, admission,
// the image cache the plans resolve against, submitted jobs, stats and
// metrics. A transport is only a different way to deliver shard ranges
// (daemon.RangeRunner); it has no copy of a job kind.
//
// Workers attach two ways: the coordinator dials out to ordinary psspd
// listeners (Connect, psspctl's -workers list), or workers dial in and
// register (`psspd -worker -join addr` against a Serve listener). Either
// way the coordinator ends up holding the client side of a protocol
// connection and issues campaignshard/loadshard/fuzzshard requests, which
// the worker's one shard handler runs on its cached images.
//
// Determinism is inherited, not re-implemented: a lease [lo,hi) names
// global shard indices, the worker runs them with the exact runner the
// single-process engines use (shard i ⇒ rng.NewStream(seed, i)), and the
// plan folds the wire partials with the engines' own merge code. Lease loss
// is therefore harmless to the result: a re-issued lease recomputes
// bit-identical partials on another worker.
package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/obs"
	"repro/pssp"
)

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// Tenant names the coordinator to the workers' admission control
	// (empty = "default").
	Tenant string
	// LeaseShards is the number of shards per lease (0 = auto: the shard
	// range split four ways per live worker, so a straggler re-lease costs
	// a quarter of a worker's share, not the whole job).
	LeaseShards int
	// LeaseTimeout evicts a worker whose lease has streamed no progress
	// events for this long — the heartbeat: shard jobs stream engine
	// progress, so silence means a hung or dead worker (default 60s).
	LeaseTimeout time.Duration
	// Retries bounds how many times one lease may be re-issued after
	// worker loss before the job fails (default 3).
	Retries int
	// Logf, when non-nil, receives coordinator life-cycle lines (worker
	// joins/deaths, lease reassignments).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the coordinator's series: its
	// daemon's, plus lease dispatch/re-issue counters, lease-latency
	// histogram, watchdog resets, and per-worker shard throughput. Pure
	// read-side — merged reports are byte-identical with or without it.
	Metrics *obs.Registry
	// Recorder, when non-nil, is the daemon's flight recorder; each job's
	// trace holds its lease events (dispatch, completion, re-issue,
	// watchdog fire).
	Recorder *obs.Recorder
}

func (c Config) leaseTimeout() time.Duration {
	if c.LeaseTimeout <= 0 {
		return 60 * time.Second
	}
	return c.LeaseTimeout
}

func (c Config) retries() int {
	if c.Retries <= 0 {
		return 3
	}
	return c.Retries
}

// backoff is the base delay before re-issuing a lost lease, doubling per
// retry.
const backoff = 50 * time.Millisecond

// Coordinator is a psspd daemon whose whole jobs lease their shard ranges
// to a set of worker connections: it is the daemon's range runner. Jobs
// (the daemon's methods, Campaign, Fuzz) may run concurrently; each worker
// executes one lease at a time. Stats is the worker table; the embedded
// daemon's Stats holds it too.
type Coordinator struct {
	*daemon.Daemon

	cfg Config
	met *fabricMetrics

	mu      sync.Mutex
	workers []*worker
	wake    chan struct{} // buffered; signaled when a worker joins
}

// worker is one attached psspd.
type worker struct {
	name string
	c    *client.Client

	mu         sync.Mutex
	dead       bool
	busy       bool
	leases     int
	shardsDone int
	busyTime   time.Duration
}

// New builds a Coordinator with no workers attached; Connect or Serve
// attach them.
func New(cfg Config) *Coordinator {
	// The lease tallies live in registry atomics either way: a coordinator
	// without Config.Metrics keeps a private registry, shared with its
	// daemon, so Stats and the exposition read the same counters.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		met:  newFabricMetrics(reg),
	}
	c.Daemon = daemon.New(daemon.Config{Metrics: reg, Recorder: cfg.Recorder, Ranges: c})
	c.registerCollectors(reg)
	return c
}

// Campaign runs an attack job on the coordinator — its replications leased
// across the workers — and returns the merged report, the exact shape
// psspattack -json emits.
func (c *Coordinator) Campaign(ctx context.Context, p daemon.AttackParams) (*daemon.AttackReport, error) {
	res, err := c.Do(ctx, "", "attack", p, nil)
	if err != nil {
		return nil, err
	}
	rep := res.(daemon.AttackReport)
	return &rep, nil
}

// Fuzz runs a fuzz job on the coordinator — each round's shards leased
// across the workers — and returns the merged report, the exact shape
// psspfuzz -json emits. corpusDir, when non-empty, sets p.CorpusDir: it
// resolves on the coordinator's host and on the workers', which fold each
// round's discoveries into it.
func (c *Coordinator) Fuzz(ctx context.Context, p daemon.FuzzParams, corpusDir string) (*pssp.FuzzReport, error) {
	p.CorpusDir = corpusDir
	res, err := c.Do(ctx, "", "fuzz", p, nil)
	if err != nil {
		return nil, err
	}
	return res.(daemon.FuzzResult).FuzzReport, nil
}

// Serve accepts connections on lis until ctx ends or the listener is
// closed. A connection whose first request is `register` is a `psspd
// -worker -join` flipping roles: the coordinator becomes the client of that
// connection. Every other connection is a control client, served by the
// coordinator's daemon like any psspd connection.
func (c *Coordinator) Serve(ctx context.Context, lis net.Listener) error {
	go func() {
		<-ctx.Done()
		lis.Close()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go c.handleConn(conn, firstLineDeadline)
	}
}

// firstLineDeadline bounds how long a new connection may stay silent
// before its first line: a control client sends its first request at once,
// and a joining worker registers at once, so a connection silent this long
// is closed instead of holding a goroutine.
const firstLineDeadline = 10 * time.Second

// handleConn reads a connection's first line, within silence, to tell a
// registering worker from a control client.
func (c *Coordinator) handleConn(conn net.Conn, silence time.Duration) {
	br := bufio.NewReaderSize(conn, 64<<10)
	if err := conn.SetReadDeadline(time.Now().Add(silence)); err != nil {
		conn.Close()
		return
	}
	line, err := daemon.ReadLine(br)
	if err == nil {
		// The line is in: clear the deadline for the connection's life.
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return
	}
	var req daemon.Request
	if json.Unmarshal(line, &req) != nil || req.Method != "register" {
		c.ServeConn(daemon.BufferedConn{Conn: conn, R: io.MultiReader(bytes.NewReader(line), br)})
		return
	}
	var p daemon.RegisterParams
	if err := json.Unmarshal(req.Params, &p); err != nil {
		// The connection closes whether or not the reply reaches the peer.
		_ = json.NewEncoder(conn).Encode(daemon.Response{ID: req.ID, Error: &daemon.Error{
			Code: daemon.CodeBadRequest, Message: "malformed register params: " + err.Error()}})
		conn.Close()
		return
	}
	name := p.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", p.Pid)
	}
	ack, _ := json.Marshal(daemon.RegisterResult{OK: true, Name: name})
	if err := json.NewEncoder(conn).Encode(daemon.Response{ID: req.ID, Result: ack}); err != nil {
		conn.Close()
		return
	}
	// The handshake is half-duplex: the worker sends nothing after its
	// register line until we issue requests, so br holds no buffered
	// post-handshake bytes and the raw conn can carry the client side.
	c.AttachConn(conn, name)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Connect dials an ordinary psspd listener at addr and attaches it as a
// worker (with Dial's transient-refusal retry, so workers racing the
// coordinator's startup are absorbed).
func (c *Coordinator) Connect(addr string) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("fabric: worker %s: %w", addr, err)
	}
	c.add(&worker{name: addr, c: cl})
	return nil
}

// AttachConn attaches an established protocol connection as a named worker
// — the Serve register path, and the test seam for in-process workers.
func (c *Coordinator) AttachConn(conn net.Conn, name string) {
	c.add(&worker{name: name, c: client.NewConn(conn)})
}

func (c *Coordinator) add(w *worker) {
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	c.logf("fabric: worker %s joined", w.name)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// live returns the number of workers that have not been declared dead.
func (c *Coordinator) live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		w.mu.Lock()
		if !w.dead {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

// claimIdle claims an idle live worker (marking it busy), or nil.
func (c *Coordinator) claimIdle() *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		w.mu.Lock()
		if !w.dead && !w.busy {
			w.busy = true
			w.mu.Unlock()
			return w
		}
		w.mu.Unlock()
	}
	return nil
}

// WaitWorkers blocks until at least n live workers are attached (or ctx
// ends). psspctl's one-shot mode uses it to let `psspd -worker -join`
// processes race the coordinator's listen.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	for {
		if c.live() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: waiting for %d worker(s): %w", n, ctx.Err())
		case <-c.wake:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// KillWorker closes the named worker's connection, as if its process died
// mid-lease — the fault-injection seam the reassignment tests and the CI
// smoke use. Returns false if no live worker has that name.
func (c *Coordinator) KillWorker(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		w.mu.Lock()
		dead := w.dead
		w.mu.Unlock()
		if w.name == name && !dead {
			w.c.Close()
			return true
		}
	}
	return false
}

// Close shuts the coordinator's daemon down, canceling its jobs, then
// tears down every worker connection.
func (c *Coordinator) Close() {
	c.Shutdown(context.Background())
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		w.c.Close()
	}
}

// markDead declares a worker lost: its connection is closed and it will
// never be claimed again (a rejoining `psspd -worker` registers as a fresh
// worker entry).
func (c *Coordinator) markDead(w *worker) {
	w.mu.Lock()
	already := w.dead
	w.dead = true
	w.busy = false
	w.mu.Unlock()
	if !already {
		w.c.Close()
		c.met.workersLost.Inc()
		c.logf("fabric: worker %s lost", w.name)
	}
}

// release returns a worker to the idle pool after a finished lease.
func (c *Coordinator) release(w *worker, shards int, elapsed time.Duration) {
	w.mu.Lock()
	w.busy = false
	w.leases++
	w.shardsDone += shards
	w.busyTime += elapsed
	w.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Stats is the coordinator's worker table and lease counters.
type Stats = daemon.FabricStats

// Stats snapshots the coordinator's workers and leases.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	ws := make([]daemon.WorkerStats, len(c.workers))
	for i, w := range c.workers {
		w.mu.Lock()
		ws[i] = daemon.WorkerStats{
			Name: w.name, Alive: !w.dead, Busy: w.busy,
			Leases: w.leases, ShardsDone: w.shardsDone,
		}
		if secs := w.busyTime.Seconds(); secs > 0 {
			ws[i].ShardsPerSec = float64(w.shardsDone) / secs
		}
		w.mu.Unlock()
	}
	c.mu.Unlock()
	return Stats{
		Workers:          ws,
		LeasesIssued:     c.met.leasesIssued.Load(),
		LeasesReassigned: c.met.leasesReassigned.Load(),
	}
}
