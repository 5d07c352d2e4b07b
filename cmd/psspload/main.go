// Command psspload drives the virtual-time load-generation subsystem: it
// boots replica fork-servers for a built-in app and pushes a traffic mix —
// benign request classes, optionally interleaved with live attack-strategy
// probes — through an open- or closed-loop arrival model, reporting
// tail-latency histograms, offered-vs-achieved throughput, and per-class
// crash/detection counters. All in victim cycles: for a fixed -seed the
// report is bit-identical at any -workers count.
//
// Every run is a loadtest job on a psspd daemon: with -remote the daemon at
// that address, otherwise one served in process (over a pipe, with -store
// as its artifact store). It is the same job path either way, so for a
// fixed explicit -seed the output (including -json) is byte-identical;
// -seed 0 draws the seed from the tenant's stream.
//
// Usage:
//
//	psspload -app nginx -arrivals poisson -rate 20 -requests 512
//	psspload -app mysql -arrivals closed -clients 16 -think 5000
//	psspload -app nginx-vuln -scheme p-ssp -mix 'benign:3,probe=adaptive:1'
//	psspload -app nginx -arrivals uniform -rate 10 -sweep 0.5,1,2,4,8 -json
//	psspload -remote unix:/tmp/psspd.sock -tenant ci -requests 256 -json
//	psspload -remote unix:/tmp/psspd.sock -smoke 64 -conns 4
//
// The -mix grammar is comma-separated class:weight items, where a class is
// either "benign" (the app's built-in request payload) or "probe=NAME" with
// NAME a registered attack strategy (see psspattack's -strategy help). It is
// parsed by the shared cliutil.ParseMix, the same weighted-spec grammar
// psspfuzz's -seeds/-dict flags use.
//
// -smoke N load-tests the daemon itself rather than a simulated victim: it
// opens -conns real client connections and pushes N boot jobs for one
// (app, scheme, seed) triple through them, so after the first cold build
// every job should be a warm pool hit. It reports wall-clock job latency
// (p50/p99/max — real time, not virtual cycles, so the numbers are
// machine-dependent) and the daemon's pool and store hit counters from
// `stats`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/obs"
	"repro/pssp"
)

// smokeReport is the -smoke output: wall-clock job latency over real client
// connections plus the daemon's pool/store effectiveness counters. Unlike
// every other report in the stack it measures the serving daemon itself, in
// real time, so the numbers are machine-dependent by design.
type smokeReport struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	Seed   uint64 `json:"seed"`
	Jobs   int    `json:"jobs"`
	Conns  int    `json:"conns"`
	// Wall-clock job latency in microseconds, measured Call-to-return at
	// the client (transport + queueing + job execution); the quantiles
	// follow obs.Quantile, the metrics registry's rule.
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	MaxMicros float64 `json:"max_micros"`
	// ElapsedMicros is the whole smoke run; JobsPerSec the achieved rate.
	ElapsedMicros float64 `json:"elapsed_micros"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
	// PoolHitRate is warm checkouts / total checkouts over the daemon's
	// lifetime (from `stats`, so prior traffic counts too).
	PoolHitRate float64      `json:"pool_hit_rate"`
	Stats       daemon.Stats `json:"stats"`
}

// runSmoke pushes jobs boot jobs for one (app, scheme, seed) triple through
// nconns real client connections: the first checkout builds the machine
// cold, every later one should be a warm pool hit, so the p99 approximates
// the daemon's warm dispatch floor over a real transport.
func runSmoke(remote, tenant, app string, s pssp.Scheme, seed uint64, jobs, nconns int, jsonOut bool) error {
	if nconns <= 0 {
		nconns = 1
	}
	if nconns > jobs {
		nconns = jobs
	}
	clients := make([]*client.Client, nconns)
	for i := range clients {
		c, err := client.Dial(remote)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}

	ctx := context.Background()
	var latency obs.Hist // ns per job
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs || firstErr.Load() != nil {
					return
				}
				t0 := time.Now()
				err := c.Call(ctx, "boot", daemon.BootParams{App: app, Scheme: s.String(), Seed: seed},
					nil, client.WithTenant(tenant))
				latency.Record(uint64(time.Since(t0)))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return err
	}

	lat := latency.Snapshot()
	micros := func(ns uint64) float64 { return float64(ns) / float64(time.Microsecond) }
	stats, err := clients[0].Stats(ctx)
	if err != nil {
		return err
	}
	rep := smokeReport{
		App: app, Scheme: s.String(), Seed: seed, Jobs: jobs, Conns: nconns,
		P50Micros:     micros(lat.Quantile(0.50)),
		P99Micros:     micros(lat.Quantile(0.99)),
		MaxMicros:     micros(lat.Max),
		ElapsedMicros: float64(elapsed) / float64(time.Microsecond),
		JobsPerSec:    float64(jobs) / elapsed.Seconds(),
		Stats:         stats,
	}
	if total := stats.Pool.Hits + stats.Pool.Misses; total > 0 {
		rep.PoolHitRate = float64(stats.Pool.Hits) / float64(total)
	}
	if jsonOut {
		return cliutil.EmitJSON(os.Stdout, rep)
	}
	fmt.Printf("smoke %s (scheme %s, seed %d): %d boot jobs over %d connection(s) in %.1f ms (%.0f jobs/s)\n",
		app, s, seed, jobs, nconns, rep.ElapsedMicros/1000, rep.JobsPerSec)
	fmt.Printf("  wall-clock job latency: p50 %.0f µs  p99 %.0f µs  max %.0f µs\n",
		rep.P50Micros, rep.P99Micros, rep.MaxMicros)
	fmt.Printf("  pool: %d hits / %d misses (hit rate %.3f), %d parked, %d images\n",
		stats.Pool.Hits, stats.Pool.Misses, rep.PoolHitRate, stats.Pool.Entries, stats.Pool.Images)
	if stats.Pool.StoreHits+stats.Pool.StoreMisses > 0 {
		fmt.Printf("  store: %d hits / %d misses\n", stats.Pool.StoreHits, stats.Pool.StoreMisses)
	}
	return nil
}

func main() {
	var (
		app      = flag.String("app", "nginx", "built-in server app to load (see pssp.Apps)")
		scheme   = flag.String("scheme", "p-ssp", "protection scheme of the servers")
		mixSpec  = flag.String("mix", "benign:1", "traffic mix, e.g. 'benign:3,probe=adaptive:1'")
		arrivals = flag.String("arrivals", "poisson", "arrival model: poisson | uniform | closed")
		rate     = flag.Float64("rate", 10, "open-loop offered rate (requests per million victim cycles)")
		clients  = flag.Int("clients", 8, "closed-loop client population")
		think    = flag.Float64("think", 0, "closed-loop mean think time (cycles)")
		requests = flag.Int("requests", 256, "total request budget (0 = duration-bounded)")
		duration = flag.Uint64("duration", 0, "virtual-time horizon in cycles (0 = request-bounded)")
		shards   = flag.Int("shards", 4, "replica servers the clients shard over (part of the scenario)")
		workers  = flag.Int("workers", 0, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
		budget   = flag.Int("budget", 64, "probe trials per attack replication")
		sweep    = flag.String("sweep", "", "offered-load multipliers, e.g. '0.5,1,2,4' (locates the saturation knee)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		seed     = flag.Uint64("seed", 1, "simulation seed (0 = drawn from the tenant's seed stream)")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (local runs; empty = compile in-process)")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name presented to the daemon (default \"default\")")
		smoke    = flag.Int("smoke", 0, "daemon smoke mode: push this many boot jobs over real connections and report wall-clock latency + pool hit rate (requires -remote)")
		conns    = flag.Int("conns", 4, "client connections for -smoke")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspload", err) }

	s, err := pssp.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	mix, err := cliutil.ParseMix(*mixSpec)
	if err != nil {
		fail(err)
	}
	multipliers, err := cliutil.ParseSweep(*sweep)
	if err != nil {
		fail(err)
	}
	p := daemon.LoadParams{
		App: *app, Scheme: s.String(), Mix: mix, Arrivals: *arrivals,
		Rate: *rate, Clients: *clients, ThinkCycles: *think,
		Requests: *requests, DurationCycles: *duration,
		Shards: *shards, Workers: *workers, Budget: *budget,
		Sweep: multipliers, Seed: *seed,
	}

	if *smoke > 0 {
		if *remote == "" {
			fail(fmt.Errorf("-smoke requires -remote: it measures a live daemon over real connections"))
		}
		if err := runSmoke(*remote, *tenant, *app, s, *seed, *smoke, *conns, *jsonOut); err != nil {
			fail(err)
		}
		return
	}

	c, stop, err := cliutil.Connect("psspload", *remote, *storeDir)
	if err != nil {
		fail(err)
	}
	defer stop()
	var res daemon.LoadResult
	if err := c.Call(context.Background(), "loadtest", p, &res, client.WithTenant(*tenant)); err != nil {
		fail(err)
	}
	if res.Canceled {
		fmt.Fprintln(os.Stderr, "psspload: job canceled; partial report follows")
	}
	if err := cliutil.EmitLoad(res, p, *jsonOut); err != nil {
		fail(err)
	}
}
