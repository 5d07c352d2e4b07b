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
// psspfuzz's -seeds/-dict flags use. The scenario flags are the loadtest
// kind's, declared once in cliutil and shared with `psspctl loadtest`.
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
	"time"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/obs"
	"repro/internal/workpool"
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

// runSmoke pushes jobs boot jobs for p's (app, scheme, seed) triple through
// nconns real client connections: the first checkout builds the machine
// cold, every later one should be a warm pool hit, so the p99 approximates
// the daemon's warm dispatch floor over a real transport.
func runSmoke(remote, tenant string, p daemon.LoadParams, jobs, nconns int, jsonOut bool) error {
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

	// Each connection is one worker pushing its share of the jobs; the
	// first failure cancels the rest.
	ctx := context.Background()
	var latency obs.Hist // ns per job
	start := time.Now()
	err := workpool.Run(ctx, nconns, nconns, func(ctx context.Context, i int) error {
		for n := workpool.Share(jobs, i, nconns); n > 0; n-- {
			t0 := time.Now()
			err := clients[i].Call(ctx, "boot", daemon.BootParams{App: p.App, Scheme: p.Scheme, Seed: p.Seed},
				nil, client.WithTenant(tenant))
			latency.Record(uint64(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}

	lat := latency.Snapshot()
	micros := func(ns uint64) float64 { return float64(ns) / float64(time.Microsecond) }
	stats, err := clients[0].Stats(ctx)
	if err != nil {
		return err
	}
	rep := smokeReport{
		App: p.App, Scheme: p.Scheme, Seed: p.Seed, Jobs: jobs, Conns: nconns,
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
		p.App, p.Scheme, p.Seed, jobs, nconns, rep.ElapsedMicros/1000, rep.JobsPerSec)
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
	job := cliutil.LoadJob(flag.CommandLine)
	conn := cliutil.ConnFlags(flag.CommandLine)
	smoke := flag.Int("smoke", 0, "daemon smoke mode: push this many boot jobs over real connections and report wall-clock latency + pool hit rate (requires -remote)")
	conns := flag.Int("conns", 4, "client connections for -smoke")
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspload", err) }

	if *smoke > 0 {
		p, err := job.Params()
		if err != nil {
			fail(err)
		}
		if conn.Remote == "" {
			fail(fmt.Errorf("-smoke requires -remote: it measures a live daemon over real connections"))
		}
		if err := runSmoke(conn.Remote, conn.Tenant, p.(daemon.LoadParams), *smoke, *conns, job.JSON()); err != nil {
			fail(err)
		}
		return
	}
	if err := conn.Run("psspload", job); err != nil {
		fail(err)
	}
}
