// Command psspfuzz drives the coverage-guided fuzzing subsystem: it boots
// replica fork-servers for a built-in app with the VM's edge-coverage map
// enabled, mutates a seed corpus over sharded deterministic streams, and
// reports the coverage frontier, the admitted corpus, and the deduplicated,
// minimized crash findings — including the buffer length each overflow
// finding hands to the attack layer (psspattack/Machine.Campaign).
//
// Usage:
//
//	psspfuzz -app nginx-vuln -scheme ssp -execs 4096
//	psspfuzz -app ali-vuln -scheme ssp -seed 7 -workers 8 -json
//	psspfuzz -app nginx-vuln -seeds 'GET /:2,PING' -dict 'Host:,HTTP/1.1'
//	psspfuzz -app nginx-vuln -duration 10s
//	psspfuzz -app nginx-vuln -store /var/cache/pssp -corpus ./corpus
//	psspfuzz -app nginx-vuln -execs 512 -until-stall 2 -corpus ./corpus
//	psspfuzz -remote unix:/tmp/psspd.sock -tenant ci -execs 4096 -json
//
// Every run is a fuzz job on a psspd daemon: with -remote the daemon at
// that address, otherwise one served in process (over a pipe, with -store
// as its artifact store). It is the same job path either way, so for a
// fixed explicit -seed the output (including -json) is byte-identical;
// -seed 0 draws the seed from the tenant's stream.
//
// -seeds and -dict use the shared weighted-spec grammar of psspload's -mix
// ("item" or "item:weight" entries, comma-separated); a seeds/dict weight
// replicates the entry, biasing uniform draws toward it. For a fixed -seed
// an exec-bounded run's report is bit-identical at any -workers count;
// -duration time-boxes the run in wall-clock time instead, trading that
// determinism for a budget in seconds.
//
// -store names a content-addressed artifact store: the victim image is
// compiled at most once per (app, scheme, toolchain) across every run and
// process sharing the directory, served from mmap'd blobs afterwards.
// -corpus names a persistent corpus directory, deduplicated by input
// content hash and carrying the merged coverage frontier: a rerun loads the
// saved inputs as extra seeds and resumes from the recorded frontier
// instead of rediscovering it, then folds its own discoveries back in (a
// time-boxed run's too). The path resolves on the host that runs the job —
// the daemon's, with -remote. -until-stall reruns exec-bounded rounds,
// each reseeded from the growing corpus, until the frontier stalls; its
// per-round lines go to the job's flight-recorder trace. Store and corpus
// status go to stderr; the -json report shape never changes, so fixed-seed
// runs stay byte-comparable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/store"
	"repro/pssp"
)

func main() {
	var (
		app      = flag.String("app", "nginx-vuln", "built-in server app to fuzz (see pssp.Apps)")
		scheme   = flag.String("scheme", "ssp", "protection scheme of the victim servers")
		seedSpec = flag.String("seeds", "", "seed corpus spec, e.g. 'GET /:2,PING' (empty = the app's built-in request)")
		corpus   = flag.String("corpus", "", "persistent corpus directory: saved inputs seed the run, discoveries and the coverage frontier are folded back (resolved on the daemon's host)")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (local runs; empty = compile in-process)")
		dict     = flag.String("dict", "", "mutation dictionary spec, e.g. 'Host:,HTTP/1.1:2'")
		execs    = flag.Int("execs", 4096, "total mutation budget across shards")
		duration = flag.Duration("duration", 0, "wall-clock time box (0 = exec-bounded only; a timed run's report is partial, not worker-invariant)")
		shards   = flag.Int("shards", 4, "self-contained fuzzing shards, one replica victim each (part of the scenario)")
		workers  = flag.Int("workers", 0, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
		maxIn    = flag.Int("max-input", 1024, "generated input length cap in bytes")
		stall    = flag.Int("until-stall", 0, "continuous mode: rerun exec-bounded rounds, reseeded from the growing corpus, until the coverage frontier is unchanged for this many consecutive rounds (0 = single run)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		seed     = flag.Uint64("seed", 1, "simulation seed (0 = drawn from the tenant's seed stream)")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name presented to the daemon (default \"default\")")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspfuzz", err) }

	s, err := pssp.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	seeds, err := cliutil.ParseByteItems(*seedSpec)
	if err != nil {
		fail(fmt.Errorf("seeds %w", err))
	}
	tokens, err := cliutil.ParseByteItems(*dict)
	if err != nil {
		fail(fmt.Errorf("dict %w", err))
	}
	if *stall > 0 && *duration > 0 {
		fail(errors.New("-until-stall rounds are exec-bounded; combine with -execs, not -duration"))
	}
	c, stop, err := cliutil.Connect("psspfuzz", *remote, *storeDir)
	if err != nil {
		fail(err)
	}
	defer stop()
	if *corpus != "" && *remote == "" {
		saved, resumed := corpusStatus(*corpus, fail)
		fmt.Fprintf(os.Stderr, "psspfuzz: corpus %s: %d saved input(s), frontier %s\n", *corpus, saved, resumed)
		defer func() {
			now, _ := corpusStatus(*corpus, fail)
			fmt.Fprintf(os.Stderr, "psspfuzz: corpus %s: +%d new input(s), frontier merged\n", *corpus, now-saved)
		}()
	}

	ctx := context.Background()
	opts := []client.Option{client.WithTenant(*tenant)}
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
		// A time-boxed run prints a live ticker on stderr from the job's
		// progress events, throttled to ~1 Hz here (events arrive on the
		// client's one reader goroutine, so the plain `last` is race-free).
		// Exec-bounded runs stay silent — their report is the whole story.
		var last time.Time
		opts = append(opts, client.WithEvents(func(ev daemon.ProgressEvent) {
			if ev.Fuzz == nil || time.Since(last) < time.Second {
				return
			}
			last = time.Now()
			p := ev.Fuzz
			fmt.Fprintf(os.Stderr, "psspfuzz: shard %d/%d, %d execs, %d crashes, %d finding(s), corpus %d\n",
				p.ShardsDone, p.Shards, p.Execs, p.Crashes, p.Findings, p.CorpusSize)
		}))
	}
	fp := daemon.FuzzParams{
		App: *app, Scheme: s.String(), Seeds: seeds, Dict: tokens,
		Execs: *execs, Shards: *shards, Workers: *workers,
		MaxInput: *maxIn, Seed: *seed, CorpusDir: *corpus, UntilStall: *stall,
	}
	var fr daemon.FuzzResult
	if err := c.Call(ctx, "fuzz", fp, &fr, opts...); err != nil {
		fail(err)
	}
	// A canceled partial under -duration is the requested time box: report
	// it like a stopped fuzzing session. A completed run keeps the bare
	// FuzzReport JSON shape; a time-boxed partial adds "timed_out": true so
	// scripts cannot mistake a truncated frontier for a full one, and a
	// continuous run adds its "until_stall" summary. The check is on the
	// job's Canceled flag, not ctx.Err(): a genuine failure that lands
	// after the deadline still fails loudly.
	if *duration > 0 && fr.Canceled {
		fr.TimedOut, fr.Canceled = true, false
	}
	if *jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, fr); err != nil {
			fail(err)
		}
		return
	}
	cliutil.PrintFuzz(fr, fp, *duration)
}

// corpusStatus reads the corpus directory for the stderr status lines: its
// saved input count and whether it holds a frontier to resume from.
func corpusStatus(dir string, fail func(error)) (saved int, frontier string) {
	corp, err := store.OpenCorpus(dir)
	if err != nil {
		fail(err)
	}
	inputs, virgin, err := corp.Load()
	if err != nil {
		fail(err)
	}
	if virgin == nil {
		return len(inputs), "fresh"
	}
	return len(inputs), "resumed"
}
