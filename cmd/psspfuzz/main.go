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
//	psspfuzz -remote unix:/tmp/psspd.sock -tenant ci -execs 4096 -json
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
// instead of rediscovering it, then folds its own discoveries back in.
// Store and corpus status go to stderr; the -json report shape never
// changes, so fixed-seed runs stay byte-comparable.
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
		corpus   = flag.String("corpus", "", "persistent corpus directory: saved inputs seed the run, discoveries and the coverage frontier are folded back (local runs only)")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (empty = compile in-process)")
		dict     = flag.String("dict", "", "mutation dictionary spec, e.g. 'Host:,HTTP/1.1:2'")
		execs    = flag.Int("execs", 4096, "total mutation budget across shards")
		duration = flag.Duration("duration", 0, "wall-clock time box (0 = exec-bounded only; a timed run's report is partial, not worker-invariant)")
		shards   = flag.Int("shards", 4, "self-contained fuzzing shards, one replica victim each (part of the scenario)")
		workers  = flag.Int("workers", 0, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
		maxIn    = flag.Int("max-input", 1024, "generated input length cap in bytes")
		stall    = flag.Int("until-stall", 0, "continuous mode: rerun exec-bounded rounds, reseeded from the growing corpus, until the coverage frontier is unchanged for this many consecutive rounds (0 = single run)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name for -remote (default \"default\")")
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
	if *remote != "" && (*corpus != "" || *storeDir != "") {
		fail(errors.New("-corpus and -store apply to local runs; a psspd daemon manages its own store (psspd -store)"))
	}
	if *stall > 0 && *remote != "" {
		fail(errors.New("-until-stall is a local loop; for distributed continuous fuzzing use psspctl -job fuzz -until-stall"))
	}
	if *stall > 0 && *duration > 0 {
		fail(errors.New("-until-stall rounds are exec-bounded; combine with -execs, not -duration"))
	}

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	// A time-boxed run prints a live ticker on stderr: the engine's Progress
	// stream, throttled to ~1 Hz here (callbacks are serialized by the
	// engine, so the plain `last` is race-free). Exec-bounded runs stay
	// silent — their report is the whole story.
	var progress func(pssp.FuzzProgress)
	if *duration > 0 {
		var last time.Time
		progress = func(p pssp.FuzzProgress) {
			now := time.Now()
			if now.Sub(last) < time.Second {
				return
			}
			last = now
			fmt.Fprintf(os.Stderr, "psspfuzz: shard %d/%d, %d execs, %d crashes, %d finding(s), corpus %d\n",
				p.ShardsDone, p.Shards, p.Execs, p.Crashes, p.Findings, p.CorpusSize)
		}
	}

	// One wire-param set drives both paths, so a local run and a -remote
	// job resolve the same scenario.
	fp := daemon.FuzzParams{
		App: *app, Scheme: s.String(), Seeds: seeds, Dict: tokens,
		Execs: *execs, Shards: *shards, Workers: *workers,
		MaxInput: *maxIn, Seed: *seed,
	}
	if *remote != "" {
		c, err := client.Dial(*remote)
		if err != nil {
			fail(err)
		}
		defer c.Close()
		opts := []client.Option{client.WithTenant(*tenant)}
		if progress != nil {
			opts = append(opts, client.WithEvents(func(ev daemon.ProgressEvent) {
				if ev.Fuzz != nil {
					progress(*ev.Fuzz)
				}
			}))
		}
		var fr daemon.FuzzResult
		if err := c.Call(ctx, "fuzz", fp, &fr, opts...); err != nil {
			fail(err)
		}
		// A canceled partial under -duration is the requested time box.
		timedOut := fr.TimedOut || (*duration > 0 && fr.Canceled)
		emit(*jsonOut, daemon.FuzzResult{FuzzReport: fr.FuzzReport, TimedOut: timedOut}, s, *duration, fail)
		return
	}

	machineOpts := []pssp.Option{pssp.WithSeed(*seed), pssp.WithScheme(s)}
	if *storeDir != "" {
		st, err := pssp.OpenStore(*storeDir)
		if err != nil {
			fail(err)
		}
		machineOpts = append(machineOpts, pssp.WithStore(st))
		defer func() {
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "psspfuzz: store: hits=%d misses=%d\n", ss.Hits, ss.Misses)
		}()
	}
	cfg := fp.FuzzConfig(*seed)
	var corp *store.Corpus
	var saved [][]byte
	var frontier []byte
	if *corpus != "" {
		if corp, err = store.OpenCorpus(*corpus); err != nil {
			fail(err)
		}
		if saved, frontier, err = corp.Load(); err != nil {
			fail(err)
		}
		resumed := "fresh"
		if frontier != nil {
			resumed = "resumed"
		}
		fmt.Fprintf(os.Stderr, "psspfuzz: corpus %s: %d saved input(s), frontier %s\n",
			*corpus, len(saved), resumed)
	}
	m := pssp.NewMachine(machineOpts...)
	img, err := m.Pipeline().CompileApp(*app).Image()
	if err != nil {
		fail(err)
	}
	if *stall > 0 {
		// Continuous mode reseeds itself each round, so cfg goes in with the
		// base seed corpus only; the loop reloads the corpus between rounds
		// and each round folds its discoveries back in.
		round := func(ctx context.Context, rc pssp.FuzzConfig) (*pssp.FuzzReport, error) {
			r, err := m.Fuzz(ctx, img, rc)
			if err != nil || corp == nil {
				return r, err
			}
			if _, err := corp.Add(r.CorpusInputs()); err != nil {
				return nil, err
			}
			return r, corp.SaveFrontier(r.Frontier())
		}
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "psspfuzz: "+format+"\n", args...)
		}
		rep, sum, err := pssp.FuzzUntilStall(ctx, cfg, *stall, corp, round, logf)
		if err != nil {
			fail(err)
		}
		emit(*jsonOut, daemon.FuzzResult{FuzzReport: rep, UntilStall: sum}, s, 0, fail)
		return
	}
	// Saved inputs ride along as extra seeds (sorted by content hash, so the
	// scenario is a function of the corpus set alone), and the saved
	// frontier marks their coverage as already charted.
	cfg.Seeds = append(cfg.Seeds, saved...)
	cfg.BaseVirgin = frontier
	cfg.Progress = progress
	rep, err := m.Fuzz(ctx, img, cfg)
	if rep != nil && corp != nil {
		// Persist even a partial run's discoveries: content-hash dedup
		// makes re-adding idempotent and the frontier only accumulates.
		added, aerr := corp.Add(rep.CorpusInputs())
		if aerr == nil {
			aerr = corp.SaveFrontier(rep.Frontier())
		}
		if aerr != nil {
			fail(aerr)
		}
		fmt.Fprintf(os.Stderr, "psspfuzz: corpus %s: +%d new input(s), frontier merged\n", *corpus, added)
	}
	timedOut := false
	if err != nil {
		// A -duration deadline is the requested time box, not a failure:
		// report the partial result like a stopped fuzzing session. The
		// check is on the returned error, not ctx.Err() — a genuine fatal
		// error that lands after the deadline must still fail loudly.
		if *duration > 0 && errors.Is(err, context.DeadlineExceeded) && rep != nil {
			timedOut = true
		} else {
			fail(err)
		}
	}
	emit(*jsonOut, daemon.FuzzResult{FuzzReport: rep, TimedOut: timedOut}, s, *duration, fail)
}

// emit renders the report — the one output path of every psspfuzz mode, so
// local, remote, single-run, and continuous runs stay byte-comparable. A
// completed run keeps the bare FuzzReport JSON shape; a time-boxed partial
// adds "timed_out": true so scripts cannot mistake a truncated frontier for
// a full one, and a continuous run adds its "until_stall" summary.
func emit(jsonOut bool, res daemon.FuzzResult, s pssp.Scheme, duration time.Duration, fail func(error)) {
	if jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, res); err != nil {
			fail(err)
		}
		return
	}
	rep, timedOut, stallSum := res.FuzzReport, res.TimedOut, res.UntilStall
	fmt.Printf("%s (scheme %s): %d execs over %d shard(s)", rep.Label, s, rep.Execs, rep.Shards)
	if timedOut {
		fmt.Printf(" [time box %v hit]", duration)
	}
	fmt.Println()
	if stallSum != nil {
		fmt.Printf("  continuous: frontier stalled after %d round(s), %d total execs\n",
			stallSum.Rounds, stallSum.TotalExecs)
	}
	fmt.Printf("  coverage: %d edges (frontier %016x), corpus %d entries\n",
		rep.Edges, rep.CoverageHash, rep.CorpusSize)
	fmt.Printf("  crashes: %d executions, %d unique site(s)", rep.Crashes, len(rep.Findings))
	if rep.ExecsToFirstCrash > 0 {
		fmt.Printf(", first at exec %d", rep.ExecsToFirstCrash)
	}
	fmt.Println()
	for i, f := range rep.Findings {
		kind := f.Kind
		if f.Detected {
			kind = "canary-detected: " + kind
		}
		fmt.Printf("  finding %d: rip=0x%x %s\n", i, f.CrashPC, kind)
		fmt.Printf("    shard %d exec %d, input %d bytes, minimized %d bytes -> overflow after %d bytes\n",
			f.Shard, f.Exec, len(f.Input), len(f.Minimized), f.OverflowLen())
	}
}
