// Command psspctl drives the distributed evaluation fabric: a coordinator
// that fans attack campaigns, load sweeps, and fuzzing out across psspd
// worker processes (and machines) as shard leases, and merges the returned
// partial aggregates in shard order — so every report it emits is
// byte-identical to the single-process psspattack/psspload/psspfuzz run at
// the same explicit -seed, at any worker count, including runs where a
// worker died mid-lease and its shards were re-issued.
//
// Three modes:
//
// One-shot — attach workers, run one job, print its report, exit:
//
//	psspctl -workers unix:/tmp/w0.sock,unix:/tmp/w1.sock -job campaign -target nginx-vuln -json
//	psspctl -listen unix:/tmp/ctl.sock -min-workers 2 -job fuzz -execs 8192 -json
//	psspctl -workers unix:/tmp/w0.sock -job loadtest -sweep 0.5,1,2,4 -json
//
// Serve — a long-lived coordinator: workers register on -listen
// (`psspd -worker -join`), and control clients submit jobs over the same
// listener:
//
//	psspctl -serve -listen unix:/tmp/ctl.sock
//
// Remote — drive a serving coordinator's control API:
//
//	psspctl -remote unix:/tmp/ctl.sock -submit -job fuzz -until-stall 3 -json
//	psspctl -remote unix:/tmp/ctl.sock -status
//	psspctl -remote unix:/tmp/ctl.sock -aggregate -id 1 -json
//	psspctl -remote unix:/tmp/ctl.sock -cancel -id 1
//	psspctl -remote unix:/tmp/ctl.sock -stats -json
//	psspctl -remote unix:/tmp/ctl.sock -watch
//
// -watch replaces -stats polling with a live dashboard: it redraws worker
// health, job states, and the coordinator's metrics snapshot (lease
// counters, latency quantiles) about once a second until interrupted.
// -metrics (serve and one-shot modes) exposes the same registry over HTTP
// — Prometheus text on /metrics, flight-recorder traces on /traces, pprof
// under /debug/pprof/. Observability is pure read-side: reports stay
// byte-identical with it on or off. -log-level picks stderr verbosity
// (error, info, debug); -v is shorthand for -log-level debug.
//
// Workers attach either way around: -workers dials out to ordinary psspd
// listeners, -listen accepts `psspd -worker -join` registrations; both may
// be combined. Jobs require an explicit non-zero -seed — a lease must be
// re-executable bit-identically on any worker, which a derived per-job
// seed is not. -aggregate re-emits the stored report verbatim, so remote
// job output is byte-identical to the one-shot (and single-process) run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/pssp"
)

func main() {
	var (
		// Fabric topology.
		workers    = flag.String("workers", "", "comma-separated psspd worker addresses to dial (unix:/path or host:port)")
		listen     = flag.String("listen", "", "accept `psspd -worker -join` registrations (and, with -serve, control clients) on this address")
		minWorkers = flag.Int("min-workers", 0, "wait for at least this many workers before running (0 = the -workers list length, min 1)")
		serve      = flag.Bool("serve", false, "run as a long-lived coordinator serving the control API on -listen")
		tenant     = flag.String("tenant", "", "tenant name presented to the workers (default \"default\")")
		verbose    = flag.Bool("v", false, "log worker joins/deaths and lease reassignments to stderr (alias for -log-level debug)")
		metricsOn  = flag.String("metrics", "", "serve /metrics, /traces and /debug/pprof over HTTP on this address (empty = off)")
		logLevel   = flag.String("log-level", "info", "stderr verbosity: error, info or debug")

		// Lease engine tuning.
		leaseShards  = flag.Int("lease-shards", 0, "shards per lease (0 = auto: a quarter of a worker's share)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "evict a worker whose lease streams no progress for this long (0 = 60s)")
		retries      = flag.Int("retries", 0, "re-issues allowed per lease after worker loss before the job fails (0 = 3)")

		// Remote control verbs.
		remote    = flag.String("remote", "", "drive a serving coordinator at this address")
		submit    = flag.Bool("submit", false, "submit the -job to the remote coordinator and print its id")
		status    = flag.Bool("status", false, "list the remote coordinator's jobs (-id selects one)")
		cancelJob = flag.Bool("cancel", false, "cancel the remote job named by -id")
		aggregate = flag.Bool("aggregate", false, "fetch the merged report of the finished remote job named by -id")
		stats     = flag.Bool("stats", false, "print coordinator stats (leases, worker health and throughput, frontier size)")
		watch     = flag.Bool("watch", false, "live dashboard: redraw remote stats and metrics about once a second")
		id        = flag.Uint64("id", 0, "job id for -status/-cancel/-aggregate")

		// Job selection and the per-kind knobs, mirroring the original CLIs.
		job     = flag.String("job", "", "campaign | loadtest | fuzz")
		scheme  = flag.String("scheme", "", "protection scheme (default: ssp for campaign/fuzz, p-ssp for loadtest)")
		seed    = flag.Uint64("seed", 1, "simulation seed (must be explicit and non-zero: leases re-execute under it)")
		jsonOut = flag.Bool("json", false, "emit one machine-readable JSON object")

		target     = flag.String("target", "nginx-vuln", "campaign: victim app")
		strategy   = flag.String("strategy", "byte-by-byte", "campaign: adversary strategy")
		budget     = flag.Int("budget", 4096, "campaign: maximum trials per replication")
		repeats    = flag.Int("repeats", 1, "campaign: independent replications")
		jobWorkers = flag.Int("job-workers", 0, "concurrent shard executors inside each worker process (0 = GOMAXPROCS; wall-clock only)")

		app      = flag.String("app", "", "loadtest/fuzz: built-in server app (default: nginx for loadtest, nginx-vuln for fuzz)")
		mixSpec  = flag.String("mix", "benign:1", "loadtest: traffic mix, e.g. 'benign:3,probe=adaptive:1'")
		arrivals = flag.String("arrivals", "poisson", "loadtest: arrival model: poisson | uniform | closed")
		rate     = flag.Float64("rate", 10, "loadtest: open-loop offered rate (requests per million victim cycles)")
		clients  = flag.Int("clients", 8, "loadtest: closed-loop client population")
		think    = flag.Float64("think", 0, "loadtest: closed-loop mean think time (cycles)")
		requests = flag.Int("requests", 256, "loadtest: total request budget (0 = duration-bounded)")
		duration = flag.Uint64("duration", 0, "loadtest: virtual-time horizon in cycles (0 = request-bounded)")
		shards   = flag.Int("shards", 4, "loadtest/fuzz: shards of the scenario")
		probes   = flag.Int("probe-budget", 64, "loadtest: probe trials per attack replication")
		sweep    = flag.String("sweep", "", "loadtest: offered-load multipliers, e.g. '0.5,1,2,4'")

		seedSpec = flag.String("seeds", "", "fuzz: seed corpus spec, e.g. 'GET /:2,PING'")
		dict     = flag.String("dict", "", "fuzz: mutation dictionary spec")
		execs    = flag.Int("execs", 4096, "fuzz: total mutation budget across shards")
		maxIn    = flag.Int("max-input", 1024, "fuzz: generated input length cap in bytes")
		corpus   = flag.String("corpus", "", "fuzz: shared persistent corpus directory (workers fold discoveries in; rounds reseed from it)")
		stall    = flag.Int("until-stall", 0, "fuzz: continuous mode — rounds until the coverage frontier is unchanged this many consecutive rounds")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspctl", err) }

	level, err := cliutil.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	if *verbose {
		level = cliutil.LevelDebug
	}
	logger := cliutil.NewLogger("psspctl", level)
	client.SetDebugf(logger.Logf(cliutil.LevelDebug))

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// params maps the flag surface onto the fabric's submit shape — the
	// same daemon wire params the single-process CLIs send, so the one-shot
	// and -submit paths resolve the scenario those CLIs do. It runs only
	// for verbs that submit a job.
	params := func() (fabric.SubmitParams, error) {
		p := fabric.SubmitParams{Kind: *job}
		switch *job {
		case "campaign":
			p.Attack = &daemon.AttackParams{
				Target: *target, Scheme: *scheme, Strategy: *strategy,
				Budget: *budget, Repeats: *repeats, Workers: *jobWorkers, Seed: *seed,
			}
		case "loadtest":
			mix, err := cliutil.ParseMix(*mixSpec)
			if err != nil {
				return p, err
			}
			multipliers, err := cliutil.ParseSweep(*sweep)
			if err != nil {
				return p, err
			}
			p.Load = &daemon.LoadParams{
				App: *app, Scheme: *scheme, Mix: mix, Arrivals: *arrivals,
				Rate: *rate, Clients: *clients, ThinkCycles: *think,
				Requests: *requests, DurationCycles: *duration,
				Shards: *shards, Workers: *jobWorkers, Budget: *probes,
				Sweep: multipliers, Seed: *seed,
			}
		case "fuzz":
			seeds, err := cliutil.ParseByteItems(*seedSpec)
			if err != nil {
				return p, fmt.Errorf("seeds %w", err)
			}
			tokens, err := cliutil.ParseByteItems(*dict)
			if err != nil {
				return p, fmt.Errorf("dict %w", err)
			}
			p.Fuzz = &daemon.FuzzParams{
				App: *app, Scheme: *scheme, Seeds: seeds, Dict: tokens,
				Execs: *execs, Shards: *shards, Workers: *jobWorkers,
				MaxInput: *maxIn, Seed: *seed, CorpusDir: *corpus, UntilStall: *stall,
			}
		default:
			return p, fmt.Errorf("unknown -job %q (want campaign, loadtest or fuzz)", *job)
		}
		return p, nil
	}

	if *remote != "" {
		if err := runRemote(ctx, *remote, remoteArgs{
			submit: *submit, status: *status, cancel: *cancelJob,
			aggregate: *aggregate, stats: *stats, watch: *watch, id: *id, jsonOut: *jsonOut,
			params: params,
		}); err != nil {
			fail(err)
		}
		return
	}

	// Fabric lifecycle lines (worker joins/deaths, lease reassignment) are
	// operational detail in serve mode but chatter in a quiet one-shot:
	// info there, debug here — so plain one-shot stderr stays empty and
	// -v restores the lines the fault-injection smoke greps for.
	fabricLevel := cliutil.LevelDebug
	if *serve {
		fabricLevel = cliutil.LevelInfo
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0, 0)
	coord := fabric.New(fabric.Config{
		Tenant:       *tenant,
		LeaseShards:  *leaseShards,
		LeaseTimeout: *leaseTimeout,
		Retries:      *retries,
		Logf:         logger.Logf(fabricLevel),
		Metrics:      reg,
		Recorder:     rec,
	})
	if *metricsOn != "" {
		maddr, stop, err := obs.ListenAndServe(*metricsOn, reg, rec)
		if err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
		defer stop()
		logger.Infof("metrics on http://%s/metrics", maddr)
	}
	defer coord.Close()
	addrs := splitList(*workers)
	for _, a := range addrs {
		if err := coord.Connect(a); err != nil {
			fail(err)
		}
	}

	var lis net.Listener
	if *listen != "" {
		network, addr := daemon.SplitAddr(*listen)
		if network == "unix" {
			os.Remove(addr)
		}
		var err error
		if lis, err = net.Listen(network, addr); err != nil {
			fail(err)
		}
		if network == "unix" {
			defer os.Remove(addr)
		}
	}

	if *serve {
		if lis == nil {
			fail(fmt.Errorf("-serve requires -listen: workers and control clients attach there"))
		}
		logger.Infof("coordinating on %s (%d dialed worker(s))", *listen, len(addrs))
		if err := coord.Serve(ctx, lis); err != nil {
			fail(err)
		}
		return
	}

	// One-shot mode.
	if *job == "" {
		fail(fmt.Errorf("nothing to do: give -job campaign|loadtest|fuzz (or -serve, or a -remote verb)"))
	}
	if lis != nil {
		go coord.Serve(ctx, lis)
	}
	min := *minWorkers
	if min <= 0 {
		min = len(addrs)
	}
	if min < 1 {
		min = 1
	}
	if err := coord.WaitWorkers(ctx, min); err != nil {
		fail(err)
	}

	p, err := params()
	if err != nil {
		fail(err)
	}
	if err := runOneShot(ctx, coord, p, *jsonOut); err != nil {
		fail(err)
	}
	if logger.Enabled(cliutil.LevelDebug) {
		st := coord.Stats()
		logger.Debugf("%d lease(s) issued, %d reassigned", st.LeasesIssued, st.LeasesReassigned)
		for _, w := range st.Workers {
			logger.Debugf("worker %s: alive=%v leases=%d shards=%d (%.1f shards/s)",
				w.Name, w.Alive, w.Leases, w.ShardsDone, w.ShardsPerSec)
		}
	}
}

// runOneShot executes one fabric job on coord and emits its report in the
// exact shape, and through the same renderer, as the matching
// single-process CLI.
func runOneShot(ctx context.Context, coord *fabric.Coordinator, p fabric.SubmitParams, jsonOut bool) error {
	res, err := coord.Run(ctx, p)
	if err != nil {
		return err
	}
	if jsonOut {
		return cliutil.EmitJSON(os.Stdout, res)
	}
	switch rep := res.(type) {
	case *daemon.AttackReport:
		cliutil.PrintAttack(*rep)
	case *pssp.LoadSweepReport:
		cliutil.PrintSweep(rep, *p.Load)
	case *pssp.LoadReport:
		cliutil.PrintLoad(rep)
	case daemon.FuzzResult:
		cliutil.PrintFuzz(rep, *p.Fuzz, 0)
	}
	return nil
}

// remoteArgs bundles the remote-mode verbs.
type remoteArgs struct {
	submit, status, cancel, aggregate, stats, watch bool

	id      uint64
	jsonOut bool
	params  func() (fabric.SubmitParams, error)
}

// runRemote drives a serving coordinator's control API.
func runRemote(ctx context.Context, addr string, a remoteArgs) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	switch {
	case a.watch:
		return runWatch(ctx, c, addr)
	case a.submit:
		p, err := a.params()
		if err != nil {
			return err
		}
		var res fabric.SubmitResult
		if err := c.Call(ctx, "submit", p, &res); err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, res)
		}
		fmt.Printf("job %d submitted\n", res.ID)
		return nil
	case a.status:
		var res fabric.StatusResult
		if err := c.Call(ctx, "status", fabric.StatusParams{ID: a.id}, &res); err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, res)
		}
		if len(res.Jobs) == 0 {
			fmt.Println("no jobs")
			return nil
		}
		for _, j := range res.Jobs {
			fmt.Printf("job %d %-9s %s", j.ID, j.Kind, j.State)
			if j.Error != "" {
				fmt.Printf(": %s", j.Error)
			}
			fmt.Println()
		}
		return nil
	case a.cancel:
		if a.id == 0 {
			return fmt.Errorf("-cancel requires -id")
		}
		var res daemon.CancelResult
		if err := c.Call(ctx, "cancel", daemon.CancelParams{ID: a.id}, &res); err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, res)
		}
		fmt.Printf("job %d canceled: %v\n", a.id, res.Canceled)
		return nil
	case a.aggregate:
		if a.id == 0 {
			return fmt.Errorf("-aggregate requires -id")
		}
		// Fetch the stored report verbatim: re-indenting the raw message
		// reproduces the one-shot emission byte for byte.
		var raw json.RawMessage
		if err := c.Call(ctx, "aggregate", fabric.AggregateParams{ID: a.id}, &raw); err != nil {
			return err
		}
		return cliutil.EmitJSON(os.Stdout, raw)
	case a.stats:
		var st fabric.Stats
		if err := c.Call(ctx, "stats", nil, &st); err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, st)
		}
		fmt.Printf("%d lease(s) issued, %d reassigned", st.LeasesIssued, st.LeasesReassigned)
		if st.FrontierEdges > 0 {
			fmt.Printf(", frontier %d edges", st.FrontierEdges)
		}
		fmt.Println()
		for _, w := range st.Workers {
			state := "dead"
			if w.Alive {
				state = "idle"
				if w.Busy {
					state = "busy"
				}
			}
			fmt.Printf("worker %s: %-4s leases=%d shards=%d (%.1f shards/s)\n",
				w.Name, state, w.Leases, w.ShardsDone, w.ShardsPerSec)
		}
		for _, j := range st.Jobs {
			fmt.Printf("job %d %-9s %s\n", j.ID, j.Kind, j.State)
		}
		return nil
	}
	return fmt.Errorf("-remote needs a verb: -submit, -status, -cancel, -aggregate or -stats")
}

// splitList splits a comma-separated address list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
