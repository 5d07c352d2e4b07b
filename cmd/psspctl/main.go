// Command psspctl drives the distributed evaluation fabric. Its
// coordinator is a psspd daemon whose whole attack, loadtest and fuzz jobs
// lease their shard ranges to psspd worker processes (and machines) and
// merge the returned partial aggregates — so every report it emits is
// byte-identical to the single-process psspattack/psspload/psspfuzz run at
// the same explicit -seed, at any worker count, including runs where a
// worker died mid-lease and its shards were re-issued.
//
// Three modes:
//
// One-shot — attach workers, run one job on the coordinator over an
// in-process pipe (the path psspattack, psspload and psspfuzz take
// locally), print its report, exit:
//
//	psspctl -workers unix:/tmp/w0.sock,unix:/tmp/w1.sock -job campaign -target nginx-vuln -json
//	psspctl -listen unix:/tmp/ctl.sock -min-workers 2 -job fuzz -execs 8192 -json
//	psspctl -workers unix:/tmp/w0.sock -job loadtest -sweep 0.5,1,2,4 -json
//
// Serve — a long-lived coordinator on -listen: workers register there
// (`psspd -worker -join`), and every other connection is served as a psspd
// connection, so `psspattack -remote`, `psspload -remote` and
// `psspfuzz -remote` against it run distributed jobs:
//
//	psspctl -serve -listen unix:/tmp/ctl.sock
//	psspattack -remote unix:/tmp/ctl.sock -scheme ssp -seed 7 -json
//
// Remote — drive a daemon's submitted jobs and stats (a serving
// coordinator's, or any psspd's):
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
// be combined. A job's seed is resolved once on the coordinator (-seed 0
// draws it from the tenant's stream) and every lease re-executes under it.
// -aggregate re-emits the stored report, so remote job output is
// byte-identical to the one-shot (and single-process) run.
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
		remote    = flag.String("remote", "", "drive the daemon (a serving coordinator) at this address")
		submit    = flag.Bool("submit", false, "submit the -job to the remote daemon and print its id")
		status    = flag.Bool("status", false, "list the remote daemon's submitted jobs (-id selects one)")
		cancelJob = flag.Bool("cancel", false, "cancel the remote job named by -id")
		aggregate = flag.Bool("aggregate", false, "fetch the merged report of the finished remote job named by -id")
		stats     = flag.Bool("stats", false, "print the remote daemon's stats (leases, worker health and throughput, frontier size, submitted jobs)")
		watch     = flag.Bool("watch", false, "live dashboard: redraw remote stats and metrics about once a second")
		id        = flag.Uint64("id", 0, "job id for -status/-cancel/-aggregate")

		// Job selection and the per-kind knobs, mirroring the original CLIs.
		kind    = flag.String("job", "", "campaign | loadtest | fuzz")
		scheme  = flag.String("scheme", "", "protection scheme (default: ssp for campaign/fuzz, p-ssp for loadtest)")
		seed    = flag.Uint64("seed", 1, "simulation seed, resolved once on the coordinator; leases re-execute under it (0 = drawn from the tenant's seed stream)")
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

	// job maps the flag surface onto the daemon method and wire params the
	// matching single-process CLI sends, so the one-shot and -submit paths
	// resolve the scenario those CLIs do. It runs only for verbs that run a
	// job.
	job := func() (string, any, error) {
		switch *kind {
		case "campaign":
			return "attack", daemon.AttackParams{
				Target: *target, Scheme: *scheme, Strategy: *strategy,
				Budget: *budget, Repeats: *repeats, Workers: *jobWorkers, Seed: *seed,
			}, nil
		case "loadtest":
			mix, err := cliutil.ParseMix(*mixSpec)
			if err != nil {
				return "", nil, err
			}
			multipliers, err := cliutil.ParseSweep(*sweep)
			if err != nil {
				return "", nil, err
			}
			return "loadtest", daemon.LoadParams{
				App: *app, Scheme: *scheme, Mix: mix, Arrivals: *arrivals,
				Rate: *rate, Clients: *clients, ThinkCycles: *think,
				Requests: *requests, DurationCycles: *duration,
				Shards: *shards, Workers: *jobWorkers, Budget: *probes,
				Sweep: multipliers, Seed: *seed,
			}, nil
		case "fuzz":
			seeds, err := cliutil.ParseByteItems(*seedSpec)
			if err != nil {
				return "", nil, fmt.Errorf("seeds %w", err)
			}
			tokens, err := cliutil.ParseByteItems(*dict)
			if err != nil {
				return "", nil, fmt.Errorf("dict %w", err)
			}
			return "fuzz", daemon.FuzzParams{
				App: *app, Scheme: *scheme, Seeds: seeds, Dict: tokens,
				Execs: *execs, Shards: *shards, Workers: *jobWorkers,
				MaxInput: *maxIn, Seed: *seed, CorpusDir: *corpus, UntilStall: *stall,
			}, nil
		}
		return "", nil, fmt.Errorf("unknown -job %q (want campaign, loadtest or fuzz)", *kind)
	}

	if *remote != "" {
		if err := runRemote(ctx, *remote, remoteArgs{
			submit: *submit, status: *status, cancel: *cancelJob,
			aggregate: *aggregate, stats: *stats, watch: *watch, id: *id, jsonOut: *jsonOut,
			job: job,
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
	if *kind == "" {
		fail(fmt.Errorf("nothing to do: give -job campaign|loadtest|fuzz (or -serve, or a -remote verb)"))
	}
	method, p, err := job()
	if err != nil {
		fail(err)
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

	c := cliutil.Pipe(coord.Daemon)
	defer c.Close()
	var raw json.RawMessage
	if err := c.Call(ctx, method, p, &raw); err != nil {
		fail(err)
	}
	if err := emit(method, raw, p, *jsonOut); err != nil {
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

// emit prints the result of the method job with params p in the shape, and
// through the renderer, of the matching single-process CLI. p is nil for
// -aggregate, which always prints JSON.
func emit(method string, raw json.RawMessage, p any, jsonOut bool) error {
	switch method {
	case "attack":
		var rep daemon.AttackReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return err
		}
		if jsonOut {
			return cliutil.EmitJSON(os.Stdout, rep)
		}
		cliutil.PrintAttack(rep)
	case "loadtest":
		var res daemon.LoadResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		lp, _ := p.(daemon.LoadParams)
		return cliutil.EmitLoad(res, lp, jsonOut)
	case "fuzz":
		var res daemon.FuzzResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		if jsonOut {
			return cliutil.EmitJSON(os.Stdout, res)
		}
		fp, _ := p.(daemon.FuzzParams)
		cliutil.PrintFuzz(res, fp, 0)
	default:
		return cliutil.EmitJSON(os.Stdout, raw)
	}
	return nil
}

// remoteArgs bundles the remote-mode verbs.
type remoteArgs struct {
	submit, status, cancel, aggregate, stats, watch bool

	id      uint64
	jsonOut bool
	job     func() (method string, params any, err error)
}

// runRemote drives a daemon's submitted jobs and stats.
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
		method, p, err := a.job()
		if err != nil {
			return err
		}
		raw, err := json.Marshal(p)
		if err != nil {
			return err
		}
		var res daemon.SubmitResult
		if err := c.Call(ctx, "submit", daemon.SubmitParams{Method: method, Params: raw}, &res); err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, res)
		}
		fmt.Printf("job %d submitted\n", res.ID)
		return nil
	case a.status:
		var res daemon.StatusResult
		if err := c.Call(ctx, "status", daemon.StatusParams{ID: a.id}, &res); err != nil {
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
		if err := c.Call(ctx, "cancel", daemon.CancelParams{Job: a.id}, &res); err != nil {
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
		var st daemon.StatusResult
		if err := c.Call(ctx, "status", daemon.StatusParams{ID: a.id}, &st); err != nil {
			return err
		}
		var raw json.RawMessage
		if err := c.Call(ctx, "aggregate", daemon.AggregateParams{ID: a.id}, &raw); err != nil {
			return err
		}
		// A status row exists for every job aggregate accepts.
		return emit(st.Jobs[0].Kind, raw, nil, true)
	case a.stats:
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, st)
		}
		fs := st.Fabric
		fmt.Printf("%d lease(s) issued, %d reassigned", fs.LeasesIssued, fs.LeasesReassigned)
		if st.FrontierEdges > 0 {
			fmt.Printf(", frontier %d edges", st.FrontierEdges)
		}
		fmt.Println()
		for _, w := range fs.Workers {
			fmt.Printf("worker %s: %-4s leases=%d shards=%d (%.1f shards/s)\n",
				w.Name, workerState(w), w.Leases, w.ShardsDone, w.ShardsPerSec)
		}
		for _, j := range st.Jobs {
			fmt.Printf("job %d %-9s %s\n", j.ID, j.Kind, j.State)
		}
		return nil
	}
	return fmt.Errorf("-remote needs a verb: -submit, -status, -cancel, -aggregate or -stats")
}

// workerState names a worker's state in stats output.
func workerState(w daemon.WorkerStats) string {
	switch {
	case !w.Alive:
		return "dead"
	case w.Busy:
		return "busy"
	}
	return "idle"
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
