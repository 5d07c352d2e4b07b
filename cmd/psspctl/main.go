// Command psspctl drives the distributed evaluation fabric. Its
// coordinator is a psspd daemon whose whole attack, loadtest and fuzz jobs
// lease their shard ranges to psspd worker processes (and machines) and
// merge the returned partial aggregates — so every report it emits is
// byte-identical to the single-process psspattack/psspload/psspfuzz run at
// the same explicit -seed, at any worker count, including runs where a
// worker died mid-lease and its shards were re-issued.
//
// A job is given after psspctl's own flags: its kind, the daemon method it
// calls (attack, loadtest or fuzz), then that kind's flags. They are the
// flags of psspattack, psspload and psspfuzz, declared once in cliutil,
// with the same defaults and the same text and -json output;
// `psspctl KIND -h` lists them.
//
// Three modes:
//
// One-shot — attach workers, run one job on the coordinator over an
// in-process pipe (the path psspattack, psspload and psspfuzz take
// locally), print its report, exit:
//
//	psspctl -workers unix:/tmp/w0.sock,unix:/tmp/w1.sock attack -target nginx-vuln -json
//	psspctl -listen unix:/tmp/ctl.sock -min-workers 2 fuzz -execs 8192 -json
//	psspctl -workers unix:/tmp/w0.sock loadtest -sweep 0.5,1,2,4 -json
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
//	psspctl -remote unix:/tmp/ctl.sock -tenant ci -submit fuzz -until-stall 3
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
// be combined. A job runs under -tenant, on the coordinator and on its
// workers. Its seed is resolved once on the coordinator (the job's -seed 0
// draws it from the tenant's stream) and every lease re-executes under it.
// -aggregate re-emits the stored report through the kind's -json path, so
// remote job output is byte-identical to the one-shot (and single-process)
// run. psspctl's own -json prints the -submit, -status, -cancel and -stats
// results as JSON.
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
		tenant     = flag.String("tenant", "", "tenant the job runs under, on the daemon and its workers (default \"default\")")
		verbose    = flag.Bool("v", false, "log worker joins/deaths and lease reassignments to stderr (alias for -log-level debug)")
		metricsOn  = flag.String("metrics", "", "serve /metrics, /traces and /debug/pprof over HTTP on this address (empty = off)")
		logLevel   = flag.String("log-level", "info", "stderr verbosity: error, info or debug")

		// Lease engine tuning.
		leaseShards  = flag.Int("lease-shards", 0, "shards per lease (0 = auto: a quarter of a worker's share)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "evict a worker whose lease streams no progress for this long (0 = 60s)")
		retries      = flag.Int("retries", 0, "re-issues allowed per lease after worker loss before the job fails (0 = 3)")

		// Remote control verbs.
		remote    = flag.String("remote", "", "drive the daemon (a serving coordinator) at this address")
		submit    = flag.Bool("submit", false, "submit the job given after the flags (KIND and its flags) to the remote daemon and print its id")
		status    = flag.Bool("status", false, "list the remote daemon's submitted jobs (-id selects one)")
		cancelJob = flag.Bool("cancel", false, "cancel the remote job named by -id")
		aggregate = flag.Bool("aggregate", false, "fetch the merged report of the finished remote job named by -id")
		stats     = flag.Bool("stats", false, "print the remote daemon's stats (leases, worker health and throughput, frontier size, submitted jobs)")
		watch     = flag.Bool("watch", false, "live dashboard: redraw remote stats and metrics about once a second")
		id        = flag.Uint64("id", 0, "job id for -status/-cancel/-aggregate")
		jsonOut   = flag.Bool("json", false, "print -submit, -status, -cancel and -stats results as JSON")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: psspctl [flags] [attack|loadtest|fuzz [job flags]]\n"+
			"(psspctl KIND -h lists a job kind's flags)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspctl", err) }
	var job cliutil.Job
	if flag.NArg() > 0 {
		var err error
		if job, err = cliutil.ParseJob("psspctl", flag.Args()); err != nil {
			fail(err)
		}
	}
	// A job runs one-shot or is submitted; -serve and the other verbs take none.
	if (job != nil) != (*remote != "" && *submit || *remote == "" && !*serve) {
		fail(fmt.Errorf("give a job (attack|loadtest|fuzz and its flags) to run one-shot or to -submit; -serve and the other -remote verbs take none"))
	}

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

	if *remote != "" {
		if err := runRemote(ctx, *remote, remoteArgs{
			submit: *submit, status: *status, cancel: *cancelJob,
			aggregate: *aggregate, stats: *stats, watch: *watch, id: *id, jsonOut: *jsonOut,
			job: job, tenant: *tenant,
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
	addrs := strings.FieldsFunc(*workers, func(r rune) bool { return r == ',' || r == ' ' })
	for _, a := range addrs {
		if err := coord.Connect(a); err != nil {
			fail(err)
		}
	}

	var lis net.Listener
	if *listen != "" {
		var err error
		if lis, err = cliutil.Listen(*listen); err != nil {
			fail(err)
		}
		defer lis.Close()
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
	if _, err := job.Params(); err != nil {
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
	if err := job.Run(ctx, "psspctl", c, client.WithTenant(*tenant)); err != nil {
		fail(err)
	}
	logger.Debugf("stats:\n%s", statsText(coord.Daemon.Stats()))
}

// remoteArgs bundles the remote-mode verbs.
type remoteArgs struct {
	submit, status, cancel, aggregate, stats, watch bool

	id      uint64
	jsonOut bool
	job     cliutil.Job // -submit's; nil without a job kind
	tenant  string
}

// runRemote drives a daemon's submitted jobs and stats.
func runRemote(ctx context.Context, addr string, a remoteArgs) error {
	if (a.cancel || a.aggregate) && a.id == 0 {
		return fmt.Errorf("-cancel and -aggregate require -id")
	}
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	switch {
	case a.watch:
		return runWatch(ctx, c, addr)
	case a.submit:
		p, err := a.job.Params()
		if err != nil {
			return err
		}
		raw, err := json.Marshal(p)
		if err != nil {
			return err
		}
		var res daemon.SubmitResult
		sp := daemon.SubmitParams{Method: a.job.Method(), Params: raw}
		if err := c.Call(ctx, "submit", sp, &res, client.WithTenant(a.tenant)); err != nil {
			return err
		}
		if a.jsonOut || a.job.JSON() {
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
		}
		fmt.Print(jobsText(res.Jobs))
		return nil
	case a.cancel:
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
		var st daemon.StatusResult
		if err := c.Call(ctx, "status", daemon.StatusParams{ID: a.id}, &st); err != nil {
			return err
		}
		var raw json.RawMessage
		if err := c.Call(ctx, "aggregate", daemon.AggregateParams{ID: a.id}, &raw); err != nil {
			return err
		}
		// A status row exists for every job aggregate accepts.
		return cliutil.EmitResult("psspctl", st.Jobs[0].Kind, raw)
	case a.stats:
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if a.jsonOut {
			return cliutil.EmitJSON(os.Stdout, st)
		}
		fmt.Print(statsText(st))
		return nil
	}
	return fmt.Errorf("-remote needs a verb: -submit, -status, -cancel, -aggregate or -stats")
}
