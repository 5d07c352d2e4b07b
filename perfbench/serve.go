package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/rng"
	"repro/pssp"
)

// The serve workload: psspd in the benchmark process on a unix socket, with
// MaxJobs equal to nproc and nproc client.Dial connections. Each connection
// is its own tenant and repeats a fixed 20-job cycle of short jobs against
// its own warm pool entries. One client sends the tenants' jobs in turn,
// each after the previous reply, so one job runs at a time. Loadtest
// and fuzz jobs rotate through several warm seeds, because their reports —
// and so their allocations — depend on the seed. One boot in the cycle
// names a fresh seed, which misses the pool and forces a build and an LRU
// eviction.
//
// Kinds by typical latency, with their share of jobs: warm boot 25%, fresh
// boot 5%, loadtest 40%, fuzz 25%, attack 5%. p50 falls in the middle of
// the loadtest mode, a job whose time is mostly fork-server requests and
// report encoding rather than goroutine hand-offs, which follow the host's
// wake-up latency; p99 falls inside the attack mode, the largest kind,
// whose work is the same at every seed.
const (
	serveApp         = "nginx-vuln"
	serveCycle       = "blflblflnbfllbflalfb"
	serveLoadReqs    = 32
	serveFuzzExecs   = 128
	serveFuzzShards  = 1
	serveAttackTrial = 1024
	// serveFreshSlots is pool room beyond the warm entries, holding the
	// most recent fresh boots until they are evicted. It outlasts the
	// longest gap between uses of one warm entry (a fuzz seed recurs every
	// 32 jobs of its tenant, while 2 tenants make about 4 fresh boots in 40
	// jobs), so evictions always take a fresh entry, never a warm one.
	serveFreshSlots = 24
)

// serve kinds, indexed by job.kind.
const (
	kindBoot = iota
	kindFreshBoot
	kindLoad
	kindFuzz
	kindAttack
)

var serveKinds = []string{"boot", "boot.fresh", "loadtest", "fuzz", "attack"}

// serveWarmSeeds is how many warm seeds a tenant rotates through per kind.
var serveWarmSeeds = [...]int{kindBoot: 1, kindFreshBoot: 0, kindLoad: 4, kindFuzz: 8, kindAttack: 1}

func init() {
	register(&workload{
		name:      "serve",
		kinds:     serveKinds,
		perSecond: 880,
		jobs:      serveJobs,
		setUp:     setUpServe,
	})
}

// serveJobs interleaves the tenants' job lists: each tenant repeats the
// cycle, with its warm-entry seeds fixed for the run and a new seed for
// every fresh boot.
func serveJobs(seed uint64, n int) []job {
	kindOf := map[byte]int{'b': kindBoot, 'n': kindFreshBoot, 'l': kindLoad, 'f': kindFuzz, 'a': kindAttack}
	conns := runtime.NumCPU()
	out := make([]job, n)
	seen := make([][len(serveWarmSeeds)]int, conns)
	for i := range out {
		c, round := i%conns, i/conns
		k := kindOf[serveCycle[round%len(serveCycle)]]
		var s uint64
		if k == kindFreshBoot {
			s = nonzero(rng.Mix(seed, uint64(1+c)), uint64(round))
		} else {
			s = warmSeed(seed, c, k, seen[c][k]%serveWarmSeeds[k])
		}
		seen[c][k]++
		out[i] = job{kind: k, seed: s, conn: c}
	}
	return out
}

// warmSeed is the seed of tenant c's i'th warm pool entry for kind.
func warmSeed(seed uint64, c, kind, i int) uint64 {
	return nonzero(rng.Mix(seed, 0), uint64((c*len(serveKinds)+kind)*64+i))
}

func tenant(c int) string { return fmt.Sprintf("t%d", c) }

// serveSpec maps a job onto its daemon method and wire params.
func serveSpec(j job) (string, any) {
	switch j.kind {
	case kindLoad:
		return "loadtest", daemon.LoadParams{App: serveApp, Scheme: "ssp", Requests: serveLoadReqs, Shards: 2, Workers: jobWorkers, Seed: j.seed}
	case kindFuzz:
		return "fuzz", daemon.FuzzParams{App: serveApp, Scheme: "ssp", Execs: serveFuzzExecs, Shards: serveFuzzShards, Workers: jobWorkers, Seed: j.seed}
	case kindAttack:
		return "attack", daemon.AttackParams{Target: serveApp, Scheme: "p-ssp", Strategy: "adaptive", Budget: serveAttackTrial, Repeats: 1, Workers: jobWorkers, Seed: j.seed}
	default:
		return "boot", daemon.BootParams{App: serveApp, Scheme: "ssp", Seed: j.seed}
	}
}

// checkServe validates one job's report and returns its fork-server
// request count.
func checkServe(j job, raw []byte) (int, error) {
	switch j.kind {
	case kindLoad:
		var r daemon.LoadResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		if r.Report == nil || r.Report.Requests != serveLoadReqs || r.Report.OK != serveLoadReqs {
			return 0, fmt.Errorf("loadtest served %+v, want %d clean requests", r.Report, serveLoadReqs)
		}
		return r.Report.Requests, nil
	case kindFuzz:
		var r daemon.FuzzResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		if r.FuzzReport == nil {
			return 0, errors.New("empty fuzz report")
		}
		return r.Execs, checkFuzz(r.FuzzReport)
	case kindAttack:
		var r daemon.AttackReport
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		if r.Completed != 1 || r.OracleErrors != 0 || r.Successes != 0 || r.Trials != serveAttackTrial {
			return 0, fmt.Errorf("p-ssp attack: %d completed, %d successes, %d trials", r.Completed, r.Successes, r.Trials)
		}
		return r.OracleCalls, nil
	default:
		var r daemon.BootResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		if r.Seed != j.seed || r.FootprintBytes <= 0 {
			return 0, fmt.Errorf("boot: seed %d footprint %d", r.Seed, r.FootprintBytes)
		}
		return 0, nil
	}
}

type serveEnv struct {
	d       *daemon.Daemon
	served  chan error
	clients []*client.Client
}

// startDaemon serves d on a unix socket at sock and returns the channel its
// Serve result arrives on.
func startDaemon(d *daemon.Daemon, sock string) (chan error, error) {
	if err := os.MkdirAll(filepath.Dir(sock), 0o755); err != nil {
		return nil, err
	}
	lis, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(lis) }()
	return served, nil
}

// stopDaemon shuts d down and waits for its Serve loop to return.
func stopDaemon(d *daemon.Daemon, served chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
	<-served
}

// setUpServe starts the daemon, attaches one connection per client, and
// warms the pool: compiles both images and boots every tenant's warm
// entries.
func setUpServe(ctx context.Context, tr *tracer, dir string, seed uint64) (env, error) {
	nproc := runtime.NumCPU()
	warm := 0
	for _, n := range serveWarmSeeds {
		warm += n
	}
	e := &serveEnv{d: daemon.New(daemon.Config{
		Seed:     1,
		MaxJobs:  nproc,
		PoolSize: nproc*warm + serveFreshSlots,
	})}
	sock := filepath.Join(dir, "psspd.sock")
	served, err := startDaemon(e.d, sock)
	if err != nil {
		return nil, err
	}
	e.served = served
	for c := 0; c < nproc; c++ {
		cl, err := client.Dial("unix:" + sock)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	for _, scheme := range []string{"ssp", "p-ssp"} {
		id := tr.begin("cc.compile", -1)
		err := e.clients[0].Call(ctx, "compile", daemon.CompileParams{App: serveApp, Scheme: scheme}, nil)
		tr.end(id)
		if err != nil {
			e.close()
			return nil, err
		}
	}
	for c := 0; c < nproc; c++ {
		for k, n := range serveWarmSeeds {
			scheme := "ssp"
			if k == kindAttack {
				scheme = "p-ssp"
			}
			for i := 0; i < n; i++ {
				id := tr.begin("kernel.boot", -1)
				err := e.clients[c].Call(ctx, "boot", daemon.BootParams{App: serveApp, Scheme: scheme, Seed: warmSeed(seed, c, k, i)}, nil, client.WithTenant(tenant(c)))
				tr.end(id)
				if err != nil {
					e.close()
					return nil, err
				}
			}
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	stopDaemon(e.d, e.served)
}

func (e *serveEnv) do(ctx context.Context, j job, _ *tracer, _ int32) ([]byte, int, error) {
	method, params := serveSpec(j)
	var raw json.RawMessage
	if err := e.clients[j.conn].Call(ctx, method, params, &raw, client.WithTenant(tenant(j.conn))); err != nil {
		return nil, 0, err
	}
	n, err := checkServe(j, raw)
	return raw, n, err
}

func (e *serveEnv) counters() map[string]float64 {
	p := e.d.Stats().Pool
	return map[string]float64{"pool.hits": float64(p.Hits), "pool.misses": float64(p.Misses)}
}

// extra adds the traced run's in-process passes: Client.Ping round trips
// on every connection, the jobs again through Daemon.Do (whose reports must
// match the socket run's), and each tenant's first attack, loadtest and
// fuzz specs through the facade's shard/merge triples. An untraced run
// checks every report in checkServe already.
func (e *serveEnv) extra(ctx context.Context, jobs []job, want [][sha256.Size]byte, tr *tracer) error {
	if tr == nil {
		return nil
	}
	for _, cl := range e.clients {
		if err := ping(ctx, cl, tr); err != nil {
			return err
		}
	}
	for i, j := range jobs {
		method, params := serveSpec(j)
		id := tr.begin("daemon.do."+method, -1)
		res, err := e.d.Do(ctx, tenant(j.conn), method, params, nil)
		tr.end(id)
		if err == nil {
			err = sameReport(res, want[i])
		}
		if err != nil {
			return fmt.Errorf("Do job %d (%s): %w", i, serveKinds[j.kind], err)
		}
	}
	return e.triples(ctx, jobs, want, tr)
}

// pings is how many Client.Ping round trips a traced run times per
// connection.
const pings = 500

// ping times pings round trips on cl as client.ping spans.
func ping(ctx context.Context, cl *client.Client, tr *tracer) error {
	for i := 0; i < pings; i++ {
		id := tr.begin("client.ping", -1)
		err := cl.Ping(ctx)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// triples replays each tenant's first attack, loadtest and fuzz job through
// the facade seams and checks each against the socket run's report.
func (e *serveEnv) triples(ctx context.Context, jobs []job, want [][sha256.Size]byte, tr *tracer) error {
	m := pssp.NewMachine()
	defer m.Close()
	images, err := compileImages(m, serveApp)
	if err != nil {
		return err
	}
	seen := map[job]bool{}
	for i, j := range jobs {
		first := job{kind: j.kind, conn: j.conn}
		if seen[first] || j.kind == kindBoot || j.kind == kindFreshBoot {
			continue
		}
		seen[first] = true
		_, params := serveSpec(j)
		var res any
		var err error
		switch p := params.(type) {
		case daemon.AttackParams:
			var agg *pssp.CampaignResult
			agg, err = campaignTriple(ctx, tr, -1, m, images[pssp.SchemePSSP], pssp.CampaignConfig{
				Strategy: p.Strategy, Replications: p.Repeats, Workers: p.Workers, Seed: p.Seed,
				Attack: pssp.AttackConfig{MaxTrials: p.Budget},
			}, p.Workers)
			if err == nil {
				res = daemon.BuildAttackReport(p.Target, pssp.SchemePSSP, p.Seed, p.Budget, p.Repeats, p.Workers, agg)
			}
		case daemon.LoadParams:
			var cfg pssp.WorkloadConfig
			cfg, err = daemon.LoadWorkload(daemon.NormalizeLoadParams(p), p.App, p.Seed)
			if err == nil {
				var rep *pssp.LoadReport
				rep, err = loadTriple(ctx, tr, -1, m, images[pssp.SchemeSSP], cfg, p.Workers)
				res = daemon.LoadResult{Report: rep}
			}
		case daemon.FuzzParams:
			var rep *pssp.FuzzReport
			rep, err = fuzzTriple(ctx, tr, -1, m, images[pssp.SchemeSSP], pssp.FuzzConfig{
				Execs: p.Execs, Shards: p.Shards, Workers: p.Workers, Seed: p.Seed,
			}, p.Workers)
			res = daemon.FuzzResult{FuzzReport: rep}
		}
		if err == nil {
			err = sameReport(res, want[i])
		}
		if err != nil {
			return fmt.Errorf("tenant %d %s triple: %w", j.conn, serveKinds[j.kind], err)
		}
	}
	return nil
}

// sameReport checks that v encodes to the report bytes digested as want.
func sameReport(v any, want [sha256.Size]byte) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if sha256.Sum256(b) != want {
		return errors.New("report differs from the untraced run's")
	}
	return nil
}
