package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/fabric"
	"repro/pssp"
)

// The fabric workload: a fabric.Coordinator in the benchmark process leases
// to one in-process psspd worker over a unix socket. One client runs a
// closed loop of small explicit-seed jobs: eleven p-ssp campaigns (the same
// work at every seed; p50 falls inside their mode) then one fuzz job (the
// larger kind; p99 falls inside its mode, at its own q≈0.9). The
// coordinator splits each job into four leases per live worker and runs
// them one after another, each on one goroutine, so the job still crosses
// lease partitioning, shard RPCs, partial round-trips and the merge, with
// one job goroutine runnable.
const (
	fabricApp        = "nginx-vuln"
	fabricReps       = 4
	fabricBudget     = 128
	fabricFuzzExecs  = 512
	fabricFuzzShards = 4
	fabricWorkers    = 1
)

const (
	kindFabricCampaign = iota
	kindFabricFuzz
)

func init() {
	register(&workload{
		name:      "fabric",
		kinds:     []string{"campaign", "fuzz"},
		perSecond: 200,
		jobs: func(seed uint64, n int) []job {
			out := make([]job, n)
			for i := range out {
				kind := kindFabricCampaign
				if i%12 == 11 {
					kind = kindFabricFuzz
				}
				out[i] = job{kind: kind, seed: nonzero(seed, uint64(i))}
			}
			return out
		},
		setUp: setUpFabric,
	})
}

type fabricEnv struct {
	daemons []*daemon.Daemon
	served  []chan error
	addrs   []string
	coord   *fabric.Coordinator
}

// setUpFabric starts the worker, compiles both images on it, and attaches
// it to a fresh coordinator.
func setUpFabric(ctx context.Context, tr *tracer, dir string, _ uint64) (env, error) {
	e := &fabricEnv{coord: fabric.New(fabric.Config{})}
	for i := 0; i < fabricWorkers; i++ {
		d := daemon.New(daemon.Config{Seed: 1})
		addr := filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
		served, err := startDaemon(d, addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.daemons = append(e.daemons, d)
		e.served = append(e.served, served)
		e.addrs = append(e.addrs, "unix:"+addr)
		if err := compileOn(ctx, tr, "unix:"+addr); err != nil {
			e.close()
			return nil, err
		}
		if err := e.coord.Connect("unix:" + addr); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// compileOn warms a worker's image cache with both schemes' images.
func compileOn(ctx context.Context, tr *tracer, addr string) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, scheme := range []string{"ssp", "p-ssp"} {
		id := tr.begin("cc.compile", -1)
		err := cl.Call(ctx, "compile", daemon.CompileParams{App: fabricApp, Scheme: scheme}, nil)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *fabricEnv) close() {
	e.coord.Close()
	for i, d := range e.daemons {
		stopDaemon(d, e.served[i])
	}
}

func fabricCampaign(seed uint64) daemon.AttackParams {
	return daemon.AttackParams{Target: fabricApp, Scheme: "p-ssp", Strategy: "adaptive",
		Budget: fabricBudget, Repeats: fabricReps, Workers: jobWorkers, Seed: seed}
}

func fabricFuzz(seed uint64) daemon.FuzzParams {
	return daemon.FuzzParams{App: fabricApp, Scheme: "ssp", Execs: fabricFuzzExecs,
		Shards: fabricFuzzShards, Workers: jobWorkers, Seed: seed}
}

func (e *fabricEnv) do(ctx context.Context, j job, _ *tracer, _ int32) ([]byte, int, error) {
	if j.kind == kindFabricFuzz {
		rep, err := e.coord.Fuzz(ctx, fabricFuzz(j.seed), "")
		if err != nil {
			return nil, 0, err
		}
		if err := checkFuzz(rep); err != nil {
			return nil, 0, err
		}
		b, err := json.Marshal(daemon.FuzzResult{FuzzReport: rep})
		return b, rep.Execs, err
	}
	rep, err := e.coord.Campaign(ctx, fabricCampaign(j.seed))
	if err != nil {
		return nil, 0, err
	}
	if rep.Completed != fabricReps || rep.OracleErrors != 0 || rep.Successes != 0 || rep.Trials != fabricReps*fabricBudget {
		return nil, 0, fmt.Errorf("p-ssp campaign: %d completed, %d successes, %d trials", rep.Completed, rep.Successes, rep.Trials)
	}
	b, err := json.Marshal(rep)
	return b, rep.OracleCalls, err
}

// local runs job j on the in-process facade — through Machine.Campaign and
// Machine.Fuzz, or, when traced, through the shard/merge triples under a
// fabric.local span — and returns the report the fabric must reproduce.
func local(ctx context.Context, m *pssp.Machine, images map[pssp.Scheme]*pssp.Image, j job, tr *tracer) (any, error) {
	if j.kind == kindFabricFuzz {
		p := fabricFuzz(j.seed)
		cfg := pssp.FuzzConfig{Execs: p.Execs, Shards: p.Shards, Workers: p.Workers, Seed: p.Seed}
		id := tr.begin("fabric.local.fuzz", -1)
		defer tr.end(id)
		var rep *pssp.FuzzReport
		var err error
		if tr == nil {
			rep, err = m.Fuzz(ctx, images[pssp.SchemeSSP], cfg)
		} else {
			rep, err = fuzzTriple(ctx, tr, id.id, m, images[pssp.SchemeSSP], cfg, p.Workers)
		}
		return daemon.FuzzResult{FuzzReport: rep}, err
	}
	p := fabricCampaign(j.seed)
	cfg := pssp.CampaignConfig{Strategy: p.Strategy, Replications: p.Repeats, Workers: p.Workers, Seed: p.Seed,
		Attack: pssp.AttackConfig{MaxTrials: p.Budget}}
	id := tr.begin("fabric.local.campaign", -1)
	defer tr.end(id)
	var agg *pssp.CampaignResult
	var err error
	if tr == nil {
		agg, err = m.Campaign(ctx, images[pssp.SchemePSSP], cfg)
	} else {
		agg, err = campaignTriple(ctx, tr, id.id, m, images[pssp.SchemePSSP], cfg, p.Workers)
	}
	if err != nil {
		return nil, err
	}
	return daemon.BuildAttackReport(p.Target, pssp.SchemePSSP, p.Seed, p.Budget, p.Repeats, p.Workers, agg), nil
}

// compileImages compiles app under ssp and p-ssp for facade runs beside
// the daemon's.
func compileImages(m *pssp.Machine, app string) (map[pssp.Scheme]*pssp.Image, error) {
	images := map[pssp.Scheme]*pssp.Image{}
	for _, s := range []pssp.Scheme{pssp.SchemeSSP, pssp.SchemePSSP} {
		img, err := m.CompileApp(app, pssp.CompileScheme(s))
		if err != nil {
			return nil, err
		}
		images[s] = img
	}
	return images, nil
}

func (e *fabricEnv) counters() map[string]float64 {
	st := e.coord.Stats()
	out := map[string]float64{
		"fabric.issued":   float64(st.LeasesIssued),
		"fabric.reissued": float64(st.LeasesReassigned),
	}
	for _, w := range st.Workers {
		out["fabric.leases"] += float64(w.Leases)
		if w.ShardsPerSec > 0 {
			out["fabric.busy_ns"] += float64(w.ShardsDone) / w.ShardsPerSec * 1e9
		}
	}
	return out
}

// extra checks fabric reports byte for byte against the in-process facade's
// at the same seed. An untraced run checks the first job of each kind. A
// traced run times Client.Ping round trips to the first worker, then
// replays the jobs on the local facade twice: untraced, which checks every
// report and gives the local wall time the fabric's tax is measured
// against, and through the traced triples.
func (e *fabricEnv) extra(ctx context.Context, jobs []job, want [][sha256.Size]byte, tr *tracer) error {
	if tr != nil {
		cl, err := client.Dial(e.addrs[0])
		if err != nil {
			return err
		}
		err = ping(ctx, cl, tr)
		cl.Close()
		if err != nil {
			return err
		}
	}
	m := pssp.NewMachine()
	defer m.Close()
	images, err := compileImages(m, fabricApp)
	if err != nil {
		return err
	}
	wall, err := matchLocal(ctx, m, images, jobs, want, nil, tr == nil)
	if err != nil || tr == nil {
		return err
	}
	tr.add("fabric.local_ns", float64(wall))
	tr.add("fabric.local_jobs", float64(len(jobs)))
	_, err = matchLocal(ctx, m, images, jobs, want, tr, false)
	return err
}

// matchLocal runs jobs on the local facade — only the first of each kind
// when firstOnly — checks each report against the fabric's digest, and
// returns the summed job wall time.
func matchLocal(ctx context.Context, m *pssp.Machine, images map[pssp.Scheme]*pssp.Image, jobs []job, want [][sha256.Size]byte, tr *tracer, firstOnly bool) (time.Duration, error) {
	var wall time.Duration
	seen := map[int]bool{}
	for i, j := range jobs {
		if firstOnly && seen[j.kind] {
			continue
		}
		seen[j.kind] = true
		t0 := time.Now()
		res, err := local(ctx, m, images, j, tr)
		wall += time.Since(t0)
		if err == nil {
			err = sameReport(res, want[i])
		}
		if err != nil {
			return 0, fmt.Errorf("local job %d: %w", i, err)
		}
	}
	return wall, nil
}
