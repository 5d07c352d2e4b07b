package daemon

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/pssp"
)

// jobRun executes one admitted job: it returns the result object for the
// terminal response, the victim-cycle cost to charge the tenant, and an
// error. A canceled job that still produced a partial report returns it as
// a result (flagged Canceled) rather than an error — partial data is the
// point of graceful cancellation.
type jobRun func(ctx context.Context, ev *eventStream) (result any, cost uint64, err error)

// jobFor validates a request into a runnable job. Validation errors (bad
// method, unknown scheme/arrivals) surface before admission, so they never
// consume a queue slot.
func (d *Daemon) jobFor(req Request, t *tenant) (jobRun, error) {
	switch req.Method {
	case "compile":
		var p CompileParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.compileJob(p)
	case "boot":
		var p BootParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.bootJob(p, t)
	case "attack":
		var p AttackParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.attackJob(p, t)
	case "loadtest":
		var p LoadParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.loadJob(p, t)
	case "fuzz":
		var p FuzzParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.fuzzJob(p, t)
	case "campaignshard", "loadshard", "fuzzshard":
		return d.shardJob(req, t)
	default:
		return nil, badRequest("unknown method %q", req.Method)
	}
}

// parseScheme maps a wire scheme name onto pssp.Scheme as a bad-request on
// failure.
func parseScheme(name string) (pssp.Scheme, error) {
	s, err := pssp.ParseScheme(name)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return s, nil
}

// canceledPartial reports whether err is a cancellation that still left a
// usable partial report.
func canceledPartial(err error, hasReport bool) bool {
	return hasReport &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

func (d *Daemon) compileJob(p CompileParams) (jobRun, error) {
	if p.App == "" {
		p.App = "nginx-vuln"
	}
	if p.Scheme == "" {
		p.Scheme = "ssp"
	}
	s, err := parseScheme(p.Scheme)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, _ *eventStream) (any, uint64, error) {
		_, cached, err := d.pool.image(ctx, imageKey{app: p.App, scheme: s})
		if err != nil {
			return nil, 0, err
		}
		return CompileResult{App: p.App, Scheme: s.String(), Cached: cached}, 0, nil
	}, nil
}

// bootJob parks a (app, scheme, seed) machine in the warm pool — the one
// job kind the pool serves.
func (d *Daemon) bootJob(p BootParams, t *tenant) (jobRun, error) {
	if p.App == "" {
		p.App = "nginx-vuln"
	}
	if p.Scheme == "" {
		p.Scheme = "ssp"
	}
	s, err := parseScheme(p.Scheme)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, _ *eventStream) (any, uint64, error) {
		seed := d.jobSeed(t, p.Seed)
		e, err := d.pool.checkout(ctx, poolKey{imageKey{app: p.App, scheme: s}, seed})
		if err != nil {
			return nil, 0, err
		}
		res := BootResult{
			App: p.App, Scheme: s.String(), Seed: seed,
			FootprintBytes: e.srv.Footprint(),
		}
		d.pool.checkin(d.ctx, e)
		return res, 0, nil
	}, nil
}

// engineEnv is what an engine job runs on: the cached image, a machine
// seeded with the job seed, and the job's progress stream.
type engineEnv struct {
	m    *pssp.Machine
	img  *pssp.Image
	seed uint64
	ev   *eventStream
}

// engineRun is the kind-specific body of an engine job: it returns the
// result and the victim cycles to charge.
type engineRun func(ctx context.Context, e engineEnv) (any, uint64, error)

// engineJob wraps run in the steps every attack, loadtest and fuzz job —
// whole or shard — shares: resolve the seed (0 draws from the tenant
// stream), fetch the cached image, build a machine. Engine jobs take only
// what they run, never a warm-pool entry: their victims are replicas derived
// purely from the job seed, so a parked server would go unused. The
// machine's own seed matters only to a config whose Seed is 0, which the
// daemon never passes.
func (d *Daemon) engineJob(app string, s pssp.Scheme, t *tenant, explicitSeed uint64, run engineRun) jobRun {
	return func(ctx context.Context, ev *eventStream) (any, uint64, error) {
		seed := d.jobSeed(t, explicitSeed)
		img, _, err := d.pool.image(ctx, imageKey{app: app, scheme: s})
		if err != nil {
			return nil, 0, err
		}
		m := d.pool.machine(pssp.WithSeed(seed), pssp.WithScheme(s))
		return run(ctx, engineEnv{m: m, img: img, seed: seed, ev: ev})
	}
}

// attackJob is psspattack's campaign as a daemon job, byte-identical to the
// CLI run at the same seed.
func (d *Daemon) attackJob(p AttackParams, t *tenant) (jobRun, error) {
	p = NormalizeAttackParams(p)
	s, err := parseScheme(p.Scheme)
	if err != nil {
		return nil, err
	}
	return d.engineJob(p.Target, s, t, p.Seed, func(ctx context.Context, e engineEnv) (any, uint64, error) {
		tr := obs.TraceFrom(ctx)
		cfg := p.CampaignConfig(e.seed)
		cfg.Progress = func(cp pssp.CampaignProgress) {
			tr.Event("campaign progress", cp.Cycles, "")
			e.ev.progress(ProgressEvent{Kind: "attack", Campaign: &cp})
		}
		res, err := e.m.Campaign(ctx, e.img, cfg)
		var cost uint64
		if res != nil {
			cost = res.Cycles
		}
		if err != nil && !canceledPartial(err, res != nil && res.Completed > 0) {
			return nil, cost, err
		}
		rep := BuildAttackReport(p.Target, s, e.seed, p.Budget, p.Repeats, p.Workers, res)
		rep.Canceled = err != nil
		return rep, cost, nil
	}), nil
}

// loadJob is psspload's load test (or sweep) as a daemon job. Zero-value
// params take psspload's flag defaults, so an API job and a CLI invocation
// agree on the scenario.
func (d *Daemon) loadJob(p LoadParams, t *tenant) (jobRun, error) {
	p = NormalizeLoadParams(p)
	s, err := parseScheme(p.Scheme)
	if err != nil {
		return nil, err
	}
	// Validate arrivals before admission, so the error never costs a slot.
	if _, err := ParseArrivals(p.Arrivals); err != nil {
		return nil, err
	}
	return d.engineJob(p.App, s, t, p.Seed, func(ctx context.Context, e engineEnv) (any, uint64, error) {
		cfg, err := LoadWorkload(p, "", e.seed)
		if err != nil {
			return nil, 0, err
		}
		tr := obs.TraceFrom(ctx)
		cfg.Progress = func(lp pssp.LoadProgress) {
			tr.Event("load progress", lp.P99Cycles, "")
			e.ev.progress(ProgressEvent{Kind: "loadtest", Load: &lp})
		}
		var res LoadResult
		var cost uint64
		var partial bool
		if len(p.Sweep) > 0 {
			res.Sweep, err = e.m.LoadSweep(ctx, e.img, cfg, p.Sweep)
			if res.Sweep != nil {
				for _, pt := range res.Sweep.Points {
					cost += loadCost(pt.Report)
				}
				partial = len(res.Sweep.Points) > 0
			}
		} else {
			res.Report, err = e.m.LoadTest(ctx, e.img, cfg)
			cost = loadCost(res.Report)
			partial = res.Report != nil && res.Report.Requests > 0
		}
		if err != nil && !canceledPartial(err, partial) {
			return nil, cost, err
		}
		res.Canceled = err != nil
		return res, cost, nil
	}), nil
}

// loadCost approximates a workload's victim-cycle cost: the virtual-time
// horizon times the shard count (each shard is one victim machine running
// for the horizon). Loadgen reports don't carry per-request victim totals,
// so machine-time is the honest upper bound to charge.
func loadCost(rep *pssp.LoadReport) uint64 {
	if rep == nil {
		return 0
	}
	return rep.DurationCycles * uint64(rep.Shards)
}

// fuzzJob is psspfuzz's fuzzing run as a daemon job.
func (d *Daemon) fuzzJob(p FuzzParams, t *tenant) (jobRun, error) {
	p = NormalizeFuzzParams(p)
	s, err := parseScheme(p.Scheme)
	if err != nil {
		return nil, err
	}
	return d.engineJob(p.App, s, t, p.Seed, func(ctx context.Context, e engineEnv) (any, uint64, error) {
		tr := obs.TraceFrom(ctx)
		cfg := p.FuzzConfig(e.seed)
		cfg.Progress = func(fp pssp.FuzzProgress) {
			tr.Event("fuzz round", 0, "")
			e.ev.progress(ProgressEvent{Kind: "fuzz", Fuzz: &fp})
		}
		rep, err := e.m.Fuzz(ctx, e.img, cfg)
		var cost uint64
		if rep != nil {
			cost = rep.Cycles
		}
		if err != nil && !canceledPartial(err, rep != nil && rep.Execs > 0) {
			return nil, cost, err
		}
		return FuzzResult{FuzzReport: rep, Canceled: err != nil}, cost, nil
	}), nil
}
