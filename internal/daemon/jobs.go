package daemon

import (
	"context"
	"errors"

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
	default:
		return d.engineJobFor(req, t)
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

// finish maps an engine job's run onto its terminal response: on success,
// or on a cancellation that still did work, the result (which the caller
// flagged Canceled); on any other error, the error. The cost is charged
// either way.
func finish(res any, worked bool, cost uint64, err error) (any, uint64, error) {
	if err != nil && !(isCancel(err) && worked) {
		return nil, cost, err
	}
	return res, cost, nil
}

// isCancel reports whether err is a context cancellation or deadline.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
// seeded with the job seed, the job's progress stream, and the range runner
// its whole-job ranges go to (nil: in process).
type engineEnv struct {
	m      *pssp.Machine
	img    *pssp.Image
	seed   uint64
	ev     *eventStream
	ranges RangeRunner
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
		return run(ctx, engineEnv{m: m, img: img, seed: seed, ev: ev, ranges: d.cfg.Ranges})
	}
}
