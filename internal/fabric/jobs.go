package fabric

import (
	"context"
	"errors"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/pssp"
)

// Fabric jobs take the daemon wire params — the exact objects leases ship —
// and require an explicit non-zero Seed: a lease must be re-executable
// bit-identically on any worker, which a derived per-job seed is not.
//
// The coordinator plans each job with the daemon's per-kind plan (the one a
// whole daemon job runs in process), leases the plan's shard ranges through
// leaseAll, and folds the results with the plan's merge; load and fuzz jobs
// drive their points and rounds through the daemon's RunLoad and RunFuzz —
// so the reports here are byte-identical to psspattack/psspload/psspfuzz
// at the same seed.

var errSeed = errors.New("fabric: jobs require an explicit non-zero seed")

// machineFor builds the coordinator's local planning machine for a job with
// normalized params.
func machineFor(scheme string, seed uint64) (*pssp.Machine, error) {
	s, err := pssp.ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	return pssp.NewMachine(pssp.WithSeed(seed), pssp.WithScheme(s)), nil
}

// planImage builds the planning machine plus the compiled image a load or
// fuzz plan resolves against.
func planImage(app, scheme string, seed uint64) (*pssp.Machine, *pssp.Image, error) {
	m, err := machineFor(scheme, seed)
	if err != nil {
		return nil, nil, err
	}
	img, err := m.Pipeline().CompileApp(app).Image()
	return m, img, err
}

// Campaign fans an attack campaign's replications out across the workers
// and returns the merged report — the exact shape psspattack -json emits.
func (c *Coordinator) Campaign(ctx context.Context, p daemon.AttackParams) (*daemon.AttackReport, error) {
	p = daemon.NormalizeAttackParams(p)
	if p.Seed == 0 {
		return nil, errSeed
	}
	m, err := machineFor(p.Scheme, p.Seed)
	if err != nil {
		return nil, err
	}
	pl, err := daemon.PlanAttack(m, p)
	if err != nil {
		return nil, err
	}
	rep, err := leaseAll(ctx, c, "campaign", pl)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// load runs a load job — one workload or a sweep, whose knee it locates —
// leasing every point's shards across the workers. On error the result
// holds the sweep points completed so far.
func (c *Coordinator) load(ctx context.Context, p daemon.LoadParams) (daemon.LoadResult, error) {
	p = daemon.NormalizeLoadParams(p)
	if p.Seed == 0 {
		return daemon.LoadResult{}, errSeed
	}
	m, img, err := planImage(p.App, p.Scheme, p.Seed)
	if err != nil {
		return daemon.LoadResult{}, err
	}
	return daemon.RunLoad(ctx, m, img, p, func(ctx context.Context, pl daemon.LoadPointPlan) (*pssp.LoadReport, error) {
		return leaseAll(ctx, c, "loadtest", pl)
	})
}

// Fuzz fans a fuzzing campaign's shards out across the workers and returns
// the merged report — the exact shape psspfuzz -json emits. corpusDir, when
// non-empty, sets p.CorpusDir.
func (c *Coordinator) Fuzz(ctx context.Context, p daemon.FuzzParams, corpusDir string) (*pssp.FuzzReport, error) {
	p.CorpusDir = corpusDir
	res, err := c.fuzz(ctx, p)
	return res.FuzzReport, err
}

// fuzz runs a fuzz job — one round or continuous rounds — leasing every
// round's shards across the workers. Workers fold each round's discoveries
// into p.CorpusDir, which resolves on their hosts. A continuous job's round
// lines land in its own flight-recorder trace; each round's leases trace
// under their own.
func (c *Coordinator) fuzz(ctx context.Context, p daemon.FuzzParams) (daemon.FuzzResult, error) {
	p = daemon.NormalizeFuzzParams(p)
	if p.Seed == 0 {
		return daemon.FuzzResult{}, errSeed
	}
	m, img, err := planImage(p.App, p.Scheme, p.Seed)
	if err != nil {
		return daemon.FuzzResult{}, err
	}
	if p.UntilStall > 0 {
		ctx = obs.ContextWithTrace(ctx, c.beginTrace("fuzz until-stall"))
	}
	return daemon.RunFuzz(ctx, m, img, p, func(ctx context.Context, pl daemon.FuzzPlan) (*pssp.FuzzReport, error) {
		rep, err := leaseAll(ctx, c, "fuzz", pl)
		if err != nil {
			return nil, err
		}
		c.met.frontierEdges.Set(int64(rep.Edges))
		return rep, nil
	})
}
