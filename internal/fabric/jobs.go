package fabric

import (
	"context"
	"errors"

	"repro/internal/daemon"
	"repro/internal/store"
	"repro/pssp"
)

// Fabric jobs take the daemon wire params — the exact objects leases ship —
// and require an explicit non-zero Seed: a lease must be re-executable
// bit-identically on any worker, which a derived per-job seed is not.
//
// The coordinator plans each job with the daemon's per-kind plan (the one a
// whole daemon job runs in process), leases the plan's shard ranges through
// leaseAll, and folds the results with the plan's merge — so the reports
// here are byte-identical to psspattack/psspload/psspfuzz at the same seed.

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

// load runs a load job — one workload or a sweep — leasing every point's
// shards across the workers.
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

// LoadTest fans one workload's shards out across the workers and returns
// the merged report — the exact shape psspload -json emits.
func (c *Coordinator) LoadTest(ctx context.Context, p daemon.LoadParams) (*pssp.LoadReport, error) {
	if len(p.Sweep) > 0 {
		return nil, errors.New("fabric: LoadTest takes a single workload; use LoadSweep")
	}
	res, err := c.load(ctx, p)
	return res.Report, err
}

// LoadSweep steps the scenario through p.Sweep's offered-load multipliers
// (each point leased across the workers) and locates the saturation knee —
// the exact report psspload -sweep -json emits. On error the points
// completed so far are returned with it.
func (c *Coordinator) LoadSweep(ctx context.Context, p daemon.LoadParams) (*pssp.LoadSweepReport, error) {
	if len(p.Sweep) == 0 {
		return nil, errors.New("fabric: sweep needs at least one multiplier")
	}
	res, err := c.load(ctx, p)
	return res.Sweep, err
}

// Fuzz fans a fuzzing campaign's shards out across the workers and returns
// the merged report — the exact shape psspfuzz -json emits. corpusDir,
// when non-empty, mirrors psspfuzz -corpus: saved inputs seed the run, the
// saved frontier marks their coverage charted, and every lease folds its
// discoveries back in through the flock'd corpus.
func (c *Coordinator) Fuzz(ctx context.Context, p daemon.FuzzParams, corpusDir string) (*pssp.FuzzReport, error) {
	p = daemon.NormalizeFuzzParams(p)
	if p.Seed == 0 {
		return nil, errSeed
	}
	cfg := p.FuzzConfig(p.Seed)
	if corpusDir != "" {
		corp, err := store.OpenCorpus(corpusDir)
		if err != nil {
			return nil, err
		}
		saved, frontier, err := corp.Load()
		if err != nil {
			return nil, err
		}
		cfg.Seeds = append(append([][]byte{}, cfg.Seeds...), saved...)
		cfg.BaseVirgin = frontier
	}
	return c.fuzzRound(ctx, p, cfg, corpusDir)
}

// FuzzUntilStall runs distributed fuzzing rounds until the merged coverage
// frontier's hash is unchanged for stall consecutive rounds — the fabric's
// continuous mode, driven by the facade's until-stall loop (shared with
// psspfuzz -until-stall, so the two stay byte-comparable). Workers fold
// each round's discoveries into the corpus when corpusDir is set.
func (c *Coordinator) FuzzUntilStall(ctx context.Context, p daemon.FuzzParams, corpusDir string, stall int) (*pssp.FuzzReport, *pssp.FuzzStallSummary, error) {
	p = daemon.NormalizeFuzzParams(p)
	if p.Seed == 0 {
		return nil, nil, errSeed
	}
	var corp *store.Corpus
	if corpusDir != "" {
		var err error
		if corp, err = store.OpenCorpus(corpusDir); err != nil {
			return nil, nil, err
		}
	}
	round := func(ctx context.Context, cfg pssp.FuzzConfig) (*pssp.FuzzReport, error) {
		return c.fuzzRound(ctx, p, cfg, corpusDir)
	}
	logf := func(format string, args ...any) { c.logf("fabric: fuzz "+format, args...) }
	return pssp.FuzzUntilStall(ctx, p.FuzzConfig(p.Seed), stall, corp, round, logf)
}

// fuzzRound leases and merges one fuzzing run of cfg — Fuzz's only round,
// or one of FuzzUntilStall's. The round's seed, seed corpus and base
// frontier ride in the shard params the plan ships.
func (c *Coordinator) fuzzRound(ctx context.Context, p daemon.FuzzParams, cfg pssp.FuzzConfig, corpusDir string) (*pssp.FuzzReport, error) {
	m, img, err := planImage(p.App, p.Scheme, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sp := daemon.FuzzShardParams{FuzzParams: p, BaseVirgin: cfg.BaseVirgin, CorpusDir: corpusDir}
	sp.Seed, sp.Seeds = cfg.Seed, cfg.Seeds
	pl, err := daemon.PlanFuzz(m, img, sp)
	if err != nil {
		return nil, err
	}
	rep, err := leaseAll(ctx, c, "fuzz", pl)
	if err != nil {
		return nil, err
	}
	c.met.frontierEdges.Set(int64(rep.Edges))
	return rep, nil
}
