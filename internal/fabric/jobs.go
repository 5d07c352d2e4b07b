package fabric

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/daemon"
	"repro/internal/loadgen"
	"repro/internal/store"
	"repro/pssp"
)

// Fabric jobs take the daemon wire params — the exact objects leases ship —
// and require an explicit non-zero Seed: a lease must be re-executable
// bit-identically on any worker, which a derived per-job seed is not.
//
// The coordinator resolves each job's engine plan itself (via the facade's
// plan methods and the daemon's params→config mapping, the same resolution
// path workers run), leases shard ranges of that plan through leaseAll, and
// folds the returned partials with the engines' own merge code — so the
// reports here are byte-identical to psspattack/psspload/psspfuzz at the
// same seed.

var errSeed = errors.New("fabric: jobs require an explicit non-zero seed")

// machineFor builds the coordinator's local planning machine for a job with
// normalized params.
func machineFor(scheme string, seed uint64) (*pssp.Machine, pssp.Scheme, error) {
	s, err := pssp.ParseScheme(scheme)
	if err != nil {
		return nil, 0, err
	}
	return pssp.NewMachine(pssp.WithSeed(seed), pssp.WithScheme(s)), s, nil
}

// planImage builds the planning machine plus the compiled image a load or
// fuzz plan resolves against.
func planImage(app, scheme string, seed uint64) (*pssp.Machine, *pssp.Image, error) {
	m, _, err := machineFor(scheme, seed)
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
	m, s, err := machineFor(p.Scheme, p.Seed)
	if err != nil {
		return nil, err
	}
	plan, err := m.CampaignPlan(p.CampaignConfig(p.Seed))
	if err != nil {
		return nil, err
	}
	parts, err := leaseAll(ctx, c, "campaign", "campaignshard", plan.Replications,
		func(lo, hi int) any { return daemon.CampaignShardParams{AttackParams: p, Lo: lo, Hi: hi} },
		func(r daemon.CampaignShardResult) []*pssp.CampaignPartial { return []*pssp.CampaignPartial{r.Partial} })
	if err != nil {
		return nil, err
	}
	agg := pssp.MergeCampaignPartials(plan, parts)
	if agg.Completed == 0 && agg.OracleErr != nil {
		return nil, agg.OracleErr
	}
	rep := daemon.BuildAttackReport(p.Target, s, p.Seed, p.Budget, p.Repeats, p.Workers, agg)
	return &rep, nil
}

// loadPlan normalizes p and resolves its coordinator-side workload plan.
func loadPlan(p daemon.LoadParams) (daemon.LoadParams, pssp.LoadPlan, error) {
	p = daemon.NormalizeLoadParams(p)
	if p.Seed == 0 {
		return p, pssp.LoadPlan{}, errSeed
	}
	m, img, err := planImage(p.App, p.Scheme, p.Seed)
	if err != nil {
		return p, pssp.LoadPlan{}, err
	}
	cfg, err := daemon.LoadWorkload(p, "", p.Seed)
	if err != nil {
		return p, pssp.LoadPlan{}, err
	}
	plan, err := m.LoadPlan(img, cfg)
	return p, plan, err
}

// runLoadPoint leases one (possibly sweep-scaled) workload's shards and
// merges them. plan is the resolved-unnormalized scenario of the point;
// the shipped params carry the point's label and scaled arrival knobs.
func (c *Coordinator) runLoadPoint(ctx context.Context, p daemon.LoadParams, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
	norm, err := plan.Normalize()
	if err != nil {
		return nil, err
	}
	sp := daemon.LoadShardParams{LoadParams: p, Label: plan.Label}
	sp.Sweep = nil
	sp.Rate = plan.Arrivals.RatePerMcycle
	sp.Clients = plan.Arrivals.Clients
	parts, err := leaseAll(ctx, c, "loadtest", "loadshard", norm.Shards,
		func(lo, hi int) any { lp := sp; lp.Lo, lp.Hi = lo, hi; return lp },
		func(r daemon.LoadShardResult) []*pssp.LoadPartial { return r.Partials })
	if err != nil {
		return nil, err
	}
	return pssp.MergeLoadPartials(plan, parts)
}

// LoadTest fans one workload's shards out across the workers and returns
// the merged report — the exact shape psspload -json emits.
func (c *Coordinator) LoadTest(ctx context.Context, p daemon.LoadParams) (*pssp.LoadReport, error) {
	if len(p.Sweep) > 0 {
		return nil, errors.New("fabric: LoadTest takes a single workload; use LoadSweep")
	}
	p, plan, err := loadPlan(p)
	if err != nil {
		return nil, err
	}
	return c.runLoadPoint(ctx, p, plan)
}

// LoadSweep steps the scenario through p.Sweep's offered-load multipliers
// (each point leased across the workers) and locates the saturation knee —
// the exact report psspload -sweep -json emits.
func (c *Coordinator) LoadSweep(ctx context.Context, p daemon.LoadParams) (*pssp.LoadSweepReport, error) {
	if len(p.Sweep) == 0 {
		return nil, errors.New("fabric: sweep needs at least one multiplier")
	}
	p, base, err := loadPlan(p)
	if err != nil {
		return nil, err
	}
	sw := &pssp.LoadSweepReport{Label: base.Label}
	for _, m := range p.Sweep {
		if !(m > 0) {
			return sw, fmt.Errorf("fabric: non-positive sweep multiplier %g", m)
		}
		rep, err := c.runLoadPoint(ctx, p, loadgen.Scale(base, m))
		if err != nil {
			return sw, err
		}
		sw.Points = append(sw.Points, pssp.LoadSweepPoint{Multiplier: m, Report: rep})
		if base.Arrivals.Kind != loadgen.ClosedLoop &&
			rep.Efficiency() >= loadgen.KneeEfficiency && m > sw.KneeMultiplier {
			sw.KneeMultiplier = m
		}
	}
	return sw, nil
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
// or one of FuzzUntilStall's.
func (c *Coordinator) fuzzRound(ctx context.Context, p daemon.FuzzParams, cfg pssp.FuzzConfig, corpusDir string) (*pssp.FuzzReport, error) {
	m, img, err := planImage(p.App, p.Scheme, cfg.Seed)
	if err != nil {
		return nil, err
	}
	plan, err := m.FuzzPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	sp := daemon.FuzzShardParams{
		FuzzParams: p,
		Label:      plan.Label,
		BaseVirgin: cfg.BaseVirgin,
		CorpusDir:  corpusDir,
	}
	// Ship the round's seed and the resolved seed corpus, not the raw one:
	// workers must mutate from exactly the seeds the plan resolved
	// (built-in request default, corpus-loaded extras), or the scenario
	// would drift.
	sp.Seed, sp.Seeds = cfg.Seed, plan.Seeds
	parts, err := leaseAll(ctx, c, "fuzz", "fuzzshard", plan.Shards,
		func(lo, hi int) any { fp := sp; fp.Lo, fp.Hi = lo, hi; return fp },
		func(r daemon.FuzzShardResult) []*pssp.FuzzPartial { return r.Partials })
	if err != nil {
		return nil, err
	}
	rep, err := pssp.MergeFuzzPartials(plan, parts)
	if err != nil {
		return nil, err
	}
	c.met.frontierEdges.Set(int64(rep.Edges))
	return rep, nil
}
