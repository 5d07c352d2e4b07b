package daemon

import (
	"context"
	"strings"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/pssp"
)

// Engine jobs — attack, loadtest and fuzz — come whole or as a shard range
// (campaignshard, loadshard, fuzzshard): the fabric worker's side of a
// lease. Both normalize their params the same way and run ranges through
// the same per-kind range run; a whole job resolves its seed, plans
// (plan.go), runs the full range [0, N) in process, and merges, while a
// shard job runs only [Lo, Hi) and returns wire partials for the
// coordinator's merge.
//
// Shard jobs require an explicit non-zero Seed: a derived seed would be
// drawn per request, so a lost lease re-issued to another worker would run
// a different scenario and the fabric's bit-identical merge would break.

// engineJobFor is the one handler behind the six engine methods (any other
// method is a bad request). It does the shared steps — decode and
// normalize the params, parse the scheme, and for shard jobs check the seed
// and the range — before admission, and leaves only the run to the kind.
func (d *Daemon) engineJobFor(req Request, t *tenant) (jobRun, error) {
	whole := !strings.HasSuffix(req.Method, "shard")
	// decode reads a whole job's params into its embedded params and a
	// shard job's into the full shard params.
	decode := func(wholeDst, shardDst any) error {
		if whole {
			return unmarshalParams(req.Params, wholeDst)
		}
		return unmarshalParams(req.Params, shardDst)
	}
	var (
		app, scheme string
		seed        uint64
		lo, hi      int
		run         engineRun
	)
	switch req.Method {
	case "attack", "campaignshard":
		var p CampaignShardParams
		if err := decode(&p.AttackParams, &p); err != nil {
			return nil, err
		}
		p.AttackParams = NormalizeAttackParams(p.AttackParams)
		app, scheme, seed, lo, hi = p.Target, p.Scheme, p.Seed, p.Lo, p.Hi
		run = shardRun(campaignRange, p)
		if whole {
			run = func(ctx context.Context, e engineEnv) (any, uint64, error) {
				ap := p.AttackParams
				ap.Seed = e.seed
				pl, err := PlanAttack(e.m, ap)
				if err != nil {
					return nil, 0, err
				}
				rep, cost, err := runRange(ctx, e, pl, campaignRange)
				rep.Canceled = err != nil
				return finish(rep, rep.Completed > 0, cost, err)
			}
		}
	case "loadtest", "loadshard":
		var p LoadShardParams
		if err := decode(&p.LoadParams, &p); err != nil {
			return nil, err
		}
		// Sweeps are planned whole: each sweep point is scaled and run (or
		// leased) as its own single-workload range.
		if !whole && len(p.Sweep) > 0 {
			return nil, badRequest("loadshard takes a single workload; the coordinator scales sweep points itself")
		}
		p.LoadParams = NormalizeLoadParams(p.LoadParams)
		if _, err := ParseArrivals(p.Arrivals); err != nil {
			return nil, err
		}
		app, scheme, seed, lo, hi = p.App, p.Scheme, p.Seed, p.Lo, p.Hi
		run = shardRun(loadRange, p)
		if whole {
			run = func(ctx context.Context, e engineEnv) (any, uint64, error) {
				lp := p.LoadParams
				lp.Seed = e.seed
				var cost uint64
				res, err := RunLoad(ctx, e.m, e.img, lp, func(ctx context.Context, pl LoadPointPlan) (*pssp.LoadReport, error) {
					rep, c, err := runRange(ctx, e, pl, loadRange)
					cost += c
					return rep, err
				})
				res.Canceled = err != nil
				worked := res.Report != nil && res.Report.Requests > 0 || res.Sweep != nil && len(res.Sweep.Points) > 0
				return finish(res, worked, cost, err)
			}
		}
	case "fuzz", "fuzzshard":
		var p FuzzShardParams
		if err := decode(&p.FuzzParams, &p); err != nil {
			return nil, err
		}
		// Continuous mode is planned whole: each round is its own range run.
		if !whole && p.UntilStall > 0 {
			return nil, badRequest("fuzzshard runs one round; continuous mode (until_stall) is a whole fuzz job")
		}
		if err := p.BaseVirgin.Check(); err != nil {
			return nil, badRequest("base_virgin: %v", err)
		}
		p.FuzzParams = NormalizeFuzzParams(p.FuzzParams)
		app, scheme, seed, lo, hi = p.App, p.Scheme, p.Seed, p.Lo, p.Hi
		run = shardRun(fuzzRange, p)
		if whole {
			run = func(ctx context.Context, e engineEnv) (any, uint64, error) {
				fp := p.FuzzParams
				fp.Seed = e.seed
				var cost uint64
				res, err := RunFuzz(ctx, e.m, e.img, fp, func(ctx context.Context, pl FuzzPlan) (*pssp.FuzzReport, error) {
					rep, c, err := runRange(ctx, e, pl, fuzzRange)
					cost += c
					if err == nil {
						d.met.frontierEdges.Set(int64(rep.Edges))
					}
					return rep, err
				})
				res.Canceled = err != nil
				return finish(res, res.FuzzReport != nil && res.Execs > 0, cost, err)
			}
		}
	default:
		return nil, badRequest("unknown method %q", req.Method)
	}
	s, err := parseScheme(scheme)
	if err != nil {
		return nil, err
	}
	if !whole {
		if seed == 0 {
			return nil, badRequest("shard jobs require an explicit non-zero seed (derived seeds are not lease-stable)")
		}
		// Upper bounds are checked downstream against the resolved scenario.
		if lo < 0 || hi <= lo {
			return nil, badRequest("bad shard range [%d,%d)", lo, hi)
		}
	}
	return d.engineJob(app, s, t, seed, run), nil
}

// shardRun is a shard job's run: body over the range p names, charged the
// result's cost. A canceled range replies with what it did, flagged
// Canceled, so a coordinator whose job was canceled (its time box ended)
// still merges the work its leases did.
func shardRun[S any, R rangeResult](body func(context.Context, engineEnv, S) (R, error), p S) engineRun {
	return func(ctx context.Context, e engineEnv) (any, uint64, error) {
		res, err := body(ctx, e, p)
		return finish(res, true, res.cost(), err)
	}
}

func (r CampaignShardResult) canceled() bool { return r.Canceled }
func (r LoadShardResult) canceled() bool     { return r.Canceled }
func (r FuzzShardResult) canceled() bool     { return r.Canceled }

// cost charges a campaign range the victim cycles of its completed
// replications.
func (r CampaignShardResult) cost() uint64 {
	var c uint64
	if r.Partial != nil {
		for _, out := range r.Partial.Outcomes {
			c += out.Cycles
		}
	}
	return c
}

// cost charges a load range its shards' virtual makespans: each shard is
// one victim machine, busy until its last completion.
func (r LoadShardResult) cost() uint64 {
	var c uint64
	for _, part := range r.Partials {
		c += part.Makespan
	}
	return c
}

// cost charges a fuzz range its shards' victim cycles.
func (r FuzzShardResult) cost() uint64 {
	var c uint64
	for _, part := range r.Partials {
		c += part.Cycles
	}
	return c
}

// campaignRange runs replications [Lo, Hi) of the campaign p describes.
func campaignRange(ctx context.Context, e engineEnv, p CampaignShardParams) (CampaignShardResult, error) {
	tr := obs.TraceFrom(ctx)
	cfg := p.CampaignConfig(p.Seed)
	cfg.Progress = func(cp pssp.CampaignProgress) {
		tr.Event("campaign progress", cp.Cycles, "")
		e.ev.progress(ProgressEvent{Kind: "attack", Campaign: &cp})
	}
	part, err := e.m.CampaignShards(ctx, e.img, cfg, p.Lo, p.Hi)
	return CampaignShardResult{Partial: part, Canceled: isCancel(err)}, err
}

// loadRange runs workload shards [Lo, Hi) of the scenario p describes.
func loadRange(ctx context.Context, e engineEnv, p LoadShardParams) (LoadShardResult, error) {
	cfg, err := LoadWorkload(p.LoadParams, p.Label, p.Seed)
	if err != nil {
		return LoadShardResult{}, err
	}
	tr := obs.TraceFrom(ctx)
	cfg.Progress = func(lp pssp.LoadProgress) {
		tr.Event("load progress", lp.P99Cycles, "")
		e.ev.progress(ProgressEvent{Kind: "loadtest", Load: &lp})
	}
	parts, err := e.m.LoadShards(ctx, e.img, cfg, p.Lo, p.Hi)
	return LoadShardResult{Partials: parts, Canceled: isCancel(err)}, err
}

// fuzzRange runs fuzzing shards [Lo, Hi) of the run p describes.
// BaseVirgin (checked at admission) carries the round's merged coverage
// frontier into every shard (the frontier-sync path); CorpusDir, when set,
// flock-merges the range's discoveries into a shared persistent corpus
// before the result ships — those of an interrupted range too.
func fuzzRange(ctx context.Context, e engineEnv, p FuzzShardParams) (FuzzShardResult, error) {
	tr := obs.TraceFrom(ctx)
	cfg := p.FuzzConfig(p.Seed)
	cfg.Label = p.Label
	if len(p.BaseVirgin) > 0 {
		cfg.BaseVirgin = p.BaseVirgin.Dense()
	}
	cfg.Progress = func(fp pssp.FuzzProgress) {
		tr.Event("fuzz progress", 0, "")
		e.ev.progress(ProgressEvent{Kind: "fuzz", Fuzz: &fp})
	}
	parts, err := e.m.FuzzShards(ctx, e.img, cfg, p.Lo, p.Hi)
	res := FuzzShardResult{Partials: parts, Canceled: isCancel(err)}
	if p.CorpusDir != "" && len(parts) > 0 {
		var ferr error
		res.CorpusAdded, ferr = foldCorpus(e, p, res)
		if err == nil {
			err = ferr
		}
	}
	return res, err
}

// foldCorpus merges the shards of res into p's corpus: it folds them into a
// subset report to harvest its corpus inputs and frontier. Content-hash
// dedup makes the flock'd merge idempotent across re-issued leases.
func foldCorpus(e engineEnv, p FuzzShardParams, res FuzzShardResult) (int, error) {
	pl, err := PlanFuzz(e.m, e.img, p)
	if err != nil {
		return 0, err
	}
	sub, err := pl.Merge([]FuzzShardResult{res})
	if err != nil {
		return 0, err
	}
	corp, err := store.OpenCorpus(p.CorpusDir)
	if err != nil {
		return 0, err
	}
	added, err := corp.Add(sub.CorpusInputs())
	if err != nil {
		return added, err
	}
	return added, corp.SaveFrontier(sub.Frontier())
}
