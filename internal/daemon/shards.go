package daemon

import (
	"context"

	"repro/internal/store"
	"repro/pssp"
)

// Shard jobs are the fabric worker's side of a lease: the coordinator
// resolves a job once, partitions its shard range, and sends each lease as
// a campaignshard/loadshard/fuzzshard request over the flipped worker
// connection. A lease normalizes its params exactly as the whole job does
// — the scenario it executes must be the one the coordinator planned — but
// runs only [Lo, Hi) and returns wire partials instead of a rendered
// report.
//
// Shard jobs require an explicit non-zero Seed: a derived seed would be
// drawn per request, so a lost lease re-issued to another worker would run
// a different scenario and the fabric's bit-identical merge would break.

// shardJob is the one handler behind the three shard methods. It does the
// shared steps — decode and normalize the params, parse the scheme, check
// the seed and the range — before admission, and leaves only the run to the
// kind.
func (d *Daemon) shardJob(req Request, t *tenant) (jobRun, error) {
	var (
		app, scheme string
		seed        uint64
		lo, hi      int
		run         engineRun
	)
	switch req.Method {
	case "campaignshard":
		var p CampaignShardParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		p.AttackParams = NormalizeAttackParams(p.AttackParams)
		app, scheme, seed, lo, hi = p.Target, p.Scheme, p.Seed, p.Lo, p.Hi
		run = func(ctx context.Context, e engineEnv) (any, uint64, error) {
			cfg := p.CampaignConfig(e.seed)
			cfg.Progress = func(cp pssp.CampaignProgress) {
				e.ev.progress(ProgressEvent{Kind: "attack", Campaign: &cp})
			}
			part, err := e.m.CampaignShards(ctx, e.img, cfg, p.Lo, p.Hi)
			var cost uint64
			if part != nil {
				for _, out := range part.Outcomes {
					cost += out.Cycles
				}
			}
			return CampaignShardResult{Partial: part}, cost, err
		}
	case "loadshard":
		var p LoadShardParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		// Sweeps are coordinator-side: each sweep point is scaled and leased
		// as its own single-workload shard job.
		if len(p.Sweep) > 0 {
			return nil, badRequest("loadshard takes a single workload; the coordinator scales sweep points itself")
		}
		p.LoadParams = NormalizeLoadParams(p.LoadParams)
		if _, err := ParseArrivals(p.Arrivals); err != nil {
			return nil, err
		}
		app, scheme, seed, lo, hi = p.App, p.Scheme, p.Seed, p.Lo, p.Hi
		run = func(ctx context.Context, e engineEnv) (any, uint64, error) {
			cfg, err := LoadWorkload(p.LoadParams, p.Label, e.seed)
			if err != nil {
				return nil, 0, err
			}
			cfg.Progress = func(lp pssp.LoadProgress) {
				e.ev.progress(ProgressEvent{Kind: "loadtest", Load: &lp})
			}
			parts, err := e.m.LoadShards(ctx, e.img, cfg, p.Lo, p.Hi)
			var cost uint64
			for _, part := range parts {
				cost += part.Makespan
			}
			return LoadShardResult{Partials: parts}, cost, err
		}
	case "fuzzshard":
		var p FuzzShardParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		p.FuzzParams = NormalizeFuzzParams(p.FuzzParams)
		app, scheme, seed, lo, hi = p.App, p.Scheme, p.Seed, p.Lo, p.Hi
		run = func(ctx context.Context, e engineEnv) (any, uint64, error) {
			return fuzzShard(ctx, e, p)
		}
	default:
		return nil, badRequest("unknown shard method %q", req.Method)
	}
	s, err := parseScheme(scheme)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		return nil, badRequest("shard jobs require an explicit non-zero seed (derived seeds are not lease-stable)")
	}
	// Upper bounds are checked downstream against the resolved scenario.
	if lo < 0 || hi <= lo {
		return nil, badRequest("bad shard range [%d,%d)", lo, hi)
	}
	return d.engineJob(app, s, t, seed, run), nil
}

// fuzzShard runs fuzzing shards [Lo, Hi). BaseVirgin carries the
// coordinator's merged coverage frontier into every shard (the distributed
// frontier-sync path); CorpusDir, when set, flock-merges the lease's
// discoveries into a shared persistent corpus before the result ships.
func fuzzShard(ctx context.Context, e engineEnv, p FuzzShardParams) (any, uint64, error) {
	cfg := p.FuzzConfig(e.seed)
	cfg.Label, cfg.BaseVirgin = p.Label, p.BaseVirgin
	cfg.Progress = func(fp pssp.FuzzProgress) {
		e.ev.progress(ProgressEvent{Kind: "fuzz", Fuzz: &fp})
	}
	parts, err := e.m.FuzzShards(ctx, e.img, cfg, p.Lo, p.Hi)
	var cost uint64
	for _, part := range parts {
		cost += part.Cycles
	}
	if err != nil || p.CorpusDir == "" {
		return FuzzShardResult{Partials: parts}, cost, err
	}
	// Fold only this lease's shards into a subset report to harvest its
	// corpus inputs and frontier; content-hash dedup makes the flock'd
	// merge idempotent across re-issued leases.
	res := FuzzShardResult{Partials: parts}
	plan, err := e.m.FuzzPlan(e.img, cfg)
	if err != nil {
		return nil, cost, err
	}
	sub, err := pssp.MergeFuzzPartials(plan, parts)
	if err != nil {
		return nil, cost, err
	}
	corp, err := store.OpenCorpus(p.CorpusDir)
	if err != nil {
		return nil, cost, err
	}
	if res.CorpusAdded, err = corp.Add(sub.CorpusInputs()); err != nil {
		return nil, cost, err
	}
	return res, cost, corp.SaveFrontier(sub.Frontier())
}
