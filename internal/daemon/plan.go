package daemon

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/pssp"
)

// Plan is one engine job resolved from normalized wire params at an
// explicit seed — the one job shape, plan → run shard ranges → merge,
// whatever runs the ranges. A daemon whole job runs [0, Shards) in process
// through its shard jobs' range run; on a fabric coordinator the same whole
// job leases the ranges to workers as Method requests (RangeRunner). Both
// fold with Merge, so their reports agree byte for byte.
type Plan[S, R, Rep any] struct {
	// Method is the shard method a range runs as.
	Method string
	// Shards is the job's shard (replication) count.
	Shards int
	// Range returns the wire params of shards [lo, hi).
	Range func(lo, hi int) S
	// Merge folds range results, in any order and duplicates allowed, into
	// the job's report.
	Merge func([]R) (Rep, error)
}

// The plan of each engine job kind.
type (
	AttackPlan    = Plan[CampaignShardParams, CampaignShardResult, AttackReport]
	LoadPointPlan = Plan[LoadShardParams, LoadShardResult, *pssp.LoadReport]
	FuzzPlan      = Plan[FuzzShardParams, FuzzShardResult, *pssp.FuzzReport]
)

// PlanAttack resolves the campaign of normalized params p (explicit seed)
// on m. Its merge is the one place a campaign that completed no
// replication fails with its first oracle infrastructure error.
func PlanAttack(m *pssp.Machine, p AttackParams) (AttackPlan, error) {
	s, err := parseScheme(p.Scheme)
	if err != nil {
		return AttackPlan{}, err
	}
	plan, err := m.CampaignPlan(p.CampaignConfig(p.Seed))
	if err != nil {
		return AttackPlan{}, err
	}
	return AttackPlan{
		Method: "campaignshard",
		Shards: plan.Replications,
		Range: func(lo, hi int) CampaignShardParams {
			return CampaignShardParams{AttackParams: p, Lo: lo, Hi: hi}
		},
		Merge: func(rs []CampaignShardResult) (AttackReport, error) {
			parts := make([]*pssp.CampaignPartial, len(rs))
			for i, r := range rs {
				parts[i] = r.Partial
			}
			agg := pssp.MergeCampaignPartials(plan, parts)
			if agg.Completed == 0 && agg.OracleErr != nil {
				return AttackReport{}, agg.OracleErr
			}
			return BuildAttackReport(p.Target, s, p.Seed, p.Budget, p.Repeats, p.Workers, agg), nil
		},
	}, nil
}

// RunLoad runs the load job of normalized params p (explicit seed) against
// img: one workload, or a sweep of scaled points through the one sweep
// loop. run is the transport's range runner; it executes each point's plan.
// On error the result holds what completed.
func RunLoad(ctx context.Context, m *pssp.Machine, img *pssp.Image, p LoadParams,
	run func(context.Context, LoadPointPlan) (*pssp.LoadReport, error)) (LoadResult, error) {
	cfg, err := LoadWorkload(p, "", p.Seed)
	if err != nil {
		return LoadResult{}, err
	}
	base, err := m.LoadPlan(img, cfg)
	if err != nil {
		return LoadResult{}, err
	}
	// point plans one scenario: each range ships the point's label and
	// scaled arrival knobs, so a lease resolves exactly this scenario.
	point := func(ctx context.Context, sc pssp.LoadPlan) (*pssp.LoadReport, error) {
		norm, err := sc.Normalize()
		if err != nil {
			return nil, err
		}
		sp := LoadShardParams{LoadParams: p, Label: sc.Label}
		sp.Sweep, sp.Rate, sp.Clients = nil, sc.Arrivals.RatePerMcycle, sc.Arrivals.Clients
		return run(ctx, LoadPointPlan{
			Method: "loadshard",
			Shards: norm.Shards,
			Range: func(lo, hi int) LoadShardParams {
				lp := sp
				lp.Lo, lp.Hi = lo, hi
				return lp
			},
			Merge: func(rs []LoadShardResult) (*pssp.LoadReport, error) {
				var parts []*pssp.LoadPartial
				for _, r := range rs {
					parts = append(parts, r.Partials...)
				}
				return pssp.MergeLoadPartials(sc, parts)
			},
		})
	}
	if len(p.Sweep) == 0 {
		rep, err := point(ctx, base)
		return LoadResult{Report: rep}, err
	}
	sw, err := loadgen.RunSweep(ctx, base, p.Sweep, point)
	return LoadResult{Sweep: sw}, err
}

// RunFuzz runs the fuzz job of normalized params p (explicit seed) against
// img: one round, or with UntilStall > 0 the continuous mode's rounds
// through the one until-stall loop (pssp.FuzzUntilStall). With CorpusDir
// its saved inputs join the seeds and its frontier becomes the round's
// BaseVirgin, reloaded before every continuous round; each round's ranges
// fold their discoveries back in. run is the transport's range runner; it
// executes each round's plan. Round lines go to ctx's flight-recorder
// trace. On error the result holds the last completed round.
func RunFuzz(ctx context.Context, m *pssp.Machine, img *pssp.Image, p FuzzParams,
	run func(context.Context, FuzzPlan) (*pssp.FuzzReport, error)) (FuzzResult, error) {
	var corp *store.Corpus
	if p.CorpusDir != "" {
		var err error
		if corp, err = store.OpenCorpus(p.CorpusDir); err != nil {
			return FuzzResult{}, err
		}
	}
	// round plans and runs one round of cfg: its seed, seed corpus and base
	// frontier ride in the shard params the plan ships.
	round := func(ctx context.Context, cfg pssp.FuzzConfig) (*pssp.FuzzReport, error) {
		sp := FuzzShardParams{FuzzParams: p, BaseVirgin: pssp.FuzzCellsOf(cfg.BaseVirgin)}
		sp.Seed, sp.Seeds, sp.UntilStall = cfg.Seed, cfg.Seeds, 0
		pl, err := PlanFuzz(m, img, sp)
		if err != nil {
			return nil, err
		}
		return run(ctx, pl)
	}
	cfg := p.FuzzConfig(p.Seed)
	if p.UntilStall > 0 {
		tr := obs.TraceFrom(ctx)
		logf := func(format string, args ...any) { tr.Event("fuzz round", 0, fmt.Sprintf(format, args...)) }
		rep, sum, err := pssp.FuzzUntilStall(ctx, cfg, p.UntilStall, corp, round, logf)
		return FuzzResult{FuzzReport: rep, UntilStall: sum}, err
	}
	if corp != nil {
		saved, frontier, err := corp.Load()
		if err != nil {
			return FuzzResult{}, err
		}
		cfg.Seeds = append(append([][]byte{}, cfg.Seeds...), saved...)
		cfg.BaseVirgin = frontier
	}
	rep, err := round(ctx, cfg)
	return FuzzResult{FuzzReport: rep}, err
}

// PlanFuzz resolves the fuzzing run sp describes — its explicit seed, seed
// corpus and label; its range is ignored — against img. Every range ships
// the resolved seed corpus and label, so workers mutate from exactly the
// seeds the plan resolved, and sp's base frontier. The plan leaves the base
// out: each partial's cells include it, so the merge never reads it.
func PlanFuzz(m *pssp.Machine, img *pssp.Image, sp FuzzShardParams) (FuzzPlan, error) {
	cfg := sp.FuzzConfig(sp.Seed)
	cfg.Label = sp.Label
	plan, err := m.FuzzPlan(img, cfg)
	if err != nil {
		return FuzzPlan{}, err
	}
	sp.Seeds, sp.Label = plan.Seeds, plan.Label
	return FuzzPlan{
		Method: "fuzzshard",
		Shards: plan.Shards,
		Range: func(lo, hi int) FuzzShardParams {
			fp := sp
			fp.Lo, fp.Hi = lo, hi
			return fp
		},
		Merge: func(rs []FuzzShardResult) (*pssp.FuzzReport, error) {
			var parts []*pssp.FuzzPartial
			for _, r := range rs {
				parts = append(parts, r.Partials...)
			}
			return pssp.MergeFuzzPartials(plan, parts)
		},
	}, nil
}

// RangeRunner runs whole jobs' shard ranges outside the daemon's process:
// the fabric coordinator, which leases them to psspd workers. Only
// fabric.New sets one (Config.Ranges); every other daemon runs ranges in
// process.
type RangeRunner interface {
	// RunRanges covers shards [0, shards) with ranges and calls lease once
	// per range attempt; lease's call sends one method request with the
	// range's params to the process running it and decodes its result. It
	// returns nil once a lease of every range has succeeded.
	RunRanges(ctx context.Context, shards int, lease func(lo, hi int, call func(method string, params, result any) error) error) error
	// Stats snapshots the runner for the daemon's stats method.
	Stats() FabricStats
}

// rangeResult is a range result that knows its victim-cycle charge and
// whether cancellation cut it short.
type rangeResult interface {
	cost() uint64
	canceled() bool
}

// errRangeCut fails a lease whose worker canceled the range on its own
// (it is shutting down) while the job still runs: the lease is lost, not
// done, and the range runner re-issues it.
var errRangeCut = errors.New("daemon: worker cut its range short")

// runRange runs a plan's whole range [0, Shards) — in process through body,
// the run its shard jobs use, or as leases through the daemon's range
// runner — and merges what completed. It charges the results' costs. The
// run's error wins over the merge's, so a canceled run still returns the
// report of the work it did: in process, and from every lease the
// cancellation cut short.
func runRange[S any, R rangeResult, Rep any](ctx context.Context, e engineEnv, pl Plan[S, R, Rep],
	body func(context.Context, engineEnv, S) (R, error)) (Rep, uint64, error) {
	var (
		mu      sync.Mutex
		results []R
		cost    uint64
	)
	collect := func(r R) {
		mu.Lock()
		results = append(results, r)
		cost += r.cost()
		mu.Unlock()
	}
	var err error
	if e.ranges == nil {
		var res R
		res, err = body(ctx, e, pl.Range(0, pl.Shards))
		collect(res)
	} else {
		err = e.ranges.RunRanges(ctx, pl.Shards, func(lo, hi int, call func(string, any, any) error) error {
			var res R
			if err := call(pl.Method, pl.Range(lo, hi), &res); err != nil {
				return err
			}
			if res.canceled() && ctx.Err() == nil {
				return errRangeCut
			}
			collect(res)
			return nil
		})
	}
	rep, mErr := pl.Merge(results)
	if err == nil {
		err = mErr
	}
	return rep, cost, err
}
