package main

// The traced run drives each job through the facade's finer public seams
// instead of its one-call entry points, so every layer's calls are visible
// from outside: the *Shards/Merge*Partials triples, one shard per span on a
// pool of the facade's default worker count, with the victims' fork servers
// booted and served through a timing oracle (attack) or a timing executor
// (fuzz). The merged reports must be byte-identical to the one-call path's,
// which the run checks through its digest.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/binfmt"
	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/pssp"
)

// Derived-seed streams and the instruction budget the facade uses for its
// victims (pssp's campaign and fuzz victim streams and its default
// WithMaxInstructions); the traced victims must boot exactly as the
// facade's do.
const (
	campaignVictimStream = 1
	fuzzVictimStream     = 3
	facadeMaxInsts       = 256 << 20
)

// shardPool runs fn for shards [0, n) on up to workers goroutines (one under
// a serial tracer), each shard in its own span under parent, and records
// the pool's busy and capacity time for workpool.busy_share.
func shardPool(ctx context.Context, tr *tracer, parent int32, name string, n, workers int, fn func(ctx context.Context, shard int, span int32) error) error {
	if workers > n {
		workers = n
	}
	if tr != nil && tr.serial {
		workers = 1
	}
	var (
		next   atomic.Int64
		busy   atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		retErr error
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				id := tr.begin(name, parent)
				err := fn(ctx, i, id.id)
				busy.Add(int64(tr.end(id)))
				if err != nil {
					errMu.Lock()
					if retErr == nil {
						retErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	tr.add("workpool.busy_ns", float64(busy.Load()))
	tr.add("workpool.capacity_ns", float64(int64(workers)*int64(time.Since(start))))
	return retErr
}

// timingOracle is the campaign victim's crash oracle with every fork-server
// request timed as a kernel.request span.
type timingOracle struct {
	ctx    context.Context
	srv    *pssp.Server
	tr     *tracer
	parent int32
}

// Try implements attack.Oracle exactly as the facade's oracle does.
func (o *timingOracle) Try(payload []byte) (bool, error) {
	id := o.tr.begin("kernel.request", o.parent)
	resp, err := o.srv.Handle(o.ctx, payload)
	o.tr.end(id)
	if err != nil {
		return false, attack.WrapOracleErr(err)
	}
	o.tr.add("kernel.insts", float64(resp.Insts))
	if resp.Crashed() {
		o.tr.add("kernel.crashes", 1)
	}
	return !resp.Crashed(), nil
}

// campaignTriple runs cfg as CampaignPlan → one CampaignShards-equivalent
// range per replication → MergeCampaignPartials. Each replication boots its
// victim with Machine.Serve and attacks it through a timing oracle under
// the registered strategy, deriving victim and attacker streams as the
// facade does.
func campaignTriple(ctx context.Context, tr *tracer, parent int32, m *pssp.Machine, img *pssp.Image, cfg pssp.CampaignConfig, workers int) (*pssp.CampaignResult, error) {
	plan, err := m.CampaignPlan(cfg)
	if err != nil {
		return nil, err
	}
	strat, err := attack.StrategyByName(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	acfg := attack.Config{BufLen: pssp.VulnServerBufSize, MaxTrials: cfg.Attack.MaxTrials}
	parts := make([]*pssp.CampaignPartial, plan.Replications)
	err = shardPool(ctx, tr, parent, "campaign.shard", plan.Replications, workers, func(ctx context.Context, rep int, shard int32) error {
		runner := func(ctx context.Context, rep int, r *rng.Source) (campaign.Outcome, error) {
			id := tr.begin("attack.replication", shard)
			defer tr.end(id)
			victim := pssp.NewMachine(pssp.WithSeed(rng.Mix(rng.Mix(plan.Seed, uint64(rep)), campaignVictimStream)))
			b := tr.begin("kernel.boot", id.id)
			srv, err := victim.Serve(ctx, img)
			tr.end(b)
			if err != nil {
				return campaign.Outcome{}, attack.WrapOracleErr(err)
			}
			res, err := strat.Attack(ctx, &timingOracle{ctx: ctx, srv: srv, tr: tr, parent: id.id}, acfg, r)
			if err != nil {
				return campaign.Outcome{}, err
			}
			verified := false
			if res.Success {
				real, err := srv.Canary()
				if err != nil {
					return campaign.Outcome{}, fmt.Errorf("verifying replication %d: %w", rep, err)
				}
				verified = res.RecoveredWord() == real
			}
			tr.add("attack.replications", 1)
			if verified {
				tr.add("attack.verified", 1)
			}
			return campaign.Outcome{
				Success: res.Success, Verified: verified, Trials: res.Trials,
				FailedAt: res.FailedAt, Restarts: res.Restarts,
				Detections: srv.Crashes(), OracleCalls: srv.Requests(),
				Cycles: srv.TotalCycles(), Insts: srv.TotalInsts(), Mem: srv.Footprint(),
			}, nil
		}
		part, err := campaign.RunShards(ctx, plan, rep, rep+1, runner)
		parts[rep] = part
		return err
	})
	if err != nil {
		return nil, err
	}
	id := tr.begin("campaign.merge", parent)
	agg := pssp.MergeCampaignPartials(plan, parts)
	tr.end(id)
	return agg, nil
}

// timingExecutor is the fuzzing engine's executor with every fork-server
// request timed as a kernel.request span: reset the shared edge map, serve
// the input to a fresh worker, classify the outcome — as the facade does.
type timingExecutor struct {
	srv    *kernel.ForkServer
	cov    *vm.CovMap
	tr     *tracer
	parent int32
}

// Execute implements fuzz.Executor.
func (e *timingExecutor) Execute(ctx context.Context, input []byte) (fuzz.Exec, *vm.CovMap, error) {
	e.cov.Reset()
	id := e.tr.begin("kernel.request", e.parent)
	out, err := e.srv.HandleContext(ctx, input)
	e.tr.end(id)
	if err != nil {
		return fuzz.Exec{}, nil, err
	}
	e.tr.add("kernel.insts", float64(out.Insts))
	ex := fuzz.Exec{Cycles: out.Cycles, Insts: out.Insts}
	if out.Crashed {
		e.tr.add("kernel.crashes", 1)
		ex.Crashed = true
		ex.Detected = errors.Is(out.CrashErr, kernel.ErrStackSmash)
		ex.Kind = out.CrashReason
		var ce *vm.CrashError
		if errors.As(out.CrashErr, &ce) {
			ex.CrashPC = ce.RIP
			ex.Kind = ce.Reason
		}
	}
	return ex, e.cov, nil
}

// fuzzTriple runs cfg as FuzzPlan → one shard range per shard → merge,
// booting each shard's victim fork server with coverage on and serving its
// inputs through a timing executor.
func fuzzTriple(ctx context.Context, tr *tracer, parent int32, m *pssp.Machine, img *pssp.Image, cfg pssp.FuzzConfig, workers int) (*pssp.FuzzReport, error) {
	plan, err := m.FuzzPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	bin, err := binfmt.Unmarshal(img.Marshal())
	if err != nil {
		return nil, err
	}
	parts := make([]*pssp.FuzzPartial, plan.Shards)
	err = shardPool(ctx, tr, parent, "fuzz.shard", plan.Shards, workers, func(ctx context.Context, shard int, span int32) error {
		boot := func(ctx context.Context, shard int) (fuzz.Executor, error) {
			id := tr.begin("kernel.boot", span)
			k := kernel.New(rng.Mix(rng.Mix(plan.Seed, uint64(shard)), fuzzVictimStream))
			k.MaxInsts = facadeMaxInsts
			p, err := k.Spawn(bin, kernel.SpawnOpts{})
			if err != nil {
				tr.end(id)
				return nil, err
			}
			srv, err := kernel.ServeProcess(ctx, k, p)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			return &timingExecutor{srv: srv, cov: srv.EnableCoverage(), tr: tr, parent: span}, nil
		}
		ps, err := fuzz.RunShards(ctx, plan, boot, shard, shard+1)
		if err != nil {
			return err
		}
		parts[shard] = ps[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	id := tr.begin("fuzz.merge", parent)
	rep, err := pssp.MergeFuzzPartials(plan, parts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.add("fuzz.corpus", float64(rep.CorpusSize))
	tr.add("fuzz.execs", float64(rep.Execs))
	return rep, nil
}

// loadTriple runs cfg as LoadPlan → LoadShards per shard →
// MergeLoadPartials.
func loadTriple(ctx context.Context, tr *tracer, parent int32, m *pssp.Machine, img *pssp.Image, cfg pssp.WorkloadConfig, workers int) (*pssp.LoadReport, error) {
	plan, err := m.LoadPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	norm, err := plan.Normalize()
	if err != nil {
		return nil, err
	}
	parts := make([][]*pssp.LoadPartial, norm.Shards)
	err = shardPool(ctx, tr, parent, "loadgen.shard", norm.Shards, workers, func(ctx context.Context, shard int, _ int32) error {
		ps, err := m.LoadShards(ctx, img, cfg, shard, shard+1)
		parts[shard] = ps
		return err
	})
	if err != nil {
		return nil, err
	}
	var flat []*pssp.LoadPartial
	for _, ps := range parts {
		flat = append(flat, ps...)
	}
	id := tr.begin("loadgen.merge", parent)
	rep, err := pssp.MergeLoadPartials(plan, flat)
	tr.end(id)
	return rep, err
}
