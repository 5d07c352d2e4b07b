package pssp

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/rng"
)

// StrategyInfo describes one registered attack strategy.
type StrategyInfo struct {
	// Name is the registry key accepted by AttackConfig.Strategy and
	// CampaignConfig.Strategy.
	Name string
	// Description is a one-line summary.
	Description string
}

// AttackStrategies lists the registered adversary models, ordered by name:
// the paper's byte-by-byte (§II-B) and exhaustive word search (§III-C) plus
// chunk-wise guessing, uniform random sampling, and the adaptive
// restart-on-detection attacker.
func AttackStrategies() []StrategyInfo {
	ss := attack.Strategies()
	out := make([]StrategyInfo, len(ss))
	for i, s := range ss {
		out[i] = StrategyInfo{Name: s.Name(), Description: s.Description()}
	}
	return out
}

// withSeed clones m's configuration onto a fresh kernel seeded with seed,
// via kernel.ReplicaSeeded so the kernel-level configuration is inherited
// in one place. This is how one logical machine serves concurrent trials:
// a Machine is single-threaded by design, so each campaign replication and
// each load or fuzz shard attacks its own victim instead of locking shared
// state. WithStats/WithTrace collectors are NOT carried over: they are
// single-machine accumulators, not safe to share across concurrently
// running victims.
func (m *Machine) withSeed(seed uint64) *Machine {
	cfg := m.cfg
	cfg.seed = seed
	cfg.stats, cfg.traceW = nil, nil
	return &Machine{cfg: cfg, k: m.k.ReplicaSeeded(seed)}
}

// CampaignConfig parameterizes Machine.Campaign. The zero value runs one
// byte-by-byte replication against the built-in vulnerable servers under
// the machine's attack budget.
type CampaignConfig struct {
	// Strategy selects the adversary model by registry name (see
	// AttackStrategies); empty means byte-by-byte.
	Strategy string
	// Replications is the number of independent attack replications
	// (default 1). Replication i attacks a fresh victim machine derived
	// from (Seed, i), so outcomes are i.i.d. across replications and
	// independent of scheduling.
	Replications int
	// Workers bounds how many replications run concurrently (default
	// GOMAXPROCS). Workers changes wall-clock time only: for a fixed Seed
	// the aggregates are bit-identical at any worker count.
	Workers int
	// Seed drives the whole campaign (victim entropy and attacker
	// guesses); 0 means the machine's seed.
	Seed uint64
	// Attack describes the victim frame, as in Server.Attack.
	Attack AttackConfig
	// Progress, when non-nil, receives a running tally after every
	// completed replication, serialized by the engine. Wall-clock
	// observability only — it never affects the deterministic aggregate.
	Progress func(CampaignProgress)
}

// CampaignProgress is a campaign's running tally; see campaign.Progress.
type CampaignProgress = campaign.Progress

// CampaignResult is a campaign's deterministic aggregate: success counts
// and rate, trials-to-success order statistics, detection rate, total
// oracle calls and victim-side cost, infrastructure-error tallies, and the
// per-replication outcomes. See campaign.Aggregate for the field docs.
type CampaignResult = campaign.Aggregate

// Campaign runs a sharded Monte-Carlo attack campaign: cfg.Replications
// independent runs of the selected strategy, each against a fresh
// fork-server victim booted from img on a replica machine, sharded across
// cfg.Workers concurrent oracles.
//
// Oracle infrastructure failures are surfaced in the result's OracleErrors/
// OracleErr instead of being folded into trial statistics; if no
// replication completes and such a failure occurred, Campaign returns it.
// On cancellation the partial aggregate of the completed replications is
// returned alongside ctx.Err().
func (m *Machine) Campaign(ctx context.Context, img *Image, cfg CampaignConfig) (*CampaignResult, error) {
	plan, runner, err := m.campaignPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	agg, err := campaign.Run(ctx, plan, runner)
	if err != nil {
		return agg, err
	}
	if agg.Completed == 0 && agg.OracleErr != nil {
		return agg, agg.OracleErr
	}
	return agg, nil
}

// campaignPlan resolves cfg into the engine configuration and the
// per-replication runner — the shared front half of Campaign,
// CampaignShards, and (plan only, img may be nil) CampaignPlan.
func (m *Machine) campaignPlan(img *Image, cfg CampaignConfig) (campaign.Config, campaign.Runner, error) {
	// The strategy may arrive on either level — CampaignConfig.Strategy or
	// the embedded AttackConfig (the field Server.Attack honours). They
	// must resolve to the same adversary (aliases like "bbb" and
	// "byte-by-byte" agree); genuinely conflicting names are an error,
	// never a silent default.
	attackCfg := cfg.Attack
	if cfg.Strategy != "" {
		if attackCfg.Strategy != "" {
			outer, err := attack.StrategyByName(cfg.Strategy)
			if err != nil {
				return campaign.Config{}, nil, err
			}
			inner, err := attack.StrategyByName(attackCfg.Strategy)
			if err != nil {
				return campaign.Config{}, nil, err
			}
			if outer.Name() != inner.Name() {
				return campaign.Config{}, nil, fmt.Errorf("pssp: conflicting strategies %q (CampaignConfig.Strategy) and %q (Attack.Strategy)",
					cfg.Strategy, attackCfg.Strategy)
			}
		}
		attackCfg.Strategy = cfg.Strategy
	}
	strat, acfg, err := m.resolveAttack(attackCfg)
	if err != nil {
		return campaign.Config{}, nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = m.cfg.seed
	}

	runner := func(ctx context.Context, rep int, r *rng.Source) (campaign.Outcome, error) {
		// The victim's entropy stream is a second-level derivation of the
		// replication stream, so attacker guesses (r) and victim canaries
		// never draw from the same splitmix state.
		victim := m.withSeed(rng.Mix(rng.Mix(seed, uint64(rep)), 1))
		srv, err := victim.Serve(ctx, img)
		if err != nil {
			return campaign.Outcome{}, attack.WrapOracleErr(err)
		}
		res, err := strat.Attack(ctx, &ctxOracle{ctx: ctx, s: srv}, acfg, r)
		if err != nil {
			return campaign.Outcome{}, err
		}
		// Confirm a success against the victim's real TLS canary so a
		// lucky-survival false success is distinguishable in the
		// aggregates (VerifiedSuccesses vs Successes). A canary that
		// cannot be read is a verification failure of the experiment, not
		// an unverified success — surface it.
		verified := false
		if res.Success {
			real, err := srv.Canary()
			if err != nil {
				return campaign.Outcome{}, fmt.Errorf("pssp: campaign: verifying replication %d: %w", rep, err)
			}
			verified = res.RecoveredWord() == real
		}
		return campaign.Outcome{
			Success:     res.Success,
			Verified:    verified,
			Trials:      res.Trials,
			FailedAt:    res.FailedAt,
			Restarts:    res.Restarts,
			Detections:  srv.Crashes(),
			OracleCalls: srv.Requests(),
			Cycles:      srv.TotalCycles(),
			Insts:       srv.TotalInsts(),
			Mem:         srv.Footprint(),
		}, nil
	}

	return campaign.Config{
		Label:        strat.Name(),
		Replications: cfg.Replications,
		Workers:      cfg.Workers,
		Seed:         seed,
		Progress:     cfg.Progress,
	}, runner, nil
}
