// Package campaign is the Monte-Carlo replication engine behind the paper's
// evaluation: it runs N independent replications of a trial — typically one
// full attack.Strategy run against a fresh fork-server oracle — sharded
// across a pool of workers, and folds the outcomes into deterministic
// aggregates (success rate, trials-to-success quantiles, detection rate,
// total oracle calls).
//
// Determinism is the design center. Each replication is a self-contained
// work unit: replication i always draws from rng.NewStream(seed, i) and
// builds its own oracle, no matter which worker executes it, so a fixed
// seed yields bit-identical aggregates at any worker count. Workers are
// pure concurrency — they never own state a replication depends on.
//
// Infrastructure failures of the oracle (attack.OracleError) are surfaced
// separately from trial statistics: a replication that never reached its
// victim is counted in OracleErrors, not folded into the aggregates.
// Cancellation returns the partial, well-formed aggregate of the
// replications that completed, alongside ctx.Err().
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/workpool"
)

// Config sizes a campaign.
type Config struct {
	// Label names the campaign in its Aggregate (e.g. the strategy name).
	Label string
	// Replications is the number of independent trial replications
	// (default 1).
	Replications int
	// Workers bounds the number of replications in flight (default
	// GOMAXPROCS, clamped to Replications). Workers affects wall-clock
	// time only, never results.
	Workers int
	// Seed drives all randomness: replication i draws from
	// rng.NewStream(Seed, i).
	Seed uint64
	// Progress, when non-nil, receives a running tally after every
	// completed replication, serialized by the engine (never two calls at
	// once). It observes wall-clock completion order, so the sequence of
	// snapshots varies with scheduling — only the final aggregate is
	// deterministic. The nil path costs one pointer check per replication.
	Progress func(Progress)
}

// Progress is a campaign's running tally, cumulative over the replications
// completed so far in wall-clock order.
type Progress struct {
	// Requested echoes Config.Replications; Completed counts replications
	// finished so far (infrastructure failures included — they are
	// completed units whose loss the final aggregate accounts).
	Requested, Completed int
	// Successes, Trials, Detections and OracleCalls accumulate the
	// corresponding Outcome fields of the completed replications.
	Successes, Trials, Detections, OracleCalls int
	// Cycles totals the victim-side cost so far.
	Cycles uint64
}

func (c Config) withDefaults() Config {
	if c.Replications <= 0 {
		c.Replications = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Replications {
		c.Workers = c.Replications
	}
	return c
}

// Runner executes one replication. rep is the replication index and r its
// private derived randomness; the Runner must take all replication-varying
// state (oracle, victim machine, guesses) from these two values so the
// outcome is independent of scheduling. Infrastructure failures must be
// classified per attack.WrapOracleErr.
type Runner func(ctx context.Context, rep int, r *rng.Source) (Outcome, error)

// Outcome reports one completed replication. The JSON tags are its wire
// form inside a Partial; campaign reports rendered for humans or CLIs use
// their own shapes.
type Outcome struct {
	// Rep is the replication index (set by the engine).
	Rep int `json:"rep"`
	// Success reports whether the replication's trial succeeded.
	Success bool `json:"success"`
	// Verified reports that the success was confirmed against ground truth
	// (e.g. the recovered canary matches the victim's TLS canary, ruling
	// out a lucky-survival false success). Always false when !Success.
	Verified bool `json:"verified"`
	// Trials is the number of attack trials the replication spent.
	Trials int `json:"trials"`
	// FailedAt is the byte position a positional attack gave up on
	// (-1 when not applicable: success, or a non-positional trial).
	FailedAt int `json:"failed_at"`
	// Restarts counts adaptive from-scratch restarts.
	Restarts int `json:"restarts"`
	// Detections counts trials the defence detected (worker crashes).
	Detections int `json:"detections"`
	// OracleCalls is the number of oracle requests issued (>= Trials when
	// the runner issues extra non-trial requests).
	OracleCalls int `json:"oracle_calls"`
	// Cycles and Insts are the victim-side execution cost.
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	// Mem is the victim's memory footprint in bytes (0 if not measured).
	Mem int `json:"mem"`
}

// Summary is an order-statistics digest of one per-replication metric.
type Summary struct {
	// N is the number of samples folded in.
	N int
	// Min, Median, P95 and Max are the usual order statistics (nearest-rank
	// P95; mean-of-middles median).
	Min, Median, P95, Max float64
}

// summarize digests vals (consumed: sorted in place).
func summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if n%2 == 0 {
		med = (vals[n/2-1] + vals[n/2]) / 2
	}
	rank := (95*n + 99) / 100 // ceil(0.95n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	return Summary{N: n, Min: vals[0], Median: med, P95: vals[rank-1], Max: vals[n-1]}
}

// Aggregate folds a campaign's outcomes. All fields are deterministic
// functions of (seed, replication set): they are computed in replication
// order after the workers drain, so scheduling cannot leak in.
type Aggregate struct {
	// Label echoes Config.Label.
	Label string
	// Requested and Completed count replications asked for and finished.
	Requested, Completed int
	// Successes counts successful replications; VerifiedSuccesses counts
	// those additionally confirmed against ground truth (see
	// Outcome.Verified) — a gap between the two flags lucky-survival
	// false successes.
	Successes         int
	VerifiedSuccesses int
	// Trials, Detections and OracleCalls are totals across replications.
	Trials, Detections, OracleCalls int
	// Cycles and Insts total the victim-side execution cost.
	Cycles, Insts uint64
	// MaxMem is the largest per-replication memory footprint seen.
	MaxMem int
	// TrialsToSuccess digests the trial counts of successful replications.
	TrialsToSuccess Summary
	// OracleErrors counts replications lost to oracle infrastructure
	// failures (not folded into any other statistic); OracleErr is the
	// first such error by replication order.
	OracleErrors int
	OracleErr    error
	// Outcomes holds every completed replication, ascending by Rep.
	Outcomes []Outcome
}

// SuccessRate is Successes/Completed (0 when nothing completed).
func (a *Aggregate) SuccessRate() float64 {
	if a.Completed == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Completed)
}

// DetectionRate is Detections/OracleCalls — the fraction of oracle requests
// the defence converted into a worker crash.
func (a *Aggregate) DetectionRate() float64 {
	if a.OracleCalls == 0 {
		return 0
	}
	return float64(a.Detections) / float64(a.OracleCalls)
}

// AvgCycles is the mean victim-side cost per oracle call.
func (a *Aggregate) AvgCycles() float64 {
	if a.OracleCalls == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(a.OracleCalls)
}

// Run executes the campaign: cfg.Replications runs of run sharded over
// cfg.Workers goroutines. The returned aggregate is bit-identical for a
// fixed seed at any worker count.
//
// On cancellation Run returns the partial aggregate of the completed
// replications together with ctx.Err(). A runner error that is neither a
// cancellation nor an oracle infrastructure failure aborts the campaign
// and is returned with the partial aggregate.
func Run(ctx context.Context, cfg Config, run Runner) (*Aggregate, error) {
	cfg = cfg.withDefaults()
	outcomes := make([]*Outcome, cfg.Replications)
	infra := make([]error, cfg.Replications)
	poolErr := runRange(ctx, cfg, 0, cfg.Replications, cfg.Workers, run, outcomes, infra)
	return fold(cfg, outcomes, infra), poolErr
}

// runRange executes replications [lo, hi) into the outcome/infra slot
// arrays (indexed by global replication number) — the shared core of Run
// and RunShards.
func runRange(ctx context.Context, cfg Config, lo, hi, workers int, run Runner, outcomes []*Outcome, infra []error) error {
	// The running tally behind Config.Progress, one callback per completed
	// replication. Snapshots accumulate in wall-clock completion order; the
	// deterministic aggregate folded afterwards never reads from it.
	mt := workpool.NewMeter(cfg.Progress, 1, Progress{Requested: hi - lo})
	tick := func(out *Outcome) {
		mt.Tick(func(p *Progress) {
			p.Completed++
			if out == nil {
				return
			}
			if out.Success {
				p.Successes++
			}
			p.Trials += out.Trials
			p.Detections += out.Detections
			p.OracleCalls += out.OracleCalls
			p.Cycles += out.Cycles
		})
	}

	// The pool handles cancellation and fatal-error semantics (see
	// workpool.Run); this runner only classifies: an oracle infrastructure
	// failure is accounted in its replication's infra slot — a completed
	// unit from the pool's point of view — never a fatal error.
	return workpool.RunRange(ctx, lo, hi, workers, func(ctx context.Context, rep int) error {
		out, err := run(ctx, rep, rng.NewStream(cfg.Seed, uint64(rep)))
		switch {
		case err == nil:
			out.Rep = rep
			outcomes[rep] = &out
			tick(&out)
		case attack.IsOracleErr(err):
			infra[rep] = err
			tick(nil)
		default:
			return err
		}
		return nil
	})
}

// fold collapses outcome/infra slots into the aggregate, in replication
// order. It is the single merge path: Run folds its own slots, and
// MergePartials folds slots reassembled from wire partials, so the two are
// bit-identical by construction.
func fold(cfg Config, outcomes []*Outcome, infra []error) *Aggregate {
	agg := &Aggregate{Label: cfg.Label, Requested: cfg.Replications}
	var toSuccess []float64
	for rep := 0; rep < cfg.Replications; rep++ {
		if err := infra[rep]; err != nil {
			agg.OracleErrors++
			if agg.OracleErr == nil {
				agg.OracleErr = err
			}
			continue
		}
		out := outcomes[rep]
		if out == nil {
			continue
		}
		agg.Completed++
		agg.Trials += out.Trials
		agg.Detections += out.Detections
		agg.OracleCalls += out.OracleCalls
		agg.Cycles += out.Cycles
		agg.Insts += out.Insts
		if out.Mem > agg.MaxMem {
			agg.MaxMem = out.Mem
		}
		if out.Success {
			agg.Successes++
			toSuccess = append(toSuccess, float64(out.Trials))
			if out.Verified {
				agg.VerifiedSuccesses++
			}
		}
		agg.Outcomes = append(agg.Outcomes, *out)
	}
	agg.TrialsToSuccess = summarize(toSuccess)
	return agg
}

// InfraError is the wire form of an oracle infrastructure failure: the
// replication it cost and the error text. Reconstructed errors compare
// equal by message, which is all report rendering uses.
type InfraError struct {
	Rep int    `json:"rep"`
	Err string `json:"err"`
}

// Partial carries the raw results of a replication range [Lo, Hi) — the
// per-shard aggregate a fabric worker ships back to its coordinator. It is
// deliberately unfolded: outcomes and infra errors keep their replication
// tags so MergePartials can reassemble the exact slot array Run would have
// filled, making the distributed merge bit-identical to the local one.
type Partial struct {
	Lo       int          `json:"lo"`
	Hi       int          `json:"hi"`
	Outcomes []Outcome    `json:"outcomes,omitempty"`
	Infra    []InfraError `json:"infra,omitempty"`
}

// RunShards executes only replications [lo, hi) of the campaign and
// returns their partial. cfg must be the full campaign configuration —
// replication indices keep their global meaning, so rng streams are
// identical to the single-process run. On error the partial holds
// whatever completed.
func RunShards(ctx context.Context, cfg Config, lo, hi int, run Runner) (*Partial, error) {
	cfg = cfg.withDefaults()
	if lo < 0 || hi > cfg.Replications || lo >= hi {
		return nil, fmt.Errorf("campaign: shard range [%d,%d) outside replications [0,%d)", lo, hi, cfg.Replications)
	}
	workers := cfg.Workers
	if workers > hi-lo {
		workers = hi - lo
	}
	outcomes := make([]*Outcome, cfg.Replications)
	infra := make([]error, cfg.Replications)
	poolErr := runRange(ctx, cfg, lo, hi, workers, run, outcomes, infra)

	p := &Partial{Lo: lo, Hi: hi}
	for rep := lo; rep < hi; rep++ {
		if out := outcomes[rep]; out != nil {
			p.Outcomes = append(p.Outcomes, *out)
		}
		if err := infra[rep]; err != nil {
			p.Infra = append(p.Infra, InfraError{Rep: rep, Err: err.Error()})
		}
	}
	return p, poolErr
}

// MergePartials reassembles partials into the aggregate Run would have
// produced for the same cfg. Partials may arrive in any order and may
// overlap (a lease that was reassigned after a worker loss delivers the
// same replications twice) — slots are keyed by replication index, so a
// duplicate overwrites with identical data and the merge stays
// bit-identical. Missing replications are simply absent from the
// aggregate, mirroring Run under cancellation.
func MergePartials(cfg Config, parts []*Partial) *Aggregate {
	cfg = cfg.withDefaults()
	outcomes := make([]*Outcome, cfg.Replications)
	infra := make([]error, cfg.Replications)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := range p.Outcomes {
			out := p.Outcomes[i]
			if out.Rep >= 0 && out.Rep < cfg.Replications {
				outcomes[out.Rep] = &out
			}
		}
		for _, ie := range p.Infra {
			if ie.Rep >= 0 && ie.Rep < cfg.Replications {
				infra[ie.Rep] = errors.New(ie.Err)
			}
		}
	}
	return fold(cfg, outcomes, infra)
}
