// fabric.go is the facade's distributed seam: the plan/shard/merge triple
// each evaluation engine exposes to internal/fabric. A coordinator resolves
// a job once into its engine plan, workers execute shard subranges of that
// plan via the *Shards methods (reusing the exact runner/boot closures the
// single-process paths use), and the coordinator folds the returned wire
// partials with the Merge* functions — the same fold the local engines run,
// so distributed reports are bit-identical to local ones by construction.
package pssp

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/store"
)

// CampaignPlan is a campaign's resolved engine configuration; see
// campaign.Config.
type CampaignPlan = campaign.Config

// CampaignPartial is the wire-form result of a campaign replication range;
// see campaign.Partial.
type CampaignPartial = campaign.Partial

// LoadPlan is a workload's resolved engine configuration; see
// loadgen.Config. It is resolved but not normalized — callers normalize
// per run (via its Normalize method), which matters for sweeps: the sweep
// loop scales the resolved scenario per point and each point normalizes
// after scaling.
type LoadPlan = loadgen.Config

// LoadPartial is the wire-form result of one workload shard; see
// loadgen.Partial.
type LoadPartial = loadgen.Partial

// LoadSweepPoint is one offered-load step of a sweep; see loadgen.SweepPoint.
type LoadSweepPoint = loadgen.SweepPoint

// FuzzPlan is a fuzzing run's resolved engine configuration; see
// fuzz.Config.
type FuzzPlan = fuzz.Config

// FuzzPartial is the wire-form result of one fuzzing shard; see
// fuzz.Partial.
type FuzzPartial = fuzz.Partial

// FuzzCells is a coverage frontier in its sparse wire form; see fuzz.Cells.
type FuzzCells = fuzz.Cells

// FuzzCellsOf returns the sparse form of a dense frontier
// (FuzzReport.Frontier, FuzzConfig.BaseVirgin); see fuzz.CellsOf.
func FuzzCellsOf(frontier []byte) FuzzCells { return fuzz.CellsOf(frontier) }

// FuzzStallSummary reports a continuous (until-stall) fuzzing run's
// convergence; see FuzzUntilStall.
type FuzzStallSummary struct {
	// Rounds is the number of rounds executed; StallRounds the configured
	// consecutive-unchanged-frontier stop threshold.
	Rounds      int `json:"rounds"`
	StallRounds int `json:"stall_rounds"`
	// TotalExecs sums executions across rounds (the final report's Execs
	// covers only the last round).
	TotalExecs int `json:"total_execs"`
}

// Corpus is a persistent fuzzing corpus directory; see store.Corpus.
type Corpus = store.Corpus

// FuzzUntilStall is the one continuous-mode fuzzing loop, behind the fuzz
// job's until-stall mode (daemon.RunFuzz) whichever runner executes its
// rounds — in process or leased across fabric workers: it runs round until
// the coverage frontier's hash is unchanged for stall consecutive rounds. Round r>0 re-derives its mutation seed as
// rng.Mix(cfg.Seed, r) and seeds itself with cfg.Seeds plus every input
// discovered so far, with the accumulated frontier as its BaseVirgin. With a
// corpus both are reloaded from it before every round — concurrent runs
// sharing it contribute too — and round must fold its discoveries back in;
// without one they carry over in memory. The frontier is monotone and
// bounded, so the loop terminates. The returned report is the final
// round's, whose frontier and corpus are cumulative by construction. logf
// receives one line per round.
func FuzzUntilStall(ctx context.Context, cfg FuzzConfig, stall int, corpus *Corpus,
	round func(context.Context, FuzzConfig) (*FuzzReport, error), logf func(format string, args ...any)) (*FuzzReport, *FuzzStallSummary, error) {
	if stall <= 0 {
		stall = 1
	}
	sum := &FuzzStallSummary{StallRounds: stall}
	var rep *FuzzReport
	same := 0
	for {
		rc := cfg
		if sum.Rounds > 0 {
			rc.Seed = rng.Mix(cfg.Seed, uint64(sum.Rounds))
		}
		if corpus != nil {
			saved, frontier, err := corpus.Load()
			if err != nil {
				return rep, sum, err
			}
			rc.Seeds = append(append([][]byte{}, cfg.Seeds...), saved...)
			rc.BaseVirgin = frontier
		} else if rep != nil {
			rc.Seeds = append(append([][]byte{}, cfg.Seeds...), rep.CorpusInputs()...)
			rc.BaseVirgin = rep.Frontier()
		}
		r, err := round(ctx, rc)
		if err != nil {
			return rep, sum, err
		}
		sum.Rounds++
		sum.TotalExecs += r.Execs
		if rep != nil && r.CoverageHash == rep.CoverageHash {
			same++
		} else {
			same = 0
		}
		rep = r
		logf("round %d: %d edges, frontier %016x (%d/%d stalled)",
			sum.Rounds, r.Edges, r.CoverageHash, same, stall)
		if same >= stall {
			return rep, sum, nil
		}
	}
}

// CampaignPlan resolves cfg exactly as Campaign would — strategy-conflict
// validation, attack-frame defaults, seed defaulting — and returns the
// engine plan a coordinator partitions into leases. No image is needed:
// resolution touches only the machine configuration and the strategy
// registry, so a coordinator resolves plans without booting victims.
func (m *Machine) CampaignPlan(cfg CampaignConfig) (CampaignPlan, error) {
	plan, _, err := m.campaignPlan(nil, cfg)
	return plan, err
}

// CampaignShards runs only replications [lo, hi) of the campaign — the
// fabric worker's slice of a lease. Replication indices keep their global
// meaning, so every victim machine and attacker stream is identical to the
// single-process run's.
func (m *Machine) CampaignShards(ctx context.Context, img *Image, cfg CampaignConfig, lo, hi int) (*CampaignPartial, error) {
	plan, runner, err := m.campaignPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	return campaign.RunShards(ctx, plan, lo, hi, runner)
}

// MergeCampaignPartials folds worker partials into the aggregate Campaign
// would have produced for the same plan; order- and duplicate-insensitive
// (see campaign.MergePartials).
func MergeCampaignPartials(plan CampaignPlan, parts []*CampaignPartial) *CampaignResult {
	return campaign.MergePartials(plan, parts)
}

// LoadPlan resolves cfg exactly as LoadTest would — mix defaulting, probe
// strategy resolution, arrival-model defaults — and returns the engine
// scenario a coordinator partitions into shard leases (after normalizing).
func (m *Machine) LoadPlan(img *Image, cfg WorkloadConfig) (LoadPlan, error) {
	return m.resolveWorkload(img, cfg)
}

// LoadShards runs only shards [lo, hi) of the workload. Shard indices keep
// their global meaning, so client partitions, rng streams, and budget
// shares are identical to the single-process run's.
func (m *Machine) LoadShards(ctx context.Context, img *Image, cfg WorkloadConfig, lo, hi int) ([]*LoadPartial, error) {
	lc, err := m.resolveWorkload(img, cfg)
	if err != nil {
		return nil, err
	}
	return loadgen.RunShards(ctx, lc, m.bootShards(img, lc.Seed), lo, hi)
}

// MergeLoadPartials folds worker partials into the report LoadTest would
// have produced for the same plan; order- and duplicate-insensitive (see
// loadgen.MergePartials).
func MergeLoadPartials(plan LoadPlan, parts []*LoadPartial) (*LoadReport, error) {
	return loadgen.MergePartials(plan, parts)
}

// FuzzPlan resolves cfg exactly as Fuzz would — seed-corpus and label
// defaulting, seed derivation — and returns the normalized engine plan, so
// a coordinator sees the final shard count and the resolved seed corpus it
// must ship to workers.
func (m *Machine) FuzzPlan(img *Image, cfg FuzzConfig) (FuzzPlan, error) {
	fc, _, err := m.fuzzPlan(img, cfg)
	if err != nil {
		return FuzzPlan{}, err
	}
	return fc.Normalize()
}

// FuzzShards runs only shards [lo, hi) of the fuzzing campaign. Shard
// indices keep their global meaning, so victim machines, mutation streams,
// and budget shares are identical to the single-process run's.
func (m *Machine) FuzzShards(ctx context.Context, img *Image, cfg FuzzConfig, lo, hi int) ([]*FuzzPartial, error) {
	fc, boot, err := m.fuzzPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	return fuzz.RunShards(ctx, fc, boot, lo, hi)
}

// MergeFuzzPartials folds worker partials into the report Fuzz would have
// produced for the same plan; order- and duplicate-insensitive (see
// fuzz.MergePartials).
func MergeFuzzPartials(plan FuzzPlan, parts []*FuzzPartial) (*FuzzReport, error) {
	return fuzz.MergePartials(plan, parts)
}
