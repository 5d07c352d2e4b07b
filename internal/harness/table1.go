package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workpool"
	"repro/pssp"
)

// Table1 reproduces the paper's Table I: the brute-force-defence comparison
// of SSP, RAF-SSP, DynaGuard, DCR and P-SSP. Unlike the paper — which cites
// the other tools' published numbers — every cell here is measured by
// running the actual scheme in the simulator:
//
//   - BROP prevention: the byte-by-byte attack is run against a vulnerable
//     fork server compiled with the scheme; "Yes" means the attack failed
//     within the trial budget.
//   - Correctness: a forked child must return through stack frames created
//     by its parent without a false positive.
//   - Runtime overhead (compiler-based): SPEC-analog average versus the SSP
//     baseline.
//
// The five schemes are measured concurrently. The measurement machines are
// constructed inside measureSecurityProfile and specCycles from fixed
// per-purpose seeds, so the parallel run is bit-identical to a sequential
// one.
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ctx := context.Background()
	baseline, err := specCycles(ctx, cfg, core.SchemeSSP)
	if err != nil {
		return nil, err
	}
	instr, err := instrumentedSpecCycles(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var instrAvg float64
	for name, c := range instr {
		instrAvg += overheadVs(c, baseline[name])
	}
	instrAvg /= float64(len(instr))

	t := &Table{
		Title: "Table I: Comparison of brute force attack defence tools (all cells measured)",
		Header: []string{
			"defence", "BROP prevention", "correctness",
			"overhead (compiler)", "overhead (instrumentation)",
		},
		Notes: []string{
			"paper: DynaGuard 1.5% compiler / 156% PIN-based; DCR >24% static instrumentation",
			"instrumentation overhead measured only for P-SSP (this repo's rewriter); others n/a",
			fmt.Sprintf("attack budget %d trials; SSP expected to fall in ~1024", cfg.AttackBudget),
		},
	}

	schemes := []core.Scheme{
		core.SchemeSSP, core.SchemeRAFSSP, core.SchemeDynaGuard,
		core.SchemeDCR, core.SchemePSSP,
	}
	// The per-scheme measurements build their own deterministic Machines;
	// the pool's ctx cancels the siblings (and their nested SPEC sweeps) on
	// the first failure.
	type row struct {
		brop, correct bool
		overhead      float64 // compiler overhead vs SSP (unused for SSP itself)
	}
	rows := make([]row, len(schemes))
	err = workpool.Run(ctx, len(schemes), len(schemes), func(ctx context.Context, i int) error {
		s := schemes[i]
		brop, correct, err := measureSecurityProfile(ctx, cfg, s)
		if err != nil {
			return fmt.Errorf("table1: %v: %w", s, err)
		}
		r := row{brop: brop, correct: correct}
		if s != core.SchemeSSP {
			cycles, err := specCycles(ctx, cfg, s)
			if err != nil {
				return err
			}
			var sum float64
			for name, c := range cycles {
				sum += overheadVs(c, baseline[name])
			}
			r.overhead = sum / float64(len(cycles))
		}
		rows[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i, s := range schemes {
		r := rows[i]
		overhead := "baseline"
		if s != core.SchemeSSP {
			overhead = pct(r.overhead)
			t.set(s.String()+"/overhead/compiler", r.overhead)
		}
		instrCell := "n/a"
		if s == core.SchemePSSP {
			instrCell = pct(instrAvg)
			t.set("p-ssp/overhead/instrumentation", instrAvg)
		}
		t.Rows = append(t.Rows, []string{
			s.String(), yesNo(r.brop), yesNo(r.correct), overhead, instrCell,
		})
		t.set(s.String()+"/brop", boolToF(r.brop))
		t.set(s.String()+"/correct", boolToF(r.correct))
	}
	return t, nil
}

// measureSecurityProfile runs the two security experiments for one scheme,
// both as campaigns: a benign-load campaign on a shared server for the
// correctness cell, and a replicated byte-by-byte attack campaign for the
// BROP cell ("prevented" means no replication recovered a canary).
func measureSecurityProfile(ctx context.Context, cfg Config, s core.Scheme) (bropPrevented, correct bool, err error) {
	target := apps.VulnServers()[0] // nginx-vuln
	img, err := cfg.compileStatic(target.Prog, s)
	if err != nil {
		return false, false, err
	}

	// Correctness: benign requests must survive the child's return through
	// inherited frames. The server is shared, so the campaign serializes.
	m := cfg.machine(pssp.WithSeed(cfg.Seed + 1))
	srv, err := m.Serve(ctx, img)
	if err != nil {
		return false, false, err
	}
	benign, err := campaign.Run(ctx, campaign.Config{
		Label:        "correctness",
		Replications: 5,
		Workers:      1,
	}, func(ctx context.Context, rep int, _ *rng.Source) (campaign.Outcome, error) {
		resp, err := srv.Handle(ctx, target.Request)
		if err != nil {
			return campaign.Outcome{}, err
		}
		return campaign.Outcome{Success: !resp.Crashed(), OracleCalls: 1, Cycles: resp.Cycles}, nil
	})
	if err != nil {
		return false, false, err
	}
	correct = benign.Successes == benign.Completed

	// BROP prevention: replicated byte-by-byte campaign against fresh
	// victims derived from the attack machine's seed.
	m2 := cfg.machine(pssp.WithSeed(cfg.Seed+2), pssp.WithAttackBudget(cfg.AttackBudget))
	res, err := m2.Campaign(ctx, img, pssp.CampaignConfig{
		Replications: cfg.AttackReps,
		Workers:      cfg.Workers,
		Attack:       pssp.AttackConfig{BufLen: apps.VulnServerBufSize},
	})
	if err != nil {
		return false, false, err
	}
	return res.Successes == 0, correct, nil
}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
