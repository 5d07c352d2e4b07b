package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/daemon"
	"repro/pssp"
)

// The attack workload: the paper's §VI-C experiment as researchers run it.
// One client runs adaptive byte-by-byte campaigns through Machine.Campaign
// against nginx-vuln, in a fixed cycle of two p-ssp campaigns (every fork
// re-randomizes the canary, so each replication runs to its budget) and one
// ssp campaign (broken in ~1k trials and verified against the victim's
// canary). The p-ssp campaigns do the same work at every seed and are the
// larger kind, so both p50 and p99 fall inside their mode.
const (
	attackTarget = "nginx-vuln"
	attackReps   = 2
	// attackPSSPBudget bounds each p-ssp replication; attackSSPBudget is
	// above the 2048-trial worst case of byte-by-byte on a static canary,
	// so every ssp replication succeeds.
	attackPSSPBudget = 2048
	attackSSPBudget  = 4096
)

var attackSchemes = []pssp.Scheme{pssp.SchemePSSP, pssp.SchemeSSP}

func init() {
	register(&workload{
		name:      "attack",
		kinds:     []string{"p-ssp", "ssp"},
		perSecond: 48,
		jobs: func(seed uint64, n int) []job {
			out := make([]job, n)
			for i := range out {
				kind := 0
				if i%3 == 2 {
					kind = 1
				}
				out[i] = job{kind: kind, seed: nonzero(seed, uint64(i))}
			}
			return out
		},
		setUp: setUpAttack,
	})
}

type attackEnv struct {
	m      *pssp.Machine
	images []*pssp.Image // by kind
}

// setUpAttack compiles the target under both schemes and boots each once.
func setUpAttack(ctx context.Context, tr *tracer, _ string, _ uint64) (env, error) {
	e := &attackEnv{m: pssp.NewMachine()}
	for _, s := range attackSchemes {
		img, err := compileAndBoot(ctx, tr, e.m, attackTarget, s)
		if err != nil {
			return nil, err
		}
		e.images = append(e.images, img)
	}
	return e, nil
}

// compileAndBoot cold-compiles app under scheme and boots it to its accept
// point once, recording cc.compile and kernel.boot spans.
func compileAndBoot(ctx context.Context, tr *tracer, m *pssp.Machine, app string, s pssp.Scheme) (*pssp.Image, error) {
	id := tr.begin("cc.compile", -1)
	img, err := m.CompileApp(app, pssp.CompileScheme(s))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("kernel.boot", -1)
	srv, err := m.Serve(ctx, img)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	srv.Close()
	return img, nil
}

func (e *attackEnv) close() { e.m.Close() }

func (e *attackEnv) do(ctx context.Context, j job, tr *tracer, parent int32) ([]byte, int, error) {
	scheme := attackSchemes[j.kind]
	budget := attackPSSPBudget
	if scheme == pssp.SchemeSSP {
		budget = attackSSPBudget
	}
	cfg := pssp.CampaignConfig{
		Strategy:     "adaptive",
		Replications: attackReps,
		Workers:      jobWorkers,
		Seed:         j.seed,
		Attack:       pssp.AttackConfig{MaxTrials: budget},
	}
	var res *pssp.CampaignResult
	var err error
	if tr == nil {
		res, err = e.m.Campaign(ctx, e.images[j.kind], cfg)
	} else {
		res, err = campaignTriple(ctx, tr, parent, e.m, e.images[j.kind], cfg, jobWorkers)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := checkCampaign(res, scheme, attackReps, budget); err != nil {
		return nil, 0, err
	}
	rep := daemon.BuildAttackReport(attackTarget, scheme, j.seed, budget, attackReps, 0, res)
	b, err := json.Marshal(rep)
	return b, res.OracleCalls, err
}

// checkCampaign validates a campaign's outcome: every replication completes
// without oracle errors; on ssp every one succeeds and is verified against
// the victim's canary, on p-ssp none succeeds and each spends its budget.
func checkCampaign(res *pssp.CampaignResult, s pssp.Scheme, reps, budget int) error {
	switch {
	case res.Completed != reps || res.OracleErrors != 0:
		return fmt.Errorf("completed %d of %d replications, %d oracle errors", res.Completed, reps, res.OracleErrors)
	case s == pssp.SchemeSSP && res.VerifiedSuccesses != reps:
		return fmt.Errorf("ssp: %d of %d replications verified", res.VerifiedSuccesses, reps)
	case s == pssp.SchemePSSP && (res.Successes != 0 || res.Trials != reps*budget):
		return fmt.Errorf("p-ssp: %d successes, %d trials (want 0, %d)", res.Successes, res.Trials, reps*budget)
	}
	return nil
}
