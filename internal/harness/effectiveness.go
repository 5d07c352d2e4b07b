package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/pssp"
)

// Effectiveness reproduces the paper's §VI-C attack experiment as a
// Monte-Carlo campaign: cfg.AttackReps independent replications of the
// byte-by-byte attack against the Nginx and Ali server analogs compiled
// with SSP and with P-SSP, each replication on a freshly derived victim
// machine, sharded across cfg.Workers concurrent oracles. The paper reports
// the attack succeeds on the SSP builds and fails on the P-SSP builds; the
// campaign turns that into measured rates with trials-to-success order
// statistics.
func Effectiveness(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ctx := context.Background()
	t := &Table{
		Title: "§VI-C: Byte-by-byte attack-campaign effectiveness (measured)",
		Header: []string{
			"server", "scheme", "success rate", "verified", "trials-to-success (med)",
			"detection rate", "replications",
		},
		Notes: []string{
			"paper: attacks succeed on SSP-compiled Nginx/Ali, fail on P-SSP builds",
			fmt.Sprintf("trial budget %d per replication; SSP expectation ~1024 trials", cfg.AttackBudget),
			fmt.Sprintf("%d replications per cell; aggregates are seed-deterministic at any worker count", cfg.AttackReps),
			"verified = recovered canary matches the victim's TLS canary (rules out lucky-survival false successes)",
		},
	}
	for _, app := range apps.VulnServers() {
		for _, scheme := range []core.Scheme{core.SchemeSSP, core.SchemePSSP} {
			m := cfg.machine(
				pssp.WithSeed(cfg.Seed+uint64(len(t.Rows))),
				pssp.WithScheme(scheme),
				pssp.WithAttackBudget(cfg.AttackBudget),
			)
			img, err := m.Compile(app.Prog)
			if err != nil {
				return nil, err
			}
			res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
				Replications: cfg.AttackReps,
				Workers:      cfg.Workers,
				Attack:       pssp.AttackConfig{BufLen: apps.VulnServerBufSize},
			})
			if err != nil {
				return nil, fmt.Errorf("effectiveness: %s/%v: %w", app.Name, scheme, err)
			}

			// Trials cell: median trials-to-success where the attack won,
			// mean trials spent per failed replication otherwise.
			trialsVal := float64(res.Trials) / float64(res.Completed)
			trialsCell := fmt.Sprintf("- (%.0f spent)", trialsVal)
			if res.Successes > 0 {
				trialsVal = res.TrialsToSuccess.Median
				trialsCell = fmt.Sprintf("%.0f", trialsVal)
			}
			verifiedCell := "-"
			if res.Successes > 0 {
				verifiedCell = fmt.Sprintf("%d/%d", res.VerifiedSuccesses, res.Successes)
			}
			t.Rows = append(t.Rows, []string{
				app.Name, scheme.String(),
				fmt.Sprintf("%d/%d", res.Successes, res.Completed),
				verifiedCell,
				trialsCell,
				fmt.Sprintf("%.3f", res.DetectionRate()),
				fmt.Sprintf("%d", res.Completed),
			})
			key := app.Name + "/" + scheme.String()
			t.set(key+"/success", res.SuccessRate())
			t.set(key+"/verified", float64(res.VerifiedSuccesses))
			t.set(key+"/trials", trialsVal)
			t.set(key+"/detection", res.DetectionRate())
			t.set(key+"/replications", float64(res.Completed))
		}
	}
	return t, nil
}
