package pssp_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/pssp"
)

// TestCampaignDeterministicAcrossWorkerCounts is the determinism contract:
// a fixed seed must yield bit-identical aggregates whether the campaign
// runs sequentially or sharded over many workers.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	m := pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemePSSP))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	var results []*pssp.CampaignResult
	for _, workers := range []int{1, 4, 16} {
		res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
			Strategy:     "byte-by-byte",
			Replications: 6,
			Workers:      workers,
			Attack:       pssp.AttackConfig{MaxTrials: 300},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Completed != 6 {
			t.Fatalf("workers=%d: completed %d/6", workers, res.Completed)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("aggregates diverged across worker counts:\n%+v\nvs\n%+v",
				results[0], results[i])
		}
	}
	// P-SSP under a 300-trial budget: every replication must fail (byte-by-
	// byte gives up once a position exhausts all 256 values), and nearly
	// every trial is detected — only 1-in-256 lucky survivals get through.
	res := results[0]
	if res.Successes != 0 {
		t.Fatalf("byte-by-byte beat P-SSP: %+v", res)
	}
	if res.Trials == 0 || res.Trials > 6*300 {
		t.Fatalf("trials %d outside (0, %d]", res.Trials, 6*300)
	}
	if dr := res.DetectionRate(); dr < 0.9 {
		t.Fatalf("detection rate %f, want ~1 against P-SSP", dr)
	}
}

// TestCampaignSSPSuccessStatistics checks the other side: against SSP the
// byte-by-byte campaign succeeds in every replication, with per-replication
// trial counts in the paper's byte-by-byte range and varying canaries
// across replications.
func TestCampaignSSPSuccessStatistics(t *testing.T) {
	ctx := context.Background()
	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemeSSP))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Campaign(ctx, img, pssp.CampaignConfig{Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "byte-by-byte" {
		t.Fatalf("label %q", res.Label)
	}
	if res.SuccessRate() != 1 {
		t.Fatalf("success rate %f against SSP: %+v", res.SuccessRate(), res)
	}
	if res.VerifiedSuccesses != res.Successes {
		t.Fatalf("only %d/%d successes verified against the real canary", res.VerifiedSuccesses, res.Successes)
	}
	s := res.TrialsToSuccess
	if s.N != 5 || s.Min < 8 || s.Max > 2048 {
		t.Fatalf("trials-to-success %+v outside byte-by-byte range", s)
	}
	if s.Min == s.Max {
		t.Fatal("all replications cost identical trials — victims are not independent")
	}
	if res.MaxMem == 0 || res.Cycles == 0 || res.OracleCalls < res.Trials {
		t.Fatalf("aggregate missing cost accounting: %+v", res)
	}
}

// TestCampaignStrategies runs every registered strategy one replication
// each, under a small budget, asserting the label and trial accounting.
func TestCampaignStrategies(t *testing.T) {
	ctx := context.Background()
	m := pssp.NewMachine(pssp.WithSeed(11), pssp.WithScheme(pssp.SchemePSSP))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range pssp.AttackStrategies() {
		res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
			Strategy:     info.Name,
			Replications: 2,
			Attack:       pssp.AttackConfig{MaxTrials: 64},
		})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if res.Label != info.Name {
			t.Errorf("%s: label %q", info.Name, res.Label)
		}
		if res.Completed != 2 || res.Trials != 2*64 {
			t.Errorf("%s: completed %d trials %d, want 2 and 128", info.Name, res.Completed, res.Trials)
		}
		if res.Successes != 0 {
			t.Errorf("%s: succeeded against P-SSP in 64 trials", info.Name)
		}
	}
	if _, err := m.Campaign(ctx, img, pssp.CampaignConfig{Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	// The embedded AttackConfig.Strategy is honoured, aliases of the same
	// strategy agree, and genuine conflicts are rejected.
	res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
		Strategy: "bbb",
		Attack:   pssp.AttackConfig{Strategy: "byte-by-byte", MaxTrials: 16},
	})
	if err != nil || res.Label != "byte-by-byte" {
		t.Errorf("alias agreement rejected: %v, label %q", err, res.Label)
	}
	res, err = m.Campaign(ctx, img, pssp.CampaignConfig{
		Attack: pssp.AttackConfig{Strategy: "random", MaxTrials: 16},
	})
	if err != nil || res.Label != "random" {
		t.Errorf("Attack.Strategy alone ignored: %v, label %q", err, res.Label)
	}
	if _, err := m.Campaign(ctx, img, pssp.CampaignConfig{
		Strategy: "random",
		Attack:   pssp.AttackConfig{Strategy: "adaptive", MaxTrials: 16},
	}); err == nil {
		t.Error("conflicting strategies accepted")
	}
}

// TestCampaignCancellationPartialAggregates cancels a large campaign
// mid-flight and asserts the partial aggregate is well-formed.
func TestCampaignCancellationPartialAggregates(t *testing.T) {
	m := pssp.NewMachine(pssp.WithSeed(3), pssp.WithScheme(pssp.SchemePSSP))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
		Replications: 10000,
		Workers:      2,
		Attack:       pssp.AttackConfig{MaxTrials: 2048},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if res == nil {
		t.Fatal("no partial aggregate returned")
	}
	if res.Completed >= res.Requested {
		t.Fatalf("campaign of 10000 heavy replications finished in 60ms? %+v", res)
	}
	// Whatever completed must be internally consistent.
	if len(res.Outcomes) != res.Completed {
		t.Fatalf("outcomes %d vs completed %d", len(res.Outcomes), res.Completed)
	}
	for i := 1; i < len(res.Outcomes); i++ {
		if res.Outcomes[i].Rep <= res.Outcomes[i-1].Rep {
			t.Fatal("outcomes not in replication order")
		}
	}
}

// TestCampaignWithStatsMachineIsRaceFree pins the replica instrumentation
// rule: WithStats/WithTrace collectors are single-machine accumulators, so
// campaign victim replicas must not share the parent machine's collector —
// under -race a shared collector across 4 workers would be caught here.
func TestCampaignWithStatsMachineIsRaceFree(t *testing.T) {
	ctx := context.Background()
	stats := pssp.NewStats()
	m := pssp.NewMachine(pssp.WithSeed(13), pssp.WithScheme(pssp.SchemePSSP), pssp.WithStats(stats))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
		Replications: 8,
		Workers:      4,
		Attack:       pssp.AttackConfig{MaxTrials: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d/8", res.Completed)
	}
}
