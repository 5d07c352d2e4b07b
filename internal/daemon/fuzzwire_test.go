package daemon

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/vm"
	"repro/pssp"
)

// maxFuzzLeaseBytes bounds one encoded fuzz lease result or lease params.
// A partial's coverage is its cells, about 140 for nginx-vuln; a dense
// 64 KiB map is 87 KB of base64 and fails by name.
const maxFuzzLeaseBytes = 4 << 10

// TestFuzzLeaseWireSize: the fabric benchmark workload's fuzz lease —
// nginx-vuln under ssp, 512 execs over 4 shards, one shard per range —
// encodes its FuzzShardResult in at most 4 KiB, and so does a lease's
// params carrying the merged frontier as its base (the -corpus and
// -until-stall rounds).
func TestFuzzLeaseWireSize(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		p := FuzzParams{App: "nginx-vuln", Scheme: "ssp", Execs: 512, Shards: 4, Workers: 1, Seed: seed}
		var results []FuzzShardResult
		for lo := 0; lo < p.Shards; lo++ {
			res, err := d.Do(ctx, "t", "fuzzshard", FuzzShardParams{FuzzParams: p, Lo: lo, Hi: lo + 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d shard %d: lease result %d bytes", seed, lo, len(b))
			if len(b) > maxFuzzLeaseBytes {
				t.Errorf("seed %d shard %d: lease result is %d bytes, want <= %d", seed, lo, len(b), maxFuzzLeaseBytes)
			}
			results = append(results, res.(FuzzShardResult))
		}
		m := pssp.NewMachine(pssp.WithScheme(pssp.SchemeSSP))
		img, err := m.CompileApp(p.App)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := PlanFuzz(m, img, FuzzShardParams{FuzzParams: p})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := pl.Merge(results)
		if err != nil {
			t.Fatal(err)
		}
		base := pssp.FuzzCellsOf(rep.Frontier())
		if base.Len() != rep.Edges {
			t.Fatalf("seed %d: base frontier lists %d cells, report has %d edges", seed, base.Len(), rep.Edges)
		}
		sp := pl.Range(0, 1)
		sp.BaseVirgin = base
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: lease params with a %d-cell base frontier %d bytes", seed, base.Len(), len(b))
		if len(b) > maxFuzzLeaseBytes {
			t.Errorf("seed %d: lease params with a base frontier are %d bytes, want <= %d", seed, len(b), maxFuzzLeaseBytes)
		}
	}
}

// TestFuzzLeaseRejectsDenseBase: a lease's base frontier crosses a trust
// boundary in the sparse codec; a dense 64 KiB map (an older coordinator)
// or unordered cells are a bad request, not a silently empty base.
func TestFuzzLeaseRejectsDenseBase(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	p := FuzzParams{Scheme: "ssp", Execs: 16, Shards: 1, Workers: 1, Seed: 5}
	for name, base := range map[string]pssp.FuzzCells{
		"dense map":       make(pssp.FuzzCells, vm.CovMapSize),
		"unordered cells": {0, 5, 1, 0, 4, 1},
	} {
		_, err := d.Do(context.Background(), "t", "fuzzshard", FuzzShardParams{FuzzParams: p, Lo: 0, Hi: 1, BaseVirgin: base}, nil)
		if err == nil || wireError(err).Code != CodeBadRequest {
			t.Errorf("%s: err = %v, want %s", name, err, CodeBadRequest)
		}
	}
}

// TestFuzzShardHugeMaxInput: max_input comes from the client unbounded, and
// the mutator sizes nothing from it, so a shard with a cap near the int
// range runs to its budget instead of overflowing a make or exhausting
// memory before its first exec.
func TestFuzzShardHugeMaxInput(t *testing.T) {
	d := New(Config{})
	defer d.Shutdown(context.Background())
	for _, max := range []int{1 << 62, math.MaxInt} {
		p := FuzzParams{App: "nginx-vuln", Scheme: "ssp", Execs: 64, Shards: 1, Workers: 1, Seed: 3, MaxInput: max}
		res, err := d.Do(context.Background(), "t", "fuzzshard", FuzzShardParams{FuzzParams: p, Lo: 0, Hi: 1}, nil)
		if err != nil {
			t.Fatalf("max_input %d: %v", max, err)
		}
		if parts := res.(FuzzShardResult).Partials; len(parts) != 1 || parts[0].MutationExecs != 64 {
			t.Fatalf("max_input %d: partials = %+v, want one shard of 64 mutation execs", max, parts)
		}
	}
}
