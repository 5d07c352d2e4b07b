package pssp_test

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"testing"

	"repro/pssp"
)

// Native fuzz targets for the three partial merges. A lease partial
// crosses a trust boundary: it arrives from a worker as JSON bytes, and the
// coordinator decodes and merges it. Each target decodes arbitrary bytes as
// a partial list and merges them into a real plan, checking:
//
//  1. the merge never panics (malformed shapes are typed errors);
//  2. a list whose slot keys are distinct merges to byte-identical report
//     JSON under any reordering and duplication of its partials — the
//     property a re-issued or late lease relies on.
//
// The seed corpus holds real partials from small runs. CI runs each target
// for a fixed -fuzztime; plain `go test` runs the seeds only.

// fuzzSplits is the range split the seed partials are produced over.
var fuzzSplits = [][2]int{{0, 1}, {1, 3}, {3, 4}}

// reorder returns parts shuffled by k, with two of them repeated.
func reorder[T any](parts []*T, k uint64) []*T {
	out := append([]*T(nil), parts...)
	if n := uint64(len(parts)); n > 0 {
		out = append(out, parts[k%n], parts[(k>>8)%n])
	}
	rand.New(rand.NewPCG(k, k>>32)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// distinct reports whether no key repeats.
func distinct(keys []int) bool {
	seen := make(map[int]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// mustJSON encodes a merged report; an unencodable report is a finding.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("merged report does not encode: %v", err)
	}
	return string(b)
}

// seedPartials adds parts, JSON-encoded as a worker ships them, to f's
// corpus under two reorder keys.
func seedPartials(f *testing.F, parts any) {
	b, err := json.Marshal(parts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b, uint64(0))
	f.Add(b, uint64(0x9e3779b97f4a7c15))
}

// fuzzMachine compiles app for a fuzz target's seed runs.
func fuzzMachine(f *testing.F, app string) (*pssp.Machine, *pssp.Image) {
	m := pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemeSSP))
	img, err := m.CompileApp(app)
	if err != nil {
		f.Fatal(err)
	}
	return m, img
}

func FuzzMergeCampaignPartials(f *testing.F) {
	ctx := context.Background()
	m, img := fuzzMachine(f, "nginx-vuln")
	cfg := pssp.CampaignConfig{Strategy: "byte-by-byte", Replications: 4, Seed: 2018, Attack: pssp.AttackConfig{MaxTrials: 64}}
	plan, err := m.CampaignPlan(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var parts []*pssp.CampaignPartial
	for _, r := range fuzzSplits {
		p, err := m.CampaignShards(ctx, img, cfg, r[0], r[1])
		if err != nil {
			f.Fatal(err)
		}
		parts = append(parts, p)
	}
	seedPartials(f, parts)
	// report renders an aggregate with its first oracle error's text (the
	// error value itself does not encode).
	report := func(t *testing.T, agg *pssp.CampaignResult) string {
		msg := ""
		if agg.OracleErr != nil {
			msg = agg.OracleErr.Error()
		}
		return mustJSON(t, agg) + msg
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint64) {
		var parts []*pssp.CampaignPartial
		if json.Unmarshal(data, &parts) != nil {
			return
		}
		want := report(t, pssp.MergeCampaignPartials(plan, parts))
		var outs, infra []int
		for _, p := range parts {
			if p == nil {
				continue
			}
			for _, o := range p.Outcomes {
				outs = append(outs, o.Rep)
			}
			for _, ie := range p.Infra {
				infra = append(infra, ie.Rep)
			}
		}
		if !distinct(outs) || !distinct(infra) {
			return
		}
		if got := report(t, pssp.MergeCampaignPartials(plan, reorder(parts, k))); got != want {
			t.Fatalf("reordered merge differs:\n got %s\nwant %s", got, want)
		}
	})
}

func FuzzMergeLoadPartials(f *testing.F) {
	ctx := context.Background()
	m, img := fuzzMachine(f, "nginx-vuln")
	cfg := pssp.WorkloadConfig{
		Mix:      []pssp.RequestClass{{Name: "benign", Weight: 3}, {Probe: "adaptive"}},
		Arrivals: pssp.ArrivalsClosedLoop, Clients: 4, Requests: 32, Shards: 4, Seed: 2018,
	}
	plan, err := m.LoadPlan(img, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var parts []*pssp.LoadPartial
	for _, r := range fuzzSplits {
		ps, err := m.LoadShards(ctx, img, cfg, r[0], r[1])
		if err != nil {
			f.Fatal(err)
		}
		parts = append(parts, ps...)
	}
	seedPartials(f, parts)
	short := *parts[0]
	short.Classes = short.Classes[:1]
	seedPartials(f, []*pssp.LoadPartial{&short})
	f.Fuzz(func(t *testing.T, data []byte, k uint64) {
		var parts []*pssp.LoadPartial
		if json.Unmarshal(data, &parts) != nil {
			return
		}
		rep, err := pssp.MergeLoadPartials(plan, parts)
		if err != nil {
			return
		}
		want := mustJSON(t, rep)
		var shards []int
		for _, p := range parts {
			if p != nil {
				shards = append(shards, p.Shard)
			}
		}
		if !distinct(shards) {
			return
		}
		again, err := pssp.MergeLoadPartials(plan, reorder(parts, k))
		if err != nil {
			t.Fatalf("reordered merge failed: %v", err)
		}
		if got := mustJSON(t, again); got != want {
			t.Fatalf("reordered merge differs:\n got %s\nwant %s", got, want)
		}
	})
}

func FuzzMergeFuzzPartials(f *testing.F) {
	ctx := context.Background()
	m, img := fuzzMachine(f, "nginx-vuln")
	cfg := pssp.FuzzConfig{Execs: 64, Shards: 4, Seed: 2018}
	plan, err := m.FuzzPlan(img, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var parts []*pssp.FuzzPartial
	for _, r := range fuzzSplits {
		ps, err := m.FuzzShards(ctx, img, cfg, r[0], r[1])
		if err != nil {
			f.Fatal(err)
		}
		parts = append(parts, ps...)
	}
	seedPartials(f, parts)
	// A malformed seed: shard 0's first two coverage cells swapped, so its
	// cells are out of order.
	swapped := *parts[0]
	c := swapped.Virgin
	swapped.Virgin = append(append(append(pssp.FuzzCells(nil), c[3:6]...), c[:3]...), c[6:]...)
	seedPartials(f, []*pssp.FuzzPartial{&swapped})
	f.Fuzz(func(t *testing.T, data []byte, k uint64) {
		var parts []*pssp.FuzzPartial
		if json.Unmarshal(data, &parts) != nil {
			return
		}
		rep, err := pssp.MergeFuzzPartials(plan, parts)
		if err != nil {
			return
		}
		want := mustJSON(t, rep)
		var shards []int
		for _, p := range parts {
			if p != nil {
				shards = append(shards, p.Shard)
			}
		}
		if !distinct(shards) {
			return
		}
		again, err := pssp.MergeFuzzPartials(plan, reorder(parts, k))
		if err != nil {
			t.Fatalf("reordered merge failed: %v", err)
		}
		if got := mustJSON(t, again); got != want {
			t.Fatalf("reordered merge differs:\n got %s\nwant %s", got, want)
		}
	})
}
