package pssp_test

import (
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
// The seed corpus holds real partials from small runs, checked in under
// testdata/fuzz/<Target>/ so a target's set-up builds only its plan and
// starts fuzzing at once; TestMergeSeedCorpus regenerates those partials
// and pins the files to them. CI runs each target for a fixed -fuzztime;
// plain `go test` runs the seeds only.

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

// The scenarios the seed partials come from. Each target merges into the
// plan of its scenario.
var (
	seedCampaign = pssp.CampaignConfig{Strategy: "byte-by-byte", Replications: 4, Seed: 2018, Attack: pssp.AttackConfig{MaxTrials: 64}}
	seedLoad     = pssp.WorkloadConfig{
		Mix:      []pssp.RequestClass{{Name: "benign", Weight: 3}, {Probe: "adaptive"}},
		Arrivals: pssp.ArrivalsClosedLoop, Clients: 4, Requests: 32, Shards: 4, Seed: 2018,
	}
	seedFuzz = pssp.FuzzConfig{Execs: 64, Shards: 4, Seed: 2018}
)

// seedMachine is the machine every seed scenario is planned and run on.
func seedMachine() *pssp.Machine {
	return pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemeSSP))
}

// seedImage compiles nginx-vuln, the victim of every seed scenario.
func seedImage(tb testing.TB, m *pssp.Machine) *pssp.Image {
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func FuzzMergeCampaignPartials(f *testing.F) {
	plan, err := seedMachine().CampaignPlan(seedCampaign)
	if err != nil {
		f.Fatal(err)
	}
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
	m := seedMachine()
	plan, err := m.LoadPlan(seedImage(f, m), seedLoad)
	if err != nil {
		f.Fatal(err)
	}
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
	m := seedMachine()
	plan, err := m.FuzzPlan(seedImage(f, m), seedFuzz)
	if err != nil {
		f.Fatal(err)
	}
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
