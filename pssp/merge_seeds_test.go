package pssp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/pssp"
)

// seedSplits is the range split the seed partials are produced over.
var seedSplits = [][2]int{{0, 1}, {1, 3}, {3, 4}}

// seedKeys are the reorder keys each seed list is added under.
var seedKeys = []uint64{0, 0x9e3779b97f4a7c15}

// campaignSeeds runs seedCampaign's replications over seedSplits.
func campaignSeeds(t *testing.T) []any {
	m := seedMachine()
	img := seedImage(t, m)
	var parts []*pssp.CampaignPartial
	for _, r := range seedSplits {
		p, err := m.CampaignShards(context.Background(), img, seedCampaign, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	return []any{parts}
}

// loadSeeds runs seedLoad's shards over seedSplits, plus shard 0's partial
// cut to one class (a shape the merge must reject).
func loadSeeds(t *testing.T) []any {
	m := seedMachine()
	img := seedImage(t, m)
	var parts []*pssp.LoadPartial
	for _, r := range seedSplits {
		ps, err := m.LoadShards(context.Background(), img, seedLoad, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps...)
	}
	short := *parts[0]
	short.Classes = short.Classes[:1]
	return []any{parts, []*pssp.LoadPartial{&short}}
}

// fuzzSeeds runs seedFuzz's shards over seedSplits, plus a malformed seed:
// shard 0's first two coverage cells swapped, so its cells are out of
// order.
func fuzzSeeds(t *testing.T) []any {
	m := seedMachine()
	img := seedImage(t, m)
	var parts []*pssp.FuzzPartial
	for _, r := range seedSplits {
		ps, err := m.FuzzShards(context.Background(), img, seedFuzz, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps...)
	}
	swapped := *parts[0]
	c := swapped.Virgin
	swapped.Virgin = append(append(append(pssp.FuzzCells(nil), c[3:6]...), c[:3]...), c[6:]...)
	return []any{parts, []*pssp.FuzzPartial{&swapped}}
}

// TestMergeSeedCorpus regenerates each merge fuzz target's seed partials
// from their runs and checks that testdata/fuzz/<Target>/ holds each of
// them: one corpus file per partial list and reorder key, with the list
// JSON-encoded as a worker ships it. The files are numbered seed#N in
// that order, the names `go test` gives seeds added in the fuzz function,
// so each seed keeps its subtest name. A stale or missing seed fails, and
// the failure prints the file the runs give; other files in the directory,
// such as failing inputs a fuzz run saved, are regression cases and left
// alone.
func TestMergeSeedCorpus(t *testing.T) {
	for target, gen := range map[string]func(*testing.T) []any{
		"FuzzMergeCampaignPartials": campaignSeeds,
		"FuzzMergeLoadPartials":     loadSeeds,
		"FuzzMergeFuzzPartials":     fuzzSeeds,
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		n := 0
		for _, parts := range gen(t) {
			data, err := json.Marshal(parts)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range seedKeys {
				name := fmt.Sprintf("seed#%d", n)
				n++
				file := fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\nuint64(%d)\n", data, k)
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil || !bytes.Equal(got, file) {
					t.Errorf("%s/%s is stale or missing (%v); the runs give:\n%s", dir, name, err, file)
				}
			}
		}
	}
}
