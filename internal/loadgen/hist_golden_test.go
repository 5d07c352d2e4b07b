package loadgen_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// goldenSamples is a fixed sample set spanning the exact buckets, the
// octave sub-buckets and the top of the axis.
func goldenSamples() []uint64 {
	out := []uint64{1, 1, 2, 63, 64, 65, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345, ^uint64(0) >> 1}
	x := uint64(2018)
	for i := 0; i < 40; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		out = append(out, x>>(20+x%40))
	}
	return out
}

// TestHistGolden pins the bytes every histogram consumer emits for one
// sample set: a report's LatencySummary, a partial's lossless wire form,
// the registry's Series JSON and its /metrics summary lines.
func TestHistGolden(t *testing.T) {
	samples := goldenSamples()
	p := &loadgen.Partial{Classes: make([]loadgen.ClassPartial, 1)}
	reg := obs.NewRegistry()
	h := reg.Hist("golden_ns")
	for _, v := range samples {
		p.Latency.Record(v)
		p.Classes[0].Latency.Record(v)
		h.Record(v)
	}
	p.Requests = len(samples)

	wire := marshal(t, p.Latency)
	cfg := loadgen.Config{
		Mix:      []loadgen.Class{{Name: "benign", Weight: 1, Payload: []byte("GET /")}},
		Arrivals: loadgen.Arrivals{Kind: loadgen.OpenUniform, RatePerMcycle: 1},
		Requests: len(samples),
		Shards:   1,
	}
	rep, err := loadgen.MergePartials(cfg, []*loadgen.Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	summary := marshal(t, rep.Latency)
	series := marshal(t, reg.Snapshot())
	got := fmt.Sprintf("summary %s\nwire %s\nseries %s\ntext\n%s", summary, wire, series, reg.Text())
	want, err := os.ReadFile("testdata/hist_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("histogram bytes changed:\n got: %s\nwant: %s", got, want)
	}

	// The wire form is lossless: a decoded partial re-encodes to the same
	// bytes and merges to the same report.
	var back loadgen.Partial
	if err := json.Unmarshal(marshal(t, p), &back); err != nil {
		t.Fatal(err)
	}
	if w2 := marshal(t, back.Latency); string(w2) != string(wire) {
		t.Fatalf("decoded wire form %s, want %s", w2, wire)
	}
	rep2, err := loadgen.MergePartials(cfg, []*loadgen.Partial{&back})
	if err != nil {
		t.Fatal(err)
	}
	if s2 := marshal(t, rep2.Latency); string(s2) != string(summary) {
		t.Fatalf("decoded partial merged to %s, want %s", s2, summary)
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
