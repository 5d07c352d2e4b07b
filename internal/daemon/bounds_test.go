package daemon

import (
	"context"
	"strings"
	"testing"
)

// TestJobCountBounds: a count that sizes memory or a goroutine pool above
// maxCount is a bad request on every engine method, whole or shard, before
// admission; and the daemon then serves a normal job. Unchecked, the
// client counts panic psspd in makeslice, and the others ask it for
// terabytes (shards, replications) or 1<<62 goroutines (workers).
func TestJobCountBounds(t *testing.T) {
	const huge = 1 << 62
	d := New(Config{})
	defer d.Shutdown(context.Background())
	ctx := context.Background()
	for _, c := range []struct {
		name, method string
		params       any
	}{
		{"clients", "loadtest", LoadParams{App: "nginx", Scheme: "ssp", Arrivals: "closed", Clients: huge, Requests: 1, Seed: 3}},
		{"sweep-scaled clients", "loadtest", LoadParams{App: "nginx", Scheme: "ssp", Arrivals: "closed", Clients: 8, Requests: 1, Seed: 3, Sweep: []float64{1, 1e15}}},
		{"shards", "loadtest", LoadParams{App: "nginx", Scheme: "ssp", DurationCycles: 1000, Shards: huge, Seed: 3}},
		{"workers", "loadtest", LoadParams{App: "nginx", Scheme: "ssp", Requests: 1, Workers: huge, Seed: 3}},
		{"repeats", "attack", AttackParams{Scheme: "p-ssp", Budget: 1, Repeats: huge, Seed: 3}},
		{"workers", "attack", AttackParams{Scheme: "p-ssp", Budget: 1, Workers: huge, Seed: 3}},
		{"shards", "fuzz", FuzzParams{Execs: huge, Shards: huge, Seed: 3}},
		{"workers", "fuzz", FuzzParams{Execs: 1, Workers: huge, Seed: 3}},
		{"clients", "loadshard", LoadShardParams{LoadParams: LoadParams{Arrivals: "closed", Clients: huge, Requests: 1, Seed: 3}, Lo: 0, Hi: 1}},
		{"shards", "fuzzshard", FuzzShardParams{FuzzParams: FuzzParams{Execs: huge, Shards: huge, Seed: 3}, Lo: 0, Hi: 1}},
		{"repeats", "campaignshard", CampaignShardParams{AttackParams: AttackParams{Budget: 1, Repeats: huge, Seed: 3}, Lo: 0, Hi: 1}},
	} {
		_, err := d.Do(ctx, "t0", c.method, c.params, nil)
		if err == nil || wireError(err).Code != CodeBadRequest || !strings.Contains(err.Error(), c.name+" ") {
			t.Errorf("%s with %s above the limit: err = %v, want a %s naming it", c.method, c.name, err, CodeBadRequest)
		}
	}
	st := d.Stats()
	if st.Running+st.Queued != 0 || st.Completed+st.Failed+st.Canceled != 0 {
		t.Fatalf("a rejected request was admitted: %+v", st)
	}
	for _, ts := range st.Tenants {
		if ts.Jobs != 0 || ts.CyclesUsed != 0 {
			t.Fatalf("a rejected request was charged to %s: %+v", ts.Name, ts)
		}
	}
	// At the limit a count is accepted.
	p := LoadParams{App: "nginx", Scheme: "ssp", Arrivals: "closed", Clients: maxCount, Requests: 1, Seed: 3}
	if _, err := d.Do(ctx, "t0", "loadtest", p, nil); err != nil {
		t.Fatalf("loadtest with %d clients: %v", maxCount, err)
	}
	res, err := d.Do(ctx, "t0", "attack", AttackParams{Scheme: "ssp", Budget: 2048, Seed: 3}, nil)
	if err != nil {
		t.Fatalf("normal attack after the rejections: %v", err)
	}
	if rep := res.(AttackReport); rep.Completed != 1 {
		t.Fatalf("normal attack completed %d replications, want 1", rep.Completed)
	}
}
