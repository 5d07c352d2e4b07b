package obs

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs_total") != c {
		t.Fatal("counter lookup not idempotent")
	}
	g := r.Gauge("queue_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Hist("x")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Record(9)
	if c.Load() != 0 || g.Load() != 0 || h.Summary().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.Text() != "" || r.Snapshot() != nil {
		t.Fatal("nil registry must render empty")
	}
	var rec *Recorder
	tr := rec.Begin(1, "x")
	tr.Event("e", 0, "")
	if _, ok := rec.Dump(1); ok {
		t.Fatal("nil recorder must not dump")
	}
	if TraceFrom(t.Context()) != nil {
		t.Fatal("TraceFrom on bare context must be nil")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's reported max must map back into that bucket, and
	// indices must be monotone in the value.
	for i := 0; i < numBuckets; i++ {
		if got := bucketIdx(bucketMax(i)); got != i {
			t.Fatalf("bucketIdx(bucketMax(%d)) = %d", i, got)
		}
	}
	rng := rand.New(rand.NewSource(1))
	prev := 0
	for v := uint64(0); v < 4096; v++ {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d", v)
		}
		prev = idx
		if bucketMax(idx) < v {
			t.Fatalf("bucketMax(%d) = %d below value %d", idx, bucketMax(idx), v)
		}
	}
	for i := 0; i < 10000; i++ {
		v := rng.Uint64()
		idx := bucketIdx(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		if bucketMax(idx) < v {
			t.Fatalf("bucketMax(bucketIdx(%d)) = %d too small", v, bucketMax(idx))
		}
	}
}

func TestBucketRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	check := func(v uint64) {
		i := bucketIdx(v)
		hi := bucketMax(i)
		if v > hi {
			t.Fatalf("value %d above its bucket upper bound %d (bucket %d)", v, hi, i)
		}
		if i > 0 && bucketMax(i-1) >= v {
			t.Fatalf("value %d not above previous bucket bound %d (bucket %d)", v, bucketMax(i-1), i)
		}
		// Relative error of the reported bound is at most one sub-bucket.
		if v >= bucketExactMax && float64(hi-v) > float64(v)/bucketSub+1 {
			t.Fatalf("value %d: bound %d overstates by %d (> %d)", v, hi, hi-v, v/bucketSub+1)
		}
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(r.Uint64() >> uint(r.Intn(64)))
	}
	check(^uint64(0))
}

// TestHistQuantiles checks the quantile rule on a plain histogram and the
// same samples' summary through a registry handle.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	sh := NewRegistry().Hist("lat")
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
		sh.Record(v)
	}
	if h.Count() != 1000 || h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	// Log-bucketed: quantiles may overstate by at most one sub-bucket.
	for _, q := range []struct {
		q    float64
		want uint64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}} {
		got := h.Quantile(q.q)
		if got < q.want || float64(got-q.want) > float64(q.want)/bucketSub+1 {
			t.Errorf("p%g = %d, want within one sub-bucket above %d", q.q*100, got, q.want)
		}
	}
	if m := h.Mean(); m != 500.5 {
		t.Errorf("mean = %g, want 500.5 (sum is exact)", m)
	}
	want := HistSummary{Count: 1000, Sum: 500500, Mean: 500.5, P50: h.Quantile(0.5), P90: h.Quantile(0.9),
		P99: h.Quantile(0.99), P999: h.Quantile(0.999), Max: 1000}
	if got := sh.Summary(); got != want {
		t.Fatalf("registry summary = %+v, want %+v", got, want)
	}
}

func TestHistConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("lat")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				h.Record(i)
			}
		}()
	}
	wg.Wait()
	if got := h.Summary().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_total"); got != "x_total" {
		t.Fatalf("got %q", got)
	}
	if got := Label("x_total", "tenant", "a", "kind", "fuzz"); got != `x_total{tenant="a",kind="fuzz"}` {
		t.Fatalf("got %q", got)
	}
	if got := Label("x", "k", `a"b`); got != `x{k="a\"b"}` {
		t.Fatalf("got %q", got)
	}
}

func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("daemon_jobs_total").Add(3)
	r.Counter(Label("daemon_jobs_total", "tenant", "a")).Add(2)
	r.Gauge("daemon_queue_depth").Set(1)
	r.Hist("pool_wait_cycles").Record(100)
	r.Collect(func(emit func(string, float64)) {
		emit("store_hits_total", 9)
	})
	snap := r.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
		t.Fatal("snapshot not sorted")
	}
	names := make(map[string]string)
	for _, s := range snap {
		names[s.Name] = s.Kind
	}
	for name, kind := range map[string]string{
		"daemon_jobs_total":             "counter",
		`daemon_jobs_total{tenant="a"}`: "counter",
		"daemon_queue_depth":            "gauge",
		"pool_wait_cycles":              "hist",
		"store_hits_total":              "collected",
	} {
		if names[name] != kind {
			t.Fatalf("series %q kind = %q, want %q (have %v)", name, names[name], kind, names)
		}
	}
	text := r.Text()
	for _, want := range []string{
		"# TYPE daemon_jobs_total counter\n",
		"daemon_jobs_total 3\n",
		`daemon_jobs_total{tenant="a"} 2` + "\n",
		"# TYPE daemon_queue_depth gauge\ndaemon_queue_depth 1\n",
		"# TYPE pool_wait_cycles summary\n",
		`pool_wait_cycles{quantile="0.99"}`,
		"pool_wait_cycles_count 1\n",
		"store_hits_total 9\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// TYPE emitted once per base name even with labeled variants.
	if strings.Count(text, "# TYPE daemon_jobs_total ") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", text)
	}
}

func TestRecorderRingAndEviction(t *testing.T) {
	rec := NewRecorder(2, 4)
	tr := rec.Begin(1, "campaign")
	if rec.Begin(1, "campaign") != tr {
		t.Fatal("Begin not idempotent per job")
	}
	for i := 0; i < 6; i++ {
		tr.Event("step", uint64(i*100), "")
	}
	d, ok := rec.Dump(1)
	if !ok {
		t.Fatal("trace missing")
	}
	if d.Dropped != 2 || len(d.Events) != 4 {
		t.Fatalf("dropped=%d events=%d, want 2/4", d.Dropped, len(d.Events))
	}
	for i, e := range d.Events {
		if e.Seq != uint64(i+2) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+2)
		}
	}
	if d.Events[0].VCycles != 200 {
		t.Fatalf("vcycles = %d, want 200", d.Events[0].VCycles)
	}
	// Third job evicts the oldest trace.
	rec.Begin(2, "fuzz")
	rec.Begin(3, "loadtest")
	if _, ok := rec.Dump(1); ok {
		t.Fatal("job 1 should be evicted")
	}
	dumps := rec.Dumps()
	if len(dumps) != 2 || dumps[0].Job != 2 || dumps[1].Job != 3 {
		t.Fatalf("dumps = %+v", dumps)
	}
}

func TestContextTrace(t *testing.T) {
	rec := NewRecorder(4, 8)
	tr := rec.Begin(7, "attack")
	ctx := ContextWithTrace(t.Context(), tr)
	TraceFrom(ctx).Event("boot", 42, "403.gcc")
	d, _ := rec.Dump(7)
	if len(d.Events) != 1 || d.Events[0].Name != "boot" || d.Events[0].VCycles != 42 {
		t.Fatalf("dump = %+v", d)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("daemon_jobs_total").Inc()
	rec := NewRecorder(4, 8)
	rec.Begin(3, "fuzz").Event("round", 10, "")
	srv := httptest.NewServer(Handler(r, rec))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "daemon_jobs_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	code, body := get("/traces?job=3")
	if code != 200 {
		t.Fatalf("/traces?job=3: %d", code)
	}
	var d TraceDump
	if err := json.Unmarshal([]byte(body), &d); err != nil || d.Job != 3 || len(d.Events) != 1 {
		t.Fatalf("trace dump %q: %v", body, err)
	}
	if code, _ := get("/traces?job=99"); code != 404 {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	code, body = get("/traces")
	var all []TraceDump
	if code != 200 || json.Unmarshal([]byte(body), &all) != nil || len(all) != 1 {
		t.Fatalf("/traces: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline: %d", code)
	}
}

// TestHotPathsAllocationFree is the registry half of the PR's zero-alloc
// contract: enabled or disabled, the record operations must not allocate.
func TestHotPathsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Hist("h")
	rec := NewRecorder(2, 8)
	tr := rec.Begin(1, "bench")
	var nilC *Counter
	var nilH *SyncHist
	var nilT *Trace
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Inc() }},
		{"gauge", func() { g.Add(1) }},
		{"hist", func() { h.Record(12345) }},
		{"trace", func() { tr.Event("ev", 1, "") }},
		{"nil-counter", func() { nilC.Inc() }},
		{"nil-hist", func() { nilH.Record(1) }},
		{"nil-trace", func() { nilT.Event("ev", 1, "") }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
