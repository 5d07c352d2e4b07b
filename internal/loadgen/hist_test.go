package loadgen

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

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
		if v >= uint64(obs.NumExact) && float64(hi-v) > float64(v)/float64(obs.SubPerOctave)+1 {
			t.Fatalf("value %d: bound %d overstates by %d (> %d)", v, hi, hi-v, v/obs.SubPerOctave+1)
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

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d, want 1000", h.Count())
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
		if got < q.want || float64(got-q.want) > float64(q.want)/obs.SubPerOctave+1 {
			t.Errorf("p%g = %d, want within one sub-bucket above %d", q.q*100, got, q.want)
		}
	}
	if m := h.Mean(); m != 500.5 {
		t.Errorf("mean = %g, want 500.5 (sum is exact)", m)
	}
}

func TestHistMergeMatchesRecord(t *testing.T) {
	var whole, a, b Hist
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		v := uint64(r.Intn(1 << 20))
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatal("merged histogram differs from direct recording")
	}
	var empty Hist
	a.Merge(&empty)
	if a != whole {
		t.Fatal("merging an empty histogram changed the result")
	}
	empty.Merge(&whole)
	if empty != whole {
		t.Fatal("merging into an empty histogram lost samples")
	}
}

func TestHistSummaryEmpty(t *testing.T) {
	var h Hist
	s := h.Summary()
	if s.Count != 0 || s.P99 != 0 || s.Buckets != nil {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

// TestMetricsAndReportQuantilesAgree feeds the same samples to a metrics
// histogram and a report histogram: /metrics and a report must give the
// same p50, p90, p99 and p999. The small sample counts are where a floor
// rank and a nearest rank part ways.
func TestMetricsAndReportQuantilesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 10, 100, 1000, 5000} {
		met := obs.NewRegistry().Hist("latency")
		var rep Hist
		for i := 0; i < n; i++ {
			v := r.Uint64() >> uint(40+r.Intn(24))
			met.Record(v)
			rep.Record(v)
		}
		snap := met.Snapshot()
		got, want := snap.Summary(), rep.Summary()
		if got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 || got.P999 != want.P999 {
			t.Errorf("n=%d: metrics p50/p90/p99/p999 = %d/%d/%d/%d, report %d/%d/%d/%d", n,
				got.P50, got.P90, got.P99, got.P999, want.P50, want.P90, want.P99, want.P999)
		}
	}
}
