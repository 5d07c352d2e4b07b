package loadgen

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestHistQuantiles checks a report's latency summary of 1..1000: exact
// count, min, max and mean, and quantiles that overstate by at most one
// sub-bucket of the histogram's value axis (1/32 of the value, plus one).
func TestHistQuantiles(t *testing.T) {
	var h obs.Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := summarize(&h)
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("count=%d min=%d max=%d", s.Count, s.Min, s.Max)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	for _, q := range []struct {
		name      string
		got, want uint64
	}{{"p50", s.P50, 500}, {"p90", s.P90, 900}, {"p99", s.P99, 990}, {"p999", s.P999, 999}} {
		if q.got < q.want || float64(q.got-q.want) > float64(q.want)/32+1 {
			t.Errorf("%s = %d, want within one sub-bucket above %d", q.name, q.got, q.want)
		}
	}
	if s.MeanCycles != 500.5 {
		t.Errorf("mean = %g, want 500.5 (sum is exact)", s.MeanCycles)
	}
}

// TestHistMergeMatchesRecord pins what the shard-order merge relies on:
// merging per-shard histograms equals recording every sample in one.
func TestHistMergeMatchesRecord(t *testing.T) {
	var whole, a, b obs.Hist
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
	var empty obs.Hist
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
	var h obs.Hist
	s := summarize(&h)
	if s.Count != 0 || s.P99 != 0 || s.Buckets != nil {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}
