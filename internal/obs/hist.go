package obs

import (
	"math/bits"
	"sync/atomic"
)

// HDR-style log-bucketed value axis, shared with internal/loadgen's latency
// histograms: exact width-1 buckets below bucketExactMax, then bucketSub
// linear sub-buckets per power-of-two octave. Relative error above the
// exact range is bounded by 1/bucketSub ≈ 3%.
const (
	bucketExactMax = 64 // values below this get exact buckets
	bucketSubBits  = 5
	bucketSub      = 1 << bucketSubBits // linear sub-buckets per octave

	// NumBuckets is the fixed length of the bucket axis.
	NumBuckets = bucketExactMax + (64-6)*bucketSub

	// NumExact and SubPerOctave re-export the axis shape for consumers
	// (internal/loadgen) that reason about bucketing error bounds.
	NumExact     = bucketExactMax
	SubPerOctave = bucketSub
)

// BucketIdx maps a value to its bucket index.
func BucketIdx(v uint64) int {
	if v < bucketExactMax {
		return int(v)
	}
	k := bits.Len64(v) // v in [2^(k-1), 2^k)
	return bucketExactMax + (k-7)*bucketSub + int((v-1<<(k-1))>>(k-1-bucketSubBits))
}

// BucketMax returns the largest value mapping to bucket i — the value
// reported for any sample that landed in that bucket.
func BucketMax(i int) uint64 {
	if i < bucketExactMax {
		return uint64(i)
	}
	i -= bucketExactMax
	k := i/bucketSub + 7
	sub := uint64(i % bucketSub)
	return 1<<(k-1) + (sub+1)<<(k-1-bucketSubBits) - 1
}

// Hist is a lock-free log-bucketed histogram. Record is allocation-free
// and nil-safe — the disabled path is a single nil check.
type Hist struct {
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
	counts [NumBuckets]atomic.Uint64
}

func newHist() *Hist { return new(Hist) }

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	if h == nil {
		return
	}
	h.counts[BucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the histogram into an immutable view. The copy is not a
// consistent cut under concurrent writers (buckets are read one by one),
// which is fine for monitoring.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist.
type HistSnapshot struct {
	Count  uint64
	Sum    uint64
	Max    uint64
	Counts [NumBuckets]uint64
}

// Quantile returns the value at quantile q in [0, 1].
func (s *HistSnapshot) Quantile(q float64) uint64 {
	return Quantile(&s.Counts, s.Count, s.Max, q)
}

// Quantile is the one quantile rule, shared by the metrics registry and the
// loadgen reports so /metrics and a report agree on every percentile: the
// value at quantile q in [0, 1] of count samples bucketed in counts is the
// upper bound of the bucket holding the nearest-rank sample, clamped to the
// exact largest sample maxSample. (That bound is never below the smallest
// sample, so no lower clamp is needed.)
func Quantile(counts *[NumBuckets]uint64, count, maxSample uint64, q float64) uint64 {
	if count == 0 {
		return 0
	}
	rank := uint64(q*float64(count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return min(BucketMax(i), maxSample)
		}
	}
	return maxSample
}

// Mean returns the arithmetic mean of recorded samples.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// HistSummary is the compact JSON form of a histogram.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`
}

// Summary reduces the snapshot to its headline statistics.
func (s *HistSnapshot) Summary() HistSummary {
	return HistSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
	}
}
