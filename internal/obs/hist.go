package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync"
)

// HDR-style log-bucketed value axis: exact width-1 buckets below
// bucketExactMax, then bucketSub linear sub-buckets per power-of-two octave,
// so any value above the exact range lands in a bucket whose upper bound
// overstates it by at most 1/bucketSub (~3.1%).
const (
	bucketExactMax = 64 // values below this get exact buckets
	bucketSubBits  = 5
	bucketSub      = 1 << bucketSubBits // linear sub-buckets per octave
	numBuckets     = bucketExactMax + (64-6)*bucketSub
)

// bucketIdx maps a value to its bucket index.
func bucketIdx(v uint64) int {
	if v < bucketExactMax {
		return int(v)
	}
	k := bits.Len64(v) // v in [2^(k-1), 2^k)
	return bucketExactMax + (k-7)*bucketSub + int((v-1<<(k-1))>>(k-1-bucketSubBits))
}

// bucketMax returns the largest value mapping to bucket i — the value
// reported for any sample that landed in that bucket.
func bucketMax(i int) uint64 {
	if i < bucketExactMax {
		return uint64(i)
	}
	i -= bucketExactMax
	k := i/bucketSub + 7
	sub := uint64(i % bucketSub)
	return 1<<(k-1) + (sub+1)<<(k-1-bucketSubBits) - 1
}

// Hist is the log-bucketed histogram behind every latency figure: the
// load generator's per-shard and per-class histograms, and the registry's
// histogram series. Buckets are a fixed-size array, so Record never
// allocates and Merge is a plain element-wise sum — which is what makes
// sharded aggregation deterministic: merging per-shard histograms in shard
// order yields bit-identical counts at any worker count.
//
// The zero value is an empty histogram ready for use. Hist is not safe for
// concurrent use; each shard owns its own and merges after the workers
// drain, and the registry guards its series with a lock (see SyncHist).
type Hist struct {
	counts [numBuckets]uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	h.counts[bucketIdx(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Min returns the smallest recorded sample (0 when empty).
func (h *Hist) Min() uint64 { return h.min }

// Max returns the largest recorded sample (0 when empty).
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the exact mean of the recorded samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile is the one quantile rule, so /metrics and a report agree on
// every percentile: the value at quantile q in [0, 1] is the upper bound of
// the bucket holding the nearest-rank sample, clamped to the exact observed
// maximum, so Quantile(1) is the maximum. (That bound is never below the
// smallest sample, so no lower clamp is needed.)
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q*float64(h.count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return min(bucketMax(i), h.max)
		}
	}
	return h.max
}

// Bucket is one non-empty histogram bucket: Count samples with values at
// most Max (and above the previous bucket's Max).
type Bucket struct {
	Max   uint64 `json:"max"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Hist) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, Bucket{Max: bucketMax(i), Count: c})
		}
	}
	return out
}

// histWire is Hist's JSON form: the sparse non-zero buckets by index plus
// the exact scalar tallies. It is lossless — a decoded histogram merges
// bit-identically to the original — which a rendered summary is not (its
// mean is a rounded float and its buckets carry values, not indices). The
// distributed fabric ships per-shard histograms in this form.
type histWire struct {
	Buckets [][2]uint64 `json:"buckets,omitempty"` // [bucket index, count] pairs, ascending
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Min     uint64      `json:"min,omitempty"`
	Max     uint64      `json:"max,omitempty"`
}

// MarshalJSON encodes the histogram losslessly (see histWire).
func (h Hist) MarshalJSON() ([]byte, error) {
	w := histWire{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			w.Buckets = append(w.Buckets, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a histogram encoded by MarshalJSON.
func (h *Hist) UnmarshalJSON(b []byte) error {
	var w histWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*h = Hist{count: w.Count, sum: w.Sum, min: w.Min, max: w.Max}
	for _, bc := range w.Buckets {
		if bc[0] >= numBuckets {
			return fmt.Errorf("obs: histogram bucket index %d out of range", bc[0])
		}
		h.counts[bc[0]] += bc[1]
	}
	return nil
}

// HistSummary is the compact JSON form of a registry histogram, as served
// on /metrics and by the metrics RPC.
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

// SyncHist is the registry's histogram handle: a Hist behind a mutex.
// Record is allocation-free and nil-safe — the disabled path is a single
// nil check.
type SyncHist struct {
	mu sync.Mutex
	h  Hist
}

// Record adds one sample.
func (s *SyncHist) Record(v uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.h.Record(v)
	s.mu.Unlock()
}

// Summary reduces the histogram to its headline statistics (zero on nil).
func (s *SyncHist) Summary() HistSummary {
	if s == nil {
		return HistSummary{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &s.h
	return HistSummary{
		Count: h.count,
		Sum:   h.sum,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
	}
}
