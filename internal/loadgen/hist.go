package loadgen

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
)

// Hist is a log-bucketed latency histogram in the HDR style: exact width-1
// buckets for small values, then every power-of-two octave split into 32
// linear sub-buckets, so any recorded value lands in a bucket whose upper
// bound overstates it by at most 1/32 (~3.1%). Buckets are a fixed-size
// array, so Record never allocates and Merge is a plain element-wise sum —
// which is what makes sharded aggregation deterministic: merging per-shard
// histograms in shard order yields bit-identical counts at any worker count.
//
// The zero value is an empty histogram ready for use. Hist is not safe for
// concurrent use; each shard owns its own and the engine merges after the
// workers drain.
type Hist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// The bucket axis (exact buckets, octave splits, index math) is owned by
// internal/obs so latency reports and the metrics registry agree on bucket
// boundaries; this package keeps only the deterministic merge/serialize
// layer on top of it.
const histBuckets = obs.NumBuckets

// bucketIdx maps a value to its bucket.
func bucketIdx(v uint64) int { return obs.BucketIdx(v) }

// bucketMax returns the bucket's inclusive upper bound — the value quantiles
// report for every sample in the bucket.
func bucketMax(i int) uint64 { return obs.BucketMax(i) }

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

// Mean returns the exact mean of the recorded samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at quantile q in [0, 1] by obs.Quantile's rule:
// the upper bound of the bucket holding the nearest-rank sample, clamped to
// the exact observed maximum, so Quantile(1) is the maximum.
func (h *Hist) Quantile(q float64) uint64 {
	return obs.Quantile(&h.counts, h.count, h.max, q)
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
// bit-identically to the original — which LatencySummary is not (its mean
// is a rounded float and its buckets carry values, not indices). The
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
		if bc[0] >= histBuckets {
			return fmt.Errorf("loadgen: histogram bucket index %d out of range", bc[0])
		}
		h.counts[bc[0]] += bc[1]
	}
	return nil
}

// LatencySummary is a histogram rendered for a report: sample count, exact
// mean/min/max, the paper-style tail quantiles, and the non-empty buckets so
// consumers can recompute any other quantile.
type LatencySummary struct {
	Count      uint64   `json:"count"`
	MeanCycles float64  `json:"mean_cycles"`
	Min        uint64   `json:"min_cycles"`
	P50        uint64   `json:"p50_cycles"`
	P90        uint64   `json:"p90_cycles"`
	P99        uint64   `json:"p99_cycles"`
	P999       uint64   `json:"p999_cycles"`
	Max        uint64   `json:"max_cycles"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// Summary renders the histogram.
func (h *Hist) Summary() LatencySummary {
	return LatencySummary{
		Count:      h.count,
		MeanCycles: h.Mean(),
		Min:        h.min,
		P50:        h.Quantile(0.50),
		P90:        h.Quantile(0.90),
		P99:        h.Quantile(0.99),
		P999:       h.Quantile(0.999),
		Max:        h.max,
		Buckets:    h.Buckets(),
	}
}
