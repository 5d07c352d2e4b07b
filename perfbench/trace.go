package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer records spans (name, start, end, parent) and named counters in
// memory during a traced run; write dumps them when the run ends. A nil
// tracer records nothing, so the untraced run pays one nil check per seam.
//
// A name's first keepSpans spans are kept whole. Later ones — in practice
// only the per-request fork-server spans, which are leaves and run one
// after another inside their parent — are folded into per-name totals and
// into their parent's child time, which keeps memory bounded and self
// times exact.
//
// A serial tracer also records each span's heap allocations, read with
// runtime.ReadMemStats at both ends, and makes shard pools run one shard at
// a time; its pass runs one client, so the counts belong to the span alone.
type tracer struct {
	t0     time.Time
	serial bool

	mu        sync.Mutex
	ms        runtime.MemStats
	spans     []span
	kept      map[string]int
	folded    map[string]layerStats
	foldedSum map[int32]childSum // parent span → Σ its folded children
	counters  map[string]float64
}

// childSum totals the folded children of one span.
type childSum struct {
	ns     int64
	allocs uint64
}

const keepSpans = 50000

// span is one timed call into a layer. Times are nanoseconds since t0;
// parent is the index of the enclosing span, or -1 at the root.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// spanRef is an open span: id is its index (-1 when folded or untraced),
// the rest what end needs to fold it.
type spanRef struct {
	id      int32
	parent  int32
	name    string
	start   int64
	mallocs uint64
}

func newTracer(serial bool) *tracer {
	return &tracer{
		t0:        time.Now(),
		serial:    serial,
		kept:      make(map[string]int),
		folded:    make(map[string]layerStats),
		foldedSum: make(map[int32]childSum),
		counters:  make(map[string]float64),
	}
}

// begin opens a span under parent.
func (t *tracer) begin(name string, parent int32) spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	t.mu.Lock()
	if t.serial {
		runtime.ReadMemStats(&t.ms)
	}
	now := int64(time.Since(t.t0))
	ref := spanRef{id: -1, parent: parent, name: name, start: now, mallocs: t.ms.Mallocs}
	if t.kept[name] < keepSpans {
		t.kept[name]++
		ref.id = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	}
	t.mu.Unlock()
	return ref
}

// end closes the span and returns its duration.
func (t *tracer) end(ref spanRef) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	d := now - ref.start
	t.mu.Lock()
	var allocs uint64
	if t.serial {
		runtime.ReadMemStats(&t.ms)
		allocs = t.ms.Mallocs - ref.mallocs
	}
	if ref.id >= 0 {
		t.spans[ref.id].End = now
		t.spans[ref.id].Allocs = allocs
	} else {
		l := t.folded[ref.name]
		l.count++
		l.total += time.Duration(d)
		l.self += time.Duration(d)
		l.allocs += allocs
		l.selfAllocs += int64(allocs)
		t.folded[ref.name] = l
		if ref.parent >= 0 {
			c := t.foldedSum[ref.parent]
			c.ns += d
			c.allocs += allocs
			t.foldedSum[ref.parent] = c
		}
	}
	t.mu.Unlock()
	return time.Duration(d)
}

// add accumulates a named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// layerStats summarizes every span of one name.
type layerStats struct {
	count int
	total time.Duration // Σ span durations
	self  time.Duration // Σ (span minus the union of its children)
	// Serial tracers only: Σ span allocations, and Σ span allocations
	// minus its children's.
	allocs     uint64
	selfAllocs int64
}

func (l layerStats) meanUS() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / 1e3 / float64(l.count)
}

func (l layerStats) meanMS() float64 { return l.meanUS() / 1e3 }

func (l layerStats) selfMeanUS() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / 1e3 / float64(l.count)
}

func (l layerStats) meanAllocs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.allocs) / float64(l.count)
}

func (l layerStats) selfMeanAllocs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.selfAllocs) / float64(l.count)
}

// layers folds the recorded spans by name. Self time subtracts the union
// of a span's kept children, so concurrent children (shards under a job)
// are not double-counted, and the sum of its folded ones. Self allocations
// subtract every child's, which a serial tracer runs one at a time.
func (t *tracer) layers() map[string]layerStats {
	out := make(map[string]layerStats)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	childAllocs := make(map[int32]uint64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			childAllocs[s.Parent] += s.Allocs
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		l := out[s.Name]
		l.count++
		l.total += time.Duration(d)
		f := t.foldedSum[int32(i)]
		l.self += time.Duration(d - covered(children[int32(i)]) - f.ns)
		l.allocs += s.Allocs
		l.selfAllocs += int64(s.Allocs) - int64(childAllocs[int32(i)]+f.allocs)
		out[s.Name] = l
	}
	for name, f := range t.folded {
		l := out[name]
		l.count += f.count
		l.total += f.total
		l.self += f.self
		l.allocs += f.allocs
		l.selfAllocs += f.selfAllocs
		out[name] = l
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return sum + hi - lo
}

// write dumps every kept span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
