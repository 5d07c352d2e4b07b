// Package obs is the dependency-free observability core of the serving
// stack: an allocation-free metrics registry (atomic counters and gauges,
// lock-guarded histograms), a bounded per-job flight recorder of structured
// span events, and an HTTP exposition endpoint (Prometheus text format,
// net/http/pprof, JSON trace dumps). Hist, the log-bucketed histogram with
// the one quantile rule, is also the load generator's latency histogram, so
// /metrics and a load report bucket and rank samples the same way.
//
// The discipline mirrors vm.CovMap: an instrumented hot path pays exactly
// one nil (or atomic-pointer) check when observability is off, and
// recording never allocates — counters and gauges are atomics, a histogram
// is a fixed-size bucket array, and trace events land in preallocated ring
// slots. Observability is a pure read side: nothing in this package feeds
// back into any engine, so every campaign/loadtest/fuzz report stays
// byte-identical with metrics on or off (enforced by
// TestReportsByteIdenticalWithMetrics in internal/daemon).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe: a component holding a nil *Counter pays one nil check and
// records nothing — the disabled hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. All methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named-metric table. Lookups are get-or-create and
// idempotent, so independent components may claim the same series; the
// returned handles are shared. A nil *Registry hands out nil handles,
// which record nothing — callers never need their own guard.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*SyncHist
	collectors []func(emit func(name string, value float64))
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*SyncHist),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *SyncHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(SyncHist)
		r.hists[name] = h
	}
	return h
}

// Collect registers a scrape-time collector: fn runs at every exposition
// and emits point-in-time series from external state (a store's counters, a
// pool's occupancy) without threading handles into that state's hot path.
func (r *Registry) Collect(fn func(emit func(name string, value float64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Label renders a labeled series name in canonical Prometheus form:
// Label("x_total", "tenant", "a") == `x_total{tenant="a"}`. kvs alternates
// key, value; values are quote-escaped. Labeled lookups allocate (they
// build a string), so cache the handle outside hot paths.
func Label(name string, kvs ...string) string {
	if len(kvs) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kvs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kvs[i])
		b.WriteString(`="`)
		v := kvs[i+1]
		if strings.ContainsAny(v, `"\`+"\n") {
			v = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
		}
		b.WriteString(v)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Series is one metric in a Snapshot: a scalar value for counters, gauges
// and collected series, a summary for histograms.
type Series struct {
	Name  string       `json:"name"`
	Kind  string       `json:"kind"` // counter | gauge | hist | collected
	Value float64      `json:"value,omitempty"`
	Hist  *HistSummary `json:"hist,omitempty"`
}

// Snapshot renders every registered series (and collector output), sorted
// by name — the dashboard and control-API form of the registry.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Series, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Series{Name: name, Kind: "counter", Value: float64(c.Load())})
	}
	for name, g := range r.gauges {
		out = append(out, Series{Name: name, Kind: "gauge", Value: float64(g.Load())})
	}
	for name, h := range r.hists {
		s := h.Summary()
		out = append(out, Series{Name: name, Kind: "hist", Hist: &s})
	}
	collectors := r.collectors
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(func(name string, value float64) {
			out = append(out, Series{Name: name, Kind: "collected", Value: value})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// baseName strips a label set from a series name for TYPE grouping.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeText renders the registry in Prometheus text exposition format:
// counters and gauges as typed scalar series, histograms as summaries
// (quantile series plus _sum and _count).
func (r *Registry) writeText(w *strings.Builder) {
	typed := make(map[string]bool)
	emitType := func(name, kind string) {
		base := baseName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, s := range r.Snapshot() {
		switch s.Kind {
		case "counter":
			emitType(s.Name, "counter")
			fmt.Fprintf(w, "%s %v\n", s.Name, uint64(s.Value))
		case "gauge", "collected":
			emitType(s.Name, "gauge")
			fmt.Fprintf(w, "%s %v\n", s.Name, s.Value)
		case "hist":
			emitType(s.Name, "summary")
			h := s.Hist
			for _, q := range []struct {
				q string
				v uint64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}, {"0.999", h.P999}} {
				fmt.Fprintf(w, "%s %d\n", Label(s.Name, "quantile", q.q), q.v)
			}
			fmt.Fprintf(w, "%s_sum %d\n", s.Name, h.Sum)
			fmt.Fprintf(w, "%s_count %d\n", s.Name, h.Count)
		}
	}
}

// Text renders the registry in Prometheus text exposition format.
func (r *Registry) Text() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	r.writeText(&b)
	return b.String()
}
