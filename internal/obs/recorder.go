package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Recorder is a bounded flight recorder: one Trace per job, each a fixed
// ring of the most recent span events. When the trace table is full the
// oldest job's trace is evicted, so memory is bounded regardless of job
// churn. A nil *Recorder hands out nil Traces, whose Event method is a
// single nil check.
type Recorder struct {
	mu       sync.Mutex
	perTrace int
	maxJobs  int
	traces   map[uint64]*Trace
	order    []uint64 // insertion order, for eviction
}

// NewRecorder builds a recorder keeping at most maxJobs traces of up to
// eventsPerTrace events each (defaults 64 and 256 for values <= 0).
func NewRecorder(maxJobs, eventsPerTrace int) *Recorder {
	if maxJobs <= 0 {
		maxJobs = 64
	}
	if eventsPerTrace <= 0 {
		eventsPerTrace = 256
	}
	return &Recorder{
		perTrace: eventsPerTrace,
		maxJobs:  maxJobs,
		traces:   make(map[uint64]*Trace),
	}
}

// Begin opens (or reopens) the trace for a job id, evicting the oldest
// trace if the table is full.
func (r *Recorder) Begin(job uint64, kind string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.traces[job]; ok {
		return t
	}
	for len(r.traces) >= r.maxJobs && len(r.order) > 0 {
		delete(r.traces, r.order[0])
		// Shift in place: reslicing from the front would make the append
		// below reallocate every few evictions.
		r.order = append(r.order[:0], r.order[1:]...)
	}
	t := &Trace{
		job:       job,
		kind:      kind,
		startWall: time.Now(),
		ring:      make([]Event, r.perTrace),
	}
	r.traces[job] = t
	r.order = append(r.order, job)
	return t
}

// Dump renders one job's trace (false if the job is unknown or evicted).
func (r *Recorder) Dump(job uint64) (TraceDump, bool) {
	if r == nil {
		return TraceDump{}, false
	}
	r.mu.Lock()
	t, ok := r.traces[job]
	r.mu.Unlock()
	if !ok {
		return TraceDump{}, false
	}
	return t.dump(), true
}

// Dumps renders every retained trace, ascending by job id.
func (r *Recorder) Dumps() []TraceDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ts := make([]*Trace, 0, len(r.traces))
	for _, t := range r.traces {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	out := make([]TraceDump, len(ts))
	for i, t := range ts {
		out[i] = t.dump()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Trace is one job's span-event ring. Event is allocation-free: slots are
// preallocated and overwritten in order, keeping the most recent events.
type Trace struct {
	mu        sync.Mutex
	job       uint64
	kind      string
	startWall time.Time
	ring      []Event
	total     uint64
}

// Event is one recorded span event, stamped with both wall time and the
// victim's virtual cycle counter: wall time orders events for humans,
// virtual cycles stay deterministic at explicit seeds so traces from two
// runs of the same job line up exactly.
type Event struct {
	Seq       uint64 `json:"seq"`
	WallNanos int64  `json:"wall_ns"`
	VCycles   uint64 `json:"vcycles"`
	Name      string `json:"name"`
	Detail    string `json:"detail,omitempty"`
}

// Event appends a span event. vcycles is the victim's virtual cycle count
// at the event (0 where no machine is in scope). Nil-safe and
// allocation-free when name and detail are preexisting strings.
func (t *Trace) Event(name string, vcycles uint64, detail string) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	seq := t.total
	t.total++
	t.ring[seq%uint64(len(t.ring))] = Event{
		Seq:       seq,
		WallNanos: now,
		VCycles:   vcycles,
		Name:      name,
		Detail:    detail,
	}
	t.mu.Unlock()
}

// TraceDump is the JSON form of a trace: events in seq order, with the
// count of older events the ring dropped.
type TraceDump struct {
	Job       uint64  `json:"job"`
	Kind      string  `json:"kind"`
	StartWall int64   `json:"start_wall_ns"`
	Dropped   uint64  `json:"dropped,omitempty"`
	Events    []Event `json:"events"`
}

func (t *Trace) dump() TraceDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceDump{
		Job:       t.job,
		Kind:      t.kind,
		StartWall: t.startWall.UnixNano(),
	}
	n := t.total
	ring := uint64(len(t.ring))
	first := uint64(0)
	if n > ring {
		first = n - ring
		d.Dropped = first
	}
	d.Events = make([]Event, 0, n-first)
	for seq := first; seq < n; seq++ {
		d.Events = append(d.Events, t.ring[seq%ring])
	}
	return d
}

type traceKey struct{}

// ContextWithTrace attaches a trace to a context, carrying it through job
// execution (pool checkout, store lookups, engine runs) without threading
// an argument through every layer.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace from a context, or nil. The nil result is
// directly usable: Trace methods are nil-safe.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
