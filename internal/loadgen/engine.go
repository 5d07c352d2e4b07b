package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workpool"
)

// Outcome reports one served request from the engine's point of view.
type Outcome struct {
	// Cycles is the worker's service time in victim cycles.
	Cycles uint64
	// Crashed reports a dead worker; Detected the subset killed by a canary
	// check (the defence observing the probe).
	Crashed  bool
	Detected bool
}

// Server is one shard's request sink: a booted fork-per-request server. The
// engine calls Handle from a single goroutine per shard; the returned error
// covers transport failures only (a crashed worker is an Outcome, not an
// error), mirroring the facade's Server.Handle contract.
type Server interface {
	Handle(ctx context.Context, req []byte) (Outcome, error)
}

// Boot builds shard's private replica server. Like a campaign Runner it must
// derive all shard-varying state from the shard index so the shard's
// behaviour is independent of which worker executes it.
type Boot func(ctx context.Context, shard int) (Server, error)

// expDraw samples an exponential with the given mean from r, as virtual
// cycles (floored; a zero draw is allowed — coincident arrivals are ordered
// by client index).
func expDraw(r *rng.Source, mean float64) uint64 {
	u := (float64(r.Uint64()>>11) + 0.5) / (1 << 53) // (0, 1)
	return uint64(-mean * math.Log(u))
}

// runShard simulates one shard's clients in virtual time against srv.
// The returned partial is valid even on error (up to the failure).
func runShard(ctx context.Context, cfg Config, shard int, srv Server, mt *workpool.Meter[Progress]) (st *Partial, err error) {
	r := rng.NewStream(cfg.Seed, uint64(shard))
	st = &Partial{Shard: shard, Classes: make([]ClassPartial, len(cfg.Mix))}

	// Weighted class picker.
	totalWeight := 0
	for _, cl := range cfg.Mix {
		totalWeight += cl.Weight
	}
	pick := func() int {
		n := r.Intn(totalWeight)
		for i, cl := range cfg.Mix {
			n -= cl.Weight
			if n < 0 {
				return i
			}
		}
		return len(cfg.Mix) - 1 // unreachable
	}

	// Adversarial classes get a live strategy loop each; its probe/verdict
	// handoff is synchronous with this goroutine, so the shard stays
	// deterministic. The deferred stop also folds the replication counters
	// in on early error returns.
	probes := make([]*probeSource, len(cfg.Mix))
	for i, cl := range cfg.Mix {
		if cl.Probe != nil {
			probes[i] = newProbeSource(ctx, cl.Probe, cl.ProbeCfg,
				rng.Mix(rng.Mix(cfg.Seed, uint64(shard)), probeClassStream+uint64(i)))
		}
	}
	defer func() {
		for i, ps := range probes {
			if ps != nil {
				reps, succ := ps.stop()
				st.Classes[i].ProbeReplications += reps
				st.Classes[i].ProbeSuccesses += succ
			}
		}
	}()

	budget := 0
	if cfg.Requests > 0 {
		budget = workpool.Share(cfg.Requests, shard, cfg.Shards)
		if budget == 0 {
			return st, nil
		}
	}

	// free is the virtual time the shard's server next idles: fork-per-
	// request workers of one simulated machine serialize, so a request
	// arriving before free queues behind the one in flight.
	var free uint64

	serve := func(arrival uint64) error {
		ci := pick()
		payload := cfg.Mix[ci].Payload
		if ps := probes[ci]; ps != nil {
			p, err := ps.next(ctx)
			if err != nil {
				return err
			}
			payload = p
		}
		out, err := srv.Handle(ctx, payload)
		if err != nil {
			return err
		}
		if ps := probes[ci]; ps != nil {
			if err := ps.observe(ctx, !out.Crashed); err != nil {
				return err
			}
		}
		start := arrival
		if free > start {
			start = free
		}
		completion := start + out.Cycles
		free = completion
		if completion > st.Makespan {
			st.Makespan = completion
		}
		latency := completion - arrival

		st.Requests++
		cl := &st.Classes[ci]
		cl.Requests++
		st.Latency.Record(latency)
		cl.Latency.Record(latency)
		if out.Crashed {
			st.Crashes++
			cl.Crashes++
			if out.Detected {
				st.Detections++
				cl.Detections++
			}
		} else {
			st.OK++
		}
		mt.Tick(func(p *Progress) {
			p.Requests++
			if out.Crashed {
				p.Crashes++
				if out.Detected {
					p.Detections++
				}
			} else {
				p.OK++
			}
		})
		return nil
	}

	switch cfg.Arrivals.Kind {
	case OpenPoisson, OpenUniform:
		// Per-shard slice of the aggregate offered rate.
		mean := 1e6 * float64(cfg.Shards) / cfg.Arrivals.RatePerMcycle
		var clock uint64
		for n := 0; budget == 0 || n < budget; n++ {
			step := uint64(mean)
			if cfg.Arrivals.Kind == OpenPoisson {
				step = expDraw(r, mean)
			}
			clock += step
			if cfg.DurationCycles > 0 && clock > cfg.DurationCycles {
				break
			}
			if err := serve(clock); err != nil {
				return st, err
			}
		}

	case ClosedLoop:
		clients := workpool.Share(cfg.Arrivals.Clients, shard, cfg.Shards)
		if clients == 0 {
			return st, nil
		}
		think := func() uint64 {
			if cfg.Arrivals.ThinkCycles <= 0 {
				return 0
			}
			return expDraw(r, cfg.Arrivals.ThinkCycles)
		}
		// Pending next-arrival events, earliest (time, client) first.
		events := make(eventHeap, 0, clients)
		for c := 0; c < clients; c++ {
			events.push(clientEvent{at: think(), client: c})
		}
		for n := 0; budget == 0 || n < budget; n++ {
			ev := events.pop()
			if cfg.DurationCycles > 0 && ev.at > cfg.DurationCycles {
				break
			}
			if err := serve(ev.at); err != nil {
				return st, err
			}
			// The client thinks after its response completes (free is that
			// completion: the serve it just triggered ran last).
			events.push(clientEvent{at: free + think(), client: ev.client})
		}
	}
	return st, nil
}

// probeClassStream offsets the entropy streams of per-class probe sources
// from the shard's own arrival/mix stream.
const probeClassStream = 0x10ad

// clientEvent schedules client's next request at virtual time at.
type clientEvent struct {
	at     uint64
	client int
}

// eventHeap is a binary min-heap of client events ordered by (at, client) —
// the client-index tie-break keeps coincident arrivals deterministic.
type eventHeap []clientEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].client < h[j].client
}

func (h *eventHeap) push(ev clientEvent) {
	*h = append(*h, ev)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() clientEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// ClassPartial is one class's slice of a shard partial, in mix order. The
// latency histogram travels in its lossless wire form (see obs.Hist JSON).
type ClassPartial struct {
	Requests          int      `json:"requests"`
	Crashes           int      `json:"crashes"`
	Detections        int      `json:"detections"`
	ProbeReplications int      `json:"probe_replications"`
	ProbeSuccesses    int      `json:"probe_successes"`
	Latency           obs.Hist `json:"latency"`
}

// Partial is one shard's complete result: the state runShard fills, and,
// unchanged, the unit a fabric worker ships back (histograms included), so
// a distributed merge folds exactly what a local one does.
type Partial struct {
	Shard      int            `json:"shard"`
	Requests   int            `json:"requests"`
	OK         int            `json:"ok"`
	Crashes    int            `json:"crashes"`
	Detections int            `json:"detections"`
	Makespan   uint64         `json:"makespan"`
	Latency    obs.Hist       `json:"latency"`
	Classes    []ClassPartial `json:"classes"`
}

// ErrMalformedPartial rejects a partial whose shape does not fit the
// scenario it is merged into (a worker's partial crosses a trust boundary).
var ErrMalformedPartial = errors.New("loadgen: malformed partial")

// Run executes the workload: cfg.Shards self-contained client shards, each
// against its own boot'ed replica server, executed by cfg.Workers
// goroutines and merged in shard order — RunShards over every shard, then
// MergePartials. For a fixed seed the Report is bit-identical at any worker
// count.
//
// On cancellation Run returns the partial report of the work done so far
// together with ctx.Err(). Any transport/boot error aborts the run and is
// returned with the partial report.
func Run(ctx context.Context, cfg Config, boot Boot) (*Report, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	parts, runErr := RunShards(ctx, cfg, boot, 0, cfg.Shards)
	rep, err := MergePartials(cfg, parts)
	if err != nil {
		return nil, err
	}
	return rep, runErr
}

// RunShards executes only shards [lo, hi) of the workload and returns their
// partials in shard order. cfg must be the full (ideally pre-Normalized)
// scenario — shard indices keep their global meaning, so rng streams and
// budget shares are identical to the single-process run. On error the
// partials of the completed and interrupted shards come back with it.
func RunShards(ctx context.Context, cfg Config, boot Boot, lo, hi int) ([]*Partial, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Shards || lo >= hi {
		return nil, fmt.Errorf("loadgen: shard range [%d,%d) outside shards [0,%d)", lo, hi, cfg.Shards)
	}
	slots := make([]*Partial, hi-lo)
	// The meter ticks every ProgressEvery requests and at each shard
	// completion, when it refreshes the latency quantiles of the shards
	// done so far (per-request quantiles would dominate the engine's cost).
	mt := workpool.NewMeter(cfg.Progress, cfg.ProgressEvery, Progress{Shards: cfg.Shards})
	var lat *obs.Hist // guarded by mt's lock
	if mt != nil {
		lat = new(obs.Hist)
	}
	// Cancellation and fatal-error semantics live in workpool; a shard
	// stores its (possibly partial) result before reporting any error, so
	// an interrupted range still merges the work done so far.
	poolErr := workpool.RunRange(ctx, lo, hi, min(cfg.Workers, hi-lo), func(ctx context.Context, shard int) error {
		srv, err := boot(ctx, shard)
		if err != nil {
			return fmt.Errorf("loadgen: boot shard %d: %w", shard, err)
		}
		st, err := runShard(ctx, cfg, shard, srv, mt)
		slots[shard-lo] = st
		if err == nil {
			mt.Flush(func(p *Progress) {
				lat.Merge(&st.Latency)
				p.ShardsDone++
				p.P50Cycles, p.P99Cycles = lat.Quantile(0.50), lat.Quantile(0.99)
			})
		}
		return err
	})
	parts := slots[:0]
	for _, st := range slots {
		if st != nil {
			parts = append(parts, st)
		}
	}
	return parts, poolErr
}

// MergePartials folds partials into the report Run would have produced for
// the same cfg. Partials may arrive in any order and may repeat a shard (a
// reassigned lease): slots are keyed by shard index, so a duplicate
// overwrites with identical data. Missing shards merge like a cancelled
// run's; a partial whose class count differs from the mix fails with
// ErrMalformedPartial.
func MergePartials(cfg Config, parts []*Partial) (*Report, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	slots := make([]*Partial, cfg.Shards)
	for _, p := range parts {
		if p == nil || p.Shard < 0 || p.Shard >= cfg.Shards {
			continue
		}
		if len(p.Classes) != len(cfg.Mix) {
			return nil, fmt.Errorf("%w: shard %d has %d classes, the mix %d",
				ErrMalformedPartial, p.Shard, len(p.Classes), len(cfg.Mix))
		}
		slots[p.Shard] = p
	}
	return merge(cfg, slots), nil
}

// merge folds per-shard partials (in shard order) into the final report.
func merge(cfg Config, slots []*Partial) *Report {
	rep := &Report{
		Label:    cfg.Label,
		Arrivals: cfg.Arrivals.String(),
		Shards:   cfg.Shards,
	}
	var all obs.Hist
	classes := make([]ClassPartial, len(cfg.Mix))
	for _, st := range slots {
		if st == nil {
			continue
		}
		rep.Requests += st.Requests
		rep.OK += st.OK
		rep.Crashes += st.Crashes
		rep.Detections += st.Detections
		if st.Makespan > rep.DurationCycles {
			rep.DurationCycles = st.Makespan
		}
		all.Merge(&st.Latency)
		for i := range classes {
			c, s := &classes[i], &st.Classes[i]
			c.Requests += s.Requests
			c.Crashes += s.Crashes
			c.Detections += s.Detections
			c.ProbeReplications += s.ProbeReplications
			c.ProbeSuccesses += s.ProbeSuccesses
			c.Latency.Merge(&s.Latency)
		}
	}
	rep.Latency = summarize(&all)
	for i, cl := range cfg.Mix {
		c := &classes[i]
		rep.ProbeReplications += c.ProbeReplications
		rep.ProbeSuccesses += c.ProbeSuccesses
		rep.Classes = append(rep.Classes, ClassStats{
			Name:              cl.Name,
			Requests:          c.Requests,
			Crashes:           c.Crashes,
			Detections:        c.Detections,
			ProbeReplications: c.ProbeReplications,
			ProbeSuccesses:    c.ProbeSuccesses,
			Latency:           summarize(&c.Latency),
		})
	}
	// Throughput sums per-shard rates (shards are independent replica
	// servers): this keeps an unloaded Poisson run's efficiency near 1,
	// where dividing the total count by the slowest shard's makespan would
	// systematically understate it.
	for _, st := range slots {
		if st == nil || st.Makespan == 0 {
			continue
		}
		scale := 1e6 / float64(st.Makespan)
		rep.AchievedPerMcycle += float64(st.Requests) * scale
		rep.GoodputPerMcycle += float64(st.OK) * scale
	}
	if cfg.Arrivals.Kind == ClosedLoop {
		rep.OfferedPerMcycle = rep.AchievedPerMcycle
	} else {
		rep.OfferedPerMcycle = cfg.Arrivals.RatePerMcycle
	}
	return rep
}

// KneeEfficiency is the achieved/offered fraction below which a sweep point
// counts as past the saturation knee.
const KneeEfficiency = 0.95

// SweepPoint is one offered-load step of a sweep.
type SweepPoint struct {
	// Multiplier scales the base scenario's load (open loop: the offered
	// rate; closed loop: the client population).
	Multiplier float64 `json:"multiplier"`
	// Report is the point's full workload report.
	Report *Report `json:"report"`
}

// SweepReport is an offered-load sweep: the same scenario run at each
// multiplier, plus the located saturation knee.
type SweepReport struct {
	Label  string       `json:"label"`
	Points []SweepPoint `json:"points"`
	// KneeMultiplier is the largest multiplier whose achieved throughput
	// kept up with offered load (efficiency >= KneeEfficiency). Open-loop
	// scenarios only — a closed loop cannot overrun its servers, so there
	// it stays 0.
	KneeMultiplier float64 `json:"knee_multiplier"`
}

// Scale returns the scenario at sweep multiplier m: the offered rate (open
// loop) or client population (closed loop) scaled, with the "x%g" label
// suffix — the one sweep-point transform, applied by RunSweep before any
// runner sees a point. Scale applies to the unnormalized base scenario;
// normalize after scaling (shard clamps depend on the scaled population).
func Scale(cfg Config, m float64) Config {
	c := cfg
	c.Label = fmt.Sprintf("%s x%g", cfg.Label, m)
	if c.Arrivals.Kind == ClosedLoop {
		c.Arrivals.Clients = int(math.Round(float64(cfg.Arrivals.Clients) * m))
		if c.Arrivals.Clients < 1 {
			c.Arrivals.Clients = 1
		}
	} else {
		c.Arrivals.RatePerMcycle = cfg.Arrivals.RatePerMcycle * m
	}
	return c
}

// RunSweep steps the scenario's offered load through the multipliers
// (ascending) and locates the saturation knee: the one sweep loop, whatever
// runs a point. run executes one scaled scenario (see Scale) — the local
// engine, or the fabric's leases. On error the points completed so far are
// returned with it.
func RunSweep(ctx context.Context, cfg Config, multipliers []float64, run func(context.Context, Config) (*Report, error)) (*SweepReport, error) {
	if len(multipliers) == 0 {
		return nil, errors.New("loadgen: sweep needs at least one multiplier")
	}
	sw := &SweepReport{Label: cfg.Label}
	for _, m := range multipliers {
		if !(m > 0) {
			return sw, fmt.Errorf("loadgen: non-positive sweep multiplier %g", m)
		}
		rep, err := run(ctx, Scale(cfg, m))
		if err != nil {
			return sw, err
		}
		sw.Points = append(sw.Points, SweepPoint{Multiplier: m, Report: rep})
		if cfg.Arrivals.Kind != ClosedLoop &&
			rep.Efficiency() >= KneeEfficiency && m > sw.KneeMultiplier {
			sw.KneeMultiplier = m
		}
	}
	return sw, nil
}
