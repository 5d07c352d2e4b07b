// Package loadgen is the deterministic virtual-time load-generation engine:
// it drives a traffic mix — weighted benign request classes, optionally
// interleaved with live attack-strategy probes — against fork-per-request
// servers, timestamps every request in victim cycles, and aggregates
// tail-latency histograms, offered-vs-achieved throughput, and per-class
// crash/detection counters.
//
// Time is virtual: the clock is the victim's cycle counter, not wall time.
// Arrivals are scheduled in virtual cycles by an open-loop process (Poisson
// or uniform) or a closed-loop population of think-time clients; each
// request's service time is the worker cycles its fork actually burns in the
// VM. Latency is completion minus arrival, so queueing delay behind a busy
// server is first-class — exactly the component the paper's sequential
// request loops cannot see.
//
// Determinism follows the campaign engine's discipline: the client
// population is sharded over per-shard replica servers, every shard is a
// self-contained work unit drawing from rng.NewStream(seed, shard), and
// shard results are merged in shard order after the workers drain. A fixed
// seed therefore yields a bit-identical Report at any worker count; Workers
// scales wall-clock time only. Shards is part of the scenario (it fixes how
// clients are partitioned), so changing it changes the workload, like
// changing Clients.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/attack"
	"repro/internal/obs"
)

// Class is one request class of a traffic mix. Exactly one of Payload or
// Probe describes where its request bytes come from: a fixed benign payload,
// or a live adversary — a registered attack.Strategy run incrementally
// against the shard's server, its probes interleaved with the benign
// traffic and its oracle answers fed back from the very requests the engine
// schedules.
type Class struct {
	// Name labels the class in the report.
	Name string
	// Weight is the class's relative share of the mix (> 0).
	Weight int
	// Payload is the fixed request body of a benign class.
	Payload []byte
	// Probe, when non-nil, makes this an adversarial class: payloads are
	// drawn from successive replications of the strategy (a fresh
	// replication starts whenever one completes), each replication seeded
	// from the shard's stream.
	Probe attack.Strategy
	// ProbeCfg describes the victim frame for Probe (attack.Config
	// defaults apply).
	ProbeCfg attack.Config
}

// ArrivalKind selects the arrival model.
type ArrivalKind uint8

// Arrival models.
const (
	// OpenPoisson is an open loop with exponentially distributed
	// inter-arrival times: requests arrive at RatePerMcycle regardless of
	// how the server keeps up — the model that exposes the saturation knee.
	OpenPoisson ArrivalKind = iota
	// OpenUniform is an open loop with fixed inter-arrival spacing.
	OpenUniform
	// ClosedLoop is a population of Clients, each issuing its next request
	// one exponential think time after its previous response.
	ClosedLoop
)

// String names the model.
func (k ArrivalKind) String() string {
	switch k {
	case OpenPoisson:
		return "open-poisson"
	case OpenUniform:
		return "open-uniform"
	case ClosedLoop:
		return "closed-loop"
	default:
		return fmt.Sprintf("arrivals?%d", uint8(k))
	}
}

// Arrivals parameterizes the arrival model.
type Arrivals struct {
	Kind ArrivalKind
	// RatePerMcycle is the aggregate open-loop offered rate in requests per
	// million victim cycles, split evenly across shards.
	RatePerMcycle float64
	// Clients is the closed-loop population, partitioned across shards.
	Clients int
	// ThinkCycles is the closed-loop mean think time in cycles
	// (exponentially distributed; 0 means clients re-issue immediately).
	ThinkCycles float64
}

// String renders the model with its parameters.
func (a Arrivals) String() string {
	switch a.Kind {
	case ClosedLoop:
		return fmt.Sprintf("%s clients=%d think=%.0f", a.Kind, a.Clients, a.ThinkCycles)
	default:
		return fmt.Sprintf("%s rate=%g/Mcycle", a.Kind, a.RatePerMcycle)
	}
}

// Config is a workload scenario.
type Config struct {
	// Label names the scenario in its Report.
	Label string
	// Mix is the traffic mix (at least one class, weights > 0).
	Mix []Class
	// Arrivals is the arrival model.
	Arrivals Arrivals
	// Requests is the total request budget, partitioned across shards
	// (0 = unbounded; DurationCycles must then stop the run).
	Requests int
	// DurationCycles is the virtual-time horizon: no arrival is scheduled
	// past it (0 = unbounded; Requests must then stop the run). In-flight
	// requests still complete, so the report's virtual duration may exceed
	// it.
	DurationCycles uint64
	// Shards is the number of replica servers the clients are sharded over
	// (default 4). Part of the scenario: shard i always simulates the same
	// clients with the same randomness.
	Shards int
	// Workers bounds how many shards run concurrently (default GOMAXPROCS,
	// clamped to Shards). Wall-clock only — never results.
	Workers int
	// Seed drives all randomness: shard i draws from rng.NewStream(Seed, i).
	Seed uint64
	// Progress, when non-nil, receives a running tally roughly every
	// ProgressEvery served requests and at every shard completion,
	// serialized by the engine. It observes wall-clock order, so the
	// snapshot sequence varies with scheduling — only the final Report is
	// deterministic. The nil path costs one pointer check per request.
	Progress func(Progress)
	// ProgressEvery is the number of served requests between Progress calls
	// (default 64).
	ProgressEvery int
}

// Progress is a workload's running tally, cumulative over the requests
// served so far in wall-clock order.
type Progress struct {
	// ShardsDone counts shards that finished, out of Shards.
	ShardsDone, Shards int
	// Requests, OK, Crashes and Detections accumulate served requests and
	// their outcomes across all shards.
	Requests, OK, Crashes, Detections int
	// P50Cycles and P99Cycles are latency quantiles over the shards
	// completed so far (0 until the first shard finishes — per-request
	// quantile merges would dominate the engine's cost).
	P50Cycles, P99Cycles uint64
}

// Normalize resolves the scenario's defaults and clamps (shards to
// clients/requests, workers to shards, ...) and validates it — exactly what
// Run does internally. The distributed fabric normalizes once on the
// coordinator so every worker leases shards of the same final scenario.
// Normalize is idempotent: normalizing a normalized config is the identity.
func (c Config) Normalize() (Config, error) {
	if len(c.Mix) == 0 {
		return c, errors.New("loadgen: empty traffic mix")
	}
	for i, cl := range c.Mix {
		if cl.Weight <= 0 {
			return c, fmt.Errorf("loadgen: class %d (%s): non-positive weight %d", i, cl.Name, cl.Weight)
		}
		if (cl.Probe == nil) == (cl.Payload == nil) {
			return c, fmt.Errorf("loadgen: class %d (%s): exactly one of Payload or Probe must be set", i, cl.Name)
		}
	}
	switch c.Arrivals.Kind {
	case OpenPoisson, OpenUniform:
		if !(c.Arrivals.RatePerMcycle > 0) || math.IsInf(c.Arrivals.RatePerMcycle, 0) {
			return c, fmt.Errorf("loadgen: open-loop arrivals need RatePerMcycle > 0 (got %g)", c.Arrivals.RatePerMcycle)
		}
	case ClosedLoop:
		if c.Arrivals.Clients <= 0 {
			return c, fmt.Errorf("loadgen: closed-loop arrivals need Clients > 0 (got %d)", c.Arrivals.Clients)
		}
		if c.Arrivals.ThinkCycles < 0 {
			return c, fmt.Errorf("loadgen: negative ThinkCycles %g", c.Arrivals.ThinkCycles)
		}
	default:
		return c, fmt.Errorf("loadgen: unknown arrival kind %d", c.Arrivals.Kind)
	}
	if c.Requests < 0 {
		return c, fmt.Errorf("loadgen: negative request budget %d", c.Requests)
	}
	if c.Requests == 0 && c.DurationCycles == 0 {
		return c, errors.New("loadgen: unbounded workload: set Requests and/or DurationCycles")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	// A shard exists to serve its slice of clients/budget; more shards than
	// either is dead weight that would only dilute the mix.
	if c.Arrivals.Kind == ClosedLoop && c.Shards > c.Arrivals.Clients {
		c.Shards = c.Arrivals.Clients
	}
	if c.Requests > 0 && c.Shards > c.Requests {
		c.Shards = c.Requests
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 64
	}
	// The virtual clock is integral cycles: a per-shard mean inter-arrival
	// under one cycle would floor to a zero step — a uniform open loop
	// bounded only by DurationCycles would then never advance and spin
	// forever. Any such rate is far past every server's capacity anyway,
	// so reject it instead of silently truncating.
	if k := c.Arrivals.Kind; k == OpenPoisson || k == OpenUniform {
		if max := 1e6 * float64(c.Shards); c.Arrivals.RatePerMcycle > max {
			return c, fmt.Errorf("loadgen: RatePerMcycle %g exceeds one arrival per cycle per shard (max %g for %d shards)",
				c.Arrivals.RatePerMcycle, max, c.Shards)
		}
	}
	return c, nil
}

// LatencySummary is a histogram rendered for a report: sample count, exact
// mean/min/max, the paper-style tail quantiles, and the non-empty buckets so
// consumers can recompute any other quantile.
type LatencySummary struct {
	Count      uint64       `json:"count"`
	MeanCycles float64      `json:"mean_cycles"`
	Min        uint64       `json:"min_cycles"`
	P50        uint64       `json:"p50_cycles"`
	P90        uint64       `json:"p90_cycles"`
	P99        uint64       `json:"p99_cycles"`
	P999       uint64       `json:"p999_cycles"`
	Max        uint64       `json:"max_cycles"`
	Buckets    []obs.Bucket `json:"buckets,omitempty"`
}

// summarize renders a latency histogram for a report.
func summarize(h *obs.Hist) LatencySummary {
	return LatencySummary{
		Count:      h.Count(),
		MeanCycles: h.Mean(),
		Min:        h.Min(),
		P50:        h.Quantile(0.50),
		P90:        h.Quantile(0.90),
		P99:        h.Quantile(0.99),
		P999:       h.Quantile(0.999),
		Max:        h.Max(),
		Buckets:    h.Buckets(),
	}
}

// ClassStats is one class's slice of the report.
type ClassStats struct {
	// Name echoes the class name.
	Name string `json:"name"`
	// Requests counts requests issued for the class; Crashes those whose
	// worker died, and Detections the subset killed by a canary check.
	Requests   int `json:"requests"`
	Crashes    int `json:"crashes"`
	Detections int `json:"detections"`
	// ProbeReplications and ProbeSuccesses count completed attack
	// replications and those that recovered the canary (probe classes only).
	ProbeReplications int `json:"probe_replications,omitempty"`
	ProbeSuccesses    int `json:"probe_successes,omitempty"`
	// Latency is the class's response-time distribution.
	Latency LatencySummary `json:"latency"`
}

// Report is a workload's deterministic aggregate. All fields are computed
// from per-shard results merged in shard order after the workers drain, so
// for a fixed seed the report is bit-identical at any worker count.
type Report struct {
	// Label echoes Config.Label; Arrivals describes the model.
	Label    string `json:"label"`
	Arrivals string `json:"arrivals"`
	// Shards is the replica-server count the clients were sharded over.
	Shards int `json:"shards"`
	// Requests counts requests served; OK those whose worker exited
	// cleanly; Crashes those whose worker died (Detections: by a canary
	// check).
	Requests   int `json:"requests"`
	OK         int `json:"ok"`
	Crashes    int `json:"crashes"`
	Detections int `json:"detections"`
	// ProbeReplications and ProbeSuccesses total the adversarial classes'
	// completed attack replications and canary recoveries.
	ProbeReplications int `json:"probe_replications,omitempty"`
	ProbeSuccesses    int `json:"probe_successes,omitempty"`
	// DurationCycles is the virtual makespan: the latest completion time
	// across shards.
	DurationCycles uint64 `json:"duration_cycles"`
	// OfferedPerMcycle is the configured open-loop offered rate (for
	// closed-loop runs it equals AchievedPerMcycle: a closed loop offers
	// only what completes). AchievedPerMcycle is requests served per million
	// cycles of makespan; GoodputPerMcycle counts only clean (OK) requests.
	OfferedPerMcycle  float64 `json:"offered_per_mcycle"`
	AchievedPerMcycle float64 `json:"achieved_per_mcycle"`
	GoodputPerMcycle  float64 `json:"goodput_per_mcycle"`
	// Latency is the all-classes response-time distribution (completion
	// minus arrival: service plus queueing delay).
	Latency LatencySummary `json:"latency"`
	// Classes breaks the traffic down per mix class, in mix order.
	Classes []ClassStats `json:"classes"`
}

// Efficiency is AchievedPerMcycle/OfferedPerMcycle — the fraction of offered
// load the servers kept up with (1 for closed loops by construction).
func (r *Report) Efficiency() float64 {
	if r.OfferedPerMcycle == 0 {
		return 0
	}
	return r.AchievedPerMcycle / r.OfferedPerMcycle
}
