package pssp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/rng"
)

// ArrivalKind selects a workload's arrival model; see the Arrivals*
// constants.
type ArrivalKind = loadgen.ArrivalKind

// KneeEfficiency is the achieved/offered fraction below which a LoadSweep
// point counts as past the saturation knee.
const KneeEfficiency = loadgen.KneeEfficiency

// CyclesPerMicrosecond converts victim cycles to microseconds at the 3.5 GHz
// clock of the paper's i7-4770K testbed — the one conversion constant shared
// by the harness tables, CLIs and examples.
const CyclesPerMicrosecond = 3500.0

// Arrival models for WorkloadConfig.Arrivals.
const (
	// ArrivalsOpenPoisson is an open loop with Poisson arrivals at
	// RatePerMcycle: load arrives whether or not the servers keep up — the
	// model that exposes the saturation knee.
	ArrivalsOpenPoisson = loadgen.OpenPoisson
	// ArrivalsOpenUniform is an open loop with fixed inter-arrival spacing.
	ArrivalsOpenUniform = loadgen.OpenUniform
	// ArrivalsClosedLoop is a population of Clients with exponential think
	// times, each waiting for its response before re-issuing.
	ArrivalsClosedLoop = loadgen.ClosedLoop
)

// RequestClass is one class of a workload's traffic mix: either a fixed
// benign payload or a live adversary identified by attack-strategy name.
type RequestClass struct {
	// Name labels the class in the report (defaults to "benign" or the
	// probe strategy name).
	Name string
	// Weight is the class's relative share of the mix (default 1).
	Weight int
	// Payload is the benign request body; nil defaults to the app's
	// built-in request. Leave nil for probe classes.
	Payload []byte
	// Probe selects an adversary by registry name (see AttackStrategies):
	// the class's requests are the strategy's probes, generated live
	// against each shard's server and fed back its crash verdicts, so
	// attack traffic and benign traffic interleave on the same servers.
	Probe string
}

// WorkloadConfig is a load-test scenario for Machine.LoadTest. The zero
// value of Mix targets the image's built-in benign request; Arrivals
// defaults to a 4-client closed loop when neither a rate nor a client count
// is set.
type WorkloadConfig struct {
	// Label names the scenario in the report (default: the image name).
	Label string
	// Mix is the traffic mix. Empty means one benign class carrying the
	// app's built-in request payload.
	Mix []RequestClass
	// Arrivals selects the arrival model.
	Arrivals ArrivalKind
	// RatePerMcycle is the aggregate open-loop offered rate in requests per
	// million victim cycles.
	RatePerMcycle float64
	// Clients is the closed-loop client population (default 4 when the
	// model is closed-loop).
	Clients int
	// ThinkCycles is the closed-loop mean think time in victim cycles.
	ThinkCycles float64
	// Requests bounds the run by total request count (default 256 when
	// DurationCycles is 0 too).
	Requests int
	// DurationCycles bounds the run by virtual-time horizon.
	DurationCycles uint64
	// Shards is the replica-server count the clients are sharded over
	// (default 4). Part of the scenario, like Clients.
	Shards int
	// Workers bounds shard concurrency (default GOMAXPROCS). Wall-clock
	// only: for a fixed Seed the report is bit-identical at any count.
	Workers int
	// Seed drives the whole workload (victim entropy, arrival jitter, mix
	// choices, probe guesses); 0 means the machine's seed.
	Seed uint64
	// Attack describes the victim frame probed by probe classes, as in
	// Server.Attack. Its Strategy field must be empty — per-class Probe
	// names select the adversaries.
	Attack AttackConfig
	// Progress, when non-nil, receives a running tally roughly every 64
	// served requests and at every shard completion, serialized by the
	// engine. Wall-clock observability only — it never affects the
	// deterministic report.
	Progress func(LoadProgress)
}

// LoadProgress is a workload's running tally; see loadgen.Progress.
type LoadProgress = loadgen.Progress

// LoadReport is a workload's deterministic aggregate: tail-latency
// histograms (p50/p90/p99/p99.9 over log-scaled buckets),
// offered-vs-achieved throughput, per-class request/crash/detection
// breakdowns, and probe-replication counters for attack-under-load
// scenarios. See loadgen.Report for the field docs.
type LoadReport = loadgen.Report

// LoadReportClass is one class's slice of a LoadReport; see
// loadgen.ClassStats.
type LoadReportClass = loadgen.ClassStats

// LoadSweepReport is an offered-load sweep's aggregate; see
// loadgen.SweepReport.
type LoadSweepReport = loadgen.SweepReport

// loadVictimStream separates shard victim-machine seeds from the shard's
// client-side randomness (stream 0 of the same pair) and from campaign
// victims (which derive with stream 1).
const loadVictimStream = 2

// resolveWorkload lowers a WorkloadConfig onto the loadgen engine: mix
// defaulting (the image's built-in request), probe-strategy resolution, and
// arrival-model defaults.
func (m *Machine) resolveWorkload(img *Image, cfg WorkloadConfig) (loadgen.Config, error) {
	if cfg.Attack.Strategy != "" {
		return loadgen.Config{}, errors.New("pssp: WorkloadConfig.Attack.Strategy must be empty; name adversaries per class via RequestClass.Probe")
	}
	// builtinRequest resolves the app's built-in benign payload — the
	// default body of any benign class that doesn't carry its own.
	builtinRequest := func() ([]byte, error) {
		app, ok := App(img.Name())
		if !ok || app.Request == nil {
			return nil, fmt.Errorf("pssp: no built-in benign request for image %q; set the class Payload", img.Name())
		}
		return app.Request, nil
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = []RequestClass{{Name: "benign", Weight: 1}}
	}
	classes := make([]loadgen.Class, len(mix))
	for i, rc := range mix {
		cl := loadgen.Class{Name: rc.Name, Weight: rc.Weight, Payload: rc.Payload}
		if cl.Weight == 0 {
			cl.Weight = 1
		}
		if rc.Probe != "" {
			if rc.Payload != nil {
				return loadgen.Config{}, fmt.Errorf("pssp: class %q sets both Payload and Probe", rc.Name)
			}
			attackCfg := cfg.Attack
			attackCfg.Strategy = rc.Probe
			strat, acfg, err := m.resolveAttack(attackCfg)
			if err != nil {
				return loadgen.Config{}, err
			}
			cl.Probe, cl.ProbeCfg = strat, acfg
			if cl.Name == "" {
				cl.Name = strat.Name()
			}
		} else {
			if cl.Payload == nil {
				p, err := builtinRequest()
				if err != nil {
					return loadgen.Config{}, err
				}
				cl.Payload = p
			}
			if cl.Name == "" {
				cl.Name = "benign"
			}
		}
		classes[i] = cl
	}

	arrivals := loadgen.Arrivals{
		Kind:          cfg.Arrivals,
		RatePerMcycle: cfg.RatePerMcycle,
		Clients:       cfg.Clients,
		ThinkCycles:   cfg.ThinkCycles,
	}
	if arrivals.Kind == ArrivalsClosedLoop && arrivals.Clients == 0 {
		arrivals.Clients = 4
	}
	requests := cfg.Requests
	if requests == 0 && cfg.DurationCycles == 0 {
		requests = 256
	}
	label := cfg.Label
	if label == "" {
		label = img.Name()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = m.cfg.seed
	}
	return loadgen.Config{
		Label:          label,
		Mix:            classes,
		Arrivals:       arrivals,
		Requests:       requests,
		DurationCycles: cfg.DurationCycles,
		Shards:         cfg.Shards,
		Workers:        cfg.Workers,
		Seed:           seed,
		Progress:       cfg.Progress,
	}, nil
}

// loadServer adapts a facade Server to the loadgen engine's request sink.
type loadServer struct {
	s *Server
}

// Handle implements loadgen.Server: a worker crash is an outcome (with its
// canary-detection classification), not an error.
func (l loadServer) Handle(ctx context.Context, req []byte) (loadgen.Outcome, error) {
	resp, err := l.s.Handle(ctx, req)
	if err != nil {
		return loadgen.Outcome{}, err
	}
	out := loadgen.Outcome{Cycles: resp.Cycles, Crashed: resp.Crashed()}
	if out.Crashed {
		out.Detected = errors.Is(resp.Err, ErrCanaryDetected)
	}
	return out, nil
}

// bootShards returns the loadgen Boot that serves img on per-shard replica
// machines: shard s's victim always derives from (seed, s), so the fleet is
// independent of scheduling.
func (m *Machine) bootShards(img *Image, seed uint64) loadgen.Boot {
	return func(ctx context.Context, shard int) (loadgen.Server, error) {
		victim := m.withSeed(rng.Mix(rng.Mix(seed, uint64(shard)), loadVictimStream))
		srv, err := victim.Serve(ctx, img)
		if err != nil {
			return nil, err
		}
		return loadServer{s: srv}, nil
	}
}

// LoadTest runs a virtual-time load test: the workload's traffic mix —
// optionally interleaving live attack probes with benign requests — driven
// by its arrival model against cfg.Shards replica fork-servers booted from
// img, executed by cfg.Workers goroutines. Latency is measured in victim
// cycles from (virtual) arrival to completion, so queueing delay behind a
// busy server is included — the component the paper's sequential request
// loops cannot see.
//
// For a fixed seed the report is bit-identical at any worker count. On
// cancellation the partial report of the completed work is returned
// alongside ctx.Err().
func (m *Machine) LoadTest(ctx context.Context, img *Image, cfg WorkloadConfig) (*LoadReport, error) {
	lc, err := m.resolveWorkload(img, cfg)
	if err != nil {
		return nil, err
	}
	return loadgen.Run(ctx, lc, m.bootShards(img, lc.Seed))
}

// LoadSweep steps the workload's offered load through the multipliers
// (open loop: the rate; closed loop: the client population), re-running the
// scenario on fresh replica servers at each point, and reports the
// saturation knee — the largest multiplier whose achieved throughput stayed
// within loadgen.KneeEfficiency of offered.
func (m *Machine) LoadSweep(ctx context.Context, img *Image, cfg WorkloadConfig, multipliers []float64) (*LoadSweepReport, error) {
	lc, err := m.resolveWorkload(img, cfg)
	if err != nil {
		return nil, err
	}
	boot := m.bootShards(img, lc.Seed)
	return loadgen.RunSweep(ctx, lc, multipliers, func(ctx context.Context, point loadgen.Config) (*LoadReport, error) {
		return loadgen.Run(ctx, point, boot)
	})
}
