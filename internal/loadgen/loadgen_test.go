package loadgen

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/attack"
	"repro/internal/workpool"
)

// fakeServer is a VM-free fork-per-request analog: requests up to bufLen
// bytes are benign and cost baseCycles (+1 per payload byte, so classes are
// distinguishable); longer requests overflow onto the canary, and any
// overwritten byte that differs from the canary crashes the worker with a
// detection — the same oracle semantics the attack strategies expect.
type fakeServer struct {
	bufLen     int
	canary     [8]byte
	baseCycles uint64
	requests   atomic.Int64
}

func (f *fakeServer) Handle(_ context.Context, req []byte) (Outcome, error) {
	f.requests.Add(1)
	out := Outcome{Cycles: f.baseCycles + uint64(len(req))}
	if len(req) > f.bufLen {
		over := req[f.bufLen:]
		if len(over) > len(f.canary) {
			over = over[:len(f.canary)]
		}
		for i, b := range over {
			if b != f.canary[i] {
				out.Crashed = true
				out.Detected = true
				break
			}
		}
	}
	return out, nil
}

func fakeBoot(bufLen int, canary byte, base uint64) Boot {
	return func(_ context.Context, shard int) (Server, error) {
		s := &fakeServer{bufLen: bufLen, baseCycles: base}
		for i := range s.canary {
			// Per-shard canary, deterministic in the shard index.
			s.canary[i] = canary + byte(shard) + byte(i)*17
		}
		return s, nil
	}
}

func benignMix() []Class {
	return []Class{
		{Name: "get", Weight: 3, Payload: []byte("GET /")},
		{Name: "post", Weight: 1, Payload: []byte("POST /submit HTTP/1.1")},
	}
}

func mixedMix(t *testing.T) []Class {
	t.Helper()
	strat, err := attack.StrategyByName("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	mix := benignMix()
	return append(mix, Class{
		Name:     "probe",
		Weight:   2,
		Probe:    strat,
		ProbeCfg: attack.Config{BufLen: fakeBufLen, MaxTrials: 64},
	})
}

// fakeBufLen is the fake servers' stack-buffer size; benign payloads stay
// under it, probe configs target it.
const fakeBufLen = 32

func baseConfig(mix []Class) Config {
	return Config{
		Label:    "test",
		Mix:      mix,
		Arrivals: Arrivals{Kind: OpenPoisson, RatePerMcycle: 50},
		Requests: 96,
		Shards:   4,
		Seed:     2018,
	}
}

// TestRunDeterministicAcrossWorkerCounts is the engine's core contract:
// same seed, bit-identical report at any worker count, for both a benign
// open-loop mix and a mixed benign+adaptive-probe scenario across all three
// arrival models.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"open-poisson/benign", func(t *testing.T) Config { return baseConfig(benignMix()) }},
		{"open-uniform/benign", func(t *testing.T) Config {
			c := baseConfig(benignMix())
			c.Arrivals.Kind = OpenUniform
			return c
		}},
		{"closed/benign", func(t *testing.T) Config {
			c := baseConfig(benignMix())
			c.Arrivals = Arrivals{Kind: ClosedLoop, Clients: 6, ThinkCycles: 500}
			return c
		}},
		{"open-poisson/mixed-probe", func(t *testing.T) Config { return baseConfig(mixedMix(t)) }},
		{"closed/mixed-probe", func(t *testing.T) Config {
			c := baseConfig(mixedMix(t))
			c.Arrivals = Arrivals{Kind: ClosedLoop, Clients: 6, ThinkCycles: 500}
			return c
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var reports []*Report
			for _, workers := range []int{1, 4, 16} {
				cfg := sc.cfg(t)
				cfg.Workers = workers
				rep, err := Run(context.Background(), cfg, fakeBoot(fakeBufLen, 0x41, 1000))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep.Requests != cfg.Requests {
					t.Fatalf("workers=%d: served %d requests, want %d", workers, rep.Requests, cfg.Requests)
				}
				reports = append(reports, rep)
			}
			for i := 1; i < len(reports); i++ {
				if !reflect.DeepEqual(reports[0], reports[i]) {
					t.Fatalf("report at workers=%d differs from workers=1:\n%+v\nvs\n%+v",
						[]int{1, 4, 16}[i], reports[i], reports[0])
				}
			}
		})
	}
}

func TestMixedScenarioCounters(t *testing.T) {
	// Probe-heavy mix against a narrow (2-byte) canary: a byte-by-byte
	// replication on the static fake canary deterministically succeeds in
	// ~150 trials, so a 500-requests-per-shard budget completes several
	// replications per shard.
	strat, err := attack.StrategyByName("byte-by-byte")
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig([]Class{
		{Name: "get", Weight: 1, Payload: []byte("GET /")},
		{Name: "probe", Weight: 3, Probe: strat,
			ProbeCfg: attack.Config{BufLen: fakeBufLen, CanaryLen: 2, MaxTrials: 600}},
	})
	cfg.Requests = 2000
	rep, err := Run(context.Background(), cfg, fakeBoot(fakeBufLen, 0x41, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != rep.OK+rep.Crashes {
		t.Fatalf("requests %d != ok %d + crashes %d", rep.Requests, rep.OK, rep.Crashes)
	}
	var probe, get *ClassStats
	for i := range rep.Classes {
		switch rep.Classes[i].Name {
		case "probe":
			probe = &rep.Classes[i]
		case "get":
			get = &rep.Classes[i]
		}
	}
	if probe == nil || get == nil {
		t.Fatalf("missing class stats: %+v", rep.Classes)
	}
	if get.Crashes != 0 {
		t.Errorf("benign class crashed %d times", get.Crashes)
	}
	if probe.Crashes == 0 || probe.Detections != probe.Crashes {
		t.Errorf("probe class: crashes %d, detections %d; want equal and > 0",
			probe.Crashes, probe.Detections)
	}
	if rep.Crashes != probe.Crashes || rep.Detections != probe.Detections {
		t.Errorf("totals (crashes %d, detections %d) don't match the probe class (%d, %d)",
			rep.Crashes, rep.Detections, probe.Crashes, probe.Detections)
	}
	// The fake canary is static per shard, so the adaptive prober must
	// eventually recover it within its 64-trial replications.
	if probe.ProbeSuccesses == 0 {
		t.Errorf("no probe replication recovered the static canary (replications: %d)",
			probe.ProbeReplications)
	}
	if probe.ProbeReplications < probe.ProbeSuccesses {
		t.Errorf("replications %d < successes %d", probe.ProbeReplications, probe.ProbeSuccesses)
	}
	if rep.ProbeSuccesses != probe.ProbeSuccesses {
		t.Errorf("report probe successes %d != class %d", rep.ProbeSuccesses, probe.ProbeSuccesses)
	}
}

func TestClosedLoopLatencyIncludesQueueing(t *testing.T) {
	// 8 clients, no think time, one shard: the server serializes them, so
	// the mean latency must far exceed the fixed service time.
	cfg := Config{
		Mix:      []Class{{Name: "q", Weight: 1, Payload: []byte("x")}},
		Arrivals: Arrivals{Kind: ClosedLoop, Clients: 8},
		Requests: 64,
		Shards:   1,
		Seed:     1,
	}
	rep, err := Run(context.Background(), cfg, fakeBoot(fakeBufLen, 0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	service := float64(1000 + 1)
	if rep.Latency.MeanCycles < 4*service {
		t.Fatalf("mean latency %.0f under 8-way contention; want >> service time %.0f",
			rep.Latency.MeanCycles, service)
	}
}

func TestOpenLoopSweepFindsKnee(t *testing.T) {
	// Fixed ~1001-cycle service over 2 shards: aggregate capacity is
	// ~1997/Mcycle. The sweep from 0.25x to 4x of 1000/Mcycle must keep up
	// at <= capacity and degrade past it.
	cfg := Config{
		Label:    "knee",
		Mix:      []Class{{Name: "b", Weight: 1, Payload: []byte("x")}},
		Arrivals: Arrivals{Kind: OpenUniform, RatePerMcycle: 1000},
		Requests: 400,
		Shards:   2,
		Seed:     7,
	}
	boot := fakeBoot(fakeBufLen, 0, 1000)
	sw, err := RunSweep(context.Background(), cfg, []float64{0.25, 0.5, 1, 4}, func(ctx context.Context, c Config) (*Report, error) {
		return Run(ctx, c, boot)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 4 {
		t.Fatalf("points %d, want 4", len(sw.Points))
	}
	if sw.KneeMultiplier < 1 {
		t.Errorf("knee %g, want >= 1 (under capacity the servers keep up)", sw.KneeMultiplier)
	}
	over := sw.Points[3].Report
	if over.Efficiency() >= KneeEfficiency {
		t.Errorf("4x overload efficiency %.3f, want < %.2f", over.Efficiency(), KneeEfficiency)
	}
	if sw.KneeMultiplier >= 4 {
		t.Errorf("knee %g includes the overloaded point", sw.KneeMultiplier)
	}
	// Overload shows up as queueing: p99 latency at 4x must dwarf 0.25x.
	if over.Latency.P99 < 4*sw.Points[0].Report.Latency.P99 {
		t.Errorf("overload p99 %d not clearly above underload p99 %d",
			over.Latency.P99, sw.Points[0].Report.Latency.P99)
	}
}

func TestRunCancellationReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{}, 1)
	boot := func(_ context.Context, shard int) (Server, error) {
		return serverFunc(func(ctx context.Context, req []byte) (Outcome, error) {
			select {
			case served <- struct{}{}:
			default:
			}
			if err := ctx.Err(); err != nil {
				return Outcome{}, err
			}
			return Outcome{Cycles: 10}, nil
		}), nil
	}
	cfg := Config{
		Mix:      []Class{{Name: "b", Weight: 1, Payload: []byte("x")}},
		Arrivals: Arrivals{Kind: OpenUniform, RatePerMcycle: 100},
		Requests: 1 << 20,
		Shards:   2,
		Workers:  1,
		Seed:     1,
	}
	go func() {
		<-served
		cancel()
	}()
	rep, err := Run(ctx, cfg, boot)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no partial report on cancellation")
	}
	if rep.Requests >= 1<<20 {
		t.Fatal("cancellation did not stop the run")
	}
}

type serverFunc func(ctx context.Context, req []byte) (Outcome, error)

func (f serverFunc) Handle(ctx context.Context, req []byte) (Outcome, error) { return f(ctx, req) }

func TestBootErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	cfg := baseConfig(benignMix())
	_, err := Run(context.Background(), cfg, func(_ context.Context, shard int) (Server, error) {
		if shard == 2 {
			return nil, boom
		}
		s, _ := fakeBoot(fakeBufLen, 0, 100)(context.Background(), shard)
		return s, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boot failure", err)
	}
}

func TestConfigValidation(t *testing.T) {
	boot := fakeBoot(fakeBufLen, 0, 100)
	cases := []Config{
		{}, // empty mix
		{Mix: []Class{{Name: "x", Weight: 0, Payload: []byte("p")}}, Requests: 1},   // zero weight
		{Mix: []Class{{Name: "x", Weight: 1}}, Requests: 1},                         // neither payload nor probe
		{Mix: benignMix(), Arrivals: Arrivals{Kind: OpenPoisson}, Requests: 1},      // zero rate
		{Mix: benignMix(), Arrivals: Arrivals{Kind: ClosedLoop}, Requests: 1},       // zero clients
		{Mix: benignMix(), Arrivals: Arrivals{Kind: OpenUniform, RatePerMcycle: 1}}, // unbounded
		// Sub-cycle mean inter-arrival: the uniform step would floor to 0
		// and a duration-only bound would spin forever (regression guard).
		{Mix: benignMix(), Arrivals: Arrivals{Kind: OpenUniform, RatePerMcycle: 5e6}, Shards: 1, DurationCycles: 1000},
		{Mix: benignMix(), Arrivals: Arrivals{Kind: OpenPoisson, RatePerMcycle: 9e6}, Shards: 4, Requests: 8},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg, boot); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRequestBudgetSplitsAcrossShards(t *testing.T) {
	for _, total := range []int{1, 5, 7, 13} {
		cfg := Config{
			Mix:      []Class{{Name: "b", Weight: 1, Payload: []byte("x")}},
			Arrivals: Arrivals{Kind: OpenUniform, RatePerMcycle: 100},
			Requests: total,
			Shards:   4,
			Seed:     1,
		}
		rep, err := Run(context.Background(), cfg, fakeBoot(fakeBufLen, 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != total {
			t.Errorf("budget %d: served %d", total, rep.Requests)
		}
	}
}

func TestProgressTicksAndShardCompletions(t *testing.T) {
	// Every shard completion fires a snapshot (so the last one sees the
	// full run), request ticks respect ProgressEvery, counters are
	// monotone, and attaching the callback leaves the deterministic
	// report bit-identical.
	cfg := baseConfig(benignMix())
	cfg.Workers = 4
	cfg.ProgressEvery = 8
	var snaps []Progress
	cfg.Progress = func(p Progress) { snaps = append(snaps, p) }
	rep, err := Run(context.Background(), cfg, fakeBoot(fakeBufLen, 0x41, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Requests < snaps[i-1].Requests || snaps[i].ShardsDone < snaps[i-1].ShardsDone {
			t.Fatalf("snapshot %d regressed: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	last := snaps[len(snaps)-1]
	if last.ShardsDone != cfg.Shards || last.Shards != cfg.Shards {
		t.Fatalf("final snapshot %+v: want all %d shards done", last, cfg.Shards)
	}
	if last.Requests != rep.Requests || last.OK != rep.OK || last.Crashes != rep.Crashes {
		t.Fatalf("final snapshot %+v disagrees with report (%d req, %d ok, %d crashes)",
			last, rep.Requests, rep.OK, rep.Crashes)
	}
	if last.P50Cycles == 0 || last.P99Cycles < last.P50Cycles {
		t.Fatalf("final latency quantiles p50=%d p99=%d", last.P50Cycles, last.P99Cycles)
	}
	cfg.Progress, cfg.ProgressEvery = nil, 0
	silent, err := Run(context.Background(), cfg, fakeBoot(fakeBufLen, 0x41, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, silent) {
		t.Fatal("attaching a progress callback changed the deterministic report")
	}
}

func TestNilProgressMeterIsFree(t *testing.T) {
	// The disabled state is the nil receiver: per-request metering on the
	// hot path must not allocate or tick anything.
	var m *workpool.Meter[Progress]
	out := Outcome{Cycles: 123, Crashed: true}
	if n := testing.AllocsPerRun(100, func() {
		m.Tick(func(p *Progress) {
			if out.Crashed {
				p.Crashes++
			}
		})
		m.Flush(func(p *Progress) { p.ShardsDone++ })
	}); n != 0 {
		t.Fatalf("nil meter allocated %.0f times per request", n)
	}
}

// TestMergeRejectsMalformedPartial: a worker's partial crosses a trust
// boundary, so a class count that does not match the mix is a typed error,
// never an index panic in the merge.
func TestMergeRejectsMalformedPartial(t *testing.T) {
	cfg := baseConfig(mixedMix(t))
	parts, err := RunShards(context.Background(), cfg, fakeBoot(fakeBufLen, 0x41, 1000), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts[1].Classes = parts[1].Classes[:1]
	rep, err := MergePartials(cfg, parts)
	if !errors.Is(err, ErrMalformedPartial) || rep != nil {
		t.Fatalf("merge of a short-classes partial = %v, %v; want ErrMalformedPartial", rep, err)
	}
}
