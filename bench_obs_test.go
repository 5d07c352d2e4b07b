package repro

// Benchmarks and allocation guards for the observability core. The obs
// contract is "one nil check when disabled, one atomic when enabled,
// allocation-free either way"; these pin it at the hot paths the registry
// instruments — the fork-server request loop and the daemon's job
// dispatch — not just at the primitives.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/daemon"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/workpool"
	"repro/pssp"
)

// BenchmarkObs measures the metric primitives themselves: the enabled
// and disabled (nil-handle) forms of the counter, histogram, and
// flight-recorder event. All must report 0 allocs/op.
func BenchmarkObs(b *testing.B) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(4, 64)

	b.Run("counterinc", func(b *testing.B) {
		c := reg.Counter("bench_counter_total")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histrecord", func(b *testing.B) {
		h := reg.Hist("bench_hist_ns")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(uint64(i))
		}
	})
	b.Run("traceevent", func(b *testing.B) {
		tr := rec.Begin(1, "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Event("tick", uint64(i), "")
		}
	})
	b.Run("disablednil", func(b *testing.B) {
		var c *obs.Counter
		var h *obs.SyncHist
		var tr *obs.Trace
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Record(uint64(i))
			tr.Event("tick", 0, "")
		}
	})
}

// BenchmarkObsOverhead measures the instrumented hot paths with the
// observability stack absent vs installed — the numbers behind the
// EXPERIMENTS.md overhead table. requestoff/requeston wrap the
// fork-server request loop (the kernel metrics site, BenchmarkStepLoop's
// serving half); dispatchoff/dispatchon wrap warm in-process daemon
// dispatch (BenchmarkDaemonRequest's dispatchwarm, with explicit registry
// + recorder vs the defaults).
func BenchmarkObsOverhead(b *testing.B) {
	ctx := context.Background()
	app, ok := pssp.App("nginx")
	if !ok {
		b.Fatal("no nginx app")
	}
	m := pssp.NewMachine(pssp.WithSeed(1), pssp.WithScheme(pssp.SchemePSSP))
	srv, err := m.Pipeline().CompileApp("nginx").Serve(ctx)
	if err != nil {
		b.Fatal(err)
	}
	request := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Handle(ctx, app.Request); err != nil {
				b.Fatal(err)
			}
		}
	}
	boot := daemon.BootParams{App: "nginx-vuln", Scheme: "ssp", Seed: 2018}
	dispatch := func(b *testing.B, cfg daemon.Config) {
		d := daemon.New(cfg)
		b.Cleanup(func() { d.Shutdown(context.Background()) })
		if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("requestoff", func(b *testing.B) {
		kernel.SetMetrics(nil)
		workpool.SetMetrics(nil)
		request(b)
	})
	b.Run("requeston", func(b *testing.B) {
		reg := obs.NewRegistry()
		kernel.SetMetrics(reg)
		workpool.SetMetrics(reg)
		defer kernel.SetMetrics(nil)
		defer workpool.SetMetrics(nil)
		request(b)
	})
	b.Run("dispatchoff", func(b *testing.B) {
		dispatch(b, daemon.Config{})
	})
	b.Run("dispatchon", func(b *testing.B) {
		reg := obs.NewRegistry()
		kernel.SetMetrics(reg)
		workpool.SetMetrics(reg)
		defer kernel.SetMetrics(nil)
		defer workpool.SetMetrics(nil)
		// Default-sized recorder: the daemon always flight-records, so
		// the off/on delta isolates the explicit registry + package
		// metrics, not a ring-size change.
		dispatch(b, daemon.Config{Metrics: reg, Recorder: obs.NewRecorder(0, 0)})
	})
}

// TestObsAddsZeroAllocations is the overhead guard on the instrumented hot
// paths: installing the full observability stack (package metrics in
// kernel and workpool, registry + recorder in the daemon) must not add a
// single allocation to the fork-server request loop (BenchmarkStepLoop's
// serving half) or to warm daemon job dispatch (BenchmarkDaemonRequest's
// dispatchwarm). The disabled path is likewise pinned: uninstalling
// returns both loops to the same baseline.
func TestObsAddsZeroAllocations(t *testing.T) {
	ctx := context.Background()

	// Fork-server request loop (the kernel instrumentation site).
	app, ok := pssp.App("nginx")
	if !ok {
		t.Fatal("no nginx app")
	}
	m := pssp.NewMachine(pssp.WithSeed(1), pssp.WithScheme(pssp.SchemePSSP))
	srv, err := m.Pipeline().CompileApp("nginx").Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	handle := func() {
		if _, err := srv.Handle(ctx, app.Request); err != nil {
			t.Fatal(err)
		}
	}

	// Warm daemon dispatch (registry + recorder always on; explicit
	// Config.Metrics must cost the same as the private default).
	boot := daemon.BootParams{App: "nginx-vuln", Scheme: "ssp", Seed: 2018}
	newDaemon := func(cfg daemon.Config) func() {
		d := daemon.New(cfg)
		t.Cleanup(func() { d.Shutdown(context.Background()) })
		if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg := obs.NewRegistry()
	metrics := func(on bool) {
		if on {
			kernel.SetMetrics(reg)
			workpool.SetMetrics(reg)
		} else {
			kernel.SetMetrics(nil)
			workpool.SetMetrics(nil)
		}
	}
	handleBase, handleWith := meanAllocs(metrics, handle, handle)
	metrics(false)
	dispatchOff := newDaemon(daemon.Config{})
	metrics(true)
	dispatchOn := newDaemon(daemon.Config{Metrics: reg, Recorder: obs.NewRecorder(8, 64)})
	dispatchBase, dispatchWith := meanAllocs(metrics, dispatchOff, dispatchOn)

	t.Logf("mean allocs per call: request %.3f off, %.3f on; warm dispatch %.3f off, %.3f on",
		handleBase, handleWith, dispatchBase, dispatchWith)
	if handleWith-handleBase >= 0.5 {
		t.Errorf("fork-server request: %.2f allocs with metrics, %.2f without", handleWith, handleBase)
	}
	if dispatchWith-dispatchBase >= 0.5 {
		t.Errorf("warm dispatch: %.2f allocs with metrics, %.2f without", dispatchWith, dispatchBase)
	}
}

// meanAllocs returns the mean heap allocations per call of off, run with
// metrics(false), and of on, run with metrics(true): alternating rounds of
// 50 calls each, 1000 calls a side after one unmeasured warm-up round.
// testing.AllocsPerRun truncates its mean to an integer, and under the race
// detector sync.Pool drops pooled items at random, so Daemon.Do's pooled
// encoding/json state is now and then allocated afresh and a truncated mean
// can land on either integer. The mean over many interleaved calls moves by
// 1 for a real per-call allocation and by far less than 0.5 for pool drops.
func meanAllocs(metrics func(on bool), off, on func()) (base, with float64) {
	const rounds, calls = 20, 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer metrics(false)
	var ms runtime.MemStats
	var total [2]uint64
	for r := -1; r < rounds; r++ {
		for side, f := range [2]func(){off, on} {
			metrics(side == 1)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			for range calls {
				f()
			}
			runtime.ReadMemStats(&ms)
			if r >= 0 {
				total[side] += ms.Mallocs - before
			}
		}
	}
	return float64(total[0]) / (rounds * calls), float64(total[1]) / (rounds * calls)
}
