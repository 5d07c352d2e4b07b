package pssp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/workpool"
	"repro/pssp"
)

// batchProg is a tiny batch program: one protected function computes and
// writes a byte, then the program exits.
func batchProg() *cc.Program {
	return &cc.Program{
		Name: "roundtrip",
		Funcs: []*cc.Func{
			{Name: "main", Body: []cc.Stmt{cc.Call{Callee: "work"}}},
			{
				Name: "work",
				Locals: []cc.Local{
					{Name: "out", Size: 8, IsBuffer: true},
					{Name: "buf", Size: 16, IsBuffer: true},
				},
				Body: []cc.Stmt{
					cc.Compute{Ops: 8},
					cc.SetConst{Dst: "out", Value: 42},
					cc.WriteOutput{Src: "out", Len: 1},
				},
			},
		},
	}
}

// spinProg loops forever — the cancellation target.
func spinProg() *cc.Program {
	return &cc.Program{
		Name: "spin",
		Funcs: []*cc.Func{
			{
				Name:   "main",
				Locals: []cc.Local{{Name: "n", Size: 8, IsBuffer: true}},
				Body: []cc.Stmt{
					cc.SetConst{Dst: "n", Value: 1},
					cc.While{Var: "n", Body: []cc.Stmt{cc.Compute{Ops: 16}}},
				},
			},
		},
	}
}

// TestRoundTripEveryScheme compiles, loads, and runs the batch program to
// completion under every defined protection scheme.
func TestRoundTripEveryScheme(t *testing.T) {
	for _, s := range pssp.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			m := pssp.NewMachine(pssp.WithSeed(11), pssp.WithScheme(s))
			res, err := m.Pipeline().Compile(batchProg()).Run(context.Background())
			if err != nil {
				t.Fatalf("pipeline run: %v", err)
			}
			if !bytes.Equal(res.Output, []byte{42}) {
				t.Fatalf("output %v, want [42]", res.Output)
			}
			if res.Cycles == 0 || res.Insts == 0 {
				t.Fatalf("no execution cost recorded: %+v", res)
			}
		})
	}
}

// TestStepwisePipelineMatchesFluent checks Compile/Load/Run composed by
// hand against the fluent Pipeline on identical machines.
func TestStepwisePipelineMatchesFluent(t *testing.T) {
	ctx := context.Background()

	m1 := pssp.NewMachine(pssp.WithSeed(3))
	img, err := m1.Compile(batchProg())
	if err != nil {
		t.Fatal(err)
	}
	p, err := m1.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	m2 := pssp.NewMachine(pssp.WithSeed(3))
	res2, err := m2.Pipeline().Compile(batchProg()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cycles != res2.Cycles || res1.Insts != res2.Insts {
		t.Fatalf("stepwise (%d cycles) and fluent (%d cycles) runs diverge", res1.Cycles, res2.Cycles)
	}

	// A finished process cannot be run again.
	if _, err := p.Run(ctx); !errors.Is(err, pssp.ErrHalted) {
		t.Fatalf("re-run of finished process: %v, want ErrHalted", err)
	}
}

// TestRunCancellation verifies ctx cancellation reaches the VM step loop:
// an infinite loop is aborted promptly, both with a pre-cancelled context
// and with one cancelled mid-run.
func TestRunCancellation(t *testing.T) {
	m := pssp.NewMachine(pssp.WithMaxInstructions(1 << 40))
	img, err := m.Compile(spinProg())
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	proc, err := m.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = proc.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — not reaching the step loop", elapsed)
	}
	if proc.Insts() == 0 {
		t.Fatal("process never stepped before cancellation")
	}
}

// TestErrorTaxonomy drives a real overflow and checks the sentinel errors
// work with errors.Is / errors.As.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	m := pssp.NewMachine(pssp.WithSeed(5), pssp.WithScheme(pssp.SchemeSSP))
	srv, err := m.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}

	benign, err := srv.Handle(ctx, []byte("GET /"))
	if err != nil {
		t.Fatal(err)
	}
	if benign.Crashed() {
		t.Fatalf("benign request crashed: %v", benign.Err)
	}

	// Overflow through the canary: the worker must die by canary check.
	smash, err := srv.Handle(ctx, bytes.Repeat([]byte{0xee}, pssp.VulnServerBufSize+8))
	if err != nil {
		t.Fatal(err)
	}
	if !smash.Crashed() {
		t.Fatal("overflow not detected")
	}
	if !errors.Is(smash.Err, pssp.ErrCrash) {
		t.Errorf("crash does not match ErrCrash: %v", smash.Err)
	}
	if !errors.Is(smash.Err, pssp.ErrCanaryDetected) {
		t.Errorf("canary abort does not match ErrCanaryDetected: %v", smash.Err)
	}
	var ce *pssp.CrashError
	if !errors.As(smash.Err, &ce) || ce.PID == 0 || ce.Reason == "" {
		t.Errorf("errors.As(*CrashError) = %v (err %v)", ce, smash.Err)
	}

	// Budget exhaustion is a distinct sentinel, not a canary detection.
	mb := pssp.NewMachine(pssp.WithMaxInstructions(64))
	_, err = mb.Pipeline().Compile(spinProg()).Run(ctx)
	if !errors.Is(err, pssp.ErrCrash) || !errors.Is(err, pssp.ErrBudgetExhausted) {
		t.Errorf("budget kill = %v, want ErrCrash and ErrBudgetExhausted", err)
	}
	if errors.Is(err, pssp.ErrCanaryDetected) {
		t.Error("budget kill must not match ErrCanaryDetected")
	}
}

// TestServerFlow exercises Serve/Handle/Attack end to end: the attack must
// recover the canary under SSP and stall under P-SSP.
func TestServerFlow(t *testing.T) {
	ctx := context.Background()

	ssp := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemeSSP), pssp.WithAttackBudget(4096))
	srv, err := ssp.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Attack(ctx, pssp.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("byte-by-byte attack failed on SSP after %d trials", res.Trials)
	}
	real, err := srv.Canary()
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveredWord() != real {
		t.Fatalf("recovered %016x, want %016x", res.RecoveredWord(), real)
	}

	poly := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemePSSP), pssp.WithAttackBudget(2048))
	psrv, err := poly.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := psrv.Attack(ctx, pssp.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Success {
		t.Fatal("byte-by-byte attack succeeded against P-SSP")
	}

	// Attacks are cancellable mid-run too.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := psrv.Attack(cctx, pssp.AttackConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled attack: %v, want context.Canceled", err)
	}
}

// TestRewritePipeline runs the binary-instrumentation path through the
// facade: SSP image, rewritten in place, still detects overflows.
func TestRewritePipeline(t *testing.T) {
	ctx := context.Background()
	m := pssp.NewMachine(pssp.WithSeed(9), pssp.WithScheme(pssp.SchemeSSP))

	pl := m.Pipeline().CompileApp("nginx-vuln")
	before, err := pl.Image()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pl.Rewrite().Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after, err := pl.Image()
	if err != nil {
		t.Fatal(err)
	}
	if after.TextSize() != before.TextSize() {
		t.Fatalf(".text grew: %d -> %d bytes", before.TextSize(), after.TextSize())
	}
	app, _ := pssp.App("nginx-vuln")
	ok, err := srv.Handle(ctx, app.Request)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Crashed() {
		t.Fatalf("benign request on rewritten binary crashed: %v", ok.Err)
	}
	smash, err := srv.Handle(ctx, bytes.Repeat([]byte{0xfe}, pssp.VulnServerBufSize+8))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(smash.Err, pssp.ErrCanaryDetected) {
		t.Fatalf("rewritten binary missed the overflow: %v", smash.Err)
	}
}

// TestImageMarshalRoundTrip checks the on-disk image path the CLIs use.
func TestImageMarshalRoundTrip(t *testing.T) {
	m := pssp.NewMachine()
	img, err := m.CompileApp("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	back, err := pssp.UnmarshalImage(img.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != img.Name() || back.Scheme() != img.Scheme() || back.CodeSize() != img.CodeSize() {
		t.Fatalf("round trip changed image: %s/%v/%d -> %s/%v/%d",
			img.Name(), img.Scheme(), img.CodeSize(), back.Name(), back.Scheme(), back.CodeSize())
	}
	res, err := pssp.NewMachine().Run(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 {
		t.Fatal("unmarshalled image did not run")
	}
}

// TestPipelineLoadThenServe checks that an explicit Load step feeds the
// terminal Serve/Run steps instead of being silently discarded, and that
// late LoadOptions are rejected.
func TestPipelineLoadThenServe(t *testing.T) {
	ctx := context.Background()

	// Load-then-Serve must boot the loaded process: a machine driven that
	// way behaves identically to the direct Serve form on a twin machine.
	a := pssp.NewMachine(pssp.WithSeed(21), pssp.WithScheme(pssp.SchemeSSP))
	srvA, err := a.Pipeline().CompileApp("nginx-vuln").Load().Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := pssp.NewMachine(pssp.WithSeed(21), pssp.WithScheme(pssp.SchemeSSP))
	srvB, err := b.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := srvA.Canary()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := srvB.Canary()
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("Load().Serve() canary %016x != Serve() canary %016x — Load step not reused", ca, cb)
	}

	// LoadOptions after an explicit Load are an error, not silently dropped.
	c := pssp.NewMachine()
	if _, err := c.Pipeline().Compile(batchProg()).Load().Run(ctx, pssp.LoadPreload(pssp.SchemeSSP)); err == nil {
		t.Fatal("late LoadOption on Run accepted")
	}
	d := pssp.NewMachine(pssp.WithScheme(pssp.SchemeSSP))
	if _, err := d.Pipeline().CompileApp("nginx-vuln").Load().Serve(ctx, pssp.LoadPreload(pssp.SchemeSSP)); err == nil {
		t.Fatal("late LoadOption on Serve accepted")
	}
}

// TestMachineCloseRetiresServers: Machine.Close closes every server the
// machine booted, Handle then fails with ErrServerClosed, and the machine
// itself stays usable — a fresh Serve on it works and reuses the pool.
func TestMachineCloseRetiresServers(t *testing.T) {
	ctx := context.Background()
	m := pssp.NewMachine(pssp.WithSeed(21), pssp.WithScheme(pssp.SchemeSSP))
	img, err := m.Pipeline().CompileApp("nginx-vuln").Image()
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := m.Serve(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := m.Serve(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Handle(ctx, []byte("GET /")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	for i, srv := range []*pssp.Server{srv1, srv2} {
		if !srv.Closed() {
			t.Fatalf("server %d not closed by Machine.Close", i)
		}
		if _, err := srv.Handle(ctx, []byte("GET /")); !errors.Is(err, pssp.ErrServerClosed) {
			t.Fatalf("server %d Handle after Close: %v, want ErrServerClosed", i, err)
		}
	}
	// Counters survive for post-mortem reads.
	if srv1.Requests() != 1 {
		t.Fatalf("srv1 requests = %d after Close, want 1", srv1.Requests())
	}
	// The machine is still serviceable after Close.
	srv3, err := m.Serve(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv3.Handle(ctx, []byte("GET /"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Crashed() {
		t.Fatalf("benign request crashed on post-Close server: %v", resp.Err)
	}
}

// TestConcurrentSessions runs 12 independent Machines on one worker pool —
// each compiling, serving, attacking, and running batch work — and checks
// every machine's results. `go test -race` makes this the facade's
// isolation proof: no state is shared between machines.
func TestConcurrentSessions(t *testing.T) {
	const n = 12
	type outcome struct {
		canary    uint64
		attackWon bool
		batchOut  []byte
	}
	results := make([]outcome, n)

	err := workpool.Run(context.Background(), n, n, func(ctx context.Context, id int) error {
		m := pssp.NewMachine(pssp.WithSeed(uint64(id) + 1))
		// Odd machines run the polymorphic scheme, even ones classic SSP,
		// so concurrent machines exercise different pass pipelines.
		scheme := pssp.SchemeSSP
		if id%2 == 1 {
			scheme = pssp.SchemePSSP
		}
		srv, err := m.Pipeline().CompileApp("nginx-vuln", pssp.CompileScheme(scheme)).Serve(ctx)
		if err != nil {
			return fmt.Errorf("machine %d: serve: %w", id, err)
		}
		for i := 0; i < 3; i++ {
			resp, err := srv.Handle(ctx, []byte("GET /"))
			if err != nil {
				return fmt.Errorf("machine %d: handle: %w", id, err)
			}
			if resp.Crashed() {
				return fmt.Errorf("machine %d: benign request crashed: %w", id, resp.Err)
			}
		}
		res, err := srv.Attack(ctx, pssp.AttackConfig{MaxTrials: 512})
		if err != nil {
			return fmt.Errorf("machine %d: attack: %w", id, err)
		}
		canary, err := srv.Canary()
		if err != nil {
			return err
		}

		batch, err := m.Pipeline().Compile(batchProg(), pssp.CompileScheme(scheme)).Run(ctx)
		if err != nil {
			return fmt.Errorf("machine %d: batch: %w", id, err)
		}
		results[id] = outcome{canary: canary, attackWon: res.Success, batchOut: batch.Output}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint64]int)
	for id, r := range results {
		if !bytes.Equal(r.batchOut, []byte{42}) {
			t.Errorf("machine %d: batch output %v", id, r.batchOut)
		}
		if r.attackWon && id%2 == 1 {
			t.Errorf("machine %d: attack succeeded against P-SSP", id)
		}
		if prev, dup := seen[r.canary]; dup {
			t.Errorf("machines %d and %d share a canary %016x — machines not independent", prev, id, r.canary)
		}
		seen[r.canary] = id
	}
}
