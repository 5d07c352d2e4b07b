package pssp_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/pssp"
)

// engines is the full three-engine differential matrix. Index 0 is the
// reference the others are compared against.
var engines = pssp.Engines()

// TestEngineGoldenBatch runs the batch program under every engine for every
// scheme and asserts bit-identical results: exit code, output bytes, and the
// exact instruction and cycle counts.
func TestEngineGoldenBatch(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range pssp.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			type outcome struct {
				exit          uint64
				cycles, insts uint64
				out           string
			}
			got := make([]outcome, len(engines))
			for i, e := range engines {
				m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithEngine(e))
				res, err := m.Pipeline().Compile(batchProg(), pssp.CompileScheme(scheme)).Run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				got[i] = outcome{res.ExitCode, res.Cycles, res.Insts, string(res.Output)}
			}
			for i := 1; i < len(engines); i++ {
				if got[i] != got[0] {
					t.Fatalf("engines diverged:\n%s: %+v\n%s: %+v",
						engines[0], got[0], engines[i], got[i])
				}
			}
		})
	}
}

// TestEngineGoldenAttack runs the byte-by-byte attack against an
// SSP-compiled vulnerable server under every engine with the same seed and
// asserts identical attack outcomes: success, trial count, recovered canary,
// and the per-request crash tally.
func TestEngineGoldenAttack(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []pssp.Scheme{pssp.SchemeSSP, pssp.SchemePSSP} {
		t.Run(scheme.String(), func(t *testing.T) {
			type outcome struct {
				success   bool
				trials    int
				recovered uint64
				failedAt  int
				crashes   int
				cycles    uint64
			}
			got := make([]outcome, len(engines))
			for i, e := range engines {
				m := pssp.NewMachine(
					pssp.WithSeed(2018),
					pssp.WithScheme(scheme),
					pssp.WithEngine(e),
					pssp.WithAttackBudget(3000),
				)
				srv, err := m.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				res, err := srv.Attack(ctx, pssp.AttackConfig{})
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				got[i] = outcome{res.Success, res.Trials, res.RecoveredWord(), res.FailedAt,
					srv.Crashes(), srv.TotalCycles()}
			}
			for i := 1; i < len(engines); i++ {
				if got[i] != got[0] {
					t.Fatalf("attack outcomes diverged:\n%s: %+v\n%s: %+v",
						engines[0], got[0], engines[i], got[i])
				}
			}
		})
	}
}

// TestEngineGoldenTables regenerates every paper table under every engine
// with a scaled-down config and asserts the machine-readable values are
// identical, key for key.
func TestEngineGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-table golden comparison is not -short")
	}
	drivers := []struct {
		name string
		run  func(harness.Config) (*harness.Table, error)
	}{
		{"table1", harness.Table1},
		{"table2", harness.Table2},
		{"table3", harness.Table3},
		{"table4", harness.Table4},
		{"table5", func(c harness.Config) (*harness.Table, error) { return harness.Table5(c, false) }},
	}
	cfg := harness.Config{Seed: 2018, WebRequests: 4, DBQueries: 2, AttackBudget: 600}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			vals := make([]map[string]float64, len(engines))
			for i, e := range engines {
				c := cfg
				c.Engine = e
				tab, err := d.run(c)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				vals[i] = tab.Values
			}
			for i := 1; i < len(engines); i++ {
				if len(vals[i]) != len(vals[0]) {
					t.Fatalf("value sets differ in size: %s=%d %s=%d",
						engines[0], len(vals[0]), engines[i], len(vals[i]))
				}
				for k, v := range vals[0] {
					w, ok := vals[i][k]
					if !ok {
						t.Errorf("%s run missing value %q", engines[i], k)
						continue
					}
					if v != w {
						t.Errorf("%s: %s=%v %s=%v", k, engines[0], v, engines[i], w)
					}
				}
			}
		})
	}
}

// TestEngineGoldenFuzz runs a short fixed-seed fuzzing session under every
// engine and asserts the serialized reports are byte-identical — coverage
// edges, corpus growth, crash findings and minimization included.
func TestEngineGoldenFuzz(t *testing.T) {
	ctx := context.Background()
	reports := make([][]byte, len(engines))
	for i, e := range engines {
		m := pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemeSSP), pssp.WithEngine(e))
		img, err := m.CompileApp("nginx-vuln")
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		rep, err := m.Fuzz(ctx, img, pssp.FuzzConfig{Execs: 400})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e, err)
		}
		reports[i] = b
	}
	for i := 1; i < len(engines); i++ {
		if string(reports[i]) != string(reports[0]) {
			t.Fatalf("fuzz reports diverged:\n%s: %s\n%s: %s",
				engines[0], reports[0], engines[i], reports[i])
		}
	}
}

// TestEngineBudgetClassification pins the satellite fix: a watchdog kill is
// classified as ErrBudgetExhausted by errors.Is from every engine.
func TestEngineBudgetClassification(t *testing.T) {
	ctx := context.Background()
	for _, e := range engines {
		t.Run(fmt.Sprint(e), func(t *testing.T) {
			m := pssp.NewMachine(pssp.WithEngine(e), pssp.WithMaxInstructions(2000))
			_, err := m.Pipeline().Compile(spinProg()).Run(ctx)
			if !errors.Is(err, pssp.ErrCrash) || !errors.Is(err, pssp.ErrBudgetExhausted) {
				t.Fatalf("budget kill = %v, want ErrCrash and ErrBudgetExhausted", err)
			}
			if errors.Is(err, pssp.ErrCanaryDetected) {
				t.Fatal("budget kill must not match ErrCanaryDetected")
			}
		})
	}
}

// TestParseEngine pins the engine-name parsing contract: every canonical
// name round-trips (case-insensitively), and unknown names get an error
// enumerating all engines, core.ParseScheme-style.
func TestParseEngine(t *testing.T) {
	for _, e := range pssp.Engines() {
		got, err := pssp.ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
		got, err = pssp.ParseEngine("  " + e.String() + " ")
		if err != nil || got != e {
			t.Fatalf("ParseEngine with whitespace = %v, %v; want %v", got, err, e)
		}
	}
	if got, err := pssp.ParseEngine("Compiled"); err != nil || got != pssp.EngineCompiled {
		t.Fatalf("ParseEngine(\"Compiled\") = %v, %v; want EngineCompiled", got, err)
	}
	_, err := pssp.ParseEngine("jit")
	if err == nil {
		t.Fatal("ParseEngine(\"jit\") succeeded, want error")
	}
	want := `pssp: unknown engine "jit" (engines: interpreter, predecoded, compiled)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
}

// TestBootAllocs pins what one victim boot allocates: a fresh machine
// serving a precompiled nginx-vuln image to its accept point, then closing
// the server, as each attack replication and each fuzz or load shard does.
// The bounds are the counts measured when the test was written; lower the
// one an engine beats.
func TestBootAllocs(t *testing.T) {
	bounds := map[pssp.Engine]float64{
		pssp.EngineInterpreter: 34,
		pssp.EnginePredecoded:  40,
		pssp.EngineCompiled:    56,
	}
	ctx := context.Background()
	img, err := pssp.NewMachine(pssp.WithScheme(pssp.SchemeSSP)).CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		n := testing.AllocsPerRun(100, func() {
			srv, err := pssp.NewMachine(pssp.WithEngine(e)).Serve(ctx, img)
			if err != nil {
				t.Fatal(err)
			}
			srv.Close()
		})
		if n > bounds[e] {
			t.Errorf("%v: one boot makes %v allocs, want at most %v", e, n, bounds[e])
		} else {
			t.Logf("%v: %v allocs per boot", e, n)
		}
	}
}
