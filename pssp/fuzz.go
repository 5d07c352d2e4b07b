package pssp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fuzz"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/vm"
)

// FuzzConfig parameterizes Machine.Fuzz. The zero value fuzzes the image's
// built-in benign request for 4096 mutations over 4 shards.
type FuzzConfig struct {
	// Label names the run in the report (default: the image name).
	Label string
	// Seeds is the initial corpus; empty means the app's built-in request.
	Seeds [][]byte
	// Dict is an optional dictionary of tokens for the mutation engine.
	Dict [][]byte
	// Execs is the total mutation budget, partitioned across shards
	// (default 4096). Seed executions and crash-minimization probes run on
	// top of it.
	Execs int
	// Shards is the number of self-contained fuzzing shards, each booting
	// its own replica victim (default 4). Part of the scenario, like a
	// campaign's replication count.
	Shards int
	// Workers bounds shard concurrency (default GOMAXPROCS). Wall-clock
	// only: for a fixed Seed the report is bit-identical at any count.
	Workers int
	// Seed drives the whole run (victim entropy and mutation streams);
	// 0 means the machine's seed.
	Seed uint64
	// MaxInput caps generated input length in bytes (default 1024).
	MaxInput int
	// Progress, when non-nil, receives a running tally roughly every 256
	// executions and at every shard completion, serialized by the engine.
	// Wall-clock observability only — it never affects the deterministic
	// report.
	Progress func(FuzzProgress)
	// BaseVirgin seeds every shard's coverage frontier with a previous run's
	// merged frontier (FuzzReport.Frontier) — the persistent-corpus resume
	// path: known edges are no longer novel, so the budget chases new
	// coverage. Part of the scenario. Ignored unless it is exactly the VM
	// coverage-map size.
	BaseVirgin []byte
}

// FuzzProgress is a fuzzing run's running tally; see fuzz.Progress.
type FuzzProgress = fuzz.Progress

// FuzzReport is a fuzzing run's deterministic aggregate: execution and crash
// counts, the deduplicated findings, the coverage frontier (edge count +
// hash), and the corpus fingerprint. See fuzz.Report for the field docs.
type FuzzReport = fuzz.Report

// FuzzFinding is one deduplicated crash site with its minimized input; see
// fuzz.Finding. Feed it to FindingAttack to campaign against the discovered
// overflow.
type FuzzFinding = fuzz.Finding

// FindingAttack is the fuzz→attack bridge: it converts a discovered crash
// into the AttackConfig that brute-forces the same overflow. The minimized
// crashing input is one byte longer than what the victim survives, so its
// length minus one is the buffer-start→canary distance an attacker needs
// (AttackConfig.BufLen). Canary-detected findings translate exactly; for a
// raw-crash finding (unprotected victim) the same length still marks the
// first corruptible slot.
func FindingAttack(f FuzzFinding) AttackConfig {
	return AttackConfig{BufLen: f.OverflowLen()}
}

// fuzzVictimStream separates shard victim-machine seeds from campaign
// victims (stream 1) and loadgen shard victims (stream 2).
const fuzzVictimStream = 3

// fuzzExecutor adapts one shard's fork-server into the fuzzing engine's
// executor: reset the shared edge map (only the buckets the previous exec
// touched), serve the input to a fresh worker, classify the outcome.
type fuzzExecutor struct {
	srv *kernel.ForkServer
	cov *vm.CovMap
}

// Execute implements fuzz.Executor.
func (e *fuzzExecutor) Execute(ctx context.Context, input []byte) (fuzz.Exec, *vm.CovMap, error) {
	e.cov.Reset()
	out, err := e.srv.HandleContext(ctx, input)
	if err != nil {
		return fuzz.Exec{}, nil, err
	}
	ex := fuzz.Exec{Cycles: out.Cycles, Insts: out.Insts}
	if out.Crashed {
		ex.Crashed = true
		ex.Detected = errors.Is(out.CrashErr, kernel.ErrStackSmash)
		ex.Kind = out.CrashReason
		// The kernel's crash errors are *vm.CrashError values themselves;
		// only a wrapped one pays for errors.As's heap-escaping target.
		ce, _ := out.CrashErr.(*vm.CrashError)
		if ce == nil {
			var wrapped *vm.CrashError
			if errors.As(out.CrashErr, &wrapped) {
				ce = wrapped
			}
		}
		if ce != nil {
			ex.CrashPC = ce.RIP
			ex.Kind = ce.Reason
		}
	}
	return ex, e.cov, nil
}

// Fuzz runs a coverage-guided fuzzing campaign against img: cfg.Shards
// self-contained shards, each booting its own replica fork-server victim
// with the VM's edge-coverage map enabled, mutating from its private stream
// of the seed, executed by cfg.Workers goroutines. Crashes are deduplicated
// by (fault PC, fault kind, canary-detected vs raw) and minimized; the
// resulting findings feed Machine.Campaign through FindingAttack.
//
// For a fixed seed the report — corpus hashes, coverage frontier, crash set
// — is bit-identical at any worker count. On cancellation the partial report
// of the work done so far is returned alongside ctx.Err().
func (m *Machine) Fuzz(ctx context.Context, img *Image, cfg FuzzConfig) (*FuzzReport, error) {
	fc, boot, err := m.fuzzPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	return fuzz.Run(ctx, fc, boot)
}

// fuzzPlan resolves cfg into the engine configuration and per-shard boot —
// the shared front half of Fuzz, FuzzShards, and FuzzPlan.
func (m *Machine) fuzzPlan(img *Image, cfg FuzzConfig) (fuzz.Config, fuzz.Boot, error) {
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		app, ok := App(img.Name())
		if !ok || app.Request == nil {
			return fuzz.Config{}, nil, fmt.Errorf("pssp: no built-in request to seed the fuzzer for image %q; set FuzzConfig.Seeds", img.Name())
		}
		seeds = [][]byte{app.Request}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = m.cfg.seed
	}
	label := cfg.Label
	if label == "" {
		label = img.Name()
	}
	boot := func(ctx context.Context, shard int) (fuzz.Executor, error) {
		victim := m.withSeed(rng.Mix(rng.Mix(seed, uint64(shard)), fuzzVictimStream))
		srv, err := victim.Serve(ctx, img)
		if err != nil {
			return nil, err
		}
		return &fuzzExecutor{srv: srv.srv, cov: srv.srv.EnableCoverage()}, nil
	}
	return fuzz.Config{
		Label:      label,
		Seeds:      seeds,
		Dict:       cfg.Dict,
		Execs:      cfg.Execs,
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		Seed:       seed,
		MaxInput:   cfg.MaxInput,
		Progress:   cfg.Progress,
		BaseVirgin: cfg.BaseVirgin,
	}, boot, nil
}
