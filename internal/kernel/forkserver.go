package kernel

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/vm"
)

// ErrServerClosed is returned by Handle/HandleContext after Close.
var ErrServerClosed = errors.New("kernel: fork server is closed")

// ForkServer is the fork-per-request supervisor of the paper's threat model:
// a parent process runs to its accept(2) point and parks there; every
// incoming request is served by a freshly forked child that inherits the
// parent's address space — including its TLS canary and its live stack
// frames. When a child crashes, the parent simply forks another for the next
// request.
//
// For the attacker this is the oracle: Handle returns whether the child
// crashed (guess wrong) or responded (guess right).
//
// The server keeps one child slot and recycles it: each request forks into
// the previous request's dead, released worker — its process, CPU, space
// headers, entropy source and request buffer — so a request allocates
// nothing beyond the response bytes its worker writes. Every request still
// runs the scheme's fork hooks (each p-ssp worker re-randomises its shadow
// pair), and PIDs, the TSC base and every Outcome field are what a freshly
// allocated child would give.
type ForkServer struct {
	kernel *Kernel
	parent *Process
	closed bool
	// slot is the recycled child; nil before the first request and after
	// a request that did not finish (its half-run worker is dropped).
	slot *slot

	// Requests counts Handle calls; Crashes counts children that died.
	Requests int
	Crashes  int

	// TotalCycles and TotalInsts accumulate child execution costs for the
	// response-time experiments.
	TotalCycles uint64
	TotalInsts  uint64
}

// Outcome reports one request's fate.
type Outcome struct {
	// PID is the worker process's id.
	PID int
	// Crashed is true if the worker died (canary mismatch abort, fault, ...).
	Crashed bool
	// CrashReason describes the death, empty otherwise.
	CrashReason string
	// CrashErr is the typed crash error (wraps ErrStackSmash for canary
	// aborts), nil when the worker exited cleanly.
	CrashErr error
	// Response is everything the worker wrote to fd 1 before finishing —
	// including output emitted before a crash, since on a real socket those
	// bytes have already left the process. Detection *latency* is therefore
	// observable: a check that fires only in the epilogue may leak a
	// response computed from corrupted data first. The buffer is the
	// caller's: the server never reuses it (nil when nothing was written).
	Response []byte
	// Cycles and Insts are the worker's execution cost for this request.
	Cycles uint64
	Insts  uint64
}

// NewForkServer spawns the server program and runs it to its accept point.
func NewForkServer(k *Kernel, app *binfmt.Binary, opts SpawnOpts) (*ForkServer, error) {
	parent, err := k.Spawn(app, opts)
	if err != nil {
		return nil, err
	}
	return ServeProcess(context.Background(), k, parent)
}

// ServeProcess boots an already-spawned parent to its accept point and wraps
// it as a ForkServer. It exists so callers can instrument the parent (a
// tracer) between Spawn and boot.
func ServeProcess(ctx context.Context, k *Kernel, parent *Process) (*ForkServer, error) {
	st, err := k.RunContext(ctx, parent)
	if err != nil {
		return nil, err
	}
	switch st {
	case StateWaiting:
		return &ForkServer{kernel: k, parent: parent}, nil
	case StateCrashed:
		return nil, fmt.Errorf("kernel: server crashed before accept: %s", parent.CrashReason)
	default:
		return nil, fmt.Errorf("kernel: server reached state %s before accept", st)
	}
}

// Parent returns the parked parent process (for inspection in experiments).
func (s *ForkServer) Parent() *Process { return s.parent }

// EnableCoverage installs an edge-coverage map on the parked parent's CPU
// and returns it. Fork copies the CPU struct wholesale, so every worker
// forked afterwards records its executed edges into this one map — the
// fuzzing loop resets it before each request (Coverage().Reset()) and reads
// it after, giving a per-request edge snapshot with zero per-fork setup.
// The map lists the buckets each request touches, so that reset and the
// fuzzer's merge cost the request's footprint, not a 64 KiB pass.
// Idempotent: a map installed earlier is returned as-is.
func (s *ForkServer) EnableCoverage() *vm.CovMap {
	if cov := s.parent.CPU.Coverage(); cov != nil {
		return cov
	}
	cov := new(vm.CovMap)
	s.parent.CPU.SetCoverage(cov)
	return cov
}

// Coverage returns the installed edge map (nil until EnableCoverage).
func (s *ForkServer) Coverage() *vm.CovMap { return s.parent.CPU.Coverage() }

// Handle serves one request with a fresh child and reports its outcome.
func (s *ForkServer) Handle(req []byte) (Outcome, error) {
	return s.HandleContext(context.Background(), req)
}

// Close retires the parked parent: its large private buffers — including
// the ones still marked copy-on-write, whose only peers are this server's
// dead single-shot workers — go back to the kernel's pool, so the next
// server booted on the same kernel forks from recycled memory instead of
// allocating. Subsequent Handle calls fail with ErrServerClosed; the
// counters stay readable. Close is idempotent.
func (s *ForkServer) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.slot = nil
	s.parent.Space.ReleaseAll()
}

// Closed reports whether Close has retired the server.
func (s *ForkServer) Closed() bool { return s.closed }

// Parked reports whether the server is still serviceable: not closed, with
// the parent alive and blocked in accept. The daemon's warm pool runs this
// health check at checkout and respawns entries that fail it.
func (s *ForkServer) Parked() bool {
	return !s.closed && s.parent.State == StateWaiting
}

// HandleContext is Handle with cancellation plumbed into the worker's run.
// On cancellation the half-run child is discarded and ctx.Err() returned.
func (s *ForkServer) HandleContext(ctx context.Context, req []byte) (Outcome, error) {
	if s.closed {
		return Outcome{}, ErrServerClosed
	}
	if s.slot == nil {
		s.slot = new(slot)
	}
	out, err := s.serve(ctx, req)
	if err != nil {
		// The slot's worker may be half-run or half-forked: never recycle it.
		s.slot = nil
	}
	return out, err
}

// serve forks the request's worker into the slot, runs it and, once the
// outcome is copied out, releases its space for the next fork.
func (s *ForkServer) serve(ctx context.Context, req []byte) (Outcome, error) {
	child, err := s.kernel.forkInto(s.parent, s.slot)
	if err != nil {
		return Outcome{}, err
	}
	startCycles, startInsts := child.CPU.Cycles, child.CPU.Insts
	if err := child.Deliver(req); err != nil {
		return Outcome{}, err
	}
	st, err := s.kernel.RunContext(ctx, child)
	if err != nil {
		return Outcome{}, err
	}

	out := Outcome{
		PID:    child.ID,
		Cycles: child.CPU.Cycles - startCycles,
		Insts:  child.CPU.Insts - startInsts,
	}
	s.Requests++
	s.TotalCycles += out.Cycles
	s.TotalInsts += out.Insts

	out.Response = child.Stdout
	switch st {
	case StateExited:
	case StateCrashed:
		out.Crashed = true
		out.CrashReason = child.CrashReason
		out.CrashErr = child.CrashErr
		s.Crashes++
	default:
		return Outcome{}, fmt.Errorf("kernel: worker stuck in state %s", st)
	}
	if m := metrics.Load(); m != nil {
		m.requests.Inc()
		if out.Crashed {
			m.crashes.Inc()
		}
	}
	// The single-shot worker is dead and the outcome fully copied out:
	// recycle its materialized buffers so the next fork reuses them instead
	// of allocating. Segments still shared with the parent are untouched.
	child.Space.Release()
	return out, nil
}
