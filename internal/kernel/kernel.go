// Package kernel models the operating-system layer of the reproduction: a
// process abstraction over the VM, program loading with dynamic or static
// linkage, fork(2) with full address-space cloning (including the TLS block
// — the inheritance the byte-by-byte attack exploits), the LD_PRELOAD-style
// scheme hooks from the paper's shared library, and a fork-per-request
// server supervisor that serves as the attacker's crash oracle.
package kernel

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/abi"
	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/vm"
)

// State is a process's lifecycle state.
type State uint8

// Process states.
const (
	// StateRunning means the process can execute.
	StateRunning State = iota + 1
	// StateWaiting means the process is blocked in accept(2) waiting for a
	// request. The fork server forks children from this point.
	StateWaiting
	// StateExited means the process terminated normally via exit(2).
	StateExited
	// StateCrashed means the process died abnormally: a memory fault, an
	// illegal instruction, or __stack_chk_fail's abort.
	StateCrashed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateWaiting:
		return "waiting"
	case StateExited:
		return "exited"
	case StateCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("state?%d", uint8(s))
	}
}

// errAwaitAccept is the internal signal that a process blocked in accept.
var errAwaitAccept = errors.New("kernel: await accept")

// ErrStackSmash marks crashes raised by __stack_chk_fail's abort — a canary
// check detected an overwrite. It is carried as the Cause of the CrashError
// so callers can classify crashes with errors.Is instead of matching the
// CrashReason string.
var ErrStackSmash = errors.New("kernel: stack smashing detected")

// ErrBudget marks crashes caused by the instruction-budget watchdog, not by
// guest misbehaviour. It aliases vm.ErrBudget so errors.Is classifies budget
// kills identically whether they surface from the raw VM loop or through the
// kernel, under either execution engine.
var ErrBudget = vm.ErrBudget

// Process is one simulated process.
type Process struct {
	ID    int
	Space *mem.Space
	CPU   *vm.CPU
	State State

	// Scheme is the preload behaviour applied at startup and fork — the
	// paper's shared-library role. It may differ from the scheme the binary
	// was compiled with (that is the compatibility experiment).
	Scheme core.Scheme

	// ExitCode is valid in StateExited.
	ExitCode uint64
	// CrashReason is valid in StateCrashed.
	CrashReason string
	// CrashErr is the error that crashed the process (valid in StateCrashed).
	// It wraps ErrStackSmash for canary aborts and ErrBudget for watchdog
	// kills, so callers can classify with errors.Is/As.
	CrashErr error

	// Stdout accumulates SysWrite output (fd 1).
	Stdout []byte

	stdin    []byte
	stdinOff int
	reqBuf   []byte // Deliver's copy of the request, reused by the next Deliver
	isChild  bool   // children get exactly one request, then accept returns 0

	rand *rng.Source
	bin  *binfmt.Binary
	sys  sysHandler // the process's syscall handler, embedded to avoid a per-fork allocation
}

// TLS returns the thread-local-storage view at the CPU's current FS base
// (the process's main TLS block, or the thread's own for SpawnThread'ed
// threads).
func (p *Process) TLS() *core.TLS { return core.NewTLS(p.Space, p.CPU.FSBase) }

// TLSAt returns the TLS view at an explicit FS base.
func (p *Process) TLSAt(base uint64) *core.TLS { return core.NewTLS(p.Space, base) }

// Binary returns the program image the process was spawned from.
func (p *Process) Binary() *binfmt.Binary { return p.bin }

// Deliver hands a request to a process blocked in accept and unblocks it.
// The process reads a copy of req, kept in a buffer the process owns: a
// fork server's recycled worker copies each request into the same buffer.
func (p *Process) Deliver(req []byte) error {
	if p.State != StateWaiting {
		return fmt.Errorf("kernel: deliver to process %d in state %s", p.ID, p.State)
	}
	p.reqBuf = append(p.reqBuf[:0], req...)
	// accept(2) already trapped; complete it by writing its return value.
	p.stdin = p.reqBuf
	p.stdinOff = 0
	p.CPU.GPR[isa.RAX] = uint64(len(p.stdin))
	p.State = StateRunning
	return nil
}

// Kernel owns processes and the global entropy source.
type Kernel struct {
	rand    *rng.Source
	nextPID int

	// MaxInsts bounds one Run call; a process exceeding it is crashed with a
	// budget fault (the analog of a watchdog kill).
	MaxInsts uint64

	// Engine selects the VM execution engine for every process the kernel
	// spawns. The zero value is vm.EnginePredecoded; vm.EngineCompiled is
	// the fast block-lowered tier and vm.EngineInterpreter the legacy
	// decode-each-step path (differential testing). Forked children inherit
	// the parent's engine with the rest of the CPU state.
	Engine vm.Engine

	// now is global machine time in cycles, advanced by every Run. New
	// processes read the time-stamp counter relative to it, so TSC behaves
	// like hardware: monotonic across the whole machine, never reset by
	// fork.
	now uint64

	// spawned collects children created by guest-initiated SysFork calls,
	// ready to be scheduled by the host via TakeSpawned.
	spawned []*Process

	// pool recycles copy-on-write materialization buffers between the
	// machine's short-lived fork-per-request workers.
	pool *mem.BufPool

	// aborts memoises one crash per __stack_chk_fail abort site (RIP): an
	// immutable error and its formatted reason, shared by every worker
	// that aborts there, so a detected smash allocates nothing.
	aborts map[uint64]abortSite
}

// abortSite is one abort RIP's crash error and its CrashReason string.
type abortSite struct {
	err    *vm.CrashError
	reason string
}

// abort returns the memoised crash of an abort at rip.
func (k *Kernel) abort(rip uint64) *vm.CrashError {
	if a, ok := k.aborts[rip]; ok {
		return a.err
	}
	err := &vm.CrashError{RIP: rip, Reason: "abort (stack smashing detected)", Cause: ErrStackSmash}
	if k.aborts == nil {
		k.aborts = make(map[uint64]abortSite)
	}
	k.aborts[rip] = abortSite{err: err, reason: err.Error()}
	return err
}

// crashReason is err.Error(), read from the memo for an abort's error.
func (k *Kernel) crashReason(err error) string {
	if ce, ok := err.(*vm.CrashError); ok {
		if a, ok := k.aborts[ce.RIP]; ok && a.err == ce {
			return a.reason
		}
	}
	return err.Error()
}

// TakeSpawned returns and clears the children created by guest fork(2)
// calls since the last invocation. The host is the scheduler: run them with
// Run in whatever order the experiment needs.
func (k *Kernel) TakeSpawned() []*Process {
	out := k.spawned
	k.spawned = nil
	return out
}

// Now returns the machine's global cycle clock.
func (k *Kernel) Now() uint64 { return k.now }

// New returns a kernel seeded with seed.
func New(seed uint64) *Kernel {
	return &Kernel{rand: rng.New(seed), nextPID: 1, MaxInsts: 4 << 20, pool: &mem.BufPool{}}
}

// ReplicaSeeded returns a fresh kernel configured like k (engine,
// instruction budget) running on its own entropy stream from the given
// derived seed (callers mix (seed, stream) pairs with rng.Mix). This is
// the multi-worker oracle path: a kernel is single-threaded by design (one
// clock, one PID space, one buffer pool), so concurrent trial shards each
// get their own replica instead of locking a shared machine. ReplicaSeeded
// consumes none of k's entropy — the same seed always yields the same
// replica, no matter when, or on how many workers, the replicas are
// created.
func (k *Kernel) ReplicaSeeded(seed uint64) *Kernel {
	nk := New(seed)
	nk.MaxInsts = k.MaxInsts
	nk.Engine = k.Engine
	return nk
}

// SpawnOpts configures process creation.
type SpawnOpts struct {
	// Libc is the shared C-library image for dynamically linked apps.
	// Ignored for statically linked apps.
	Libc *binfmt.Binary
	// Preload selects the scheme hooks (startup seeding, fork refresh). Zero
	// means "derive from the app image's scheme metadata".
	Preload core.Scheme
}

// Spawn loads the app (plus libc for dynamic linkage), maps stack and TLS,
// runs the startup hooks (the paper's setup_p-ssp constructor), and returns
// the new runnable process.
func (k *Kernel) Spawn(app *binfmt.Binary, opts SpawnOpts) (*Process, error) {
	sp := mem.NewSpace()
	sp.SetPool(k.pool)
	if err := binfmt.Load(app, sp); err != nil {
		return nil, fmt.Errorf("kernel: spawn: %w", err)
	}
	if app.Meta[abi.MetaLinkage] != abi.LinkStatic {
		if opts.Libc == nil {
			return nil, errors.New("kernel: spawn: dynamically linked app needs a libc image")
		}
		if err := binfmt.Load(opts.Libc, sp); err != nil {
			return nil, fmt.Errorf("kernel: spawn libc: %w", err)
		}
	}
	if _, err := sp.Map("tls", mem.TLSBase, mem.TLSSize, mem.PermRead|mem.PermWrite); err != nil {
		return nil, err
	}
	if _, err := sp.Map("stack", mem.StackTop-mem.StackSize, mem.StackSize, mem.PermRead|mem.PermWrite); err != nil {
		return nil, err
	}

	scheme := opts.Preload
	if scheme == 0 {
		if s, err := core.ParseScheme(app.Meta[abi.MetaScheme]); err == nil {
			scheme = s
		} else {
			scheme = core.SchemeNone
		}
	}

	p := &Process{
		ID:     k.nextPID,
		Space:  sp,
		State:  StateRunning,
		Scheme: scheme,
		rand:   k.rand.Fork(),
		bin:    app,
	}
	k.nextPID++

	cpu := vm.New(sp, p.rand)
	cpu.Engine = k.Engine
	cpu.RIP = app.Entry
	cpu.TSCBase = k.now
	cpu.FSBase = mem.TLSBase
	cpu.GPR[isa.RSP] = mem.StackTop
	p.sys = sysHandler{k: k, p: p}
	cpu.Sys = &p.sys
	p.CPU = cpu

	if err := applyStartupHooks(p); err != nil {
		return nil, fmt.Errorf("kernel: spawn: startup hooks: %w", err)
	}
	return p, nil
}

// Fork clones a process: copy-on-write address-space clone (TLS included,
// as fork(2) semantics require), CPU state, and stdin. It then applies the
// scheme's fork hooks to the child only — the paper's wrapped fork() — and
// returns the runnable child.
//
// The clone is cheap by design: no segment bytes are copied until parent or
// child writes to them, and the copied CPU state carries the parent's
// decode-once code cache — including any basic blocks the compiled engine
// has already lowered — so a child costs O(segments written), not
// O(address-space size). Fork allocates the child (guest fork(2) uses it);
// a ForkServer forks each request into its recycled slot instead, through
// the same forkInto, so the fork-per-request oracle loop — the hottest path
// of the byte-by-byte attack experiments — allocates nothing.
//
// The child is marked single-shot: its first accept consumes the delivered
// request, its second returns 0 (shutdown), matching a fork-per-connection
// worker.
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	return k.forkInto(parent, new(slot))
}

// slot holds everything one forked child owns: its process, CPU, address
// space, entropy source and (in the process) request buffer. A ForkServer
// keeps one and forks every request into it, overwriting the previous,
// released worker.
type slot struct {
	proc  Process
	cpu   vm.CPU
	space mem.Space
	rand  rng.Source
}

// forkInto is Fork into s: every field of s is reset from parent, and only
// the capacity of s's space headers and request buffer carries over. s's
// previous child must be dead and its space released.
func (k *Kernel) forkInto(parent *Process, s *slot) (*Process, error) {
	parent.Space.CloneInto(&s.space)
	parent.rand.ForkInto(&s.rand)
	child := &s.proc
	*child = Process{
		ID:     k.nextPID,
		Space:  &s.space,
		State:  parent.State,
		Scheme: parent.Scheme,
		// stdin contents are never mutated while the parent can still read
		// them, so the child aliases the parent's buffer and tracks its own
		// read offset — fork(2)'s shared file description.
		stdin:    parent.stdin,
		stdinOff: parent.stdinOff,
		reqBuf:   child.reqBuf[:0],
		isChild:  true,
		rand:     &s.rand,
		bin:      parent.bin,
	}
	k.nextPID++

	cpu := &s.cpu
	*cpu = *parent.CPU // shares the code cache; engine and cost model carry over
	cpu.SetMem(child.Space)
	cpu.Rand = child.rand
	// The child keeps reading machine time, not a replay of the parent's
	// cycle count: TSC is global hardware state.
	cpu.TSCBase = k.now - cpu.Cycles
	child.sys = sysHandler{k: k, p: child}
	cpu.Sys = &child.sys
	child.CPU = cpu

	if err := applyForkHooks(child); err != nil {
		return nil, fmt.Errorf("kernel: fork hooks: %w", err)
	}
	return child, nil
}

// Run executes the process until it exits, crashes, or blocks in accept.
// It returns the resulting state.
func (k *Kernel) Run(p *Process) State {
	st, _ := k.RunContext(context.Background(), p)
	return st
}

// RunContext is Run with cancellation plumbed into the step loop. When ctx
// is cancelled mid-execution the process is left in StateRunning exactly
// where it stopped — a later RunContext call resumes it — and ctx.Err() is
// returned. The error is nil whenever the process reached a terminal state
// or blocked in accept.
//
// The kernel delegates the hot loop to vm.CPU.RunContext — one dispatch
// loop for both execution engines — and classifies its outcome: halt means
// exit(2) completed, errAwaitAccept (raised by the accept syscall) parks
// the process, budget exhaustion crashes it with ErrBudget as the cause,
// and everything else is an abnormal termination.
func (k *Kernel) RunContext(ctx context.Context, p *Process) (State, error) {
	if p.State != StateRunning {
		return p.State, nil
	}
	startCycles := p.CPU.Cycles
	defer func() { k.now += p.CPU.Cycles - startCycles }()
	err := p.CPU.RunContext(ctx, k.MaxInsts)
	switch {
	case err == nil:
		p.State = StateExited
	case errors.Is(err, errAwaitAccept):
		p.State = StateWaiting
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return p.State, err
	default:
		p.State = StateCrashed
		p.CrashReason = k.crashReason(err)
		p.CrashErr = err
	}
	return p.State, nil
}

// sysHandler routes SYSCALL traps to the owning process.
type sysHandler struct {
	k *Kernel
	p *Process
}

// Syscall implements vm.Syscaller.
func (h *sysHandler) Syscall(cpu *vm.CPU, nr, a1, a2, a3 uint64) (uint64, error) {
	p := h.p
	switch nr {
	case abi.SysExit:
		p.ExitCode = a1
		cpu.Halt()
		return 0, nil

	case abi.SysAbort:
		return 0, h.k.abort(cpu.RIP)

	case abi.SysRead:
		if a1 != 0 {
			return 0, nil
		}
		n := len(p.stdin) - p.stdinOff
		if n > int(a3) {
			n = int(a3)
		}
		if n <= 0 {
			return 0, nil
		}
		// The kernel copies straight into the caller's buffer with no idea
		// of stack-frame boundaries — read(fd, buf, too_much) is the
		// overflow primitive of the threat model.
		if err := cpu.Mem.Write(a2, p.stdin[p.stdinOff:p.stdinOff+n]); err != nil {
			return 0, &vm.CrashError{RIP: cpu.RIP, Reason: "read into bad buffer", Cause: err}
		}
		p.stdinOff += n
		return uint64(n), nil

	case abi.SysWrite:
		if a1 != 1 {
			return a3, nil
		}
		out, err := cpu.Mem.AppendRead(p.Stdout, a2, int(a3))
		if err != nil {
			return 0, &vm.CrashError{RIP: cpu.RIP, Reason: "write from bad buffer", Cause: err}
		}
		p.Stdout = out
		return a3, nil

	case abi.SysGetPID:
		return uint64(p.ID), nil

	case abi.SysFork:
		child, err := h.k.Fork(p)
		if err != nil {
			return 0, &vm.CrashError{RIP: cpu.RIP, Reason: "fork failed", Cause: err}
		}
		child.CPU.GPR[isa.RAX] = 0
		// A fork server's worker reads its request from a buffer the next
		// request overwrites; a guest-forked child may outlive it, so it
		// reads its own copy.
		child.stdin = append([]byte(nil), child.stdin...)
		h.k.spawned = append(h.k.spawned, child)
		return uint64(child.ID), nil

	case abi.SysAccept:
		if p.isChild {
			// Fork-per-connection worker: one request per child.
			return 0, nil
		}
		return 0, errAwaitAccept

	default:
		return 0, &vm.CrashError{RIP: cpu.RIP, Reason: fmt.Sprintf("unknown syscall %d", nr)}
	}
}
