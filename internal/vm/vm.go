// Package vm implements the CPU of the simulated machine: a decode-once
// dispatch loop (or, selectably, a classic fetch–decode–execute interpreter)
// over the ISA in internal/isa, with per-instruction cycle accounting, a
// hardware random source behind RDRAND, a time-stamp counter behind RDTSC,
// and an AES-128 block-encrypt primitive standing in for AES-NI.
//
// The CPU knows nothing about processes; the kernel (internal/kernel) owns
// process state and receives SYSCALL traps through the Syscaller interface.
package vm

import (
	"context"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// Syscaller receives SYSCALL traps. The system-call number arrives in RAX
// and up to three arguments in RDI, RSI, RDX; the return value is placed in
// RAX. Returning an error aborts execution with that error.
type Syscaller interface {
	Syscall(cpu *CPU, nr, a1, a2, a3 uint64) (uint64, error)
}

// ErrHalted is returned by Step and Run when the CPU executed HLT or a
// syscall handler requested an orderly stop.
var ErrHalted = errors.New("vm: halted")

// ErrBudget marks crashes raised by the instruction-budget watchdog: the
// CPU was stopped for exceeding its step budget, not for guest misbehaviour.
// kernel.ErrBudget aliases it, so budget kills classify identically whether
// they surface from the raw VM loop or through the kernel.
var ErrBudget = errors.New("vm: instruction budget exhausted")

// CrashError reports an abnormal termination: a memory fault, an invalid
// instruction, or an explicit abort (the __stack_chk_fail path). The
// byte-by-byte attacker's oracle is exactly "did the child crash".
type CrashError struct {
	RIP    uint64
	Reason string
	Cause  error
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("vm: crash at rip=0x%x: %s", e.RIP, e.Reason)
}

// Unwrap returns the underlying cause, if any.
func (e *CrashError) Unwrap() error { return e.Cause }

// CPU is one simulated hardware thread.
type CPU struct {
	GPR [isa.NumGPR]uint64
	X   [isa.NumXMM][2]uint64 // [0]=low 64, [1]=high 64
	RIP uint64
	ZF  bool
	CF  bool

	// FSBase is the FS segment base; fs:disp addressing resolves to
	// FSBase+disp. The kernel points it at the process's TLS block.
	FSBase uint64

	// Cycles is the simulated cycle counter, advanced by each instruction's
	// cost from the calibrated model.
	Cycles uint64

	// TSCBase offsets the value RDTSC reports. Hardware time-stamp counters
	// are per-core wall-clock counters that fork does not reset; the kernel
	// sets this to global machine time at process creation so two children
	// replaying the same instruction path still read different TSC values —
	// the property P-SSP-OWF's nonce depends on.
	TSCBase uint64

	// Insts counts executed instructions.
	Insts uint64

	// Engine selects the execution engine. The zero value is
	// EnginePredecoded; set EngineInterpreter for the legacy
	// fetch-decode-each-step path or EngineCompiled for the block-lowered
	// tier. Fork clones it with the CPU.
	Engine Engine

	Mem  *mem.Space
	Rand *rng.Source
	Sys  Syscaller

	tracer Tracer
	halted bool

	// code is the decode-once cache; forked children share it because fork
	// copies the CPU struct wholesale. Lazily allocated on first predecoded
	// fetch, so the interpreter engine pays nothing for it.
	code *CodeCache
	// curSeg/curGen/curCode short-circuit the per-step segment lookup while
	// RIP stays in one segment. Keyed to Mem — SetMem resets them.
	curSeg  *mem.Segment
	curGen  uint64
	curCode *segCode

	// cov, when non-nil, receives every executed edge (covPrev is the
	// shifted previous PC). Off by default; the disabled cost is the one nil
	// check in Step. Fork shares the map with the child via the CPU copy.
	cov     *CovMap
	covPrev uint64

	// views are the compiled engine's cached direct memory windows, one per
	// operand class (stack / FS / data), keyed to Mem's sharing epoch.
	// SetMem and an epoch move drop them; see compile.go.
	views     [numViews]memView
	viewEpoch uint64
}

// New returns a CPU bound to the given memory and entropy source, running
// the default (predecoded) engine.
func New(m *mem.Space, r *rng.Source) *CPU {
	return &CPU{Mem: m, Rand: r}
}

// Halt requests an orderly stop; the current Step returns ErrHalted.
// Syscall handlers use this to implement exit(2).
func (c *CPU) Halt() { c.halted = true }

// Halted reports whether the CPU has been halted.
func (c *CPU) Halted() bool { return c.halted }

// crash wraps err into a CrashError at the current RIP.
func (c *CPU) crash(reason string, cause error) error {
	return &CrashError{RIP: c.RIP, Reason: reason, Cause: cause}
}

// push stores v at RSP-8 and decrements RSP.
func (c *CPU) push(v uint64) error {
	c.GPR[isa.RSP] -= 8
	return c.Mem.WriteU64(c.GPR[isa.RSP], v)
}

// pop loads the word at RSP and increments RSP.
func (c *CPU) pop() (uint64, error) {
	v, err := c.Mem.ReadU64(c.GPR[isa.RSP])
	if err != nil {
		return 0, err
	}
	c.GPR[isa.RSP] += 8
	return v, nil
}

// Step executes one instruction. It returns ErrHalted on orderly stop and a
// *CrashError on abnormal termination.
func (c *CPU) Step() error {
	if c.halted {
		return ErrHalted
	}
	if c.cov != nil {
		c.cov.record(c.covPrev, c.RIP)
		c.covPrev = c.RIP >> 1
	}
	var in isa.Inst
	var n int
	// The compiled engine's single-step fallback rides the predecoded fetch:
	// identical cache, identical fault shaping.
	if c.Engine != EngineInterpreter {
		var err error
		in, n, err = c.fetchPredecoded()
		if err != nil {
			return err
		}
	} else {
		code, err := c.Mem.Fetch(c.RIP, 16)
		if err != nil {
			return c.crash("instruction fetch fault", err)
		}
		in, n, err = isa.Decode(code, 0)
		if err != nil {
			return c.crash("illegal instruction", err)
		}
	}
	next := c.RIP + uint64(n)
	if c.tracer != nil {
		c.tracer.Trace(c, in)
	}
	c.Cycles += in.Op.Cycles()
	c.Insts++
	return c.exec(in, next)
}

// exec dispatches one decoded instruction. next is the fall-through RIP;
// branches adjust it. Both engines funnel here, so execution semantics —
// including crash causes and flag effects — are engine-independent by
// construction.
func (c *CPU) exec(in isa.Inst, next uint64) error {
	switch in.Op {
	case isa.NOP:
	case isa.HLT:
		c.halted = true
		c.RIP = next
		return ErrHalted

	case isa.PUSH:
		if err := c.push(c.GPR[in.R1]); err != nil {
			return c.crash("push fault", err)
		}
	case isa.POP:
		v, err := c.pop()
		if err != nil {
			return c.crash("pop fault", err)
		}
		c.GPR[in.R1] = v

	case isa.MOVRR:
		c.GPR[in.R1] = c.GPR[in.R2]
	case isa.MOVRI:
		c.GPR[in.R1] = uint64(in.Imm)
	case isa.LOAD:
		v, err := c.Mem.ReadU64(c.GPR[in.Base] + uint64(int64(in.Disp)))
		if err != nil {
			return c.crash("load fault", err)
		}
		c.GPR[in.R1] = v
	case isa.STORE:
		if err := c.Mem.WriteU64(c.GPR[in.Base]+uint64(int64(in.Disp)), c.GPR[in.R1]); err != nil {
			return c.crash("store fault", err)
		}
	case isa.LDFS:
		v, err := c.Mem.ReadU64(c.FSBase + uint64(int64(in.Disp)))
		if err != nil {
			return c.crash("fs load fault", err)
		}
		c.GPR[in.R1] = v
	case isa.STFS:
		if err := c.Mem.WriteU64(c.FSBase+uint64(int64(in.Disp)), c.GPR[in.R1]); err != nil {
			return c.crash("fs store fault", err)
		}
	case isa.LEA:
		c.GPR[in.R1] = c.GPR[in.Base] + uint64(int64(in.Disp))

	case isa.ADDRR:
		c.GPR[in.R1] += c.GPR[in.R2]
	case isa.ADDRI:
		c.GPR[in.R1] += uint64(in.Imm)
	case isa.SUBRR:
		c.GPR[in.R1] -= c.GPR[in.R2]
	case isa.SUBRI:
		c.GPR[in.R1] -= uint64(in.Imm)
	case isa.XORRR:
		c.GPR[in.R1] ^= c.GPR[in.R2]
		c.ZF = c.GPR[in.R1] == 0
	case isa.XORFS:
		v, err := c.Mem.ReadU64(c.FSBase + uint64(int64(in.Disp)))
		if err != nil {
			return c.crash("fs xor fault", err)
		}
		c.GPR[in.R1] ^= v
		c.ZF = c.GPR[in.R1] == 0
	case isa.ORRR:
		c.GPR[in.R1] |= c.GPR[in.R2]
	case isa.ANDRR:
		c.GPR[in.R1] &= c.GPR[in.R2]
	case isa.SHLRI:
		c.GPR[in.R1] <<= uint(in.Imm) & 63
	case isa.SHRRI:
		c.GPR[in.R1] >>= uint(in.Imm) & 63

	case isa.CMPRR:
		c.ZF = c.GPR[in.R1] == c.GPR[in.R2]
	case isa.CMPRI:
		c.ZF = c.GPR[in.R1] == uint64(in.Imm)

	case isa.JMP:
		next += uint64(int64(in.Disp))
	case isa.JE:
		if c.ZF {
			next += uint64(int64(in.Disp))
		}
	case isa.JNE:
		if !c.ZF {
			next += uint64(int64(in.Disp))
		}

	case isa.CALL:
		if err := c.push(next); err != nil {
			return c.crash("call push fault", err)
		}
		next += uint64(int64(in.Disp))
	case isa.CALLR:
		if err := c.push(next); err != nil {
			return c.crash("call push fault", err)
		}
		next = c.GPR[in.R1]
	case isa.RET:
		v, err := c.pop()
		if err != nil {
			return c.crash("ret pop fault", err)
		}
		next = v
	case isa.LEAVE:
		c.GPR[isa.RSP] = c.GPR[isa.RBP]
		v, err := c.pop()
		if err != nil {
			return c.crash("leave pop fault", err)
		}
		c.GPR[isa.RBP] = v

	case isa.RDRAND:
		c.GPR[in.R1] = c.Rand.Uint64()
		c.CF = true
	case isa.RDFSBASE:
		c.GPR[in.R1] = c.FSBase
	case isa.RDTSC:
		// edx:eax <- TSC, exactly as on x86: the paper's OWF prologue
		// reassembles the 64-bit value with shl/or (Code 8).
		tsc := c.TSCBase + c.Cycles
		c.GPR[isa.RAX] = tsc & 0xffffffff
		c.GPR[isa.RDX] = tsc >> 32

	case isa.MOVQX:
		c.X[in.X1][0] = c.GPR[in.R1]
		c.X[in.X1][1] = 0
	case isa.MOVHX:
		v, err := c.Mem.ReadU64(c.GPR[in.Base] + uint64(int64(in.Disp)))
		if err != nil {
			return c.crash("movhps fault", err)
		}
		c.X[in.X1][1] = v
	case isa.PUNPCKX:
		c.X[in.X1][1] = c.GPR[in.R1]
	case isa.MOVXQ:
		c.GPR[in.R1] = c.X[in.X1][0]
	case isa.STX:
		addr := c.GPR[in.Base] + uint64(int64(in.Disp))
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], c.X[in.X1][0])
		binary.LittleEndian.PutUint64(b[8:], c.X[in.X1][1])
		if err := c.Mem.Write(addr, b[:]); err != nil {
			return c.crash("movdqu store fault", err)
		}
	case isa.LDX:
		addr := c.GPR[in.Base] + uint64(int64(in.Disp))
		var b [16]byte
		if err := c.Mem.ReadInto(addr, b[:]); err != nil {
			return c.crash("movdqu load fault", err)
		}
		c.X[in.X1][0] = binary.LittleEndian.Uint64(b[:8])
		c.X[in.X1][1] = binary.LittleEndian.Uint64(b[8:])
	case isa.AESENC:
		if err := c.aesEncrypt(); err != nil {
			return c.crash("aes fault", err)
		}
	case isa.CMPX:
		addr := c.GPR[in.Base] + uint64(int64(in.Disp))
		var b [16]byte
		if err := c.Mem.ReadInto(addr, b[:]); err != nil {
			return c.crash("cmpx fault", err)
		}
		lo := binary.LittleEndian.Uint64(b[:8])
		hi := binary.LittleEndian.Uint64(b[8:])
		c.ZF = lo == c.X[in.X1][0] && hi == c.X[in.X1][1]

	case isa.SYSCALL:
		if c.Sys == nil {
			return c.crash("syscall with no handler", nil)
		}
		// RIP must point past the syscall so fork can resume the child.
		c.RIP = next
		ret, err := c.Sys.Syscall(c, c.GPR[isa.RAX], c.GPR[isa.RDI], c.GPR[isa.RSI], c.GPR[isa.RDX])
		if err != nil {
			return err
		}
		c.GPR[isa.RAX] = ret
		if c.halted {
			return ErrHalted
		}
		return nil

	default:
		return c.crash(fmt.Sprintf("unimplemented opcode %s", in.Op.Name()), nil)
	}

	c.RIP = next
	return nil
}

// aesEncrypt implements the AESENC primitive: xmm15 <- AES-128(key=xmm1,
// xmm15). It stands in for the AES_ENCRYPT_128 helper the paper builds from
// AES-NI rounds; the single-instruction form keeps the toy ISA small while
// exercising the identical dataflow (key from r12/r13 via xmm1, plaintext =
// rdtsc||return-address in xmm15).
func (c *CPU) aesEncrypt() error {
	var key, block [16]byte
	binary.LittleEndian.PutUint64(key[:8], c.X[isa.XMM1][0])
	binary.LittleEndian.PutUint64(key[8:], c.X[isa.XMM1][1])
	binary.LittleEndian.PutUint64(block[:8], c.X[isa.XMM15][0])
	binary.LittleEndian.PutUint64(block[8:], c.X[isa.XMM15][1])
	cipher, err := aes.NewCipher(key[:])
	if err != nil {
		return err
	}
	cipher.Encrypt(block[:], block[:])
	c.X[isa.XMM15][0] = binary.LittleEndian.Uint64(block[:8])
	c.X[isa.XMM15][1] = binary.LittleEndian.Uint64(block[8:])
	return nil
}

// Run executes until halt, crash, or the instruction budget is exhausted.
// It returns nil on orderly halt.
func (c *CPU) Run(maxInsts uint64) error {
	return c.RunContext(context.Background(), maxInsts)
}

// cancelCheckMask controls how often the step loops poll the context: every
// (mask+1) instructions. Polling a channel is ~ns-scale, so at this stride
// cancellation latency stays in the microseconds while the fast path pays
// one masked compare per instruction.
const cancelCheckMask = 1023

// RunContext executes until halt, crash, budget exhaustion, or ctx
// cancellation. On cancellation the CPU is left exactly where it stopped —
// resumable with another RunContext call — and ctx.Err() is returned.
// Budget exhaustion returns a *CrashError wrapping ErrBudget.
func (c *CPU) RunContext(ctx context.Context, maxInsts uint64) error {
	// Traced runs need the per-step loop: the tracer fires per instruction
	// there. The block dispatcher reproduces identical final state but not
	// per-step hooks.
	if c.Engine == EngineCompiled && c.tracer == nil {
		return c.runCompiled(ctx, maxInsts)
	}
	done := ctx.Done()
	for i := uint64(0); i < maxInsts; i++ {
		if done != nil && i&cancelCheckMask == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		switch err := c.Step(); {
		case err == nil:
		case errors.Is(err, ErrHalted):
			return nil
		default:
			return err
		}
	}
	return c.crash(fmt.Sprintf("instruction budget %d exhausted", maxInsts), ErrBudget)
}
