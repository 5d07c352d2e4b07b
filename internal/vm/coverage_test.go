package vm

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// covProg is a small branchy loop: enough distinct edges to exercise the
// map, terminating in HLT.
func covProg() []isa.Inst {
	body := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0},
		{Op: isa.MOVRI, R1: isa.RCX, Imm: 32},
		{Op: isa.ADDRR, R1: isa.RAX, R2: isa.RCX}, // loop:
		{Op: isa.SUBRI, R1: isa.RCX, Imm: 1},
		{Op: isa.CMPRI, R1: isa.RCX, Imm: 0},
	}
	back := isa.Inst{Op: isa.JNE}
	back.Disp = int32(-(body[2].Len() + body[3].Len() + body[4].Len() + back.Len()))
	return append(body, back, isa.Inst{Op: isa.HLT})
}

// TestCoverageDoesNotPerturbExecution is the overhead guard of the coverage
// map: an instrumented run must execute the identical instruction stream —
// same final registers, same instruction and cycle counts — as an
// uninstrumented one, under every engine. Coverage observes execution, it
// never steers it.
func TestCoverageDoesNotPerturbExecution(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			plain := buildEngineCPU(t, e, covProg())
			if err := plain.Run(1000); err != nil {
				t.Fatal(err)
			}
			instr := buildEngineCPU(t, e, covProg())
			var cov CovMap
			instr.SetCoverage(&cov)
			if err := instr.Run(1000); err != nil {
				t.Fatal(err)
			}
			if a, b := snap(plain), snap(instr); a != b {
				t.Fatalf("coverage perturbed execution:\nplain:       %+v\ninstrumented: %+v", a, b)
			}
			if cov.Edges() == 0 {
				t.Fatal("instrumented run recorded no edges")
			}
		})
	}
}

// TestCoverageDisabledStepIsAllocationFree pins the disabled fast path: with
// no map installed, steady-state stepping through cached code must stay
// allocation-free — the same property BenchmarkStepLoop tracks — and the
// enabled path must stay allocation-free too (the map is preallocated).
func TestCoverageDisabledStepIsAllocationFree(t *testing.T) {
	run := func(t *testing.T, cov *CovMap) {
		t.Helper()
		c := buildEngineCPU(t, EnginePredecoded, covProg())
		c.SetCoverage(cov)
		allocs := testing.AllocsPerRun(50, func() {
			c.RIP = mem.TextBase
			c.halted = false
			if err := c.Run(250); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("step loop allocates %.1f times per run, want 0", allocs)
		}
	}
	t.Run("disabled", func(t *testing.T) { run(t, nil) })
	t.Run("enabled", func(t *testing.T) { run(t, new(CovMap)) })
}

// TestCoverageDeterministicAndResettable asserts the map is a pure function
// of the executed path: two identical runs produce bit-identical maps, and
// Reset restores the empty map.
func TestCoverageDeterministicAndResettable(t *testing.T) {
	record := func() *CovMap {
		c := buildEngineCPU(t, EnginePredecoded, covProg())
		var cov CovMap
		c.SetCoverage(&cov)
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		return &cov
	}
	a, b := record(), record()
	if a.hits != b.hits {
		t.Fatal("identical runs produced different coverage maps")
	}
	if a.Edges() == 0 {
		t.Fatal("no edges recorded")
	}
	a.Reset()
	if a.Edges() != 0 {
		t.Fatalf("Reset left %d edges", a.Edges())
	}
}

// TestCoverageDistinguishesPaths asserts different programs leave different
// footprints — the novelty signal corpus admission depends on.
func TestCoverageDistinguishesPaths(t *testing.T) {
	run := func(prog []isa.Inst) *CovMap {
		c := buildEngineCPU(t, EnginePredecoded, prog)
		var cov CovMap
		c.SetCoverage(&cov)
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		return &cov
	}
	loop := run(covProg())
	straight := run([]isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.HLT},
	})
	if loop.hits == straight.hits {
		t.Fatal("different programs produced identical coverage maps")
	}
}

// TestCoverageSharedAcrossFork models the fork-server loop: the map is
// installed once on the parent, the forked child's CPU copy shares it, and
// the child's execution records into it.
func TestCoverageSharedAcrossFork(t *testing.T) {
	parent := buildEngineCPU(t, EnginePredecoded, covProg())
	var cov CovMap
	parent.SetCoverage(&cov)

	child := new(CPU)
	*child = *parent
	child.SetMem(parent.Mem.Clone())
	if child.Coverage() != &cov {
		t.Fatal("fork-style CPU copy did not share the coverage map")
	}
	if err := child.Run(1000); err != nil {
		t.Fatal(err)
	}
	if cov.Edges() == 0 {
		t.Fatal("child execution recorded nothing into the shared map")
	}
}

// TestCoverageRecordsCrashingPath asserts edges up to (and including) a
// faulting instruction are recorded — crash triage needs the path that led
// to the fault.
func TestCoverageRecordsCrashingPath(t *testing.T) {
	c := buildEngineCPU(t, EnginePredecoded, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 0x100}, // unmapped
		{Op: isa.LOAD, R1: isa.RAX, Base: isa.RBX, Disp: 0},
		{Op: isa.HLT},
	})
	var cov CovMap
	c.SetCoverage(&cov)
	err := c.Run(100)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want crash, got %v", err)
	}
	if cov.Edges() < 2 {
		t.Fatalf("crashing run recorded %d edges, want >= 2", cov.Edges())
	}
}

// TestCoverageCounterSaturates pins the 8-bit counters at 255 instead of
// wrapping to 0 — a wrap would make a hot edge look unseen.
func TestCoverageCounterSaturates(t *testing.T) {
	var cov CovMap
	for i := 0; i < 300; i++ {
		cov.record(0, 0x40)
	}
	if got := cov.hits[0x40&(CovMapSize-1)]; got != 0xff {
		t.Fatalf("hot counter = %d, want saturated 255", got)
	}
}

// hitPattern hits n distinct random buckets of m, each 1-4 times and one in
// eight of them 300 times (saturated).
func hitPattern(r *rand.Rand, m *CovMap, n int) {
	for _, i := range r.Perm(CovMapSize)[:n] {
		k := 1 + r.Intn(4)
		if r.Intn(8) == 0 {
			k = 300
		}
		for ; k > 0; k-- {
			m.Hit(uint16(i))
		}
	}
}

// TestCovMapSparseResetAndEdges checks the touched list from an empty run
// to one that hits every bucket: Touched lists each non-zero bucket exactly
// once, Edges equals a full count of non-zero buckets, Reset leaves all
// 64 KiB zero, and the next run starts from an empty list.
func TestCovMapSparseResetAndEdges(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var m CovMap
	for _, n := range []int{0, 1, 140, 4096, CovMapSize - 1, CovMapSize, 7} {
		hitPattern(r, &m, n)
		full := 0
		for _, h := range m.Bytes() {
			if h != 0 {
				full++
			}
		}
		if full != n || m.Edges() != n {
			t.Fatalf("n=%d: Edges()=%d, full count %d", n, m.Edges(), full)
		}
		seen := make(map[uint16]bool, n)
		for _, i := range m.Touched() {
			if seen[i] || m.hits[i] == 0 {
				t.Fatalf("n=%d: bucket %d listed twice or with a zero counter", n, i)
			}
			seen[i] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: %d touched buckets listed", n, len(seen))
		}
		m.Reset()
		if m.hits != ([CovMapSize]byte{}) {
			t.Fatalf("n=%d: Reset left non-zero counters", n)
		}
		if m.Edges() != 0 || len(m.Touched()) != 0 {
			t.Fatalf("n=%d: after Reset Edges()=%d, %d touched", n, m.Edges(), len(m.Touched()))
		}
	}
}
