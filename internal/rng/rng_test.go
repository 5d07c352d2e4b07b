package rng

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 1000 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square test over 16 buckets; with 160k draws the statistic should
	// be far below the 0.001 critical value (~37.7 for 15 dof).
	s := New(99)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-square %f exceeds 0.001 critical value; counts %v", chi2, counts)
	}
}

func TestBytesFillsEveryLength(t *testing.T) {
	s := New(5)
	for n := 0; n <= 33; n++ {
		p := make([]byte, n)
		s.Bytes(p)
		if n >= 8 {
			allZero := true
			for _, b := range p {
				if b != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) returned all zeros", n)
			}
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Fork()
	// The child's stream must not replay the parent's.
	p0 := parent.Uint64()
	c0 := child.Uint64()
	if p0 == c0 {
		t.Fatal("forked child replays parent stream")
	}
}

func TestBitBalance(t *testing.T) {
	// Each of the 64 bit positions should be set close to half the time.
	s := New(123)
	const draws = 64000
	var ones [64]int
	for i := 0; i < draws; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / draws
		if frac < 0.48 || frac > 0.52 {
			t.Fatalf("bit %d set fraction %f outside [0.48, 0.52]", b, frac)
		}
	}
}

func TestMul64MatchesBits(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		wantHi, wantLo := bits.Mul64(a, b)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint32NotConstant(t *testing.T) {
	s := New(3)
	first := s.Uint32()
	for i := 0; i < 100; i++ {
		if s.Uint32() != first {
			return
		}
	}
	t.Fatal("Uint32 returned the same value 100 times")
}

func TestMixPureAndSeparating(t *testing.T) {
	if Mix(1, 2) != Mix(1, 2) {
		t.Fatal("Mix is not a pure function")
	}
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 4096; stream++ {
		v := Mix(42, stream)
		if seen[v] {
			t.Fatalf("Mix collided at stream %d", stream)
		}
		seen[v] = true
	}
	// Neighbouring streams of neighbouring seeds must not collide either.
	if Mix(1, 0) == Mix(0, 1) || Mix(7, 7) == Mix(7, 8) {
		t.Fatal("Mix conflates adjacent (seed, stream) pairs")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a, b := NewStream(9, 0), NewStream(9, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d times in 1000 draws", same)
	}
	// Re-derivation replays the identical stream.
	c, d := NewStream(9, 3), NewStream(9, 3)
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("re-derived stream diverged")
		}
	}
}

// TestForkIntoMatchesFork: reseeding an existing Source draws the same one
// value from the parent as Fork, so both children and both parents go on
// to produce identical streams.
func TestForkIntoMatchesFork(t *testing.T) {
	a, b := New(42), New(42)
	fa := a.Fork()
	fb := New(7) // a used Source: ForkInto replaces its state wholesale
	fb.Uint64()
	b.ForkInto(fb)
	for i := 0; i < 16; i++ {
		if x, y := fa.Uint64(), fb.Uint64(); x != y {
			t.Fatalf("child draw %d: Fork %#x, ForkInto %#x", i, x, y)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("parent draw %d: after Fork %#x, after ForkInto %#x", i, x, y)
		}
	}
}
