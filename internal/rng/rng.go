// Package rng provides the deterministic random-number sources used across
// the simulation: a splitmix64 PRNG that models the hardware entropy source
// behind the rdrand instruction, and helpers for drawing canary-sized values.
//
// Everything in this repository that needs randomness draws from a Source so
// that experiments are reproducible from a single seed.
package rng

import "sync"

// Source is a deterministic 64-bit pseudo-random source. It is safe for
// concurrent use.
type Source struct {
	mu    sync.Mutex
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Mix collapses a (seed, stream) pair into a single derived seed. It is a
// pure function — no Source state is consumed — so any party that knows the
// pair can re-derive the same seed, which is what makes sharded experiments
// reproducible at any worker count: work unit i always draws from
// NewStream(seed, i) no matter which worker runs it.
func Mix(seed, stream uint64) uint64 {
	// Two finalization rounds of splitmix64 over the pair; the golden-ratio
	// multiplier separates stream indices that differ in low bits only.
	z := seed ^ (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream returns the stream'th derived Source of seed: a deterministic
// function of the pair, statistically independent across stream indices.
func NewStream(seed, stream uint64) *Source {
	return New(Mix(seed, stream))
}

// Uint64 returns the next value in the splitmix64 stream.
//
// splitmix64 is the generator recommended for seeding xoshiro-family PRNGs;
// it is statistically strong for simulation purposes and requires no
// allocation, which matters because the VM calls it on every simulated
// rdrand instruction.
func (s *Source) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit value.
func (s *Source) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	s.mu.Lock()
	defer s.mu.Unlock()
	bound := uint64(n)
	for {
		v := s.next()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bytes fills p with pseudo-random bytes.
func (s *Source) Bytes(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v uint64
	for i := range p {
		if i%8 == 0 {
			v = s.next()
		}
		p[i] = byte(v)
		v >>= 8
	}
}

// Fork derives a new, statistically independent Source from this one. It is
// used when a simulated process is forked so that parent and child draw from
// unrelated streams, mirroring per-core hardware entropy.
func (s *Source) Fork() *Source {
	dst := new(Source)
	s.ForkInto(dst)
	return dst
}

// ForkInto is Fork into an existing Source: it reseeds dst with the value
// Fork would seed its new Source with, drawing the same one value from s.
// The fork server reseeds its recycled worker's source this way.
func (s *Source) ForkInto(dst *Source) {
	seed := s.Uint64() ^ 0xa5a5a5a5a5a5a5a5
	dst.mu.Lock()
	dst.state = seed
	dst.mu.Unlock()
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask32+a0*b1)>>32
	return hi, lo
}
