package fuzz

import (
	"encoding/binary"
	"slices"

	"repro/internal/rng"
)

// The deterministic mutation engine: AFL's classic havoc repertoire —
// bitflips, interesting values, bounded arithmetic, block deletion /
// duplication / insertion, dictionary tokens, and corpus splicing — with
// every choice drawn from the shard's rng.Source. Same source state, same
// parent, same corpus ⇒ same mutant, which is what makes the whole fuzzing
// run replayable from one seed.

// interesting8 and interesting16 are the boundary values AFL plants: min,
// max, off-by-one and size-looking constants that trip length checks.
var interesting8 = []byte{0, 1, 16, 32, 64, 100, 127, 128, 255}

var interesting16 = []uint16{0, 1, 16, 64, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 65535}

// mutator owns one shard's mutation state. It mutates in place: buf holds
// the current mutant and scratch a random block being inserted. Both start
// nil and grow only to the sizes the mutants reach, never to max, so a warm
// mutator allocates nothing and a large cap reserves nothing.
type mutator struct {
	r    *rng.Source
	dict [][]byte
	max  int

	buf, scratch []byte
}

// mutate derives one mutant from parent: a havoc pass of 1..8 stacked
// operations, length-capped at max and never empty. The mutant is the
// mutator's buffer, valid until the next call; parent and corpus must not
// alias it.
func (m *mutator) mutate(parent []byte, corpus [][]byte) []byte {
	out := append(m.buf[:0], parent...)
	for n := 1 << m.r.Intn(4); n > 0; n-- {
		out = m.op(out, corpus)
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	if len(out) > m.max {
		out = out[:m.max]
	}
	m.buf = out[:0]
	return out
}

// random fills the scratch buffer with n random bytes and returns it. The
// bytes are drawn before the insert point, so they cannot go straight into
// out.
func (m *mutator) random(n int) []byte {
	m.scratch = slices.Grow(m.scratch[:0], n)[:n]
	m.r.Bytes(m.scratch)
	return m.scratch
}

// op applies one havoc operation to out in place.
func (m *mutator) op(out []byte, corpus [][]byte) []byte {
	switch m.r.Intn(10) {
	case 0: // flip one bit
		if len(out) > 0 {
			bit := m.r.Intn(len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
		}
	case 1: // plant an interesting byte
		if len(out) > 0 {
			out[m.r.Intn(len(out))] = interesting8[m.r.Intn(len(interesting8))]
		}
	case 2: // plant an interesting 16-bit word (little-endian)
		if len(out) >= 2 {
			binary.LittleEndian.PutUint16(out[m.r.Intn(len(out)-1):],
				interesting16[m.r.Intn(len(interesting16))])
		}
	case 3: // bounded byte arithmetic
		if len(out) > 0 {
			delta := byte(1 + m.r.Intn(35))
			if m.r.Intn(2) == 0 {
				delta = -delta
			}
			out[m.r.Intn(len(out))] += delta
		}
	case 4: // overwrite a byte with a random value
		if len(out) > 0 {
			out[m.r.Intn(len(out))] = byte(m.r.Intn(256))
		}
	case 5: // delete a block
		if len(out) > 1 {
			n := 1 + m.r.Intn(len(out)/2)
			pos := m.r.Intn(len(out) - n + 1)
			out = append(out[:pos], out[pos+n:]...)
		}
	case 6: // duplicate a block in place (grows the input)
		if len(out) > 0 {
			n := 1 + m.r.Intn(len(out))
			pos := m.r.Intn(len(out) - n + 1)
			at := m.r.Intn(len(out) + 1)
			out = slices.Insert(out, at, out[pos:pos+n]...) // Insert handles the overlap
		}
	case 7: // insert a block of random bytes (grows the input)
		block := m.random(1 << m.r.Intn(5)) // 1..16
		at := 0
		if len(out) > 0 {
			at = m.r.Intn(len(out) + 1)
		}
		out = slices.Insert(out, at, block...)
	case 8: // insert a dictionary token (no dictionary: a random block)
		var tok []byte
		if len(m.dict) > 0 {
			tok = m.dict[m.r.Intn(len(m.dict))]
		} else {
			tok = m.random(1 << m.r.Intn(5))
		}
		at := 0
		if len(out) > 0 {
			at = m.r.Intn(len(out) + 1)
		}
		out = slices.Insert(out, at, tok...)
	case 9: // splice with another corpus entry (none usable: self-splice)
		other := out
		if len(corpus) > 0 {
			if o := corpus[m.r.Intn(len(corpus))]; len(o) > 0 {
				other = o
			}
		}
		if len(out) > 0 && len(other) > 0 {
			head := m.r.Intn(len(out))
			// append moves with memmove, so a self-splice's tail may overlap.
			out = append(out[:head], other[m.r.Intn(len(other)):]...)
		}
	}
	return out
}
