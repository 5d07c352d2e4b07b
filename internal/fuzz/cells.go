package fuzz

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/vm"
)

// Cells is a coverage frontier in sparse form — the one coverage codec a
// fuzz partial or a lease carries. It holds one 3-byte record per non-zero
// cell of the dense vm.CovMapSize-byte bucketed map: the cell index as a
// big-endian uint16, then the cell's bucket bits. Records are in strictly
// increasing cell order and never carry zero bits. A uint16 index covers
// the 64 Ki-cell map exactly, so every decoded cell is in range; a dense
// map (65,536 bytes, not a multiple of 3) never decodes as Cells. On the
// wire it is one base64 string, decoded in one allocation.
type Cells []byte

// cellSize is the length of one Cells record.
const cellSize = 3

// The codec's uint16 cell index must span exactly the coverage map.
const _ = uint16(vm.CovMapSize-1) + uint16(vm.CovMapSize-1<<16)

// ErrMalformedCells rejects a Cells value that breaks the codec's rules.
var ErrMalformedCells = errors.New("fuzz: malformed coverage cells")

// CellsOf returns the sparse form of a dense bucketed map: every non-zero
// cell, in index order. It counts the cells first and fills one exact-size
// slice. A map that is not vm.CovMapSize bytes yields nil, as
// Config.BaseVirgin ignores it.
func CellsOf(dense []byte) Cells {
	if len(dense) != vm.CovMapSize {
		return nil
	}
	n := 0
	forEachCell(dense, func(int, byte) { n++ })
	if n == 0 {
		return nil
	}
	c := make(Cells, 0, n*cellSize)
	forEachCell(dense, func(i int, b byte) { c = append(c, byte(i>>8), byte(i), b) })
	return c
}

// forEachCell calls f for every non-zero byte of dense in index order,
// skipping zero words eight bytes at a time.
func forEachCell(dense []byte, f func(i int, b byte)) {
	for w := 0; w+8 <= len(dense); w += 8 {
		if binary.NativeEndian.Uint64(dense[w:]) == 0 {
			continue
		}
		for i := w; i < w+8; i++ {
			if dense[i] != 0 {
				f(i, dense[i])
			}
		}
	}
}

// Len is the number of cells c lists.
func (c Cells) Len() int { return len(c) / cellSize }

// at returns record k's cell index and bits.
func (c Cells) at(k int) (int, byte) {
	r := c[k*cellSize:]
	return int(r[0])<<8 | int(r[1]), r[2]
}

// Check reports whether c obeys the codec: whole records, strictly
// increasing cells, non-zero bits. The error wraps ErrMalformedCells.
func (c Cells) Check() error {
	if len(c)%cellSize != 0 {
		return fmt.Errorf("%w: %d bytes is not a whole number of %d-byte records", ErrMalformedCells, len(c), cellSize)
	}
	prev := -1
	for k := range c.Len() {
		cell, bits := c.at(k)
		if cell <= prev {
			return fmt.Errorf("%w: cell %d follows cell %d", ErrMalformedCells, cell, prev)
		}
		if bits == 0 {
			return fmt.Errorf("%w: cell %d has no bits", ErrMalformedCells, cell)
		}
		prev = cell
	}
	return nil
}

// Dense expands c into the dense vm.CovMapSize-byte bucketed map. c must
// have passed Check.
func (c Cells) Dense() []byte {
	dense := make([]byte, vm.CovMapSize)
	for k := range c.Len() {
		cell, bits := c.at(k)
		dense[cell] = bits
	}
	return dense
}

// union ORs the frontiers a and b into dst[:0] and returns it: a sorted
// merge of two checked lists, so dst stays checked. dst must not overlap a
// or b and needs room for both.
func union(dst, a, b Cells) Cells {
	dst = dst[:0]
	for len(a) > 0 && len(b) > 0 {
		ca, _ := a.at(0)
		cb, _ := b.at(0)
		switch {
		case ca < cb:
			dst, a = append(dst, a[:cellSize]...), a[cellSize:]
		case cb < ca:
			dst, b = append(dst, b[:cellSize]...), b[cellSize:]
		default:
			dst = append(dst, a[0], a[1], a[2]|b[2])
			a, b = a[cellSize:], b[cellSize:]
		}
	}
	return append(append(dst, a...), b...)
}

// FNV-1a's 64-bit offset basis and prime (hash64).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPow[j] is fnvPrime^(2^j) mod 2^64: FNV-1a over a zero byte only
// multiplies the state by the prime, so a run of k zero bytes multiplies
// it by fnvPrime^k, the product of the entries for k's set bits. Seventeen
// entries cover runs up to the whole map (2^16 bytes).
var fnvPow = func() (t [17]uint64) {
	p := uint64(fnvPrime)
	for j := range t {
		t[j] = p
		p *= p
	}
	return t
}()

// skipZeros advances FNV-1a state h over k zero bytes.
func skipZeros(h uint64, k int) uint64 {
	for j := 0; k > 0; j, k = j+1, k>>1 {
		if k&1 != 0 {
			h *= fnvPow[j]
		}
	}
	return h
}

// hash is hash64 of c's dense map without building it: each run of zero
// cells between listed ones is skipped in at most 17 multiplications.
func (c Cells) hash() uint64 {
	h := uint64(fnvOffset)
	next := 0
	for k := range c.Len() {
		cell, bits := c.at(k)
		h = skipZeros(h, cell-next)
		h ^= uint64(bits)
		h *= fnvPrime
		next = cell + 1
	}
	return skipZeros(h, vm.CovMapSize-next)
}
