package fuzz

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/vm"
)

// randomFrontier returns a dense bucketed map with n random non-zero cells.
func randomFrontier(r *rand.Rand, n int) []byte {
	dense := make([]byte, vm.CovMapSize)
	for _, i := range r.Perm(vm.CovMapSize)[:n] {
		dense[i] = byte(1 + r.Intn(255))
	}
	return dense
}

// TestCellsMatchDense: the sparse form lists exactly the dense map's
// non-zero cells, expands back to it, and its zero-run-skipping hash equals
// hash64 over all 64 KiB — at both ends of the map, on adjacent cells, and
// on random fills up to every cell.
func TestCellsMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(2018))
	var maps [][]byte
	with := func(cells ...int) []byte {
		dense := make([]byte, vm.CovMapSize)
		for _, c := range cells {
			dense[c] = byte(1 + c%255)
		}
		return dense
	}
	maps = append(maps,
		with(), with(0), with(vm.CovMapSize-1), with(0, vm.CovMapSize-1),
		with(7, 8, 9), with(vm.CovMapSize-3, vm.CovMapSize-2, vm.CovMapSize-1), with(0, 1, 2, 3, 4, 5, 6, 7, 8))
	for _, n := range []int{1, 2, 140, 1000, 4096, vm.CovMapSize / 2, vm.CovMapSize - 1, vm.CovMapSize} {
		maps = append(maps, randomFrontier(r, n))
	}
	for i, dense := range maps {
		c := CellsOf(dense)
		want := 0
		for _, b := range dense {
			if b != 0 {
				want++
			}
		}
		if err := c.Check(); err != nil {
			t.Fatalf("map %d: CellsOf gave unchecked cells: %v", i, err)
		}
		if c.Len() != want || len(c) != want*cellSize {
			t.Fatalf("map %d: %d cells in %d bytes, want %d", i, c.Len(), len(c), want)
		}
		if !bytes.Equal(c.Dense(), dense) {
			t.Fatalf("map %d: Dense(CellsOf(m)) != m", i)
		}
		if got, want := c.hash(), hash64(dense); got != want {
			t.Fatalf("map %d (%d cells): sparse hash %016x, hash64 %016x", i, c.Len(), got, want)
		}
	}
	if c := CellsOf(make([]byte, vm.CovMapSize-1)); c != nil {
		t.Fatalf("CellsOf of a short map = %v, want nil", c)
	}
}

// denseMerge is the reference merge the sparse one must equal: OR every
// slot's dense map (last partial per shard wins, as in MergePartials), then
// count and hash all 64 KiB.
func denseMerge(shards int, parts []*Partial) (edges int, hash uint64, frontier []byte) {
	slots := make([]*Partial, shards)
	for _, p := range parts {
		slots[p.Shard] = p
	}
	frontier = make([]byte, vm.CovMapSize)
	for _, p := range slots {
		if p == nil {
			continue
		}
		for i, b := range p.Virgin.Dense() {
			frontier[i] |= b
		}
	}
	for _, b := range frontier {
		if b != 0 {
			edges++
		}
	}
	return edges, hash64(frontier), frontier
}

// TestSparseMergeMatchesDenseMerge: on random partials — overlapping
// frontiers, missing shards, duplicated shards — the sparse merge's Edges,
// CoverageHash and Frontier equal a dense OR-count-hash of the same slots.
func TestSparseMergeMatchesDenseMerge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := Config{Label: "ref", Seeds: [][]byte{[]byte("x")}, Execs: 64, Shards: 6}
	sizes := []int{0, 1, 3, 140, 2000, vm.CovMapSize / 4}
	shared := randomFrontier(r, 300)
	for trial := 0; trial < 30; trial++ {
		var parts []*Partial
		for range 1 + r.Intn(2*cfg.Shards) {
			dense := randomFrontier(r, sizes[r.Intn(len(sizes))])
			if r.Intn(2) == 0 {
				for i, b := range shared {
					dense[i] |= b
				}
			}
			p := &Partial{Shard: r.Intn(cfg.Shards), Virgin: CellsOf(dense)}
			parts = append(parts, p)
			if r.Intn(3) == 0 {
				dup := *p
				parts = append(parts, &dup)
			}
		}
		rep, err := MergePartials(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		edges, hash, frontier := denseMerge(cfg.Shards, parts)
		if rep.Edges != edges || rep.CoverageHash != hash || !bytes.Equal(rep.Frontier(), frontier) {
			t.Fatalf("trial %d: sparse merge edges=%d hash=%016x, dense edges=%d hash=%016x, frontier equal=%v",
				trial, rep.Edges, rep.CoverageHash, edges, hash, bytes.Equal(rep.Frontier(), frontier))
		}
	}
}

// refMutate is the allocating mutator the in-place one replaced, kept as
// its reference: the same draws in the same order must give the same
// mutant.
func refMutate(r *rng.Source, dict [][]byte, max int, parent []byte, corpus [][]byte) []byte {
	out := append(make([]byte, 0, len(parent)+16), parent...)
	for n := 1 << r.Intn(4); n > 0; n-- {
		switch r.Intn(10) {
		case 0:
			if len(out) > 0 {
				bit := r.Intn(len(out) * 8)
				out[bit/8] ^= 1 << (bit % 8)
			}
		case 1:
			if len(out) > 0 {
				out[r.Intn(len(out))] = interesting8[r.Intn(len(interesting8))]
			}
		case 2:
			if len(out) >= 2 {
				binary.LittleEndian.PutUint16(out[r.Intn(len(out)-1):],
					interesting16[r.Intn(len(interesting16))])
			}
		case 3:
			if len(out) > 0 {
				delta := byte(1 + r.Intn(35))
				if r.Intn(2) == 0 {
					delta = -delta
				}
				out[r.Intn(len(out))] += delta
			}
		case 4:
			if len(out) > 0 {
				out[r.Intn(len(out))] = byte(r.Intn(256))
			}
		case 5:
			if len(out) > 1 {
				n := 1 + r.Intn(len(out)/2)
				pos := r.Intn(len(out) - n + 1)
				out = append(out[:pos], out[pos+n:]...)
			}
		case 6:
			if len(out) > 0 {
				n := 1 + r.Intn(len(out))
				pos := r.Intn(len(out) - n + 1)
				block := append([]byte(nil), out[pos:pos+n]...)
				at := r.Intn(len(out) + 1)
				out = append(out[:at], append(block, out[at:]...)...)
			}
		case 7:
			block := make([]byte, 1<<r.Intn(5))
			r.Bytes(block)
			at := 0
			if len(out) > 0 {
				at = r.Intn(len(out) + 1)
			}
			out = append(out[:at], append(block, out[at:]...)...)
		case 8:
			var tok []byte
			if len(dict) > 0 {
				tok = dict[r.Intn(len(dict))]
			} else {
				tok = make([]byte, 1<<r.Intn(5))
				r.Bytes(tok)
			}
			at := 0
			if len(out) > 0 {
				at = r.Intn(len(out) + 1)
			}
			out = append(out[:at], append(append([]byte(nil), tok...), out[at:]...)...)
		case 9:
			other := out
			if len(corpus) > 0 {
				if o := corpus[r.Intn(len(corpus))]; len(o) > 0 {
					other = o
				}
			}
			if len(out) > 0 && len(other) > 0 {
				head := out[:r.Intn(len(out))]
				tail := other[r.Intn(len(other)):]
				out = append(append([]byte(nil), head...), tail...)
			}
		}
	}
	if len(out) == 0 {
		out = []byte{0}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// TestInPlaceMutatorMatchesReference: the in-place mutator draws the same
// random numbers in the same order as the allocating reference and yields
// the same mutants — with and without a dictionary and a corpus, at a cap
// below the dictionary-free block size and at a cap no buffer could hold —
// and a warm mutator allocates nothing.
func TestInPlaceMutatorMatchesReference(t *testing.T) {
	corpus := [][]byte{[]byte("GET /index.html"), []byte("PING"), {0xff}}
	for _, tc := range []struct {
		name   string
		dict   [][]byte
		corpus [][]byte
		max    int
	}{
		{"dict+corpus", [][]byte{[]byte("tok"), []byte("Host: ")}, corpus, 64},
		{"no dict", nil, corpus, 1024},
		{"no corpus", nil, nil, 8},
		{"tiny cap", [][]byte{[]byte("longer-than-the-cap")}, corpus[:1], 2},
		{"cap near the int range", nil, corpus, math.MaxInt},
	} {
		m := &mutator{r: rng.NewStream(11, 3), dict: tc.dict, max: tc.max}
		ref := rng.NewStream(11, 3)
		parent := []byte("GET /")
		for i := 0; i < 3000; i++ {
			got := m.mutate(parent, tc.corpus)
			want := refMutate(ref, tc.dict, tc.max, parent, tc.corpus)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: mutant %d = %q, reference %q", tc.name, i, got, want)
			}
			if i%7 == 0 {
				parent = append([]byte(nil), got...)
			}
		}
		if a, b := m.r.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("%s: streams diverged after the run", tc.name)
		}
		if n := testing.AllocsPerRun(200, func() { m.mutate(parent, tc.corpus) }); n != 0 {
			t.Errorf("%s: warm mutate allocated %.1f times", tc.name, n)
		}
	}
}
