package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	sp := NewSpace()
	if _, err := sp.Map("text", 0x1000, 0x1000, PermRead|PermExec); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Map("data", 0x4000, 0x1000, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestMapOverlapRejected(t *testing.T) {
	sp := newTestSpace(t)
	cases := []struct {
		base uint64
		size int
	}{
		{0x1000, 16},     // exact start
		{0x1800, 0x1000}, // straddles end of text
		{0x0f00, 0x200},  // straddles start of text
		{0x3fff, 2},      // straddles start of data
	}
	for _, c := range cases {
		if _, err := sp.Map("x", c.base, c.size, PermRead); err == nil {
			t.Errorf("Map(0x%x, %d) succeeded, want overlap error", c.base, c.size)
		}
	}
}

func TestMapAdjacentAllowed(t *testing.T) {
	sp := newTestSpace(t)
	if _, err := sp.Map("x", 0x2000, 0x1000, PermRead); err != nil {
		t.Fatalf("adjacent map failed: %v", err)
	}
}

func TestMapRejectsBadSizes(t *testing.T) {
	sp := NewSpace()
	if _, err := sp.Map("z", 0, 0, PermRead); err == nil {
		t.Error("zero-size map succeeded")
	}
	if _, err := sp.Map("w", ^uint64(0)-4, 16, PermRead); err == nil {
		t.Error("wrapping map succeeded")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	sp := newTestSpace(t)
	payload := []byte("polymorphic canary")
	if err := sp.Write(0x4010, payload); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Read(0x4010, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
}

func TestU64RoundTripProperty(t *testing.T) {
	sp := newTestSpace(t)
	f := func(v uint64, off uint16) bool {
		addr := 0x4000 + uint64(off)%(0x1000-8)
		if err := sp.WriteU64(addr, v); err != nil {
			return false
		}
		got, err := sp.ReadU64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU32RoundTrip(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.WriteU32(0x4000, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := sp.ReadU32(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("got 0x%x", v)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.WriteU64(0x4000, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b, err := sp.Read(0x4000, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	if !bytes.Equal(b, want) {
		t.Fatalf("byte order %v, want %v", b, want)
	}
}

func TestPermissionFaults(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.Write(0x1000, []byte{1}); err == nil {
		t.Error("write to text succeeded")
	}
	if _, err := sp.Fetch(0x4000, 1); err == nil {
		t.Error("fetch from data succeeded")
	}
	var f *Fault
	err := sp.Write(0x1000, []byte{1})
	if !errors.As(err, &f) {
		t.Fatalf("error %v is not a *Fault", err)
	}
	if !f.Write {
		t.Error("fault not marked as write")
	}
}

func TestUnmappedFaults(t *testing.T) {
	sp := newTestSpace(t)
	if _, err := sp.Read(0x9000, 1); err == nil {
		t.Error("read of unmapped address succeeded")
	}
	if err := sp.Write(0x9000, []byte{1}); err == nil {
		t.Error("write to unmapped address succeeded")
	}
	// Access straddling the end of a segment must fault, not partially apply.
	if _, err := sp.Read(0x4ffc, 8); err == nil {
		t.Error("read straddling segment end succeeded")
	}
}

func TestFetchShortAtEnd(t *testing.T) {
	sp := newTestSpace(t)
	b, err := sp.Fetch(0x1ffe, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 {
		t.Fatalf("fetch at segment end returned %d bytes, want 2", len(b))
	}
}

func TestCloneIsolation(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.WriteU64(0x4000, 0x1111); err != nil {
		t.Fatal(err)
	}
	cl := sp.Clone()
	if err := cl.WriteU64(0x4000, 0x2222); err != nil {
		t.Fatal(err)
	}
	orig, _ := sp.ReadU64(0x4000)
	if orig != 0x1111 {
		t.Fatalf("parent memory changed by child write: 0x%x", orig)
	}
	got, _ := cl.ReadU64(0x4000)
	if got != 0x2222 {
		t.Fatalf("child memory lost its write: 0x%x", got)
	}
}

func TestClonePreservesContents(t *testing.T) {
	sp := newTestSpace(t)
	payload := []byte{0xca, 0xfe, 0xba, 0xbe}
	if err := sp.Write(0x4100, payload); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Clone().Read(0x4100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("clone lost contents: %v", got)
	}
}

func TestSegmentLookupByName(t *testing.T) {
	sp := newTestSpace(t)
	if sp.Segment("text") == nil {
		t.Error("Segment(text) = nil")
	}
	if sp.Segment("nope") != nil {
		t.Error("Segment(nope) != nil")
	}
}

func TestFootprint(t *testing.T) {
	sp := newTestSpace(t)
	if got := sp.Footprint(); got != 0x2000 {
		t.Fatalf("Footprint() = %d, want %d", got, 0x2000)
	}
}

func TestPermString(t *testing.T) {
	if got := (PermRead | PermWrite).String(); got != "rw-" {
		t.Fatalf("perm string %q", got)
	}
	if got := (PermRead | PermExec).String(); got != "r-x" {
		t.Fatalf("perm string %q", got)
	}
}

func TestFaultErrorMessage(t *testing.T) {
	f := &Fault{Addr: 0x1234, Size: 8, Write: true, Why: "unmapped"}
	msg := f.Error()
	if msg == "" || !bytes.Contains([]byte(msg), []byte("0x1234")) {
		t.Fatalf("unhelpful fault message %q", msg)
	}
}

func TestSegmentsSorted(t *testing.T) {
	sp := NewSpace()
	for _, base := range []uint64{0x9000, 0x1000, 0x5000} {
		if _, err := sp.Map("s", base, 0x100, PermRead); err != nil {
			t.Fatal(err)
		}
	}
	segs := sp.Segments()
	for i := 1; i < len(segs); i++ {
		if segs[i-1].Base >= segs[i].Base {
			t.Fatal("segments not sorted by base")
		}
	}
}

// --- copy-on-write fork semantics ---

func TestCloneSharesBackingUntilWrite(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.WriteU64(0x4000, 0xabcd); err != nil {
		t.Fatal(err)
	}
	cl := sp.Clone()
	if !sp.Segment("data").Shared() || !cl.Segment("data").Shared() {
		t.Fatal("segments not marked shared after Clone")
	}
	if &sp.Segment("data").Data[0] != &cl.Segment("data").Data[0] {
		t.Fatal("Clone copied segment bytes eagerly")
	}
	// First child write materializes the child's copy only.
	if err := cl.WriteU64(0x4000, 0x9999); err != nil {
		t.Fatal(err)
	}
	if cl.Segment("data").Shared() {
		t.Error("child segment still marked shared after write")
	}
	if !sp.Segment("data").Shared() {
		t.Error("parent segment lost its shared mark without writing")
	}
	if &sp.Segment("data").Data[0] == &cl.Segment("data").Data[0] {
		t.Fatal("child write did not materialize a private copy")
	}
}

func TestCloneParentWriteDoesNotLeakToChild(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.WriteU64(0x4000, 0x1111); err != nil {
		t.Fatal(err)
	}
	cl := sp.Clone()
	if err := sp.WriteU64(0x4000, 0x2222); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadU64(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1111 {
		t.Fatalf("child sees parent's post-fork write: 0x%x", got)
	}
}

func TestCloneOfCloneIsolation(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.WriteU64(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	c1 := sp.Clone()
	c2 := c1.Clone()
	if err := c2.WriteU64(0x4000, 3); err != nil {
		t.Fatal(err)
	}
	if err := c1.WriteU64(0x4000, 2); err != nil {
		t.Fatal(err)
	}
	for i, want := range map[*Space]uint64{sp: 1, c1: 2, c2: 3} {
		got, err := i.ReadU64(0x4000)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("space sees 0x%x, want 0x%x", got, want)
		}
	}
}

func TestCopyInMaterializesSharedSegment(t *testing.T) {
	sp := newTestSpace(t)
	cl := sp.Clone()
	if err := sp.Segment("text").CopyIn(0, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	if b := cl.Segment("text").Data[0]; b != 0 {
		t.Fatalf("CopyIn to parent leaked into child: 0x%x", b)
	}
}

func TestCloneDeepMatchesClone(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.Write(0x4000, []byte("deep-vs-cow")); err != nil {
		t.Fatal(err)
	}
	cow, deep := sp.Clone(), sp.CloneDeep()
	for _, addr := range []uint64{0x4000, 0x4004} {
		a, err := cow.ReadU64(addr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := deep.ReadU64(addr)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("CloneDeep and Clone disagree at 0x%x: 0x%x vs 0x%x", addr, b, a)
		}
	}
	if deep.Segment("data").Shared() {
		t.Error("CloneDeep produced a shared segment")
	}
}

func TestFootprintStableAcrossCloneAndWrite(t *testing.T) {
	sp := newTestSpace(t)
	want := sp.Footprint()
	cl := sp.Clone()
	if got := cl.Footprint(); got != want {
		t.Fatalf("clone footprint %d, want %d", got, want)
	}
	if err := cl.WriteU64(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	if got := cl.Footprint(); got != want {
		t.Fatalf("footprint changed by COW materialization: %d, want %d", got, want)
	}
	if got := sp.Footprint(); got != want {
		t.Fatalf("parent footprint changed: %d, want %d", got, want)
	}
}

// --- generation counters ---

func TestGenerationBumpsOnExecWrite(t *testing.T) {
	sp := NewSpace()
	seg, err := sp.Map("jit", 0x1000, 0x100, PermRead|PermWrite|PermExec)
	if err != nil {
		t.Fatal(err)
	}
	g0 := seg.Gen()
	if err := sp.WriteU64(0x1000, 0x1); err != nil {
		t.Fatal(err)
	}
	if seg.Gen() == g0 {
		t.Fatal("write to exec segment did not bump generation")
	}
	if err := seg.CopyIn(0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if seg.Gen() == g0+1 {
		t.Fatal("CopyIn to exec segment did not bump generation")
	}
}

func TestGenerationStableOnDataWrite(t *testing.T) {
	sp := newTestSpace(t)
	seg := sp.Segment("data")
	g0 := seg.Gen()
	if err := sp.WriteU64(0x4000, 7); err != nil {
		t.Fatal(err)
	}
	if seg.Gen() != g0 {
		t.Fatal("write to non-exec segment bumped generation")
	}
}

// --- API contracts and fast paths ---

func TestSegmentsReturnsDefensiveCopy(t *testing.T) {
	sp := newTestSpace(t)
	segs := sp.Segments()
	segs[0] = nil
	segs = segs[:0]
	_ = segs
	if sp.Segment("text") == nil || sp.Segment("data") == nil {
		t.Fatal("mutating the Segments() result corrupted the space")
	}
	if got := len(sp.Segments()); got != 2 {
		t.Fatalf("space has %d segments after caller mutation, want 2", got)
	}
}

func TestReadInto(t *testing.T) {
	sp := newTestSpace(t)
	payload := []byte("0123456789abcdef")
	if err := sp.Write(0x4020, payload); err != nil {
		t.Fatal(err)
	}
	var buf [16]byte
	if err := sp.ReadInto(0x4020, buf[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:], payload) {
		t.Fatalf("ReadInto got %q, want %q", buf, payload)
	}
	if err := sp.ReadInto(0x4ffc, buf[:]); err == nil {
		t.Fatal("ReadInto straddling segment end succeeded")
	}
	if err := sp.ReadInto(0x9000, buf[:1]); err == nil {
		t.Fatal("ReadInto of unmapped address succeeded")
	}
}

func TestWordAccessDoesNotAllocate(t *testing.T) {
	sp := newTestSpace(t)
	var buf [16]byte
	allocs := testing.AllocsPerRun(200, func() {
		if err := sp.WriteU64(0x4000, 0xfeed); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.ReadU64(0x4000); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.ReadU32(0x4004); err != nil {
			t.Fatal(err)
		}
		if err := sp.ReadInto(0x4000, buf[:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("word access fast paths allocate %.1f times per op, want 0", allocs)
	}
}

func TestLookupCacheSurvivesUnmappedProbe(t *testing.T) {
	sp := newTestSpace(t)
	if _, err := sp.Read(0x9000, 1); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	v, err := sp.ReadU64(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	_ = v
	if _, err := sp.ReadU64(0x1000); err != nil { // different segment than cached
		t.Fatal(err)
	}
}

// largeCOWSpace maps a lazily-materializing RW segment (4 chunks) filled
// with a position-dependent pattern — the shape of the fork-server stacks
// the loadgen path hammers.
func largeCOWSpace(t *testing.T, pool *BufPool) (*Space, uint64, int) {
	t.Helper()
	sp := NewSpace()
	if pool != nil {
		sp.SetPool(pool)
	}
	const base, size = 0x100000, 4 * cowChunk
	if _, err := sp.Map("stack", base, size, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i * 31)
	}
	if err := sp.Write(base, pattern); err != nil {
		t.Fatal(err)
	}
	return sp, base, size
}

func patternByte(i int) byte { return byte(i * 31) }

// TestCOWWriteStraddlesChunkBoundary exercises the lazy-materialization
// write path across a 4 KiB chunk boundary: the write must fill both
// touched chunks from the shadow before mutating, leave every other chunk
// lazily intact, and never leak into the parent.
func TestCOWWriteStraddlesChunkBoundary(t *testing.T) {
	sp, base, size := largeCOWSpace(t, nil)
	child := sp.Clone()

	// An 8-byte word straddling the chunk 0 / chunk 1 boundary.
	straddle := base + cowChunk - 4
	if err := child.WriteU64(straddle, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	got, err := child.ReadU64(straddle)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1122334455667788 {
		t.Fatalf("straddling word read back %#x", got)
	}
	// A bulk write straddling the chunk 2 / chunk 3 boundary.
	blob := []byte("straddling-bulk-write")
	blobAddr := base + 3*cowChunk - 7
	if err := child.Write(blobAddr, blob); err != nil {
		t.Fatal(err)
	}

	// Every byte of the child outside the two writes must still match the
	// parent pattern — including chunks never touched by a write, which
	// materialize on this read.
	for _, off := range []int{
		0, 1, cowChunk - 5, cowChunk + 4, cowChunk + 100, // around the word
		2*cowChunk - 1, 2 * cowChunk, // untouched middle chunk
		3*cowChunk - 8, 3*cowChunk + len(blob) - 7, size - 1, // around the blob
	} {
		b, err := child.Read(base+uint64(off), 1)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != patternByte(off) {
			t.Fatalf("child byte %d = %#x, want pattern %#x", off, b[0], patternByte(off))
		}
	}
	// The parent never sees either write.
	pw, err := sp.ReadU64(straddle)
	if err != nil {
		t.Fatal(err)
	}
	var want [8]byte
	for i := range want {
		want[i] = patternByte(int(straddle-base) + i)
	}
	if pw != binary.LittleEndian.Uint64(want[:]) {
		t.Fatalf("parent word at straddle = %#x, want pattern %#x", pw, binary.LittleEndian.Uint64(want[:]))
	}
	pb, err := sp.Read(blobAddr, len(blob))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pb {
		if b != patternByte(int(blobAddr-base)+i) {
			t.Fatalf("parent byte %d corrupted by child bulk write", int(blobAddr-base)+i)
		}
	}
}

// TestChunkBoundaryWriteInParentDoesNotLeakToChild is the mirror image:
// after a clone, a parent-side straddling write must not become visible
// through the child's lazily-filled chunks.
func TestChunkBoundaryWriteInParentDoesNotLeakToChild(t *testing.T) {
	sp, base, _ := largeCOWSpace(t, nil)
	child := sp.Clone()
	straddle := base + 2*cowChunk - 4
	if err := sp.WriteU64(straddle, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	got, err := child.ReadU64(straddle)
	if err != nil {
		t.Fatal(err)
	}
	var want [8]byte
	for i := range want {
		want[i] = patternByte(int(straddle-base) + i)
	}
	if got != binary.LittleEndian.Uint64(want[:]) {
		t.Fatalf("parent write leaked into child: %#x", got)
	}
}

// TestReleaseRecyclesBuffersWithoutLeak is the fork-server worker loop in
// miniature: worker 1 materializes its stack via the pool, scribbles over
// all of it, and dies (Release); worker 2 then forks from the same parent
// and must see the parent's bytes — never worker 1's — even though its
// materialization buffer is worker 1's recycled, dirty one.
func TestReleaseRecyclesBuffersWithoutLeak(t *testing.T) {
	pool := &BufPool{}
	sp, base, size := largeCOWSpace(t, pool)

	w1 := sp.Clone()
	junk := make([]byte, size)
	for i := range junk {
		junk[i] = 0xEE
	}
	if err := w1.Write(base, junk); err != nil {
		t.Fatal(err)
	}
	w1.Release()
	if len(pool.bufs) != 1 {
		t.Fatalf("pool holds %d buffers after Release, want 1", len(pool.bufs))
	}

	w2 := sp.Clone()
	// One-byte write forces materialization — taking worker 1's dirty
	// buffer from the pool — and fills only that chunk.
	if err := w2.Write(base+10, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	if len(pool.bufs) != 0 {
		t.Fatalf("pool holds %d buffers after reuse, want 0", len(pool.bufs))
	}
	// Every byte of worker 2 — written chunk and lazily-filled ones alike —
	// must be the parent pattern (or the fresh write), never 0xEE.
	got, err := w2.Read(base, size)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := patternByte(i)
		if i == 10 {
			want = 0x5A
		}
		if b != want {
			t.Fatalf("worker 2 byte %d = %#x, want %#x (dirty pooled buffer leaked)", i, b, want)
		}
	}
	// The parent still has its pattern at the probed offsets.
	pb, err := sp.Read(base+10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pb[0] != patternByte(10) {
		t.Fatalf("parent corrupted: byte 10 = %#x", pb[0])
	}
}

// TestReleaseSkipsSharedSegments: a worker that dies without writing still
// shares every backing with its parent; Release must neither pool those
// shared buffers nor disturb the parent.
func TestReleaseSkipsSharedSegments(t *testing.T) {
	pool := &BufPool{}
	sp, base, _ := largeCOWSpace(t, pool)
	w := sp.Clone()
	w.Release()
	if len(pool.bufs) != 0 {
		t.Fatalf("pool holds %d buffers from a write-free worker, want 0", len(pool.bufs))
	}
	b, err := sp.Read(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != patternByte(0) {
		t.Fatalf("parent byte 0 = %#x after releasing a shared child", b[0])
	}
	if _, err := w.Read(base, 1); err == nil {
		t.Fatal("released space still readable")
	}
}

// TestReleaseAllReclaimsSharedSegments: closing a fork-server parent whose
// workers are all dead must reclaim even the still-cow-marked buffers —
// that is ReleaseAll's contract — and the next materialization must take
// the recycled array instead of allocating.
func TestReleaseAllReclaimsSharedSegments(t *testing.T) {
	pool := &BufPool{}
	sp, base, _ := largeCOWSpace(t, pool)
	// A write-free worker comes and goes: the parent's segment stays marked
	// shared, which plain Release would skip forever.
	w := sp.Clone()
	w.Release()
	if len(pool.bufs) != 0 {
		t.Fatalf("pool holds %d buffers from a write-free worker, want 0", len(pool.bufs))
	}
	var parentBuf []byte
	for _, s := range sp.segs {
		if s.Name == "stack" {
			parentBuf = s.Data
		}
	}
	sp.ReleaseAll()
	if len(pool.bufs) != 1 {
		t.Fatalf("pool holds %d buffers after ReleaseAll, want 1", len(pool.bufs))
	}
	if _, err := sp.Read(base, 1); err == nil {
		t.Fatal("released space still readable")
	}
	// The recycled buffer is the parent's old backing array.
	got := pool.get(len(parentBuf))
	if &got[0] != &parentBuf[0] {
		t.Fatal("pool.get returned a different buffer than ReleaseAll reclaimed")
	}
}

// TestReleaseAllSkipsExecAndSmall: executable segments (decode caches key on
// their backing identity) and sub-threshold segments stay out of the pool.
func TestReleaseAllSkipsExecAndSmall(t *testing.T) {
	pool := &BufPool{}
	sp := NewSpace()
	sp.SetPool(pool)
	if _, err := sp.Map("text", 0x1000, 4*cowChunk, PermRead|PermExec); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Map("tiny", 0x100000, cowLazyMin-1, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	sp.ReleaseAll()
	if len(pool.bufs) != 0 {
		t.Fatalf("pool holds %d buffers, want 0 (exec and small segments are not poolable)", len(pool.bufs))
	}
}

// tlsAndStackSpace maps a small TLS-sized segment and a large stack-sized
// one on pool, each holding a byte pattern.
func tlsAndStackSpace(t *testing.T, pool *BufPool) *Space {
	t.Helper()
	sp, _, _ := largeCOWSpace(t, pool)
	if _, err := sp.Map("tls", 0x7000, cowChunk, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := sp.WriteU64(0x7000+0x28, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestReleaseRecyclesSmallBuffersAtExactSize: a dead worker's private TLS
// copy goes back to the pool beside its stack buffer, and the next eager
// copy takes the TLS-sized one — never the stack-sized buffer the lazy path
// is about to want.
func TestReleaseRecyclesSmallBuffersAtExactSize(t *testing.T) {
	pool := &BufPool{}
	sp := tlsAndStackSpace(t, pool)
	w := sp.Clone()
	if err := w.WriteU64(0x7000+0x2a8, 1); err != nil { // TLS: eager copy
		t.Fatal(err)
	}
	if err := w.WriteU64(0x100000, 2); err != nil { // stack: lazy copy
		t.Fatal(err)
	}
	w.Release()
	if len(pool.bufs) != 2 {
		t.Fatalf("pool holds %d buffers after Release, want 2 (TLS and stack)", len(pool.bufs))
	}

	w = sp.Clone()
	if err := w.WriteU64(0x7000+0x2a8, 3); err != nil {
		t.Fatal(err)
	}
	if len(pool.bufs) != 1 || cap(pool.bufs[0]) != 4*cowChunk {
		t.Fatalf("after a TLS write the pool holds %d buffer(s), want the stack-sized one", len(pool.bufs))
	}
	if c, err := w.ReadU64(0x7000 + 0x28); err != nil || c != 0xC0FFEE {
		t.Fatalf("recycled TLS copy reads canary %#x (%v), want the parent's", c, err)
	}
	// A small request the pool cannot serve exactly allocates instead.
	if b := pool.getExact(cowChunk / 2); cap(b) != cowChunk/2 || len(pool.bufs) != 1 {
		t.Fatalf("getExact(%d) took a %d-byte buffer", cowChunk/2, cap(b))
	}
}

// TestCloneIntoReusesReleasedSpace: forking into a released worker's space
// gives the same copy-on-write child as Clone, allocates nothing once the
// pool is warm, and never shows the previous worker's writes.
func TestCloneIntoReusesReleasedSpace(t *testing.T) {
	pool := &BufPool{}
	sp := tlsAndStackSpace(t, pool)
	var slot Space
	cycle := func(mark uint64) {
		sp.CloneInto(&slot)
		if v, err := slot.ReadU64(0x100000 + 8); err != nil || v != patternWord(8) {
			t.Fatalf("child stack word %#x (%v), want the parent's pattern", v, err)
		}
		if v, err := slot.ReadU64(0x7000 + 0x2a8); err != nil || v != 0 {
			t.Fatalf("child TLS word %#x (%v): an earlier worker's write leaked", v, err)
		}
		if err := slot.WriteU64(0x100000+8, mark); err != nil {
			t.Fatal(err)
		}
		if err := slot.WriteU64(0x7000+0x2a8, mark); err != nil {
			t.Fatal(err)
		}
		slot.Release()
	}
	cycle(1)
	epoch := slot.Epoch()
	if n := testing.AllocsPerRun(20, func() { cycle(2) }); n != 0 {
		t.Errorf("CloneInto/write/Release cycle: %v allocs, want 0", n)
	}
	if slot.Epoch() <= epoch {
		t.Error("the recycled space's epoch did not advance")
	}
	if len(slot.segs) != 0 {
		t.Errorf("released space still maps %d segments", len(slot.segs))
	}
	if v, err := sp.ReadU64(0x100000 + 8); err != nil || v != patternWord(8) {
		t.Fatalf("parent stack word %#x (%v), want its pattern", v, err)
	}
}

// patternWord is the little-endian word of largeCOWSpace's pattern at off.
func patternWord(off int) uint64 {
	var b [8]byte
	for i := range b {
		b[i] = patternByte(off + i)
	}
	return binary.LittleEndian.Uint64(b[:])
}

func TestAppendRead(t *testing.T) {
	sp := newTestSpace(t)
	if err := sp.Write(0x4000, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	out, err := sp.AppendRead([]byte("> "), 0x4000, 5)
	if err != nil || string(out) != "> hello" {
		t.Fatalf("AppendRead = %q, %v", out, err)
	}
	kept := []byte("kept")
	if got, err := sp.AppendRead(kept, 0x9000, 4); err == nil || string(got) != "kept" {
		t.Fatalf("unmapped AppendRead = %q, %v; want the input back and a fault", got, err)
	}
	if got, err := sp.AppendRead(nil, 0x4000, -1); err == nil || got != nil {
		t.Fatalf("negative-size AppendRead = %q, %v; want a fault", got, err)
	}
}
