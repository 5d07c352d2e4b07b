// Package mem implements the byte-addressed virtual memory of the simulated
// machine: a set of non-overlapping segments with permissions, little-endian
// word access, and copy-on-write whole-space cloning for the fork model.
//
// The address-space layout mirrors a conventional Linux x86-64 process
// closely enough for the paper's mechanics to carry over: code low, globals
// above it, the thread-local storage block reachable through the FS base,
// and a stack near the top of the space growing downward.
//
// A Space is not safe for concurrent use: even read paths update the
// internal segment-lookup cache. Every simulated machine owns its spaces and
// drives them from a single goroutine; distinct machines never share one.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Perm is a segment permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permission like "rwx".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Fault describes an invalid memory access. The VM converts faults into
// simulated process crashes (the analog of SIGSEGV), which is exactly the
// signal the byte-by-byte attacker observes.
type Fault struct {
	Addr  uint64
	Size  int
	Write bool
	Exec  bool
	Why   string
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	if f.Exec {
		kind = "exec"
	}
	return fmt.Sprintf("mem: %s fault at 0x%x (size %d): %s", kind, f.Addr, f.Size, f.Why)
}

// cowChunk is the granularity of lazy copy-on-write materialization — the
// simulated page size. Segments larger than maxChunks pages use
// proportionally larger chunks so the bitmap stays a fixed-size inline
// array (no allocation per materialization).
const (
	cowChunk  = 4096
	maxChunks = 128
)

// cowLazyMin is the smallest segment that materializes lazily, chunk by
// chunk. Smaller segments (TLS) are copied eagerly: the bookkeeping would
// cost more than the copy.
const cowLazyMin = 2 * cowChunk

// Segment is one contiguous mapped region.
//
// Data may be shared copy-on-write with segments of forked spaces. All
// guest-visible access must go through the Space methods or CopyIn, which
// materialize private copies before writing (and, for lazily materialized
// segments, fill chunks before reading); code that touches Data[i] directly
// (test fixtures on freshly built spaces) must never do so after the space
// has been cloned.
type Segment struct {
	Name string
	Base uint64
	Perm Perm
	Data []byte

	// cow marks Data as shared with at least one other Space after a Clone;
	// the next write through prepareWrite materializes a private copy.
	cow bool
	// ext marks Data as externally backed (MapShared): the bytes belong to
	// the caller — typically a read-only mmap of an artifact-store blob
	// shared across OS processes — so they must never be written in place
	// and never be recycled into the buffer pool. ext segments are born cow,
	// which routes every write through prepareWrite's materialization; once
	// a private copy exists the flag clears.
	ext bool
	// gen counts content changes to executable segments. Decoded-instruction
	// caches record the generation they were built at and rebuild on
	// mismatch, which is how self-modifying writes to exec pages invalidate
	// stale decodes.
	gen uint64

	// shadow, when non-nil, is the shared backing a lazily materializing
	// segment copies from: Data is a private buffer whose chunks are filled
	// from shadow on first access. filled is the per-chunk bitmap (at most
	// maxChunks chunks; chunk holds the per-segment chunk size); nfilled
	// counts set bits so the shadow can be dropped once fully copied. A
	// worker that touches two pages of a 256 KiB stack copies two chunks,
	// not the mapping — fork costs O(pages written).
	shadow  []byte
	filled  [maxChunks / 64]uint64
	chunk   int
	nfilled int
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Base + uint64(len(s.Data)) }

// Gen returns the segment's content generation. It advances on every write
// to an executable segment (via the Space write paths or CopyIn), never on
// copy-on-write materialization alone.
func (s *Segment) Gen() uint64 { return s.gen }

// Shared reports whether the segment's backing bytes are copy-on-write
// shared with another space (true between a Clone and the next write).
func (s *Segment) Shared() bool { return s.cow }

// Contains reports whether [addr, addr+size) lies inside the segment.
func (s *Segment) Contains(addr uint64, size int) bool {
	return addr >= s.Base && addr+uint64(size) <= s.End() && addr+uint64(size) >= addr
}

// ensure fills the chunks covering [off, off+size) from the shadow backing.
// Callers check s.shadow != nil first; that nil test is the only cost lazy
// materialization adds to the access fast paths.
func (s *Segment) ensure(off uint64, size int) {
	if size <= 0 {
		return
	}
	first := int(off) / s.chunk
	last := int(off+uint64(size)-1) / s.chunk
	for c := first; c <= last; c++ {
		w, bit := c/64, uint64(1)<<(c%64)
		if s.filled[w]&bit != 0 {
			continue
		}
		lo := c * s.chunk
		hi := lo + s.chunk
		if hi > len(s.Data) {
			hi = len(s.Data)
		}
		copy(s.Data[lo:hi], s.shadow[lo:hi])
		s.filled[w] |= bit
		s.nfilled++
	}
	if s.nfilled == (len(s.Data)+s.chunk-1)/s.chunk {
		s.shadow = nil
	}
}

// ensureAll finishes a lazy materialization, leaving Data fully private.
func (s *Segment) ensureAll() {
	if s.shadow != nil {
		s.ensure(0, len(s.Data))
	}
}

// prepareWrite readies [off, off+size) for mutation: a copy-on-write
// backing is materialized into a private copy — eagerly for small or
// executable segments, chunk by chunk for large ones — and content changes
// to executable bytes bump the generation so decode caches resync. pool may
// be nil; when set it supplies recycled buffers (contents irrelevant: the
// eager path overwrites everything and the lazy path fills before any
// read).
func (s *Segment) prepareWrite(pool *BufPool, off uint64, size int) {
	if s.cow {
		if len(s.Data) >= cowLazyMin && s.Perm&PermExec == 0 {
			// Large non-executable segment: take a private buffer but copy
			// chunks only as they are touched. Unfilled chunks are never
			// read (every access path fills first), so the buffer's initial
			// contents are never observable.
			s.shadow = s.Data
			s.Data = pool.get(len(s.Data))
			s.chunk = cowChunk
			if len(s.Data) > maxChunks*cowChunk {
				s.chunk = (len(s.Data) + maxChunks - 1) / maxChunks
			}
			s.filled = [maxChunks / 64]uint64{}
			s.nfilled = 0
		} else {
			// Small or executable segment: the copy is cheaper than the
			// bookkeeping, and exec segments must stay contiguous-valid for
			// the decode caches (which read Data wholesale). Exec backings
			// are decode-cache keys, so they never come from the pool.
			var d []byte
			if s.Perm&PermExec == 0 {
				d = pool.getExact(len(s.Data))
			} else {
				d = make([]byte, len(s.Data))
			}
			copy(d, s.Data)
			s.Data = d
		}
		s.cow = false
		s.ext = false // Data (and, on the lazy path, its chunks) is private now
	}
	if s.shadow != nil {
		s.ensure(off, size)
	}
	if s.Perm&PermExec != 0 {
		s.gen++
	}
}

// CopyIn copies p into the segment starting at byte offset off, bypassing
// permissions. The loader uses it to install code into read-only/executable
// segments.
func (s *Segment) CopyIn(off int, p []byte) error {
	if off < 0 || off+len(p) > len(s.Data) {
		return fmt.Errorf("mem: CopyIn to %q at offset %d (%d bytes) out of range (segment size %d)",
			s.Name, off, len(p), len(s.Data))
	}
	s.prepareWrite(nil, uint64(off), len(p))
	copy(s.Data[off:], p)
	return nil
}

// BufPool recycles materialization buffers between short-lived forked
// children of one simulated machine: the stack- and heap-sized buffers of
// the lazy path, and the small ones (a TLS block's copy-on-write copy) the
// eager path draws at their exact size. It is deliberately not thread-safe:
// a machine drives all of its spaces from one goroutine, and distinct
// machines get distinct pools.
type BufPool struct {
	bufs [][]byte
}

// poolMax bounds the buffers a pool retains.
const poolMax = 16

// get returns a pooled buffer of length n, or a fresh one. Pooled buffers
// come back dirty; callers must overwrite (eager copy) or fill-before-read
// (lazy chunks) every byte they expose.
func (p *BufPool) get(n int) []byte {
	if p != nil {
		for i, b := range p.bufs {
			if cap(b) >= n {
				p.bufs[i] = p.bufs[len(p.bufs)-1]
				p.bufs = p.bufs[:len(p.bufs)-1]
				return b[:n]
			}
		}
	}
	return make([]byte, n)
}

// getExact returns a pooled buffer whose capacity is exactly n, or a fresh
// one: a small eager copy must never take a stack-sized buffer the lazy path
// is about to want. Like get, the buffer comes back dirty.
func (p *BufPool) getExact(n int) []byte {
	if p != nil {
		for i, b := range p.bufs {
			if cap(b) == n {
				p.bufs[i] = p.bufs[len(p.bufs)-1]
				p.bufs = p.bufs[:len(p.bufs)-1]
				return b[:n]
			}
		}
	}
	return make([]byte, n)
}

// put returns a buffer to the pool.
func (p *BufPool) put(b []byte) {
	if p == nil || len(p.bufs) >= poolMax {
		return
	}
	p.bufs = append(p.bufs, b)
}

// Len reports how many buffers the pool currently retains — an
// observability hook for teardown tests and the daemon's stats.
func (p *BufPool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.bufs)
}

// Space is a full address space. The zero value is an empty space.
type Space struct {
	segs []*Segment // sorted by Base
	// last caches the most recently accessed segment. Accesses cluster
	// heavily (stack, then text, then data), so this single entry removes
	// the binary search from almost every load/store/fetch.
	last *Segment
	// pool, when non-nil, supplies and reclaims materialization buffers
	// (see SetPool/Release). Clones inherit it.
	pool *BufPool
	// hdrs is the one backing array of a cloned space's segment headers
	// (segs points into it). Release keeps it and segs' capacity, so a
	// CloneInto the released space reuses both.
	hdrs []Segment
	// epoch counts sharing-topology changes: Clone (segments become
	// copy-on-write), Map, Release and ReleaseAll. Execution tiers that
	// cache direct segment views (View) key them to the epoch and drop
	// them when it moves. Ordinary content writes never bump it — views
	// alias the live backing array, so they observe those directly.
	epoch uint64
}

// Epoch returns the space's sharing-topology generation. Any View acquired
// at an earlier epoch must be discarded.
func (sp *Space) Epoch() uint64 { return sp.epoch }

// SetPool attaches a materialization buffer pool to the space. The kernel
// gives every process space its machine-wide pool so fork-per-request
// workers recycle their stack buffers instead of allocating fresh ones.
func (sp *Space) SetPool(p *BufPool) { sp.pool = p }

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// Map creates a segment of the given size. It fails if the region overlaps
// an existing segment or wraps the address space.
func (sp *Space) Map(name string, base uint64, size int, perm Perm) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: map %q: non-positive size %d", name, size)
	}
	if base+uint64(size) < base {
		return nil, fmt.Errorf("mem: map %q: region wraps address space", name)
	}
	for _, s := range sp.segs {
		if base < s.End() && s.Base < base+uint64(size) {
			return nil, fmt.Errorf("mem: map %q at 0x%x overlaps segment %q [0x%x,0x%x)",
				name, base, s.Name, s.Base, s.End())
		}
	}
	// Large non-executable segments draw on the pool — this is how a closed
	// server's stack reaches the next boot on the same machine. Pooled
	// buffers come back dirty, and Map guarantees zeroed memory (program
	// behaviour must never depend on pool history), so recycled buffers are
	// cleared: an O(size) clear against a saved allocation, the same trade
	// make itself pays.
	var data []byte
	if size >= cowLazyMin && perm&PermExec == 0 {
		data = sp.pool.get(size)
		clear(data)
	} else {
		data = make([]byte, size)
	}
	seg := &Segment{Name: name, Base: base, Perm: perm, Data: data}
	sp.epoch++
	sp.segs = append(sp.segs, seg)
	sort.Slice(sp.segs, func(i, j int) bool { return sp.segs[i].Base < sp.segs[j].Base })
	return seg, nil
}

// MapShared maps data as a segment whose backing aliases the caller's bytes
// instead of copying them — the loader's zero-copy path for artifact-store
// blobs, where the same read-only mmap backs every process booted from one
// image. The segment is born copy-on-write with an external-backing mark, so
// the first guest write materializes a private buffer (lazily, chunk by
// chunk, for large non-executable segments) and the shared bytes themselves
// are never written and never recycled into the pool. data must stay valid
// and unmodified for the life of every space (and clone) that aliases it.
func (sp *Space) MapShared(name string, base uint64, data []byte, perm Perm) (*Segment, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("mem: map shared %q: empty backing", name)
	}
	if base+uint64(len(data)) < base {
		return nil, fmt.Errorf("mem: map shared %q: region wraps address space", name)
	}
	for _, s := range sp.segs {
		if base < s.End() && s.Base < base+uint64(len(data)) {
			return nil, fmt.Errorf("mem: map shared %q at 0x%x overlaps segment %q [0x%x,0x%x)",
				name, base, s.Name, s.Base, s.End())
		}
	}
	seg := &Segment{Name: name, Base: base, Perm: perm, Data: data, cow: true, ext: true}
	sp.epoch++
	sp.segs = append(sp.segs, seg)
	sort.Slice(sp.segs, func(i, j int) bool { return sp.segs[i].Base < sp.segs[j].Base })
	return seg, nil
}

// Segment returns the segment named name, or nil.
func (sp *Space) Segment(name string) *Segment {
	for _, s := range sp.segs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Segments returns the mapped segments in address order. The returned slice
// is the caller's to keep: appending to or reordering it never corrupts the
// space (the pointed-to segments are still the live ones).
func (sp *Space) Segments() []*Segment {
	return append([]*Segment(nil), sp.segs...)
}

// find locates the segment containing [addr, addr+size).
func (sp *Space) find(addr uint64, size int) *Segment {
	if l := sp.last; l != nil && l.Contains(addr, size) {
		return l
	}
	// Binary search on Base.
	i := sort.Search(len(sp.segs), func(i int) bool { return sp.segs[i].End() > addr })
	if i < len(sp.segs) && sp.segs[i].Contains(addr, size) {
		sp.last = sp.segs[i]
		return sp.segs[i]
	}
	return nil
}

// readable locates the readable segment covering [addr, addr+size), or
// returns a fault describing why there is none.
func (sp *Space) readable(addr uint64, size int) (*Segment, error) {
	seg := sp.find(addr, size)
	if seg == nil {
		return nil, &Fault{Addr: addr, Size: size, Why: "unmapped"}
	}
	if seg.Perm&PermRead == 0 {
		return nil, &Fault{Addr: addr, Size: size, Why: "segment " + seg.Name + " not readable"}
	}
	if seg.shadow != nil {
		seg.ensure(addr-seg.Base, size)
	}
	return seg, nil
}

// writable locates the writable segment covering [addr, addr+size) and
// readies it for mutation (copy-on-write materialization, generation bump
// for executable bytes).
func (sp *Space) writable(addr uint64, size int) (*Segment, error) {
	seg := sp.find(addr, size)
	if seg == nil {
		return nil, &Fault{Addr: addr, Size: size, Write: true, Why: "unmapped"}
	}
	if seg.Perm&PermWrite == 0 {
		return nil, &Fault{Addr: addr, Size: size, Write: true, Why: "segment " + seg.Name + " not writable"}
	}
	seg.prepareWrite(sp.pool, addr-seg.Base, size)
	return seg, nil
}

// Read copies size bytes at addr into a fresh slice. Word-sized accesses
// should prefer ReadU64/ReadU32, and bulk accesses ReadInto or AppendRead:
// they allocate nothing of their own.
func (sp *Space) Read(addr uint64, size int) ([]byte, error) {
	seg, err := sp.readable(addr, size)
	if err != nil {
		return nil, err
	}
	off := addr - seg.Base
	out := make([]byte, size)
	copy(out, seg.Data[off:off+uint64(size)])
	return out, nil
}

// AppendRead appends the size bytes at addr to dst and returns the extended
// slice, growing dst only as append does. On a fault dst is returned
// unchanged with the error.
func (sp *Space) AppendRead(dst []byte, addr uint64, size int) ([]byte, error) {
	seg, err := sp.readable(addr, size)
	if err != nil {
		return dst, err
	}
	off := addr - seg.Base
	return append(dst, seg.Data[off:off+uint64(size)]...), nil
}

// ReadInto copies len(dst) bytes at addr into dst without allocating.
func (sp *Space) ReadInto(addr uint64, dst []byte) error {
	seg, err := sp.readable(addr, len(dst))
	if err != nil {
		return err
	}
	off := addr - seg.Base
	copy(dst, seg.Data[off:off+uint64(len(dst))])
	return nil
}

// Write copies p into memory at addr.
func (sp *Space) Write(addr uint64, p []byte) error {
	seg, err := sp.writable(addr, len(p))
	if err != nil {
		return err
	}
	copy(seg.Data[addr-seg.Base:], p)
	return nil
}

// ReadU64 reads a little-endian 64-bit word. It indexes the segment
// directly — no allocation — as this is the VM's load path.
func (sp *Space) ReadU64(addr uint64) (uint64, error) {
	seg, err := sp.readable(addr, 8)
	if err != nil {
		return 0, err
	}
	off := addr - seg.Base
	return binary.LittleEndian.Uint64(seg.Data[off : off+8]), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (sp *Space) WriteU64(addr, v uint64) error {
	seg, err := sp.writable(addr, 8)
	if err != nil {
		return err
	}
	off := addr - seg.Base
	binary.LittleEndian.PutUint64(seg.Data[off:off+8], v)
	return nil
}

// ReadU32 reads a little-endian 32-bit word without allocating.
func (sp *Space) ReadU32(addr uint64) (uint32, error) {
	seg, err := sp.readable(addr, 4)
	if err != nil {
		return 0, err
	}
	off := addr - seg.Base
	return binary.LittleEndian.Uint32(seg.Data[off : off+4]), nil
}

// WriteU32 writes a little-endian 32-bit word.
func (sp *Space) WriteU32(addr uint64, v uint32) error {
	seg, err := sp.writable(addr, 4)
	if err != nil {
		return err
	}
	off := addr - seg.Base
	binary.LittleEndian.PutUint32(seg.Data[off:off+4], v)
	return nil
}

// ExecSegment returns the executable segment containing addr, for
// instruction fetch and predecoding.
func (sp *Space) ExecSegment(addr uint64) (*Segment, error) {
	seg := sp.find(addr, 1)
	if seg == nil {
		return nil, &Fault{Addr: addr, Size: 1, Exec: true, Why: "unmapped"}
	}
	if seg.Perm&PermExec == 0 {
		return nil, &Fault{Addr: addr, Size: 1, Exec: true, Why: "segment " + seg.Name + " not executable"}
	}
	return seg, nil
}

// Fetch returns up to size bytes of executable memory at addr for
// instruction decoding. Unlike Read it tolerates a short result at the end
// of the segment, since the decoder knows how many bytes it needs.
func (sp *Space) Fetch(addr uint64, size int) ([]byte, error) {
	seg, err := sp.ExecSegment(addr)
	if err != nil {
		f := err.(*Fault)
		f.Size = size
		return nil, err
	}
	off := addr - seg.Base
	end := off + uint64(size)
	if end > uint64(len(seg.Data)) {
		end = uint64(len(seg.Data))
	}
	return seg.Data[off:end], nil
}

// View returns a direct window over the private backing bytes containing
// addr: the byte slice plus the guest address of its first byte. Views are
// the compiled engine's memory fast path — reads and writes through the
// returned slice are equivalent to ReadU64/WriteU64 on addresses inside the
// window, with every slow-path responsibility proven away at acquisition:
//
//   - only readable+writable, non-executable segments qualify, so there are
//     no permission checks and no decode-generation bumps to perform;
//   - copy-on-write segments are refused, so no materialization can swap
//     the backing array out from under a live view (Clone, which re-marks
//     segments shared, bumps the epoch and thereby retires issued views);
//   - on a lazily materializing segment the window is the single filled
//     chunk containing addr, so unfilled shadow bytes stay unreachable.
//
// ok=false means addr has no qualifying window right now; callers fall back
// to the ordinary access paths (which also produce the faults).
func (sp *Space) View(addr uint64) (data []byte, base uint64, ok bool) {
	seg := sp.find(addr, 1)
	if seg == nil || seg.cow || seg.Perm&PermExec != 0 ||
		seg.Perm&(PermRead|PermWrite) != PermRead|PermWrite {
		return nil, 0, false
	}
	if seg.shadow != nil {
		off := addr - seg.Base
		seg.ensure(off, 1)
		lo := (int(off) / seg.chunk) * seg.chunk
		hi := lo + seg.chunk
		if hi > len(seg.Data) {
			hi = len(seg.Data)
		}
		return seg.Data[lo:hi:hi], seg.Base + uint64(lo), true
	}
	return seg.Data, seg.Base, true
}

// Clone returns a copy-on-write copy of the space — the memory half of the
// fork(2) model. The child gets an identical address space, including the
// TLS segment (precisely the inheritance the byte-by-byte attack exploits),
// but no bytes are copied up front: parent and child share each segment's
// backing array until one of them writes to it, at which point the writer
// materializes a private copy. A fork therefore costs O(segments written),
// not O(address-space size).
func (sp *Space) Clone() *Space {
	out := new(Space)
	sp.CloneInto(out)
	return out
}

// CloneInto is Clone into dst, a released space (or a new one): dst becomes
// the copy-on-write copy of sp, reusing its segment-header array and its
// segment slice when they are large enough. The fork server recycles its
// dead worker's space this way, so a steady-state fork allocates nothing.
// dst's epoch keeps counting, so views of its previous life stay retired.
func (sp *Space) CloneInto(dst *Space) {
	// Every parent segment flips to copy-on-write below, so any direct view
	// of this space is now writable shared memory: retire them all.
	sp.epoch++
	n := len(sp.segs)
	if cap(dst.hdrs) < n {
		dst.hdrs = make([]Segment, n)
	}
	if cap(dst.segs) < n {
		dst.segs = make([]*Segment, n)
	}
	dst.hdrs, dst.segs = dst.hdrs[:n], dst.segs[:n]
	dst.last = nil
	dst.pool = sp.pool
	dst.epoch++
	for i, s := range sp.segs {
		// A half-materialized segment finishes its lazy fill first: the new
		// sharing generation must start from one coherent backing array.
		s.ensureAll()
		s.cow = true
		dst.hdrs[i] = *s // shares Data, inherits cow=true and the generation
		dst.segs[i] = &dst.hdrs[i]
	}
}

// CloneDeep returns an eager deep copy of the space — the pre-COW fork
// behaviour. It exists for differential tests and benchmarks of the
// copy-on-write path; the kernel forks with Clone.
func (sp *Space) CloneDeep() *Space {
	out := &Space{segs: make([]*Segment, len(sp.segs))}
	for i, s := range sp.segs {
		s.ensureAll()
		d := make([]byte, len(s.Data))
		copy(d, s.Data)
		out.segs[i] = &Segment{Name: s.Name, Base: s.Base, Perm: s.Perm, Data: d, gen: s.gen}
	}
	return out
}

// Release returns the space's private non-executable buffers to its pool
// and renders the space unusable (subsequent accesses fault as unmapped). It
// is only safe on a dead space: no process may reference it again, and
// segments still copy-on-write shared with a live space are skipped, as are
// executable segments (decode caches key on their backing identity) and
// externally backed ones. Small buffers go back too — the pool hands them
// out only at their exact size — so the TLS block's copy-on-write copy is
// recycled with the stack. The space keeps its segment headers for a later
// CloneInto. The fork server releases each single-shot worker after its
// request, which makes the steady-state oracle loop allocation-free.
func (sp *Space) Release() {
	sp.epoch++
	for _, s := range sp.segs {
		if s.cow || s.ext || s.Perm&PermExec != 0 {
			continue
		}
		sp.pool.put(s.Data)
		s.Data = nil
		s.shadow = nil
	}
	// Drop every remaining reference (shared backings are the parent's)
	// before the arrays wait for their next CloneInto.
	clear(sp.hdrs)
	clear(sp.segs)
	sp.segs = sp.segs[:0]
	sp.last = nil
}

// ReleaseAll is Release for a space whose copy-on-write peers are all dead:
// segments still marked shared are reclaimed too. The caller asserts that no
// live space aliases this one's buffers — true for a parked fork-server
// parent whose single-shot children have all been released, which is how a
// closed server hands its stack and data buffers to the next boot on the
// same machine. Executable segments are still skipped (decode caches key on
// their backing identity), as are small segments the pool would not retain.
func (sp *Space) ReleaseAll() {
	sp.epoch++
	for _, s := range sp.segs {
		s.shadow = nil
		// Externally backed bytes (MapShared) belong to the artifact store's
		// mapping, not to this space: recycling them would hand read-only
		// mmap pages to the pool's clear().
		if s.ext || s.Perm&PermExec != 0 || len(s.Data) < cowLazyMin {
			continue
		}
		sp.pool.put(s.Data)
		s.Data = nil
	}
	sp.segs = nil
	sp.last = nil
}

// Footprint returns the total mapped bytes — used by the Table IV memory
// usage column. Copy-on-write sharing does not change the figure: a forked
// worker's footprint models its reserved address space, exactly as the
// paper measures it, so Table IV stays comparable across fork models.
func (sp *Space) Footprint() int {
	total := 0
	for _, s := range sp.segs {
		total += len(s.Data)
	}
	return total
}

// Canonical address-space layout constants shared by the loader and kernel.
const (
	// TextBase is where program code is mapped.
	TextBase uint64 = 0x0040_0000
	// DataBase is where initialized globals are mapped.
	DataBase uint64 = 0x0060_0000
	// HeapBase is where the bump-allocated heap is mapped.
	HeapBase uint64 = 0x0080_0000
	// TLSBase is the FS-segment base: thread-local storage. fs:0x28 holds
	// the classic SSP canary; fs:0x2a8.. holds the P-SSP shadow canary.
	TLSBase uint64 = 0x7f00_0000
	// TLSSize is the size of the TLS block.
	TLSSize = 0x1000
	// StackTop is the initial stack pointer; the stack grows down from here.
	StackTop uint64 = 0x7fff_0000
	// StackSize is the size of the stack mapping, ending at StackTop.
	StackSize = 0x40000
)
