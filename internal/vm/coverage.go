package vm

// Edge coverage for the fuzzing subsystem (internal/fuzz): an AFL-style
// fixed-size hit-count map the step loop folds prev-PC⊕PC edges into.
//
// Recording is off by default and costs the hot loop exactly one nil check
// when disabled — the dispatch path is otherwise unchanged, which the
// coverage tests assert by comparing instrumented and uninstrumented runs
// instruction for instruction. When enabled, each executed instruction
// records the branchless index (covPrev ^ RIP) & (CovMapSize-1) and then
// shifts RIP right by one into covPrev, so A→B and B→A land in different
// cells (the classic AFL trick). A cell's first hit also lists it, so the
// fuzzer's per-request reset and merge cost the cells a request touched
// rather than a 64 KiB pass.

// CovMapSize is the edge map size in bytes: exactly the uint16 range, so a
// uint16 is both the masked edge index and a touched-list entry.
const CovMapSize = 1 << 16

// CovMap is a fixed 64 KiB edge-coverage map: one saturating 8-bit hit
// counter per edge hash bucket, plus the list of buckets touched since the
// last Reset in first-touch order, so the per-exec reset and merge walk only
// the cells a run touched instead of the whole map. The zero value is ready
// to use. A CovMap is not safe for concurrent use; every fuzzing shard owns
// its own map, exactly like it owns its own machine.
type CovMap struct {
	hits [CovMapSize]byte
	// touched[:n] lists the buckets whose counter went from 0 to 1 since the
	// last Reset. Each bucket is listed at most once, so the list has room
	// for every bucket and cannot overflow; n is the number of non-zero
	// buckets.
	n       int
	touched [CovMapSize]uint16
}

// Bytes exposes the raw hit counters (aliased, not copied) for classifiers
// and merges. Index i is the bucket of all edges hashing to i. The slice is
// read-only by contract: writing it desynchronizes the touched list, so
// every write goes through Hit.
func (m *CovMap) Bytes() []byte { return m.hits[:] }

// Touched returns the buckets hit since the last Reset, in first-touch
// order. The slice aliases the map and is valid until the next Hit or Reset.
func (m *CovMap) Touched() []uint16 { return m.touched[:m.n] }

// Reset clears every counter — the per-request reset of the fork-server
// fuzzing loop. It zeroes only the touched buckets, no allocation.
func (m *CovMap) Reset() {
	for _, i := range m.touched[:m.n] {
		m.hits[i] = 0
	}
	m.n = 0
}

// Edges counts buckets with at least one hit.
func (m *CovMap) Edges() int { return m.n }

// Hit bumps bucket i's saturating counter, listing i on its first touch. It
// is the map's one write path.
func (m *CovMap) Hit(i uint16) {
	h := m.hits[i]
	if h == 0 {
		m.touched[m.n] = i
		m.n++
	} else if h == 0xff {
		return
	}
	m.hits[i] = h + 1
}

// record folds the edge into the map: with CovMapSize == 1<<16, the uint16
// conversion is the (prev ^ pc) & (CovMapSize-1) mask. Step and the
// compiled tier call it only behind their cov != nil check.
func (m *CovMap) record(prev, pc uint64) { m.Hit(uint16(prev ^ pc)) }

// SetCoverage installs an edge-coverage map on the CPU (nil disables
// recording, the default). The previous-location state is reset, so the
// first recorded edge is (0 → RIP). Fork copies the CPU struct wholesale,
// which shares the installed map pointer with every child — the property the
// fork-server fuzzing loop builds on: install once on the parked parent,
// and each forked worker records into the same map.
func (c *CPU) SetCoverage(m *CovMap) {
	c.cov = m
	c.covPrev = 0
}

// Coverage returns the installed edge map (nil when recording is disabled).
func (c *CPU) Coverage() *CovMap { return c.cov }
